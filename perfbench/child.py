"""One benchmark iteration in a fresh interpreter.

Usage: python3 child.py SPEC.json SPAWNED

SPAWNED is the parent's ``time.monotonic()`` just before it started this
process; the clock is system-wide.  SPEC holds ``configs`` (config files to load and validate during
set-up), ``commands`` (argument lists for ``mobiusflat.cli.main``, run in
order; empty for a set-up-only probe), ``trace`` and ``result`` (where to
write the JSON result).  Set-up ends once the package is imported and every
config is loaded; the command time starts after it.
"""

import json
import resource
import sys
import time

import numpy as np

from mobiusflat import cli
from mobiusflat.config import load_config


def main(spec_path: str, spawned: float) -> None:
    with open(spec_path) as fh:
        spec = json.load(fh)
    for path in spec["configs"]:
        load_config(path)
    setup_s = time.monotonic() - spawned
    result = {"setup_s": setup_s, "numpy": np.__version__}
    if spec["commands"]:
        tracer = None
        if spec["trace"]:
            from tracer import Tracer  # next to this script, so on sys.path

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        codes = [cli.main(argv) for argv in spec["commands"]]
        result["wall_s"] = time.perf_counter() - start
        result["exit_codes"] = codes
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["spans"] = tracer.dump()
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
