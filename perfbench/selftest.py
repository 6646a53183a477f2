"""Fast self-test of the benchmark at tiny sizes.

Usage (from the repository root): python3 perfbench/selftest.py

Each workload runs untraced and traced with two checks, a short rigidity
horizon on a 2 x 2 grid, and two samples per family.  The test asserts that
every metric BENCHMARK.json names is printed with its unit, that the gates
hold on real outputs, and that a deliberately corrupted output of each
workload trips its gate.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

TINY = {
    "verify": {"checks": "trace_identities,fd_convergence", "samples": 2},
    "rigidity": {"horizon": 2, "grid_size": 2},
    "invariants": {"samples": 2},
}


def corrupt_verify(out: Path) -> None:
    report = json.loads((out / "report.json").read_text())
    report["checks"][0]["passed"] = False
    (out / "report.json").write_text(json.dumps(report))


def corrupt_rigidity(out: Path) -> None:
    result = json.loads((out / "rigidity.json").read_text())
    result["grid"][0]["status"] = "closed"
    result["equilibrium"]["period"] += 1e-3
    (out / "rigidity.json").write_text(json.dumps(result))


def corrupt_invariants(out: Path) -> None:
    path = out / "torus" / "invariants.csv"
    lines = path.read_text().splitlines()
    col = lines[1].split(",").index("trace_B")
    row = lines[2].split(",")
    row[col] = "1e-3"
    lines[2] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")


CORRUPT = {"verify": corrupt_verify, "rigidity": corrupt_rigidity, "invariants": corrupt_invariants}


def check_printed(name: str, trace: bool, expected: dict[str, str]) -> None:
    outcome, metrics, lines = run.run_workload(name, 0, 0, trace, TINY)
    assert not outcome.problems and outcome.failed == 0, (name, trace, outcome.problems)
    printed = {}
    for line in lines:
        if not line.startswith("#"):
            key, _, rest = line.partition(" = ")
            value, unit = rest.rsplit(" ", 1)
            printed[key] = (float(value), unit)
    for key, unit in expected.items():
        assert printed.get(key, (None, None))[1] == unit, (name, key, unit, printed.get(key))
        assert metrics[key][1] == unit, (name, key)
    assert set(metrics) == set(expected), (name, set(metrics) ^ set(expected))
    assert "fail_ratio" in printed and printed["fail_ratio"][0] == 0.0, name
    print(f"ok   {name} trace={int(trace)}: {len(metrics)} metrics printed with units")


def check_gate_trips(name: str) -> None:
    cfg = run.settings(name, TINY[name])
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.ROOT / ".perfbench_work"))
    try:
        paths = run.write_configs(work, cfg)
        out = work / "out"
        res = run.run_child(work, "it", list(paths.values()), run.commands(name, paths, out, 0), False)
        clean = run.GATES[name](cfg, out, res["exit_codes"])
        assert clean.failed == 0 and not clean.problems, (name, clean.problems)
        CORRUPT[name](out)
        bad = run.GATES[name](cfg, out, res["exit_codes"])
        assert bad.failed > 0 and bad.problems, (name, bad.failed, bad.problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"ok   {name}: corrupted output trips the gate ({bad.failed} failed)")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} <= set(run.GATES)
    (run.ROOT / ".perfbench_work").mkdir(exist_ok=True)
    for name in run.GATES:
        check_printed(name, False, e2e)
        check_printed(name, True, per_layer)
        check_gate_trips(name)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
