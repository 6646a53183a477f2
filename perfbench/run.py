"""Benchmark of the mobiusflat command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload {verify,rigidity,invariants,all} \
        --seed N --seconds S --trace {0,1}

Each iteration drives ``mobiusflat.cli.main`` in a fresh interpreter
(``perfbench/child.py``) with ``PYTHONPATH=src`` and single-threaded BLAS.
The loop is closed, with one client: the next iteration starts when the last
one has ended, and iterations continue while another fits in ``--seconds``
(at least two, so that reports can be compared across iterations).  Every
output is checked; see README.md for the workloads, metrics and gates.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
each iteration is an untraced run followed by a traced one, and the
per-layer metrics come from the traced run with the median wall time.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every correctness gate holds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402

MIN_ITERATIONS = 2
SETUP_PROBES = 4  # set-up-only processes before and again after the iterations
CHILD_TIMEOUT_S = 120  # several times a slow iteration, inside the 180 s a run may take
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The default horizon of 200 takes 36-50 s per iteration on a 2-core box,
# more than a run can afford; 40 keeps the grid, the step and the tolerances
# and still follows every perturbed row through more than three periods.
RIGIDITY_HORIZON = 40
FAMILIES = ("rotational", "cylinder", "cone", "torus")

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
# Printed beside the end-to-end metrics; not in BENCHMARK.json because they
# are zero on a correct commit, exist on one workload only, or move with the seed.
ACCURACY_UNITS = {
    "fail_ratio": "ratio",
    "worst_margin": "ratio",
    "period_err": "1",
    "scalar_err": "1",
    "two_route_spread": "1",
}


class Outcome:
    """Items attempted and failed by one or more iterations, plus findings."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.accuracy: dict[str, float] = {}
        self.digest: str | None = None

    def count(self, attempted: int, failed: int, problem: str | None = None) -> None:
        self.attempted += attempted
        self.failed += failed
        if problem:
            self.problems.append(problem)

    def worst(self, name: str, value: float) -> None:
        self.accuracy[name] = max(self.accuracy.get(name, value), value)

    def merge(self, other: "Outcome") -> None:
        self.count(other.attempted, other.failed)
        self.problems += other.problems
        for name, value in other.accuracy.items():
            self.worst(name, value)


# ---------------------------------------------------------------------------
# workloads: configs, commands and correctness gates


def settings(name: str, overrides: dict) -> dict[str, dict]:
    """Config files of one workload: file stem -> key = value settings."""
    if name == "verify":
        return {"verify": dict(overrides)}
    if name == "rigidity":
        return {"rigidity": {"horizon": RIGIDITY_HORIZON, **overrides}}
    return {f: {"family": f, "samples": 20, **overrides} for f in FAMILIES}


def write_configs(work: Path, cfg: dict[str, dict]) -> dict[str, str]:
    """Writes one ``key = value`` file per stem; returns stem -> path."""
    paths = {}
    for stem, values in cfg.items():
        path = work / f"{stem}.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        paths[stem] = str(path)
    return paths


def commands(name: str, cfg_paths: dict[str, str], out: Path, seed: int) -> list[list[str]]:
    tail = ["--seed", str(seed)]
    if name in ("verify", "rigidity"):
        return [[name, "--config", cfg_paths[name], "--out", str(out)] + tail]
    cmds = []
    for fam in FAMILIES:
        for cmd in ("build", "invariants"):
            cmds.append([cmd, "--config", cfg_paths[fam], "--out", str(out / fam)] + tail)
    return cmds


def items(name: str, cfg: dict[str, dict]) -> int:
    """Work items one iteration attempts."""
    if name == "verify":
        checks = cfg["verify"].get("checks", "all")
        return len(tracer.CHECK_NAMES) if checks == "all" else len(checks.split(","))
    if name == "rigidity":
        return 1 + cfg["rigidity"].get("grid_size", 5) ** 2 + 2
    return sum(c["samples"] for c in cfg.values())


def gate_verify(cfg: dict, out: Path, codes: list[int]) -> Outcome:
    """Every record passed without error; the report bytes are kept for comparison."""
    res = Outcome()
    expected = items("verify", cfg)
    try:
        raw = (out / "report.json").read_bytes()
        records = json.loads(raw)["checks"]
    except (OSError, ValueError, KeyError) as exc:
        res.count(expected, expected, f"verify: no readable report ({exc})")
        return res
    res.digest = hashlib.sha256(raw).hexdigest()
    bad = [r["name"] for r in records if not r["passed"] or r["error"]]
    missing = expected - len(records)
    res.count(expected, len(bad) + max(missing, 0))
    if bad or missing:
        res.problems.append(f"verify: failed {bad}, {missing} missing")
    if codes != [0]:
        res.problems.append(f"verify: exit code {codes}")
    margins = [
        r["max_residual"] / r["tolerance"]
        for r in records
        if r["kind"] == "assert" and math.isfinite(r["tolerance"])
    ]
    res.worst("worst_margin", max(margins, default=math.nan))
    return res


def gate_rigidity(cfg: dict, out: Path, codes: list[int]) -> Outcome:
    """The equilibrium closes with the expected period; every other row is open."""
    res = Outcome()
    expected = items("rigidity", cfg)
    c = cfg["rigidity"]
    n, big_r = c.get("n", 4), c.get("R", 0.75)
    # standard variant, epsilon = -1: kappa*^2 = (n - 2) / (2 R)
    period = 2.0 * math.pi / math.sqrt((n - 2) / (2.0 * big_r) - 1.0)
    try:
        result = json.loads((out / "rigidity.json").read_text())
        eq = result["equilibrium"]
        rows = [eq["status"] == "closed"]
        rows += [r["status"] == "open" for r in result["grid"] + result["flat_control"]]
        period_err = abs((eq["period"] or math.nan) - period)
        status, closures = result["status"], result["grid_closures"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        res.count(expected, expected, f"rigidity: no readable result ({exc})")
        return res
    if not period_err < 1e-6:
        rows[0] = False
    wrong = rows.count(False) + max(expected - len(rows), 0)
    res.count(expected, wrong)
    res.worst("period_err", period_err)
    if wrong or status != "pass" or closures != 0 or codes != [0]:
        res.problems.append(
            f"rigidity: status {status}, {wrong} unexpected verdicts, "
            f"grid closures {closures}, period error {period_err:.3e}, "
            f"exit codes {codes}"
        )
    return res


def _build_ok(path: Path, family: str, res: int) -> bool:
    """The OBJ slice and its descriptor hold the whole res x res grid.

    Vertex coordinates are not parsed: under numpy 2 they are written as
    ``np.float64(...)`` (see README.md, known defects).
    """
    try:
        desc = json.loads((path / f"{family}.json").read_text())
        lines = (path / f"{family}.obj").read_text().splitlines()
    except (OSError, ValueError):
        return False
    verts = sum(1 for ln in lines if ln.startswith("v "))
    faces = sum(1 for ln in lines if ln.startswith("f "))
    return verts == desc["vertices"] == res * res and faces == desc["faces"] == (res - 1) ** 2


def _read_table(path: Path) -> list[dict[str, float]] | None:
    """Rows of invariants.csv (one comment line, then a header) as dicts."""
    try:
        lines = path.read_text().splitlines()
        header = lines[1].split(",")
        rows = [[float(v) for v in ln.split(",")] for ln in lines[2:]]
    except (OSError, IndexError, ValueError):
        return None
    if any(len(row) != len(header) for row in rows) or "trace_B" not in header:
        return None
    return [dict(zip(header, row)) for row in rows]


def gate_invariants(cfg: dict, out: Path, codes: list[int]) -> Outcome:
    """Every row finite with |trace_B| < tol_trace; the OBJ slice is complete."""
    res = Outcome()
    for i, fam in enumerate(FAMILIES):
        c = cfg[fam]
        samples, n = c["samples"], c.get("n", 4)
        if codes[2 * i : 2 * i + 2] != [0, 0] or not _build_ok(
            out / fam, fam, c.get("slice_res", 24)
        ):
            res.count(samples, samples, f"invariants: {fam} build or run failed")
            continue
        table = _read_table(out / fam / "invariants.csv")
        if table is None:
            res.count(samples, samples, f"invariants: {fam} table unreadable")
            continue
        if fam == "torus":
            r = c.get("torus_r", 0.5)
            exact = (n - 1) * (n - 2) * (1.0 - r * r)
        else:
            exact = 2.0 * (n - 1) * c.get("R", 0.75)
        tol = c.get("tol_trace", 1e-8)
        bad = sum(
            1
            for row in table
            if not all(math.isfinite(v) for v in row.values()) or not abs(row["trace_B"]) < tol
        )
        bad += max(samples - len(table), 0)
        res.count(samples, bad, f"invariants: {fam} has {bad} bad rows" if bad else None)
        for row in table:
            res.worst("scalar_err", abs(row["scalar_direct"] - exact))
            res.worst("two_route_spread", abs(row["scalar_direct"] - row["scalar_conformal"]))
    return res


GATES = {"verify": gate_verify, "rigidity": gate_rigidity, "invariants": gate_invariants}


# ---------------------------------------------------------------------------
# processes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(work: Path, tag: str, cfg_paths: list[str], cmds: list, trace: bool) -> dict:
    """One fresh interpreter; returns its result, or raises RuntimeError."""
    spec_path, result_path, log_path = (work / f"{tag}.{ext}" for ext in ("spec", "json", "log"))
    spec = {"configs": cfg_paths, "commands": cmds, "trace": trace, "result": str(result_path)}
    spec_path.write_text(json.dumps(spec))
    with open(log_path, "w") as log:
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(spec_path), repr(spawned)],
            env=child_env(),
            stdout=log,
            stderr=subprocess.STDOUT,
            timeout=CHILD_TIMEOUT_S,
            check=False,
        )
    if proc.returncode != 0 or not result_path.exists():
        tail = log_path.read_text()[-2000:]
        raise RuntimeError(f"child {tag} exited with {proc.returncode}:\n{tail}")
    return json.loads(result_path.read_text())


def environment() -> str:
    commit = ""
    if (ROOT / ".git").exists():  # an exported source tree has no .git
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
                check=False,
            ).stdout.strip()
        except OSError:
            pass
    return (
        f"host={platform.node()} nproc={os.cpu_count()} python={platform.python_version()} "
        f"commit={commit or 'unknown'}"
    )


# ---------------------------------------------------------------------------
# one run of one workload


def run_workload(name: str, seed: int, seconds: float, trace: bool, overrides=None):
    """Returns (Outcome, metrics {name: (value, unit)}, report lines)."""
    cfg = settings(name, (overrides or {}).get(name, {}))
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=ROOT / ".perfbench_work"))
    try:
        cfg_paths = write_configs(work, cfg)
        configs = list(cfg_paths.values())
        outcome = Outcome()
        digests = []
        plain, traced = [], []  # child results without and with tracing
        start = time.monotonic()
        probes = []

        def probe_setup():
            for _ in range(0 if trace else SETUP_PROBES):
                res = run_child(work, f"probe{len(probes)}", configs, [], False)
                probes.append(res["setup_s"])

        probe_setup()
        last = 0.0
        while (
            len(plain) + len(traced) < MIN_ITERATIONS
            or time.monotonic() - start + last <= seconds
        ):
            began = time.monotonic()
            for tracing in (False, True) if trace else (False,):
                tag = f"it{len(plain) + len(traced)}"
                out = work / tag
                res = run_child(work, tag, configs, commands(name, cfg_paths, out, seed), tracing)
                check = GATES[name](cfg, out, res["exit_codes"])
                outcome.merge(check)
                if check.digest:
                    digests.append(check.digest)
                shutil.rmtree(out, ignore_errors=True)
                (traced if tracing else plain).append(res)
            last = time.monotonic() - began
        probe_setup()
        if len(set(digests)) > 1:
            outcome.count(0, items(name, cfg) * (len(digests) - digests.count(digests[0])))
            outcome.problems.append("verify: report.json differs between iterations")
        numpy_version = plain[0]["numpy"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    per_item = items(name, cfg)
    lines = [
        f"# workload={name} seed={seed} seconds={seconds} trace={int(trace)} "
        f"iterations={len(plain) + len(traced)} items_per_iteration={per_item}",
        f"# {environment()} numpy={numpy_version} "
        + " ".join(f"{v}=1" for v in THREAD_VARS),
    ]
    if trace:
        traced.sort(key=lambda r: r["wall_s"])
        chosen = traced[(len(traced) - 1) // 2]
        metrics = tracer.summarize(chosen["spans"], chosen["wall_s"])
        untraced = statistics.median(r["wall_s"] for r in plain)
        metrics["trace.untraced_wall_s"] = untraced
        metrics["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - untraced
        gap = metrics["trace.span_self_s"] + metrics["trace.outside_s"] - metrics["trace.wall_s"]
        if abs(gap) > 1e-6 * metrics["trace.wall_s"]:
            outcome.problems.append(f"trace: self times and outside time miss the wall by {gap}")
        units = tracer.metric_units()
        metrics = {k: (metrics[k], units[k]) for k in units}
        lines.append("# per-layer metrics from the traced iteration with the median wall time")
    else:
        walls = [r["wall_s"] for r in plain]
        setups = probes + [r["setup_s"] for r in plain]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "items_per_s": statistics.median(per_item / w for w in walls),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        metrics = {k: (v, E2E_UNITS[k]) for k, v in values.items()}
        lines.append(
            f"# medians of {len(setups)} set-ups and {len(walls)} iterations; "
            f"wall_s per iteration: {', '.join(f'{w:.4f}' for w in walls)}"
        )
    fail_ratio = outcome.failed / outcome.attempted
    report = {"fail_ratio": fail_ratio, **outcome.accuracy}
    for key, (value, unit) in metrics.items():
        lines.append(f"{key} = {value!r} {unit}")
    for key, value in report.items():
        lines.append(f"{key} = {value!r} {ACCURACY_UNITS[key]}")
    lines += [f"# GATE FAILED: {p}" for p in outcome.problems]
    return outcome, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*GATES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mobiusflat" / "cli.py").is_file():
        print(f"error: no mobiusflat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    names = list(GATES) if args.workload == "all" else [args.workload]
    total = Outcome()
    metrics = {}
    for name in names:
        try:
            outcome, values, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        total.merge(outcome)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in values.items()})
    correct = not total.problems and total.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": total.attempted,
                "failed": total.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
