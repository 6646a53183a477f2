#!/usr/bin/env python3
"""Assert margins of the verification suite over 64 runs, and their drift against another tree.

Usage (from the repository root):

    python3 tools/margins.py [--against PATH]

Runs ``checks.run_suite`` at seeds 0-7, n = 4-7 and samples 20 and 8, and
prints, for each assert, its worst residual over its tolerance (for
``fd_convergence``, whose pass condition is a convergence ratio of at least
2, 2 / ratio) and the run (seed, n, samples) where it fell, and whether
every assert passed on every run.  With ``--against PATH``, the root of another checkout of the project,
the same 64 runs are made there too, and for each check the largest
absolute change of a float of its report record between the two trees is
printed, with the run where it fell and the number of floats that changed;
and ``checks.rigidity_scan`` is run in both trees at n = 4-6, at the default
config and at horizon 40, and the floats of its results that changed are
counted, with the largest change and the values found in one tree only.

It also prints the margins of ``checks.rigidity_scan`` at the default config
for n = 4-6, from this tree: each flat-control row's TOL_OPEN / defect_bound,
the grid's TOL_OPEN / least min_defect (both below 1 when open) and the
equilibrium's defect / TOL_CLOSED (below 1 when closed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = [(seed, n, samples) for samples in (20, 8) for n in range(4, 8) for seed in range(8)]
# the rigidity scans compared between two trees: (n, horizon), None for the default
SCANS = [(n, horizon) for n in range(4, 7) for horizon in (None, 40.0)]


def emit() -> None:
    """Print the reports of the 64 runs and the rigidity scans, as one JSON object,
    from the tree on the path."""
    from mobiusflat.checks import rigidity_scan, run_suite
    from mobiusflat.config import RunConfig

    reports = []
    for seed, n, samples in RUNS:
        report = run_suite(RunConfig(seed=seed, n=n, samples=samples).validate())
        reports.append(json.loads(report.to_json()))
    scans = []
    for n, horizon in SCANS:
        cfg = RunConfig(n=n) if horizon is None else RunConfig(n=n, horizon=horizon)
        scans.append(rigidity_scan(cfg.validate()))
    json.dump({"suite": reports, "rigidity": scans}, sys.stdout)


def reports(roots: list[Path]) -> list[dict]:
    """The 64 reports and the rigidity scans of each tree, the trees side by side,
    each in its own interpreter."""
    procs = [
        subprocess.Popen(
            [sys.executable, __file__, "--emit"],
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            stdout=subprocess.PIPE,
            text=True,
        )
        for root in roots
    ]
    outs = [proc.communicate()[0] for proc in procs]
    for root, proc in zip(roots, procs):
        if proc.returncode != 0:
            sys.exit(f"the runs in {root} failed (exit code {proc.returncode})")
    return [json.loads(out) for out in outs]


def leaves(node, path=""):
    """(path, value) of every value under a JSON node that is not a dict or a list."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, f"{path}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaves(value, f"{path}[{i}]")
    else:
        yield path, node


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def floats(node):
    """(path, value) of every number under a JSON node; booleans are not numbers."""
    return ((path, float(value)) for path, value in leaves(node) if is_number(value))


def records(report: dict) -> dict[str, dict]:
    return {rec["name"]: rec for rec in report["checks"]}


def margin(rec: dict) -> float:
    """How close an assert record came to failing: 1 is the pass limit.

    Its worst residual over its tolerance; for fd_convergence, whose
    tolerance is inf and whose pass condition is ratio >= 2, 2 / ratio.
    """
    if rec["name"] == "fd_convergence":
        ratio = rec["details"].get("ratio", math.nan)
        return 2.0 / ratio if ratio else math.inf
    return rec["max_residual"] / rec["tolerance"]


def margins(reports: list[dict]) -> None:
    worst: dict[str, tuple[float, tuple]] = {}
    failed = []
    for run, report in zip(RUNS, reports):
        for name, rec in records(report).items():
            if rec["kind"] != "assert":
                continue
            if not rec["passed"]:
                failed.append((name, run))
            ratio = margin(rec)
            if name not in worst or not ratio <= worst[name][0]:  # a NaN ratio is the worst
                worst[name] = (ratio, run)
    print(
        f"assert margins over {len(RUNS)} runs (worst residual / tolerance,"
        " fd_convergence 2 / ratio, at seed, n, samples)"
    )
    for name, (ratio, run) in worst.items():
        print(f"  {name:28s} {ratio:10.3e}  at {run}")
    overall = max(worst.items(), key=lambda item: item[1][0])
    print(f"  worst: {overall[0]} {overall[1][0]:.3e} at {overall[1][1]}")
    print("every assert passed on every run" if not failed else f"FAILED: {failed}")


def rigidity_margins() -> None:
    """How far the default rigidity scan's verdicts sit from their thresholds, at n = 4-6."""
    sys.path.insert(0, str(ROOT / "src"))
    from mobiusflat.checks import rigidity_scan
    from mobiusflat.config import RunConfig
    from mobiusflat.spiral import TOL_CLOSED, TOL_OPEN

    def open_margin(defect: float) -> float:
        return TOL_OPEN / defect if defect > 0.0 else math.inf

    print(
        "rigidity margins at the default config (flat rows TOL_OPEN / defect_bound,"
        " grid TOL_OPEN / least min_defect, equilibrium defect / TOL_CLOSED)"
    )
    for n in range(4, 7):
        result = rigidity_scan(RunConfig(n=n).validate())
        flat = " ".join(f"{open_margin(r['defect_bound']):10.3e}" for r in result["flat_control"])
        grid = open_margin(min(row["min_defect"] for row in result["grid"]))
        closed = result["equilibrium"]["defect"] / TOL_CLOSED
        print(f"  n = {n}  flat {flat}  grid {grid:10.3e}  equilibrium {closed:10.3e}")


def drift(ours: list[dict], theirs: list[dict]) -> None:
    largest: dict[str, tuple[float, tuple]] = {}
    moved: dict[str, int] = {}
    unmatched = []
    for run, mine, other in zip(RUNS, ours, theirs):
        a, b = records(mine), records(other)
        unmatched += [(name, run) for name in a.keys() ^ b.keys()]
        for name in a.keys() & b.keys():
            va, vb = dict(floats(a[name])), dict(floats(b[name]))
            unmatched += [(name + path, run) for path in va.keys() ^ vb.keys()]
            for path in va.keys() & vb.keys():
                x, y = va[path], vb[path]
                if x == y or (math.isnan(x) and math.isnan(y)):
                    continue
                change = abs(x - y)
                moved[name] = moved.get(name, 0) + 1
                if name not in largest or not change <= largest[name][0]:
                    largest[name] = (change, run)
    print(
        f"drift against the other tree over {len(RUNS)} runs"
        " (largest |change| and its run, floats changed)"
    )
    for name in records(ours[0]):
        if name in largest:
            change, run = largest[name]
            print(f"  {name:28s} {change:10.3e} at {run}  {moved[name]:6d} floats")
        else:
            print(f"  {name:28s} {'identical':>10s}")
    print(f"  floats changed: {sum(moved.values())}")
    if unmatched:
        print(f"  values in one tree only: {len(unmatched)}, first {unmatched[:5]}")


def rigidity_drift(ours: list[dict], theirs: list[dict]) -> None:
    """The floats of the rigidity scans that changed between the trees, and the largest change."""
    moved, largest, unmatched, other = 0, (0.0, None), [], []
    for scan, mine, their in zip(SCANS, ours, theirs):
        va, vb = dict(leaves(mine)), dict(leaves(their))
        unmatched += [(scan, path) for path in sorted(va.keys() ^ vb.keys())]
        for path in va.keys() & vb.keys():
            x, y = va[path], vb[path]
            if not (is_number(x) and is_number(y)):
                other += [(scan, path)] if x != y else []
            elif x != y and not (math.isnan(x) and math.isnan(y)):
                moved += 1
                if not abs(x - y) <= largest[0]:
                    largest = (abs(x - y), (scan, path))
    print(
        f"rigidity drift against the other tree over {len(SCANS)} scans"
        " ((n, horizon), None the default)"
    )
    print(f"  floats changed: {moved}")
    if moved:
        print(f"  largest change: {largest[0]:.3e} at {largest[1]}")
    if other:
        print(f"  other values changed: {len(other)}, first {other[:5]}")
    if unmatched:
        print(f"  values in one tree only: {len(unmatched)}, first {unmatched[:5]}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, help="root of another checkout to compare with")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.emit:
        emit()
        return
    trees = reports([ROOT] + ([args.against.resolve()] if args.against else []))
    margins(trees[0]["suite"])
    rigidity_margins()
    if args.against:
        drift(*(tree["suite"] for tree in trees))
        rigidity_drift(*(tree["rigidity"] for tree in trees))


if __name__ == "__main__":
    main()
