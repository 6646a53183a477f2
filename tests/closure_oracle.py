"""The one-row closure search that ``spiral.closure_tests`` replaced.

Kept as the test oracle of the batched search.  The candidates are scanned
as they stood, each image M**k of a period-mapped row's samples moved by its
own ``PeriodMap.powers`` call, and the least candidate's bracket is refined
by its own 33-point scans, each probe read on the row's step polynomials by
``Piecewise.at`` and moved by the holonomy power of its turn, one turn at a
time.  The defect and the verdict are the module's, so the oracle checks the
search and not the distance.
"""

import numpy as np

from mobiusflat.spiral import _closure_verdict, _defects, _moebius, _start


def full_defect(traj, y):
    """The defect of the states y (..., 2 + curve_dim) against the row's start."""
    return _defects(traj.model, y, _start(traj))


def candidates(traj):
    """(s, states) the search minimizes over: the stored samples, or for a row
    with a period map the images under M**k of its samples u < T up to the horizon."""
    states = np.column_stack([traj.kappa, traj.kappa_s, traj.curve])
    pmap = traj.period_map
    if pmap is None:
        return traj.s, states
    u, one = traj.s[:-1], states[:-1]
    horizon = traj.controls.s_max
    s, parts = [u], [one]
    for k in range(1, int(horizon // pmap.period) + 1):
        keep = k * pmap.period + u <= horizon
        moved = _moebius(one[keep, 2:], pmap.powers([k])[0])
        s.append((k * pmap.period + u)[keep])
        parts.append(np.column_stack([one[keep, :2], moved]))
    return np.concatenate(s), np.concatenate(parts)


def flow_at(traj, s):
    """(kappa, kappa_s, *curve) at arc lengths s, the state at s = k T + u being
    the state at u with its curve moved by M**k."""
    pmap = traj.period_map
    if pmap is None:
        return traj.steps.at(s)[0]
    turns = np.floor(s / pmap.period)
    out = traj.steps.at(s - turns * pmap.period)[0]
    for k in set(turns.tolist()) - {0.0}:
        rows = turns == k
        out[rows, 2:] = _moebius(out[rows, 2:], pmap.powers([int(k)])[0])
    return out


def closure_test(traj):
    """The least defect from s = min(1, s_last / 4) on, s_last the last candidate's,
    refined between the neighbouring candidates in that window by 33-point
    scans until the bracket is below 1e-11."""
    cand_s, cand = candidates(traj)
    first = int(np.searchsorted(cand_s, min(1.0, 0.25 * float(cand_s[-1]))))
    defects = full_defect(traj, cand[first:])
    k = first + int(np.argmin(defects))
    a, b = float(cand_s[max(k - 1, first)]), float(cand_s[min(k + 1, cand_s.size - 1)])
    best, best_s = float(defects[k - first]), float(cand_s[k])
    for _ in range(16):
        if b - a < 1e-11:
            break
        probes = np.linspace(a, b, 33)
        vals = full_defect(traj, flow_at(traj, probes))
        j = int(np.argmin(vals))
        if vals[j] < best:
            best, best_s = float(vals[j]), float(probes[j])
        a, b = float(probes[max(j - 1, 0)]), float(probes[min(j + 1, probes.size - 1)])
    return _closure_verdict(traj, best, best_s)
