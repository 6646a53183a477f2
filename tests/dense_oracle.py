"""The per-step dense output that ``taylor.Piecewise.at`` replaced.

Kept as the test oracle of the gathered evaluator.  The points are grouped
by the step that covers them (a point before the first step on the first),
and each step's points are read _CHUNK at a time by one product of their
powers with that step's own coefficients, ``steps.coefs[i]``, a loop over
the steps in Python.
"""

import numpy as np

from mobiusflat.taylor import _CHUNK, _DEGREES, TAYLOR_ORDER, powers


def at(steps, t, order=0, columns=slice(None), out=None):
    """steps.at(t, order, columns, out), one step at a time."""
    t = np.asarray(t, dtype=float).reshape(-1)
    if out is None:
        out = np.empty((order + 1, t.size, steps.coefs[0][:, columns].shape[1]))
    step = np.searchsorted(steps.starts, t, side="right") - 1
    np.maximum(step, 0, out=step)
    # the points of step i are t[perm[bounds[i]:bounds[i + 1]]]
    perm = np.argsort(step, kind="stable")
    bounds = np.searchsorted(step[perm], np.arange(len(steps.starts) + 1))
    for i in np.flatnonzero(np.diff(bounds)).tolist():
        coefs = steps.coefs[i][:, columns]
        for a in range(bounds[i], bounds[i + 1], _CHUNK):
            rows = perm[a : min(a + _CHUNK, bounds[i + 1])]
            pows = powers(t[rows] - steps.starts[i])
            out[0, rows] = np.einsum("ij,jk->ik", pows, coefs)
            if order:  # d^j/dt^j t^i = i d^(j-1)/dt^(j-1) t^(i-1), row j - 1
                ders = np.zeros((order, rows.size, TAYLOR_ORDER + 1))
                prev = pows
                for j in range(order):
                    ders[j, :, j + 1 :] = prev[:, j:-1] * _DEGREES[j + 1 :]
                    prev = ders[j]
                out[1:, rows] = np.einsum("oij,jk->oik", ders, coefs)
    return out


def samples(traj):
    """(len(s), d): traj's samples by the per-step evaluator, its end state last."""
    ys = at(traj.steps, traj.s[:-1], out=np.empty((1, traj.s.size, traj.end.size)))[0]
    ys[-1] = traj.end
    return ys
