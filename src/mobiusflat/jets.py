"""Truncated multivariate Taylor jets of tensor fields, batched over points.

A ``Jet`` holds the partial derivatives of a tensor field over an m-chart to
a fixed order at K points.  Level k has shape (K, m, ..., m, *shape), with k
derivative axes: the full symmetric tensor of the k-th partials.  A level
that is identically zero is None.  The arithmetic is that of truncated
Taylor series (Griewank and Walther, Evaluating Derivatives, 2nd ed., ch. 13):

* a bilinear product, given as an einsum over the shape axes, by Leibniz's
  rule (``contract``);
* a function of one variable, by its Taylor series in the part of the
  argument without value (``compose``), which is nilpotent at the jet's
  order;
* the inverse of a matrix, by the Neumann series in the same part
  (``inverse``).

Every operation acts point by point and ``contract`` leaves its levels
C-ordered, so a jet at K points equals K one-point jets bit for bit (einsum's
loops follow the memory layout of their operands, and one layout keeps a
point's arithmetic independent of the set it is in).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import factorial

import numpy as np

_DERIV = "ABCDEFGH"  # derivative axes in the einsum specs; shape axes are lowercase


class Jet:
    """Value and partial derivatives to a fixed order of a tensor field at K points."""

    __slots__ = ("levels",)

    def __init__(self, levels):
        self.levels = list(levels)

    @classmethod
    def constant(cls, value, order: int) -> "Jet":
        return cls([np.asarray(value, dtype=float)] + [None] * order)

    @property
    def order(self) -> int:
        return len(self.levels) - 1

    @property
    def value(self) -> np.ndarray:
        return self.levels[0]

    def linear(self, fn) -> "Jet":
        """fn applied to every level; fn must be linear and act on the trailing shape axes."""
        return Jet([None if a is None else fn(a) for a in self.levels])

    def __add__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            other = Jet.constant(other, self.order)
        return Jet([_plus(a, b) for a, b in zip(self.levels, other.levels)])

    def __neg__(self) -> "Jet":
        return self.linear(np.negative)

    def __sub__(self, other) -> "Jet":
        return self + (-other if isinstance(other, Jet) else -np.asarray(other))

    def __mul__(self, c: float) -> "Jet":
        return self.linear(lambda a: c * a)

    __rmul__ = __mul__


def _plus(a, b):
    if a is None:
        return b
    return a if b is None else a + b


def _with_derivative_axes(value: np.ndarray, k: int) -> np.ndarray:
    """value (K, *shape) with k unit axes after the first, to broadcast over a level k."""
    return value.reshape(value.shape[:1] + (1,) * k + value.shape[1:])


@lru_cache(maxsize=None)
def _leibniz_terms(spec: str, k: int, j: int) -> tuple[str, tuple]:
    """The einsum of the terms of Leibniz's rule at level k with j derivatives on x,
    and the transposes that take it to each term, one per j-subset S of the k
    derivative axes (None for the identity).

    The einsum puts x's derivative axes first: T[A_S, A_rest]; the term of S
    is T with its derivative axes moved back to their places.
    """
    ins, out = spec.split("->")
    xs, ys = ins.split(",")
    einsum = f"Z{_DERIV[:j]}{xs},Z{_DERIV[j:k]}{ys}->Z{_DERIV[:k]}{out}"
    tail = tuple(range(k + 1, k + 1 + len(out)))
    perms = []
    for subset in combinations(range(k), j):
        order = list(subset) + [a for a in range(k) if a not in subset]
        perm = (0,) + tuple(int(a) + 1 for a in np.argsort(order)) + tail
        perms.append(None if perm == tuple(range(len(perm))) else perm)
    return einsum, tuple(perms)


def contract(spec: str, x: Jet, y: Jet) -> Jet:
    """The jet of the product of x and y, given by an einsum spec over their shape axes.

    Level k is the sum over subsets S of the k derivative axes of x's
    |S|-th partials on S times y's partials on the rest; the terms of one
    |S| are transposes of one einsum; each summed level is made C-ordered.
    """
    levels = []
    for k in range(min(x.order, y.order) + 1):
        acc = None
        for j in range(k + 1):
            a, b = x.levels[j], y.levels[k - j]
            if a is None or b is None:
                continue
            einsum, perms = _leibniz_terms(spec, k, j)
            t = np.einsum(einsum, a, b)
            for perm in perms:
                term = t if perm is None else t.transpose(perm)
                acc = term if acc is None else acc + term
        levels.append(acc if acc is None or acc.flags.c_contiguous else np.ascontiguousarray(acc))
    return Jet(levels)


def scale(x: Jet, c: np.ndarray) -> Jet:
    """x times the K-point array c (K, *shape) elementwise, c without derivatives."""
    c = np.asarray(c, dtype=float)
    return Jet(
        [None if a is None else _with_derivative_axes(c, k) * a for k, a in enumerate(x.levels)]
    )


def compose(x: Jet, derivatives) -> Jet:
    """The jet of phi(x), elementwise, from derivatives[j] = phi^(j)(x.value) for j <= order.

    phi(x0 + d) = sum_j phi^(j)(x0) d^j / j!, where d, the part of x without
    value, has d^j zero below level j.
    """
    rank = x.value.ndim - 1
    letters = "abcdefgh"[:rank]
    elementwise = f"{letters},{letters}->{letters}"
    delta = Jet([None] + x.levels[1:])
    out = Jet.constant(derivatives[0], x.order)
    power = delta
    for j in range(1, x.order + 1):
        out = out + scale(power, derivatives[j] / factorial(j))
        if j < x.order:
            power = contract(elementwise, power, delta)
    return out


def power_derivatives(x0: np.ndarray, p: float, order: int) -> list[np.ndarray]:
    """The derivatives of t -> t^p at x0 up to the order: prod_{i<j} (p - i) x0^(p - j)."""
    out, coef = [], 1.0
    for j in range(order + 1):
        out.append(coef * x0 ** (p - j))
        coef *= p - j
    return out


def log_derivatives(x0: np.ndarray, order: int) -> list[np.ndarray]:
    """The derivatives of log at x0 up to the order: (-1)^(j-1) (j-1)! x0^(-j)."""
    ders = [(-1.0) ** (j - 1) * factorial(j - 1) / x0**j for j in range(1, order + 1)]
    return [np.log(x0)] + ders


def inverse(g: Jet) -> Jet:
    """The jet of the matrix inverse, (K, m, m): sum_j (-X0 d)^j X0 with X0 = g0^-1."""
    x0 = Jet.constant(np.linalg.inv(g.value), g.order)
    step = contract("ij,jk->ik", -x0, Jet([None] + g.levels[1:]))
    out = term = x0
    for _ in range(g.order):
        term = contract("ij,jk->ik", step, term)
        out = out + term
    return out
