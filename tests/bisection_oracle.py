"""The first-return search that ``taylor.FirstReturn.near`` replaced.

Kept as the test oracle of its Newton bracket: each crossing is bisected on
the step polynomials from its two watch points, about 52 halvings, until lo
and hi are neighbouring floats, and the row's section decides every halving.
"""

from mobiusflat.taylor import horner


def near(ret, cols, ts, crossings):
    """The first crossing within the return's reach, as near() found it by bisection alone."""
    for i in crossings:
        lo, hi = (ts[i - 1] if i else 0.0), ts[i]
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if ret.g(horner(cols[0], mid), horner(cols[1], mid)) < 0.0:
                lo = mid
            else:
                hi = mid
        dk, dks = horner(cols[0], hi) - ret.k0, horner(cols[1], hi) - ret.ks0
        if dk * dk + dks * dks < ret.reach2:
            return hi
    return None
