"""Deterministic test corpora: random rationals plus quadratic surds."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .exact import RealValue, Surd

# fixed-point / worst-case quadratic irrationals, all in (0, 1)
GOLDEN = Surd(-1, 1, 2, 5)          # g = (sqrt(5)-1)/2
GOLDEN_SQ = Surd(3, -1, 2, 5)       # g^2 = 1 - g = (3-sqrt(5))/2
SILVER = Surd(-1, 1, 1, 2)          # sqrt(2)-1
SQRT3_M1 = Surd(-1, 1, 1, 3)        # sqrt(3)-1


_MIXED_SURDS = 5   # the surds at the end of mixed_corpus
_SQUARE_FREE = [2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26]


def surd_corpus(count: int = 20) -> list[Surd]:
    """`count` distinct quadratic irrationals in (0, 1)."""
    out: list[Surd] = [GOLDEN, GOLDEN_SQ, SILVER, SQRT3_M1]
    for d in _SQUARE_FREE:
        if len(out) >= count:
            break
        s = Surd(0, 1, 1, d)
        frac = s - (s.__floor__())
        if isinstance(frac, Surd) and frac not in out:
            out.append(frac)
    k = 3
    while len(out) < count:
        cand = Surd(1, 1, k, 2)  # (1+sqrt(2))/k
        if 0 < cand < 1 and cand not in out:
            out.append(cand)
        k += 1
    return out[:count]


def rational_corpus(size: int, qmax: int = 10 ** 6,
                    seed: int = 0) -> list[Fraction]:
    """`size` random reduced rationals p/q in (0, 1) with q <= qmax; a
    ValueError when there are fewer than `size` of them.  Past half of
    them, a sample of the enumerated fractions replaces the rejection
    draws, which would need ever more tries for each new fraction."""
    if size < 0 or qmax < 2:
        raise ValueError(f"need size >= 0 and qmax >= 2, got {size}, {qmax}")
    rng = random.Random(seed)
    # the fractions 1/q alone give qmax - 1 distinct values
    if size >= qmax:
        count = _reduced_count(qmax)
        if size > count:
            raise ValueError(f"only {count} reduced fractions in (0, 1) "
                             f"have q <= {qmax}; {size} rationals asked")
        if 2 * size > count:
            return rng.sample([Fraction(p, q) for q in range(2, qmax + 1)
                               for p in range(1, q) if math.gcd(p, q) == 1],
                              size)
    out: list[Fraction] = []
    seen = set()
    while len(out) < size:
        q = rng.randrange(2, qmax + 1)
        p = rng.randrange(1, q)
        f = Fraction(p, q)
        if f not in seen:
            seen.add(f)
            out.append(f)
    return out


def _reduced_count(qmax: int) -> int:
    """The number of reduced p/q in (0, 1) with q <= qmax: phi(2) + ... +
    phi(qmax), by a totient sieve."""
    phi = list(range(qmax + 1))
    for p in range(2, qmax + 1):
        if phi[p] == p:   # p is prime
            for k in range(p, qmax + 1, p):
                phi[k] -= phi[k] // p
    return sum(phi[2:])


def mixed_corpus(size: int, qmax: int = 10 ** 6,
                 seed: int = 0) -> list[RealValue]:
    """Rationals plus _MIXED_SURDS corpus surds, deterministic in the seed."""
    if size < 0 or qmax < 2:
        raise ValueError(f"need size >= 0 and qmax >= 2, got {size}, {qmax}")
    out: list[RealValue] = list(rational_corpus(
        max(size - _MIXED_SURDS, 0), qmax, seed))
    out.extend(surd_corpus(_MIXED_SURDS))
    return out[:size]


def alpha_grid(points: int = 20) -> list[Fraction]:
    """Evenly spaced rational alphas in (0, 1]."""
    return [Fraction(k, points) for k in range(1, points + 1)]
