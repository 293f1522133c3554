"""Degree sequences, falling-factorial moments, and threshold quantities.

A degree sequence is the pair (r, k): the uniform edge size r and the vector k
of per-vertex degrees.  All derived quantities are computed in exact integer
arithmetic; the values M_2^2 and M_2^2 * M_4 appearing in the thresholds can
exceed 64 bits for degree sums in the 10^9 range.  A rational quantity is
kept as an int pair (numerator, denominator), and a float made from it by one
int / int true division, which Python rounds correctly.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

from .errors import DegenerateM, InvalidArgument, InvalidR, NegativeDegree, NotDivisible


def _falling(a: int, t: int) -> int:
    out = 1
    for i in range(t):
        out *= a - i
        if out == 0:
            return 0
    return out


def _as_int(v) -> int:
    """``v`` as an int: ints and numpy integers pass, and a bool, float or
    string is InvalidArgument rather than truncated or read as 0/1."""
    if not isinstance(v, bool):
        try:
            return operator.index(v)
        except TypeError:
            pass
    raise InvalidArgument(f"expected an integer, got {v!r}")


@dataclass(frozen=True)
class Thresholds:
    """Structural caps derived from a degree sequence.

    n2 caps the number of 4-cycles a graph may have and still be considered
    well-behaved; q1 and q2 are the two intermediate maxima it is built from.
    sparsity_indicator is the error scale r^4 k_max^4 (k_max + r) / M of the
    asymptotic formulas, as ``estimate_linear`` reports it: a diagnostic only,
    never enforced as a gate.
    """

    n2: int
    q1: int
    q2: int
    sparsity_indicator: float


@dataclass(frozen=True)
class DegreeSequence:
    """Validated degree sequence: edge size ``r`` and degree vector ``k``."""

    r: int
    k: tuple[int, ...]

    def __post_init__(self) -> None:
        r, k = _as_int(self.r), tuple(_as_int(v) for v in self.k)
        if r < 2:
            raise InvalidR(f"edge size r must be >= 2, got {r}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "k", k)
        for v in k:
            if v < 0:
                raise NegativeDegree(f"degree {v} is negative")

    @property
    def n(self) -> int:
        return len(self.k)

    @cached_property
    def M(self) -> int:
        return sum(self.k)

    @cached_property
    def k_max(self) -> int:
        return max(self.k, default=0)

    def moment(self, t: int) -> int:
        """t-th falling-factorial moment: sum of k_i (k_i - 1) ... (k_i - t + 1)."""
        if t < 1:
            raise InvalidArgument(f"moment order must be >= 1, got {t}")
        return sum(_falling(v, t) for v in self.k)

    def edge_count(self) -> int:
        """Number of edges M/r; raises NotDivisible when r does not divide M."""
        if self.M % self.r != 0:
            raise NotDivisible(f"r={self.r} does not divide M={self.M}")
        return self.M // self.r

    def thresholds(self) -> Thresholds:
        """Compute the 4-cycle cap n2 = 3 * q1 and its companions q1, q2.

        The logarithm is the natural logarithm (the base is not forced by any
        identity here; natural log is the documented choice).  Requires M >= 2.
        """
        m_sum = self.M
        if m_sum < 2:
            raise DegenerateM(f"thresholds need M >= 2, got {m_sum}")
        # the q2 term (r-1)^4 M_2^2 M_4 / M^4 is lambda_loop^2 times
        # 4 (r-1)^2 M_4 / M^2, rounded up in integers
        num, den = _loop_exponent(self)
        q2_term = -(-num * num * 4 * (self.r - 1) ** 2 * self.moment(4)
                    // (den * den * m_sum**2))
        q1 = _q1(self)
        q2 = max(math.ceil(math.log(m_sum)), q2_term)
        return Thresholds(n2=3 * q1, q1=q1, q2=q2,
                          sparsity_indicator=_error_scale(self, 4, extra=True))

    @cached_property
    def four_cycle_cap(self) -> int:
        """The well-behaved cap on 4-cycles, ``thresholds().n2`` = 3 q1
        (``_q1``), or 0 if M < 2.  It builds no M_4 and no sparsity
        indicator."""
        return 3 * _q1(self) if self.M >= 2 else 0

    def to_json_dict(self) -> dict:
        return {"r": self.r, "k": list(self.k)}


def _q1(ds: DegreeSequence) -> int:
    """q1 = max(ceil(ln M), ceil(8 lambda_loop^2)) for M >= 2, where
    8 lambda_loop^2 = 2 (r-1)^2 M_2^2 / M^2, rounded up in integers."""
    m_sum, m2 = ds.M, ds.moment(2)
    return max(math.ceil(math.log(m_sum)),
               -(-2 * (ds.r - 1) ** 2 * m2 * m2 // (m_sum * m_sum)))


def _loop_exponent(ds: DegreeSequence) -> tuple[int, int]:
    """The loop exponent lambda_loop = (r-1) M_2 / (2M) as the exact int pair
    (numerator, denominator), not reduced; (0, 1) if M = 0.  The double-link
    exponent is its square, lambda_double = lambda_loop^2."""
    if ds.M == 0:
        return 0, 1
    return (ds.r - 1) * ds.moment(2), 2 * ds.M


def _error_scale(ds: DegreeSequence, k_power: int, extra: bool) -> float:
    """r^4 k_max^p / M, optionally times (k_max + r); 0.0 if M = 0."""
    if ds.M == 0:
        return 0.0
    num = ds.r**4 * ds.k_max**k_power
    if extra:
        num *= ds.k_max + ds.r
    return num / ds.M


def new_degree_sequence(k, r: int) -> DegreeSequence:
    """Validate and build a degree sequence from any integer iterable."""
    return DegreeSequence(r=r, k=k)


def degree_sequence_from_json(obj: dict) -> DegreeSequence:
    """Parse the ``{"r": int, "k": [int, ...]}`` input schema."""
    if not isinstance(obj, dict) or "r" not in obj or "k" not in obj:
        raise InvalidArgument("degree sequence JSON must have keys 'r' and 'k'")
    return new_degree_sequence(obj["k"], obj["r"])
