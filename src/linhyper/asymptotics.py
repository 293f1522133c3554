"""Numerically stable evaluators for the closed-form counting estimates.

All formulas are evaluated in log space through the log-gamma function, so
degree sums far beyond the reach of fixed-width floats are fine; the plain
``value`` is materialized on demand and becomes +inf on overflow (JSON
writes it as null; ``log_value`` still carries the number).  Each
estimate also reports ``error_scale``, the magnitude of the relative-error
argument that governs how seriously the number should be taken on the given
instance.  It is purely a diagnostic: the asymptotic validity condition is a
statement about sequences and cannot be checked at a single instance.

The rational exponents and scales are exact: each is kept as an int pair
(numerator, denominator), lambda_loop as ``degree_model._loop_exponent``
gives it, and becomes a float by one int / int true division.  Python rounds
that division correctly, so the float is the one ``float(Fraction(num,
den))`` gives, bit for bit; a zero exponent negated stays -0.0.  Only
``mckay_upper_bound`` returns a Fraction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .degree_model import DegreeSequence, _as_int, _error_scale, _falling, _loop_exponent
from .errors import InvalidArgument, InvariantViolation, PreconditionFailed


@dataclass(frozen=True)
class Estimate:
    """A counting estimate split into leading term and exponent corrections.

    ``log_value`` always equals ``leading_log`` plus the sum of the correction
    exponents, by construction.
    """

    log_value: float
    value: float
    leading_log: float
    corrections: dict[str, float]
    error_scale: float

    def to_json_dict(self) -> dict:
        return {
            "log_value": self.log_value,
            "value": self.value if math.isfinite(self.value) else None,
            "leading_log": self.leading_log,
            "corrections": dict(self.corrections),
            "error_scale": self.error_scale,
        }


def _estimate(lead: float | None, corrections: dict[str, float],
              error_scale: float) -> Estimate:
    """The estimate with log ``lead`` plus the corrections, added in order.
    A probability has no leading term: it passes ``lead`` None, so its log is
    its corrections alone (a zero correction keeps its sign, -0.0)."""
    log_value = lead
    for c in corrections.values():
        log_value = c if log_value is None else log_value + c
    try:
        value = math.exp(log_value)
    except OverflowError:
        value = math.inf
    lead = 0.0 if lead is None else lead
    return Estimate(log_value, value, lead, corrections, error_scale)


def log_leading_term(ds: DegreeSequence) -> float:
    """Natural log of M! / ((M/r)! (r!)^(M/r) prod k_i!)."""
    m = ds.edge_count()
    if ds.M == 0:
        return 0.0
    return (
        math.lgamma(ds.M + 1)
        - math.lgamma(m + 1)
        - m * math.lgamma(ds.r + 1)
        - sum(math.lgamma(v + 1) for v in ds.k)
    )


def estimate_linear(ds: DegreeSequence) -> Estimate:
    """Estimated number of linear uniform hypergraphs with degrees k.

    Exponent corrections account for the expected number of loops and of
    double links in the random pairing; both vanish when every degree is at
    most one, making the formula exact there.
    """
    lead = log_leading_term(ds)
    num, den = _loop_exponent(ds)
    corrections = {"loop_term": -(num / den),
                   "double_link_term": -(num * num / (den * den))}
    return _estimate(lead, corrections, _error_scale(ds, 4, extra=True))


def estimate_simple(ds: DegreeSequence) -> Estimate:
    """Estimated number of simple uniform hypergraphs with degrees k."""
    lead = log_leading_term(ds)
    num, den = _loop_exponent(ds)
    corrections = {"loop_term": -(num / den)}
    return _estimate(lead, corrections, _error_scale(ds, 3, extra=False))


def estimate_bigraph(ds: DegreeSequence) -> Estimate:
    """Estimated number of conforming bipartite graphs.

    Differs from the simple-hypergraph estimate exactly by the (M/r)! column
    orderings, so the two share the same leading-term code path.
    """
    m = ds.edge_count()
    base = estimate_simple(ds)
    err = ds.r**2 * ds.k_max**2 / ds.M if ds.M else 0.0
    return _estimate(base.leading_log + math.lgamma(m + 1), base.corrections, err)


def girth6_probability(ds: DegreeSequence) -> Estimate:
    """Estimated probability that a uniform conforming bipartite graph has no
    4-cycle, i.e. girth at least six: exp(-lambda_double)."""
    ds.edge_count()
    num, den = _loop_exponent(ds)
    corrections = {"double_link_term": -(num * num / (den * den))}
    return _estimate(None, corrections, _error_scale(ds, 4, extra=True))


def mckay_upper_bound(g_left, g_right, l_left, l_right) -> Fraction:
    """Upper bound on the probability that a uniform bipartite graph with
    degree sequence g contains the fixed subgraph with degree sequence l.

    Returns prod (g_i)_(l_i) * prod (g'_j)_(l'_j) / (E_g - Gamma)_(E_l) with
    Gamma = 2 g_max (g_max + l_max - 1) + 2, valid only when
    E_g - Gamma >= E_l; otherwise the bound is not asserted and
    PreconditionFailed is raised.
    """
    g_left, g_right, l_left, l_right = (
        [_as_int(v) for v in side] for side in (g_left, g_right, l_left, l_right))
    if len(l_left) != len(g_left) or len(l_right) != len(g_right):
        raise InvalidArgument("subgraph degree vectors must match the host bipartition")
    e_g = sum(g_left)
    if sum(g_right) != e_g:
        raise InvalidArgument("host left/right degree sums differ")
    e_l = sum(l_left)
    if sum(l_right) != e_l:
        raise InvalidArgument("subgraph left/right degree sums differ")
    g_max = max(g_left + g_right, default=0)
    l_max = max(l_left + l_right, default=0)
    gamma = 2 * g_max * (g_max + l_max - 1) + 2
    if e_g - gamma < e_l:
        raise PreconditionFailed(
            f"bound requires E_g - Gamma >= E_l; got {e_g} - {gamma} < {e_l}"
        )
    num = 1
    for g, l in zip(g_left, l_left):
        num *= _falling(g, l)
    for g, l in zip(g_right, l_right):
        num *= _falling(g, l)
    return Fraction(num, _falling(e_g - gamma, e_l))


def switching_ratio(ds: DegreeSequence, d: int) -> float:
    """Leading factor lambda_double / d = (r-1)^2 M_2^2 / (4 d M^2) of the
    count ratio between graphs with d and with d-1 four-cycles.

    This is the asymptotic leading factor only: it gives no bound on the
    ratio at any finite instance, and it presupposes that the class of
    graphs with d-1 four-cycles is non-empty, since otherwise the ratio is
    undefined.
    """
    d = _as_int(d)
    if d < 1:
        raise InvalidArgument(f"d must be >= 1, got {d}")
    if ds.M == 0:
        raise InvalidArgument("degree sum must be positive")
    num, den = _loop_exponent(ds)
    return num * num / (den * den * d)


def sum_bounds(A, C, c_hat: float):
    """Sandwich bounds for the recursively defined partial sum.

    Given A(i), C(i) for i = 1..N (passed as length-N sequences), defines
    n_0 = 1 and n_i = (A(i) - (i-1) C(i)) n_(i-1) / i, and returns
    (sigma1, sigma2, n_values) where sigma1 <= sum(n_i) <= sigma2 is
    asserted before returning.  Hypothesis failures raise
    PreconditionFailed naming each violated condition.
    """
    A = [float(x) for x in A]
    C = [float(x) for x in C]
    if len(A) != len(C):
        raise InvalidArgument("A and C must have the same length")
    N = len(A)
    failures = []
    if N < 2:
        failures.append("N >= 2")
    for i in range(1, N + 1):
        if A[i - 1] < 0:
            failures.append(f"A({i}) >= 0")
        if A[i - 1] - (i - 1) * C[i - 1] < 0:
            failures.append(f"A({i}) - (i-1)C({i}) >= 0")
    if not 0 < c_hat < 1 / 3:
        failures.append("0 < c_hat < 1/3")
    if N >= 1:
        a1, a2 = min(A), max(A)
        c1, c2 = min(C), max(C)
        if N >= 2 and max(a2 / N, abs(c1), abs(c2)) > c_hat:
            failures.append("max{A2/N, |C1|, |C2|} <= c_hat")
    if failures:
        raise PreconditionFailed("; ".join(failures))

    n_values = [1.0]
    for i in range(1, N + 1):
        n_values.append((A[i - 1] - (i - 1) * C[i - 1]) / i * n_values[-1])
    total = math.fsum(n_values)
    tail = (2 * math.e * c_hat) ** N
    sigma1 = math.exp(a1 - 0.5 * a1 * c2) - tail
    sigma2 = math.exp(a2 - 0.5 * a2 * c1 + 0.5 * a2 * c1 * c1) + tail
    if not sigma1 <= total <= sigma2:
        raise InvariantViolation(
            f"sandwich violated: {sigma1} <= {total} <= {sigma2} fails"
        )
    return sigma1, sigma2, tuple(n_values)
