import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from linhyper import (
    Estimate,
    Thresholds,
    canonical_battery,
    estimate_bigraph,
    estimate_linear,
    estimate_simple,
    full_report,
    girth6_probability,
    log_leading_term,
    mckay_upper_bound,
    new_degree_sequence,
    random_guarded_instances,
    sum_bounds,
    switching_ratio,
)
from linhyper.asymptotics import _estimate
from linhyper.errors import (
    DegenerateM,
    InvalidArgument,
    NotDivisible,
    PreconditionFailed,
)


def exact_leading_fraction(ds):
    m = ds.M // ds.r
    num = math.factorial(ds.M)
    den = math.factorial(m) * math.factorial(ds.r) ** m
    for v in ds.k:
        den *= math.factorial(v)
    return Fraction(num, den)


def test_log_leading_term():
    ds = new_degree_sequence((1,) * 6, 3)
    assert log_leading_term(ds) == pytest.approx(math.log(10), rel=1e-12)

    ds = new_degree_sequence((3, 3, 3, 3), 3)
    assert log_leading_term(ds) == pytest.approx(
        math.log(exact_leading_fraction(ds)), rel=1e-12
    )

    assert log_leading_term(new_degree_sequence((), 3)) == 0.0
    with pytest.raises(NotDivisible):
        log_leading_term(new_degree_sequence((1, 1), 3))


def test_estimate_linear_exact_when_no_degree_two():
    ds = new_degree_sequence((1,) * 6, 3)
    est = estimate_linear(ds)
    assert est.value == pytest.approx(10.0, rel=1e-12)
    assert est.corrections == {"loop_term": 0.0, "double_link_term": 0.0}


def test_estimate_linear_corrections():
    # 2-regular: loop exponent (r-1)M2/2M = 1, double-link exponent
    # (r-1)^2 M2^2 / 4M^2 = 1
    ds = new_degree_sequence((2,) * 300, 3)
    est = estimate_linear(ds)
    assert est.corrections["loop_term"] == pytest.approx(-1.0)
    assert est.corrections["double_link_term"] == pytest.approx(-1.0)

    ds = new_degree_sequence((3, 3, 3, 3), 3)
    est = estimate_linear(ds)
    m2 = ds.moment(2)
    assert est.corrections["loop_term"] == pytest.approx(
        -float(Fraction(2 * m2, 2 * ds.M))
    )
    assert est.corrections["double_link_term"] == pytest.approx(
        -float(Fraction(4 * m2 * m2, 4 * ds.M**2))
    )
    assert est.error_scale > 1  # diagnostic flags the regime as unreliable


def test_estimate_simple_correction():
    ds = new_degree_sequence((2,) * 10, 4)
    est = estimate_simple(ds)
    assert est.corrections["loop_term"] == pytest.approx(-1.5)
    assert est.error_scale == pytest.approx(float(Fraction(4**4 * 2**3, 20)))


def test_simple_equals_linear_when_second_moment_vanishes():
    for k, r in [((1,) * 6, 3), ((1, 0, 1, 1, 0, 1), 4), ((1,) * 12, 3)]:
        ds = new_degree_sequence(k, r)
        assert ds.moment(2) == 0
        lin, simp = estimate_linear(ds), estimate_simple(ds)
        assert lin.log_value == simp.log_value == lin.leading_log


def test_empty_sequence_estimates_one():
    for fn in (estimate_linear, estimate_simple, estimate_bigraph):
        est = fn(new_degree_sequence((), 3))
        assert est.value == 1.0 and est.log_value == 0.0


def test_bigraph_decomposes_through_simple():
    for k, r in [((1,) * 6, 3), ((3, 3, 3, 3), 3), ((2,) * 8, 4), ((2, 3, 1, 2, 2, 2), 3)]:
        ds = new_degree_sequence(k, r)
        simple = estimate_simple(ds)
        big = estimate_bigraph(ds)
        lg = math.lgamma(ds.edge_count() + 1)
        assert big.leading_log == simple.leading_log + lg  # shared code path
        assert big.corrections == simple.corrections
        assert big.log_value == pytest.approx(simple.log_value + lg, rel=1e-12)


def test_estimate_values_against_oracle():
    ds = new_degree_sequence((1,) * 6, 3)
    rep = full_report(ds)
    assert estimate_linear(ds).value == pytest.approx(rep.count_l, rel=1e-9)
    assert estimate_simple(ds).value == pytest.approx(rep.count_h, rel=1e-9)
    assert estimate_bigraph(ds).value == pytest.approx(rep.count_b, rel=1e-9)


def test_linear_below_simple_on_battery():
    for ds in canonical_battery():
        assert estimate_linear(ds).log_value <= estimate_simple(ds).log_value


def test_girth6_probability():
    assert girth6_probability(new_degree_sequence((1,) * 9, 3)).value == 1.0
    est = girth6_probability(new_degree_sequence((2,) * 300, 3))
    assert est.value == pytest.approx(math.exp(-1), rel=1e-12)
    est4 = girth6_probability(new_degree_sequence((2,) * 10, 4))
    assert est4.value == pytest.approx(math.exp(-9 / 4), rel=1e-12)


def test_girth6_equals_double_link_exponent():
    for k, r in [((2,) * 12, 3), ((3, 2, 2, 1), 4), ((2, 3, 1, 2, 2, 2), 3)]:
        ds = new_degree_sequence(k, r)
        lin = estimate_linear(ds)
        g6 = girth6_probability(ds)
        assert g6.log_value == lin.corrections["double_link_term"]
        assert g6.log_value == pytest.approx(
            lin.log_value - estimate_simple(ds).log_value, abs=1e-12
        )


def test_evaluators_match_exact_rational_reference():
    rng = random.Random(11)
    cases = [(3, (2,) * 30), (4, (3,) * 16), (3, (4, 4, 4, 3, 3, 3, 2, 2, 2, 2, 1) + (1,) * 21)]
    for _ in range(10):
        r = rng.choice((3, 4, 5))
        k = tuple(rng.randint(0, 5) for _ in range(rng.randint(3, 25)))
        if sum(k) % r or sum(k) == 0:
            continue
        cases.append((r, k))
    for r, k in cases:
        ds = new_degree_sequence(k, r)
        assert ds.M <= 100
        ref_leading = math.log(exact_leading_fraction(ds)) if ds.M else 0.0
        loop = Fraction((r - 1) * ds.moment(2), 2 * ds.M) if ds.M else Fraction(0)
        dlink = (
            Fraction((r - 1) ** 2 * ds.moment(2) ** 2, 4 * ds.M**2)
            if ds.M
            else Fraction(0)
        )
        got = estimate_linear(ds).log_value
        want = ref_leading - float(loop) - float(dlink)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("args", [
    ([3.9] * 30, [3] * 30, [1.5] + [0] * 29, [1] + [0] * 29),
    ([1] * 30, [3] * 10, [True] + [0] * 29, [1] + [0] * 9),
    ([1] * 30, [3] * 10, ["1"] + [0] * 29, [1] + [0] * 9),
], ids=["float", "bool", "str"])
def test_mckay_upper_bound_rejects_non_integers(args):
    # int() read each of these as an integer degree (the float case as the
    # 9/70 example below) with no error
    with pytest.raises(InvalidArgument, match="expected an integer"):
        mckay_upper_bound(*args)


def test_mckay_upper_bound_examples():
    g_left, g_right = [1] * 30, [3] * 10
    one_edge = ([1] + [0] * 29, [1] + [0] * 9)
    assert mckay_upper_bound(g_left, g_right, *one_edge) == Fraction(3, 10)

    with pytest.raises(PreconditionFailed):
        mckay_upper_bound([1] * 6, [3, 3], [1] + [0] * 5, [1, 0])

    assert mckay_upper_bound(g_left, g_right, [0] * 30, [0] * 10) == 1
    one_edge_square = ([1] + [0] * 29, [1] + [0] * 29)
    assert mckay_upper_bound([3] * 30, [3] * 30, *one_edge_square) == Fraction(9, 70)

    with pytest.raises(ValueError):
        mckay_upper_bound([1, 1], [3], [1, 0], [1])  # unbalanced host


def test_switching_ratio():
    ds = new_degree_sequence((2,) * 6, 3)  # M2 == M
    assert switching_ratio(ds, 1) == pytest.approx(1.0)
    assert switching_ratio(ds, 2) == pytest.approx(0.5)
    assert switching_ratio(new_degree_sequence((1,) * 6, 3), 1) == 0.0
    with pytest.raises(ValueError):
        switching_ratio(ds, 0)


# Each formula's value on a fixed instance, bit for bit: the repr of every
# float, so the sign of a zero correction counts too.  Per instance: the
# four estimates, switching_ratio(ds, d) for d = 1, 2, 3, and thresholds();
# an exception class is what that call raises.  k=1^6 has zero corrections
# (-0.0), k=(0,0,0) has M=0, and r=4 does not divide M=10 on k=(3,3,2,2).
PINNED = [
    ((1,) * 6, 3, [
        Estimate(2.302585092994047, 10.00000000000001, 2.302585092994047,
                 {"loop_term": -0.0, "double_link_term": -0.0}, 54.0),
        Estimate(2.302585092994047, 10.00000000000001, 2.302585092994047,
                 {"loop_term": -0.0}, 13.5),
        Estimate(2.9957322735539917, 20.000000000000014, 2.9957322735539917,
                 {"loop_term": -0.0}, 1.5),
        Estimate(-0.0, 1.0, 0.0, {"double_link_term": -0.0}, 54.0),
        0.0, 0.0, 0.0,
        Thresholds(6, 2, 2, 54.0),
    ]),
    ((0, 0, 0), 3, [
        Estimate(0.0, 1.0, 0.0, {"loop_term": -0.0, "double_link_term": -0.0}, 0.0),
        Estimate(0.0, 1.0, 0.0, {"loop_term": -0.0}, 0.0),
        Estimate(0.0, 1.0, 0.0, {"loop_term": -0.0}, 0.0),
        Estimate(-0.0, 1.0, 0.0, {"double_link_term": -0.0}, 0.0),
        InvalidArgument, InvalidArgument, InvalidArgument,
        DegenerateM,
    ]),
    ((2,) * 8, 4, [
        Estimate(5.4864135098613875, 241.38990998006352, 9.236413509861388,
                 {"loop_term": -1.5, "double_link_term": -2.25}, 1536.0),
        Estimate(7.7364135098613875, 2290.2436994532072, 9.236413509861388,
                 {"loop_term": -1.5}, 128.0),
        Estimate(10.914467340209333, 54965.84878687696, 12.414467340209333,
                 {"loop_term": -1.5}, 4.0),
        Estimate(-2.25, 0.10539922456186433, 0.0, {"double_link_term": -2.25}, 1536.0),
        2.25, 1.125, 0.75,
        Thresholds(54, 18, 3, 1536.0),
    ]),
    ((3,) + (2,) * 6, 3, [
        Estimate(5.562339742330844, 260.43146655291514, 8.202339742330844,
                 {"loop_term": -1.2, "double_link_term": -1.44}, 2624.4),
        Estimate(7.002339742330844, 1099.202001494167, 8.202339742330844,
                 {"loop_term": -1.2}, 145.8),
        Estimate(11.789831485112892, 131904.24017930025, 12.98983148511289,
                 {"loop_term": -1.2}, 5.4),
        Estimate(-1.44, 0.23692775868212176, 0.0, {"double_link_term": -1.44}, 2624.4),
        1.44, 0.72, 0.48,
        Thresholds(36, 12, 3, 2624.4),
    ]),
    ((3, 3, 2, 2), 4, [
        NotDivisible, NotDivisible, NotDivisible, NotDivisible,
        5.76, 2.88, 1.92,
        Thresholds(141, 47, 3, 14515.2),
    ]),
    ((2,) * 3000, 3, [
        Estimate(27330.87236840771, math.inf, 27332.87236840771,
                 {"loop_term": -1.0, "double_link_term": -1.0}, 1.08),
        Estimate(27331.87236840771, math.inf, 27332.87236840771,
                 {"loop_term": -1.0}, 0.108),
        Estimate(40538.39671892152, math.inf, 40539.39671892152,
                 {"loop_term": -1.0}, 0.006),
        Estimate(-1.0, 0.36787944117144233, 0.0, {"double_link_term": -1.0}, 1.08),
        1.0, 0.5, 0.3333333333333333,
        Thresholds(27, 9, 9, 1.08),
    ]),
]



@pytest.mark.parametrize("k, r, want", PINNED)
def test_formulas_pinned_bit_for_bit(k, r, want):
    ds = new_degree_sequence(k, r)
    calls = [lambda fn=fn: fn(ds) for fn in (
        estimate_linear, estimate_simple, estimate_bigraph, girth6_probability
    )]
    calls += [lambda d=d: switching_ratio(ds, d) for d in (1, 2, 3)]
    calls.append(ds.thresholds)
    for call, expected in zip(calls, want, strict=True):
        if isinstance(expected, type):
            with pytest.raises(expected):
                call()
        else:
            assert repr(call()) == repr(expected)


def fraction_reference(ds):
    """The four estimates, switching_ratio for d = 1, 2, 3 and thresholds()
    worked out in Fraction arithmetic, each float made by float()."""
    m = ds.edge_count()
    lam = Fraction((ds.r - 1) * ds.moment(2), 2 * ds.M) if ds.M else Fraction(0)

    def scale(num):
        return float(Fraction(num, ds.M)) if ds.M else 0.0

    lead = log_leading_term(ds)
    err4 = scale(ds.r**4 * ds.k_max**4 * (ds.k_max + ds.r))
    loop, dlink = {"loop_term": -float(lam)}, {"double_link_term": -float(lam**2)}
    simple = _estimate(lead, loop, scale(ds.r**4 * ds.k_max**3))
    log_m = math.log(ds.M)
    q2_factor = Fraction(4 * (ds.r - 1) ** 2 * ds.moment(4), ds.M**2)
    q1 = max(math.ceil(log_m), math.ceil(8 * lam**2))
    return [
        _estimate(lead, loop | dlink, err4),
        simple,
        _estimate(lead + math.lgamma(m + 1), simple.corrections,
                  scale(ds.r**2 * ds.k_max**2)),
        _estimate(None, dlink, err4),
        *(float(lam**2 / d) for d in (1, 2, 3)),
        Thresholds(3 * q1, q1, max(math.ceil(log_m), math.ceil(lam**2 * q2_factor)), err4),
    ]


def test_formulas_equal_their_fraction_reference():
    # the int-pair evaluation is the Fraction one, bit for bit: every
    # correction, scale, ratio and threshold by repr, so -0.0 stays -0.0;
    # the battery has no degree above 3, so only the mixed sequence's M_4 > 0
    # puts the q2 term above ln M
    instances = canonical_battery(rs=(2, 3, 4, 5)) + random_guarded_instances(200, 1) + [
        new_degree_sequence((2,) * 3000, 3),
        new_degree_sequence((0, 8, 0, 2, 2, 1, 0, 3, 1, 1, 2, 4), 3),
    ]
    for ds in instances:
        got = [estimate_linear(ds), estimate_simple(ds), estimate_bigraph(ds),
               girth6_probability(ds), *(switching_ratio(ds, d) for d in (1, 2, 3)),
               ds.thresholds()]
        assert list(map(repr, got)) == list(map(repr, fraction_reference(ds))), ds


def test_sparsity_indicator_is_the_linear_error_scale():
    for ds in canonical_battery(rs=(2, 3, 4)):
        assert ds.thresholds().sparsity_indicator == estimate_linear(ds).error_scale


def test_sum_bounds_zero_case():
    s1, s2, n = sum_bounds([0, 0], [0, 0], 0.05)
    tail = (2 * math.e * 0.05) ** 2
    assert n == (1.0, 0.0, 0.0)
    assert s1 == pytest.approx(1 - tail) and s2 == pytest.approx(1 + tail)
    assert s1 <= 1 <= s2


def test_sum_bounds_constant_sequence():
    n_terms = 30
    a = 0.8
    s1, s2, n = sum_bounds([a] * n_terms, [0.0] * n_terms, 0.1)
    partial = sum(a**i / math.factorial(i) for i in range(n_terms + 1))
    assert sum(n) == pytest.approx(partial, rel=1e-12)
    assert s1 <= partial <= s2


def test_sum_bounds_preconditions_reported():
    with pytest.raises(PreconditionFailed, match=r"A\(1\) >= 0"):
        sum_bounds([-1, 0], [0, 0], 0.1)
    with pytest.raises(PreconditionFailed, match="c_hat"):
        sum_bounds([0, 0], [0, 0], 0.5)
    with pytest.raises(PreconditionFailed, match="N >= 2"):
        sum_bounds([0], [0], 0.1)


def c_upper_bound(a, i, c_hat):
    """Largest C(i) the generators may draw: below c_hat, and (i-1)C(i) <= A(i)
    in floating point, not only in exact arithmetic (A(i)/(i-1) can round up)."""
    hi = c_hat * 0.999
    if i >= 2:
        hi = min(hi, a[i - 1] / (i - 1))
        while (i - 1) * hi > a[i - 1]:
            hi = math.nextafter(hi, -math.inf)
    return hi


def random_sum_bounds_case(rng):
    n_terms = rng.randint(2, 40)
    c_hat = rng.uniform(0.02, 0.33)
    a = [rng.uniform(0, c_hat * n_terms * 0.999) for _ in range(n_terms)]
    c = [
        rng.uniform(-c_hat * 0.999, c_upper_bound(a, i, c_hat))
        for i in range(1, n_terms + 1)
    ]
    return a, c, c_hat


def test_sum_bounds_random_cases_sandwich():
    rng = random.Random(987)
    for _ in range(100):
        a, c, c_hat = random_sum_bounds_case(rng)
        s1, s2, n = sum_bounds(a, c, c_hat)  # self-asserts the sandwich
        assert s1 <= math.fsum(n) <= s2


@given(st.data())
def test_sum_bounds_sandwich_property(data):
    n_terms = data.draw(st.integers(min_value=2, max_value=25))
    c_hat = data.draw(st.floats(min_value=0.02, max_value=0.33))
    a = data.draw(
        st.lists(
            st.floats(min_value=0, max_value=c_hat * n_terms * 0.999),
            min_size=n_terms,
            max_size=n_terms,
        )
    )
    c = [
        data.draw(
            st.floats(min_value=-c_hat * 0.999, max_value=c_upper_bound(a, i, c_hat))
        )
        for i in range(1, n_terms + 1)
    ]
    s1, s2, n = sum_bounds(a, c, c_hat)
    assert s1 <= math.fsum(n) <= s2
