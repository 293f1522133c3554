import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from linhyper import (
    DegreeSequence,
    canonical_battery,
    degree_sequence_from_json,
    new_degree_sequence,
    random_guarded_instances,
)
from linhyper.errors import (
    DegenerateM, InvalidArgument, InvalidR, NegativeDegree, NotDivisible,
)


def test_construction_caches():
    ds = new_degree_sequence((1, 1, 1, 1, 1, 1), 3)
    assert ds.M == 6 and ds.k_max == 1 and ds.n == 6

    ds = new_degree_sequence((2, 3, 1, 2, 2, 2), 3)
    assert ds.M == 12 and ds.k_max == 3

    ds = new_degree_sequence((0, 0), 3)
    assert ds.M == 0 and ds.k_max == 0


def test_construction_errors():
    with pytest.raises(NegativeDegree):
        new_degree_sequence((1, -1), 3)
    with pytest.raises(InvalidR):
        new_degree_sequence((1, 1), 1)


@pytest.mark.parametrize("k, r, bad", [
    ((2.7, 2, 2, 1, 1, 1), 3, "2.7"),
    ((2, 2, 2, True, 1, 1), 3, "True"),
    ((2, 2, 2, "1", 1, 1), 3, "'1'"),
    ((3, 3, 3), 3.0, "3.0"),
    ((3, 3, 3), True, "True"),
])
def test_non_integer_values_are_rejected(k, r, bad):
    # int() would truncate 2.7 to 2 and read True as 1
    with pytest.raises(InvalidArgument, match=f"got {bad}$"):
        new_degree_sequence(k, r)
    with pytest.raises(InvalidArgument):
        DegreeSequence(r=r, k=k)


def test_numpy_integers_are_accepted_as_ints():
    ds = new_degree_sequence(np.array([2, 2, 2], dtype=np.int64), np.int64(3))
    assert ds == new_degree_sequence((2, 2, 2), 3)
    assert type(ds.r) is int and all(type(v) is int for v in ds.k)


def test_zero_degrees_are_kept():
    ds = new_degree_sequence((2, 0, 1, 0), 3)
    assert ds.n == 4 and ds.M == 3


def test_moment_examples():
    assert new_degree_sequence((2, 3, 1), 3).moment(2) == 8
    assert new_degree_sequence((2, 3, 1), 3).moment(3) == 6
    assert new_degree_sequence((1, 1, 1, 1, 1, 1), 3).moment(2) == 0
    with pytest.raises(ValueError):
        new_degree_sequence((2,), 3).moment(0)


@given(
    st.lists(st.integers(min_value=0, max_value=12), max_size=20),
    st.integers(min_value=2, max_value=6),
)
def test_moment_properties(k, t):
    ds = DegreeSequence(r=3, k=tuple(k))
    assert ds.moment(1) == ds.M
    assert ds.moment(t) <= ds.k_max * ds.moment(t - 1)
    if t > ds.k_max:
        assert ds.moment(t) == 0


def test_edge_count():
    assert new_degree_sequence((1,) * 6, 3).edge_count() == 2
    assert new_degree_sequence((3, 3, 3, 3), 3).edge_count() == 4
    with pytest.raises(NotDivisible):
        new_degree_sequence((1, 1, 1, 1), 3).edge_count()


def test_thresholds_examples():
    t = new_degree_sequence((2,) * 10, 3).thresholds()
    assert t.q1 == 8 and t.n2 == 24

    t = new_degree_sequence((1,) * 30, 3).thresholds()
    assert t.q1 == 4 and t.n2 == 12

    t = new_degree_sequence((2,) * 30, 3).thresholds()
    assert t.sparsity_indicator == pytest.approx(108.0)

    with pytest.raises(DegenerateM):
        new_degree_sequence((1,), 3).thresholds()
    assert new_degree_sequence((1,), 3).four_cycle_cap == 0
    assert new_degree_sequence((2,) * 10, 3).four_cycle_cap == 24


def test_threshold_invariants():
    for k in [(2,) * 10, (3, 3, 2, 1), (1,) * 9, (3,) * 5, (2, 2, 2)]:
        ds = new_degree_sequence(k, 3)
        t = ds.thresholds()
        assert t.n2 % 3 == 0
        assert t.n2 == 3 * t.q1
        assert t.q1 >= math.ceil(math.log(ds.M))
        assert t.q2 >= math.ceil(math.log(ds.M))
        assert t.sparsity_indicator >= 0


def test_big_values_stay_exact():
    # moments feeding the thresholds must not lose precision at large scale
    ds = new_degree_sequence((10**6,) * 3, 3)
    t = ds.thresholds()
    m2 = 3 * 10**6 * (10**6 - 1)
    assert t.q1 == max(
        math.ceil(math.log(ds.M)), -(-2 * 4 * m2 * m2 // (ds.M * ds.M))
    )


def _partitions(total: int, largest: int):
    """Every non-increasing tuple of positive parts at most ``largest`` that
    sums to ``total``."""
    if total == 0:
        yield ()
        return
    for part in range(min(total, largest), 0, -1):
        for rest in _partitions(total - part, part):
            yield (part,) + rest


def test_four_cycle_cap_is_thresholds_n2():
    # the cap builds no other threshold; it must still be thresholds().n2,
    # and both the cap built from exact fractions: on every degree multiset
    # with M = 2..20 at r = 2..5, on the exact oracle's instances (zero
    # degrees included) and at degree 10^6
    instances = [
        new_degree_sequence(k, r)
        for r in range(2, 6) for m_sum in range(2, 21) for k in _partitions(m_sum, m_sum)
    ]
    instances += canonical_battery(rs=(2, 3, 4, 5)) + random_guarded_instances(
        60, seed=20261019, rs=(2, 3, 4, 5), max_space=12
    )
    instances.append(new_degree_sequence((10**6,) * 3, 3))
    for ds in instances:
        # 8 lambda_loop^2 with lambda_loop = (r-1) M_2 / (2M), as a Fraction
        lam = Fraction((ds.r - 1) * ds.moment(2), 2 * ds.M)
        n2 = 3 * max(math.ceil(math.log(ds.M)), math.ceil(8 * lam**2))
        assert ds.four_cycle_cap == ds.thresholds().n2 == n2, ds
    for k in [(), (0, 0), (1,), (0, 1, 0)]:
        assert new_degree_sequence(k, 3).four_cycle_cap == 0


def test_json_round_trip():
    ds = new_degree_sequence((2, 3, 1), 4)
    blob = json.dumps(ds.to_json_dict())
    again = degree_sequence_from_json(json.loads(blob))
    assert again == ds
    with pytest.raises(ValueError):
        degree_sequence_from_json({"k": [1, 2]})
