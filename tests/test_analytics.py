"""Partial sums, growth exponents, monotonicity, jumps, small counts."""

import math
import random
import tracemalloc

import pytest

from chainpart.analytics import (
    JumpRecord,
    PrefixSums,
    check_growth_bound,
    check_local_monotonicity,
    classify_small_counts,
    constant_upper_bound,
    doubling_witnesses,
    estimate_growth_constant,
    max_count_jumps,
    solve_exponents,
)
from chainpart.core import (
    InvalidSystemError,
    InvariantViolationError,
    UnreachableSumError,
    make_system,
)
from chainpart.counting import make_counter


def test_sum_s_spot(sys23):
    prefix = PrefixSums(sys23, 20)
    assert prefix.s(3) == 4
    assert prefix.s(0.5) == 0
    assert prefix.s(19.7) == prefix.s(19) == sum(make_counter(sys23).scan(19)[1:])


def test_prefix_sums_hold_no_scan(sys23):
    # the 8 MB array of sums to 10^6 and the counter; keeping the 4 MB scan
    # beside them held 11.9 MiB here
    tracemalloc.start()
    try:
        prefix = PrefixSums(sys23, 10**6)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert prefix.s(10**6) == sum(make_counter(sys23).scan(10**6)[1:])
    assert held < 9 * 2**20, held


def test_identity_exact(sys23):
    prefix = PrefixSums(sys23, 3000)
    for x in range(1, 3001):
        assert prefix.identity_gap(x) == 0
    rng = random.Random(0)
    for _ in range(200):
        assert prefix.identity_gap(rng.uniform(0, 3000)) == 0
    assert prefix.identity_gap(0.25) == 0


def test_exponents(sys23):
    roots = solve_exponents(sys23)
    assert abs(roots.alpha_residual) <= 1e-12
    assert abs(roots.beta_residual) <= 1e-12
    assert 1.0 < roots.alpha < 1.5
    assert round(roots.beta, 2) == 0.79
    roots34 = solve_exponents(make_system(3, 4))
    assert abs(roots34.alpha - 1.0) <= 1e-10
    roots35 = solve_exponents(make_system(3, 5))
    assert roots35.alpha < 1.0
    for p, q in ((2, 3), (2, 5), (2, 7), (3, 4), (3, 5)):
        r = solve_exponents(make_system(p, q))
        assert r.alpha > r.beta


def test_constant_bound_34():
    # 2 / (ln(3)/2 + ln(4)/3) with the exponent equal to 1
    bound = constant_upper_bound(make_system(3, 4))
    assert abs(bound - 1.9774486521) < 1e-9


def test_growth_estimate(sys23):
    est = estimate_growth_constant(sys23, 100_000)
    assert est.max_ratio <= est.upper_bound
    assert est.tail_spread < 0.2
    xs = [x for x, _, _ in est.samples]
    assert xs == [2**k for k in range(1, 17)]


def test_monotonicity_scan(sys23):
    counter = make_counter(sys23)
    arr = counter.scan(20_000 + 3)
    report = check_local_monotonicity(20_000, sys23, arr)
    assert report.violations == ()
    assert arr[9] == 4 and arr[9] >= arr[10] >= arr[8] == 2
    with pytest.raises(ValueError, match="^need counts through 20003, got 20002$"):
        check_local_monotonicity(20_000, sys23, arr[:-1])
    with pytest.raises(InvalidSystemError):
        check_local_monotonicity(100, make_system(3, 5))


@pytest.mark.parametrize("q", [3, 5, 7])
def test_monotonicity_lists_a_failed_check_once(q):
    sys_ = make_system(2, q)
    arr = make_counter(sys_).scan(100 + q)
    arr[q] = 0
    report = check_local_monotonicity(100, sys_, arr)
    assert report.violations == (f"W({q}) < W({q + 1})",)


def test_monotonicity_scan_q5():
    report = check_local_monotonicity(20_000, make_system(2, 5))
    assert report.violations == ()


def test_monotonicity_at_a_large_base_traces_under_2_mb():
    # the scan to 100013 and one block; the list of the q checks, built once,
    # traced 17.9 MiB here
    tracemalloc.start()
    try:
        report = check_local_monotonicity(10, make_system(2, 100003))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.violations == ()
    assert peak < 2 * 2**20, peak


def test_max_jumps_exact_list(sys23):
    report = max_count_jumps(400, sys23)
    assert [(r.u, r.value) for r in report.records] == [
        (3, 2), (9, 4), (21, 5), (27, 7), (57, 10), (81, 13),
        (165, 17), (171, 19), (243, 21), (333, 22), (345, 25),
    ]
    assert all(r.odd_multiple for r in report.records)
    assert report.conjecture_exceptions == ()


def test_max_jumps_no_exceptions_medium(sys23):
    report = max_count_jumps(100_000, sys23)
    assert all(r.u % 3 == 0 for r in report.records)
    assert report.conjecture_exceptions == ()


def test_an_even_multiple_jump_is_an_exception_at_2q2_and_an_error_elsewhere(sys23):
    # a jump planted at u = 3k with k even: 36 is a multiple of 2q^2 = 18, 12 is not
    counts = list(make_counter(sys23).scan(400))
    report = max_count_jumps(400, sys23, counts[:36] + [10**6] + counts[37:])
    assert report.records == (
        JumpRecord(3, 2, True), JumpRecord(9, 4, True), JumpRecord(21, 5, True),
        JumpRecord(27, 7, True), JumpRecord(36, 10**6, False),
    )
    assert report.conjecture_exceptions == (36,)
    with pytest.raises(InvariantViolationError,
                       match="^even-multiple jump at 12 is not a multiple of 18$"):
        max_count_jumps(400, sys23, counts[:12] + [10**6] + counts[13:])


def test_small_count_classification(sys23):
    report = classify_small_counts(10_000, sys23)
    assert set(report.ones) & set(range(101)) == {0, 1, 2, 5, 11, 23, 47, 95}
    assert set(report.twos) & set(range(41)) == {3, 4, 6, 7, 8, 14, 17, 29, 35}
    with pytest.raises(InvalidSystemError):
        classify_small_counts(100, make_system(2, 5))


def test_doubling_witnesses(sys23):
    steps = doubling_witnesses(3, 3, sys23)
    assert [s.u for s in steps] == [3, 21, 777]
    assert steps[1].count == 5 and steps[1].count >= steps[1].lower_bound
    assert all(s.count is None or s.count >= s.lower_bound for s in steps)
    with pytest.raises(UnreachableSumError):
        doubling_witnesses(5, 2, sys23)


def test_doubling_witnesses_other_bases():
    # (2,5): the two partitions of 5 are {5} and {4,1}, so c = 2, d = 1
    steps = doubling_witnesses(5, 4, make_system(2, 5))
    assert [s.u for s in steps][:2] == [5, 5 * (1 + 2**2 * 5)]
    assert all(s.count is None or s.count >= s.lower_bound for s in steps)


def test_growth_bound(sys23):
    report = check_growth_bound(50_000, sys23)
    assert report.violations == ()
    assert 0 < report.max_ratio <= 1


def test_alpha_residual_monotone_and_root_below_two(sys23):
    from chainpart.analytics import _alpha_gap

    grid = [0.01 * k for k in range(1, 250)]
    gaps = [_alpha_gap(x, sys23) for x in grid]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert solve_exponents(sys23).alpha < 2.0
    assert _alpha_gap(2.0, sys23) < 0  # root is unique in (0, 2]
