"""Full-scale acceptance gate: one test per entry of ``acceptance.CRITERIA``.

Each test is named from its criterion's number and name, as
``test_criterion_07_shortest_lengths``.  Criterion 7 contains a soft
mean-ratio window that is numerically unattainable at the stated scan scale
even though sigma itself is verified exactly against brute-force minima (the
measured mean is about 1.29 against a stated ceiling of 1.15).  That check is
asserted as stated and therefore fails; the failure message carries the
measurement.
"""

import re

from chainpart import acceptance, core, graph23


def _run(fn):
    result = fn("full")
    print(f"criterion {result.cid:02d} {result.name}: "
          f"{'PASS' if result.passed else 'FAIL'} in {result.seconds:.3f} s - {result.detail}")
    assert result.passed, f"criterion {result.cid} ({result.name}): {result.detail}"


def _test_of(fn):
    def test():
        _run(fn)

    return test


for _fn in acceptance.CRITERIA:
    globals()[f"test_criterion_{_fn.cid:02d}_{_fn.name.replace('-', '_')}"] = _test_of(_fn)


def test_criteria_holds_each_criterion_once_in_cid_order():
    names = sorted(name for name in vars(acceptance) if re.fullmatch(r"criterion_\d\d_\w+", name))
    assert [fn.__name__ for fn in acceptance.CRITERIA] == names
    assert all(getattr(acceptance, fn.__name__) is fn for fn in acceptance.CRITERIA)
    assert all(fn.__name__.startswith(f"criterion_{fn.cid:02d}_") for fn in acceptance.CRITERIA)


def test_a_budget_fails_a_slow_body_after_its_own_checks():
    slow = acceptance._criterion(99, "slow", budget=0.0)(lambda profile: "done")
    result = slow("quick")
    assert not result.passed
    assert re.fullmatch(r"took \d+\.\d{3}s, budget 0s", result.detail), result.detail

    def broken(profile):
        raise acceptance._Failure("its own message")

    result = acceptance._criterion(99, "broken", budget=0.0)(broken)("quick")
    assert (result.passed, result.detail) == (False, "its own message")
    assert acceptance._criterion(99, "fast", budget=60.0)(lambda profile: "done")("quick").passed


def test_a_library_error_in_a_body_fails_its_criterion_with_the_error_named():
    def unreachable(profile):
        raise core.UnreachableSumError("no partition of 2")

    result = acceptance._criterion(99, "unreachable")(unreachable)("quick")
    assert (result.passed, result.detail) == (False, "UnreachableSumError: no partition of 2")


def test_criterion_03_detects_corrupted_memo(damaged_halving_memo):
    result = acceptance.criterion_03_counting("quick")
    assert not result.passed
    assert "disagreement" in result.detail


def test_criterion_11_detects_a_disconnected_graph(monkeypatch):
    # Cut the binary partition off: the adjacency stays symmetric and closed,
    # so only the connectivity check can fail, first at Omega(3) = {3, 1+2}.
    real, sys23 = graph23.neighbors, core.make_system(2, 3)

    def cut(pt):
        binary = core.binary_partition(core.value(pt, sys23))
        return frozenset() if pt == binary else real(pt) - {binary}

    monkeypatch.setattr(graph23, "neighbors", cut)
    result = acceptance.criterion_11_graph("quick")
    assert (result.passed, result.detail) == (False, "graph on Omega(3) disconnected")

