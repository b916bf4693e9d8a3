"""Full-scale acceptance gate: one test per criterion, stated tolerances.

Criterion 7 contains a soft mean-ratio window that is numerically
unattainable at the stated scan scale even though sigma itself is verified
exactly against brute-force minima (the measured mean is about 1.29 against
a stated ceiling of 1.15).  That check is asserted as stated and therefore
fails; the failure message carries the measurement.
"""

import pytest

from chainpart import acceptance, core, graph23


def _run(fn):
    result = fn("full")
    print(f"criterion {result.cid:02d} {result.name}: "
          f"{'PASS' if result.passed else 'FAIL'} - {result.detail}")
    assert result.passed, f"criterion {result.cid} ({result.name}): {result.detail}"


def test_criterion_01_omega19_words():
    _run(acceptance.criterion_01_omega19)


def test_criterion_02_omega27_graph():
    _run(acceptance.criterion_02_omega27)


def test_criterion_03_count_cross_validation():
    _run(acceptance.criterion_03_counting)


def test_criterion_03_detects_corrupted_memo(damaged_halving_memo):
    result = acceptance.criterion_03_counting("quick")
    assert not result.passed
    assert "disagreement" in result.detail


def test_criterion_04_small_count_characterization():
    _run(acceptance.criterion_04_small_counts)


def test_criterion_05_local_monotonicity():
    _run(acceptance.criterion_05_monotonicity)


def test_criterion_06_max_jumps():
    _run(acceptance.criterion_06_max_jumps)


def test_criterion_07_shortest_lengths():
    _run(acceptance.criterion_07_shortest)


def test_criterion_08_growth_bound():
    _run(acceptance.criterion_08_growth_bound)


def test_criterion_09_exponent_solver():
    _run(acceptance.criterion_09_exponents)


def test_criterion_10_partial_sum_identity():
    _run(acceptance.criterion_10_partial_sums)


def test_criterion_11_graph_properties():
    _run(acceptance.criterion_11_graph)


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


def test_criterion_12_sampler_uniformity():
    _run(acceptance.criterion_12_sampler)


def test_criterion_13_codec_roundtrip():
    _run(acceptance.criterion_13_codec)


def test_criterion_14_digit_indicator_powers():
    _run(acceptance.criterion_14_digit_powers)
