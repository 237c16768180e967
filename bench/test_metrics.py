"""Tests of the benchmark's own arithmetic and wrapper binding.

    python3 -m pytest -q bench/test_metrics.py
"""

import math
import os
import sys

import pytest

from metrics import Tally, span_totals, self_times, tail

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))


class TestSelfTime:
    def test_nested_children_and_grandchildren(self):
        spans = [
            ("op", 0.0, 10.0, -1),
            ("a", 1.0, 4.0, 0),
            ("b", 2.0, 3.0, 1),   # grandchild: counts against a, not op
            ("a", 5.0, 6.5, 0),
        ]
        assert self_times(spans) == pytest.approx([10.0 - 3.0 - 1.5, 3.0 - 1.0, 1.0, 1.5])

    def test_overlapping_children_are_counted_once(self):
        spans = [("op", 0.0, 10.0, -1), ("a", 1.0, 5.0, 0), ("b", 3.0, 7.0, 0)]
        assert self_times(spans)[0] == pytest.approx(4.0)

    def test_child_outside_its_parent_is_clipped(self):
        spans = [("op", 0.0, 2.0, -1), ("a", 1.0, 3.0, 0)]
        assert self_times(spans)[0] == pytest.approx(1.0)

    def test_totals_per_name(self):
        spans = [("op", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0), ("a", 5.0, 6.0, 0)]
        totals = span_totals(spans)
        assert totals["a"] == {"calls": 2, "self_s": pytest.approx(4.0)}
        assert totals["op"]["self_s"] == pytest.approx(6.0)


class TestTail:
    def test_rank_with_exactly_ten_beyond(self):
        times = [float(i) for i in range(1, 41)]  # 40 samples
        result = tail(times)
        assert result["value"] == 30.0
        assert result["percentile"] == pytest.approx(75.0)
        assert result["beyond"] == 10
        assert sum(t > result["value"] for t in times) == 10
        assert result["resolved"]

    def test_twenty_samples_is_the_median(self):
        result = tail([float(i) for i in range(20, 0, -1)])
        assert (result["value"], result["percentile"], result["beyond"]) == (10.0, 50.0, 10)

    def test_too_few_samples_fall_back_to_the_median(self):
        result = tail([3.0, 1.0, 2.0, 10.0])
        assert result == {"value": 2.5, "percentile": 50.0, "samples": 4,
                          "beyond": 2, "resolved": False}

    def test_empty_sample_is_refused(self):
        with pytest.raises(ValueError):
            tail([])


class TestTally:
    def test_fail_frac_counts_misses_and_exceptions(self):
        tally = Tally()
        tally.add(1.0, True, 100)
        tally.add(2.0, False, 100, "wrong output")
        tally.add(1.0, False, 0, "raised")
        tally.add(1.0, True, 100)
        assert (tally.attempted, tally.failed) == (4, 2)
        assert tally.fail_frac == 0.5
        assert tally.errors == ["wrong output", "raised"]

    def test_failed_operations_stay_in_the_time_base(self):
        tally = Tally()
        tally.add(1.0, True, 10)
        tally.add(3.0, False, 10)
        metrics = tally.end_to_end()
        assert metrics["ops_per_s"] == pytest.approx(1 / 4.0)
        assert metrics["points_per_s"] == pytest.approx(10 / 4.0)
        assert metrics["op_s_p50"] == pytest.approx(2.0)
        assert metrics["ok_frac"] == 0.5


def test_wrappers_bind_every_namespace_and_restore():
    pytest.importorskip("numpy")
    import gaborlattice
    import gaborlattice.cli
    import gaborlattice.recon
    import gaborlattice.verify
    import spans

    original = gaborlattice.qtheta.coeff_E
    recorder = spans.Recorder()
    with spans.installed(recorder) as bindings:
        for module in (gaborlattice, gaborlattice.qtheta, gaborlattice.recon,
                       gaborlattice.cli, gaborlattice.verify):
            assert module.coeff_E is not original
        assert "gaborlattice.recon.coeff_E" in bindings["qtheta.coeff_E"]
        gaborlattice.recon.coeff_E(1, gaborlattice.nome_from_tau(1.0))
    assert gaborlattice.recon.coeff_E is original
    assert gaborlattice.verify.coeff_E is original
    assert [span[0] for span in recorder.spans] == ["qtheta.coeff_E"]
    assert spans.uncovered("cli_grid", span_totals(recorder.spans)) != []


def test_construction_count_restores_init():
    pytest.importorskip("numpy")
    from gaborlattice.scaled import ScaledValue
    import spans

    original = ScaledValue.__dict__["__init__"]
    counter = [0]
    with spans.counting_constructions(ScaledValue, counter):
        value = ScaledValue(2.0) * ScaledValue(3.0)
    assert counter[0] == 3
    assert ScaledValue.__dict__["__init__"] is original
    assert math.isclose(value.to_complex().real, 6.0)
