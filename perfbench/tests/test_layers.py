import pytest

import layers
from spans import Span, Tracer


def synthetic_pass():
    """A traced pass: set-up builds one profile, the timed section runs one
    simulation of 10 steps at N = 64 and two eigensolves at N = 128."""
    t = Tracer()
    t.spans = [
        Span(0, "pass", None, 0.0, 10.0),
        Span(1, "setup", 0, 0.0, 2.0),
        Span(2, "potential.build_profile", 1, 0.5, 1.5, {"L": 32.0, "grid_points": 1024, "profile_bytes": 32768}),
        Span(3, "timed", 0, 2.0, 10.0),
        Span(4, "solver.simulate", 3, 2.0, 6.0, {"N": 64, "states_bytes": 1000}, {"solver.step": [10, 3.0]}),
        Span(5, "coercivity.eig", 3, 6.0, 7.0, {"N": 128, "eig_flops": 4 * 128**3 // 3}),
        Span(6, "coercivity.eig", 3, 7.0, 9.0, {"N": 128, "eig_flops": 4 * 128**3 // 3}),
    ]
    return t


def test_counts_times_and_computed_sizes():
    t = synthetic_pass()
    m = layers.pass_metrics(t, t.spans[0], t.self_times())
    assert m["solver.steps"] == 10
    assert m["solver.step_us"] == pytest.approx(3.0e5)
    assert m["solver.fft_calls"] == 80
    assert m["solver.fft_bytes"] == 80 * 2 * 16 * 64
    assert m["coercivity.eigensolves"] == 2
    assert m["coercivity.eig_s"] == pytest.approx(3.0)
    assert m["coercivity.eig_s.N128"] == pytest.approx(3.0)
    assert m["coercivity.eig_flops"] == 2 * (4 * 128**3 // 3)
    assert m["potential.build_profile_s.L32"] == pytest.approx(1.0)
    assert m["potential.profile_bytes"] == 32768
    # functions that were not called still report 0
    assert m["study.rows"] == 0 and m["attractor.monitor_s"] == 0.0


def test_layer_self_times_partition_the_pass():
    t = synthetic_pass()
    selfs = t.self_times()
    m = layers.pass_metrics(t, t.spans[0], selfs)
    layer_total = sum(m[f"{layer}.self_s"] for layer in layers.LAYERS) + m["trace.unattributed_s"]
    assert layer_total == pytest.approx(10.0)
    assert m["solver.self_s"] == pytest.approx(4.0)  # 1 s in simulate itself + 3 s of steps
    assert layers.self_time_sum(t, t.spans[3], selfs) == pytest.approx(t.spans[3].duration)


def test_units_follow_metric_suffixes():
    assert layers.unit_of("coercivity.eig_s.N2048") == "s"
    assert layers.unit_of("potential.build_profile_s.L50.2655") == "s"
    assert layers.unit_of("solver.step_us") == "us"
    assert layers.unit_of("coercivity.matrix_bytes.N64") == "B"
    assert layers.unit_of("potential.rss_growth_mb") == "MB"
    assert layers.unit_of("coercivity.N_final") == "count"
    assert layers.unit_of("trace.overhead_frac") == "ratio"
