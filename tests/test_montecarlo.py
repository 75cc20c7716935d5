"""Time-domain simulation, Welch spectra, and analytic-vs-empirical agreement."""

import csv
import io
import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from loopinfo import (
    ComparisonRecord,
    DivergenceError,
    FrequencyGrid,
    InvalidInputError,
    LoopModel,
    SimulationConfig,
    TrajectorySet,
    WelchParams,
    compare_report,
    colored,
    empirical_directed_info,
    simulate_loop,
    tf,
    welch_psd,
    white,
)
from loopinfo.lti import TF_ONE, TF_ZERO

LN2 = math.log(2.0)


def open_loop(sigma_w2=1.0, sigma_v2=1.0):
    return LoopModel(TF_ZERO, TF_ZERO, TF_ONE, white(sigma_w2), white(sigma_v2))


# ---------------------------------------------------------------------------
# configuration and trajectory bookkeeping


def test_simulation_config_validation():
    with pytest.raises(InvalidInputError):
        SimulationConfig(open_loop(), n_samples=100, burn_in=100)
    with pytest.raises(InvalidInputError):
        SimulationConfig(open_loop(), n_samples=100, burn_in=-1)
    with pytest.raises(InvalidInputError):
        SimulationConfig(open_loop(), seed=-1)
    with pytest.raises(InvalidInputError):
        SimulationConfig(open_loop(), seed=2**64)


def test_open_loop_output_variance():
    traj = simulate_loop(SimulationConfig(open_loop(), n_samples=2**15, seed=5))
    assert np.var(traj.y) == pytest.approx(2.0, abs=0.1)
    assert np.var(traj.w) == pytest.approx(1.0, abs=0.05)
    assert np.all(traj.u == 0.0)


def test_zero_noise_gives_zero_signals():
    m = LoopModel(
        tf([0.0, 1.0], [1.0, -0.5]), tf([-0.3]), TF_ONE, white(0.0), white(0.0)
    )
    traj = simulate_loop(SimulationConfig(m, n_samples=2**13, seed=0))
    for sig in (traj.y, traj.w, traj.v, traj.z, traj.u):
        assert np.all(sig == 0.0)


def test_seed_determinism_is_bitwise(worked_model):
    cfg = SimulationConfig(worked_model, n_samples=2**13, seed=42)
    a = simulate_loop(cfg)
    b = simulate_loop(cfg)
    for x, y in ((a.y, b.y), (a.w, b.w), (a.v, b.v), (a.z, b.z), (a.u, b.u)):
        assert np.array_equal(x, y)
    c = simulate_loop(SimulationConfig(worked_model, n_samples=2**13, seed=43))
    assert not np.array_equal(a.y, c.y)


def test_channel_equation_holds_exactly(worked_model):
    traj = simulate_loop(SimulationConfig(worked_model, n_samples=2**13, seed=1))
    assert np.array_equal(traj.y, traj.z + traj.w)
    assert traj.sample_count == 2**13 - 4096
    assert not traj.y.flags.writeable


def test_trajectory_set_validation():
    n = 8
    z = np.zeros(n)
    w = np.ones(n)
    with pytest.raises(InvalidInputError):
        TrajectorySet(y=z, w=w, v=z, z=z, u=z, seed=0, sample_count=n)  # y != z + w
    with pytest.raises(InvalidInputError):
        TrajectorySet(y=w, w=w, v=z, z=np.zeros(n - 1), u=z, seed=0, sample_count=n)
    bad = np.full(n, np.nan)
    with pytest.raises(InvalidInputError):
        TrajectorySet(y=w, w=w, v=bad, z=z, u=z, seed=0, sample_count=n)


def test_trajectory_csv_layout(worked_model):
    traj = simulate_loop(SimulationConfig(worked_model, n_samples=4100, burn_in=4096, seed=0))
    buf = io.StringIO()
    traj.to_csv(buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == ["t", "w", "v", "z", "y", "u"]
    assert len(rows) == 1 + traj.sample_count
    assert float(rows[1][4]) == pytest.approx(float(rows[1][3]) + float(rows[1][1]), abs=1e-9)


def test_initial_state_length_checked(worked_model):
    cfg = SimulationConfig(
        LoopModel(
            worked_model.plant,
            worked_model.controller,
            worked_model.feedback_filter,
            worked_model.channel_noise,
            worked_model.output_disturbance,
            initial_state=(1.0, 2.0, 3.0),
        ),
        n_samples=2**13,
    )
    with pytest.raises(InvalidInputError):
        simulate_loop(cfg)


def test_divergence_raises_with_index():
    m = LoopModel(
        tf([0.0, 1.0], [1.0, -2.0]), tf([-0.1]), TF_ONE, white(1.0), white(1.0)
    )
    with pytest.raises(DivergenceError) as err:
        simulate_loop(SimulationConfig(m, n_samples=2**13, seed=0))
    assert err.value.index is not None
    assert err.value.index < 200  # pole at 1.9 blows past 1e12 within ~50 steps


# ---------------------------------------------------------------------------
# Welch estimator


def test_welch_params_validation():
    with pytest.raises(InvalidInputError):
        WelchParams(segment_length=1000)
    with pytest.raises(InvalidInputError):
        WelchParams(overlap_fraction=1.0)
    with pytest.raises(InvalidInputError):
        WelchParams(window="hamming")


def test_welch_white_noise_is_flat():
    rng = np.random.Generator(np.random.Philox(0))
    x = rng.standard_normal(2**16)
    s = welch_psd(x, WelchParams(), FrequencyGrid(4096))
    assert float(np.mean(np.abs(s.values - 1.0))) < 0.09
    assert float(np.mean(s.values)) == pytest.approx(1.0, abs=0.02)


def test_welch_integrated_power_matches_sample_variance():
    rng = np.random.Generator(np.random.Philox(2))
    x = rng.standard_normal(2**15) * 1.7
    s = welch_psd(x, WelchParams(), FrequencyGrid(4096))
    assert float(np.mean(s.values)) == pytest.approx(float(np.var(x)), rel=0.03)


def test_welch_localizes_a_sinusoid():
    k0 = 100
    omega0 = 2 * np.pi * k0 / 1024
    t = np.arange(2**14)
    s = welch_psd(np.sin(omega0 * t), WelchParams(), FrequencyGrid(4096))
    peak = abs(float(s.grid.omegas[int(np.argmax(s.values))]))
    assert peak == pytest.approx(omega0, abs=2 * np.pi / 1024)


def test_welch_colored_spectrum_shape():
    from loopinfo.montecarlo import _shaped_noise

    g = FrequencyGrid(4096)
    spec = colored(1.0, tf([1.0], [1.0, -0.5]))
    rng = np.random.Generator(np.random.Philox(1))
    x = _shaped_noise(spec, rng.standard_normal(2**16))
    s = welch_psd(x, WelchParams(), g)
    i0 = int(np.argmin(np.abs(g.omegas)))
    # true PSD: 1/|1 - 0.5 e^{-jw}|^2, i.e. 4 at DC, 4/9 at the band edge;
    # single bins carry ~10% estimator noise, so the seed is pinned
    assert s.values[i0] == pytest.approx(4.0, rel=0.12)
    assert s.values[0] == pytest.approx(4.0 / 9.0, rel=0.12)
    assert float(np.mean(s.values)) == pytest.approx(4.0 / 3.0, rel=0.03)


def test_shaped_noise_one_pole_is_the_explicit_recursion():
    from loopinfo.montecarlo import _shaped_noise

    c = 0.9
    eps = np.random.Generator(np.random.Philox(2)).standard_normal(4096)
    got = _shaped_noise(colored(2.0, tf([1.0], [1.0, -c])), eps)
    x = math.sqrt(2.0) * eps
    want = np.empty_like(x)
    prev = 0.0
    for t in range(len(x)):
        prev = x[t] + c * prev
        want[t] = prev
    assert np.array_equal(got, want)


def test_shaped_noise_arma_matches_impulse_response_convolution():
    from loopinfo.montecarlo import _shaped_noise

    num, den = [1.0, 0.4, -0.3], [1.0, -1.2, 0.72]  # poles 0.6 +- 0.6j, |p| ~ 0.85
    eps = np.random.Generator(np.random.Philox(3)).standard_normal(4096)
    got = _shaped_noise(colored(0.5, tf(num, den)), eps)
    # impulse response as the inverse FFT of the frequency response on 1024
    # points; the aliased tail is ~0.85^1024, far below rounding
    n = 1024
    d = np.exp(-2j * np.pi * np.arange(n) / n)
    h = np.fft.ifft(npoly.polyval(d, num) / npoly.polyval(d, den)).real
    want = np.convolve(math.sqrt(0.5) * eps, h)[: len(eps)]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_welch_rejects_short_input():
    with pytest.raises(InvalidInputError):
        welch_psd(np.zeros(100), WelchParams(segment_length=1024))


# ---------------------------------------------------------------------------
# empirical rate and comparison records


def test_empirical_rate_reference_loops(worked_model):
    stable = LoopModel(
        tf([0.0, 1.0], [1.0, -0.5]), tf([-0.3]), TF_ONE, white(1.0), white(0.0)
    )
    for model, analytic in (
        (open_loop(), 0.5 * LN2),
        (stable, 0.0),
        (worked_model, LN2 + 0.5 * LN2),
    ):
        traj = simulate_loop(SimulationConfig(model, n_samples=2**17, seed=1))
        rate = empirical_directed_info(traj)
        assert rate == pytest.approx(analytic, abs=0.02)


def test_empirical_floor_counter_warns_on_silent_loop():
    m = LoopModel(
        tf([0.0, 1.0], [1.0, -0.5]), tf([0.0]), TF_ONE, white(0.0), white(0.0)
    )
    traj = simulate_loop(SimulationConfig(m, n_samples=2**14, seed=0))
    with pytest.warns(RuntimeWarning, match="floored"):
        rate = empirical_directed_info(traj)
    assert rate == 0.0  # both spectra sit at the floor, the ratio is one


def test_compare_report_fields():
    cfg = SimulationConfig(open_loop(), n_samples=2**15, seed=3)
    rec = compare_report(cfg, tolerance=0.05)
    assert rec.seed == 3 and rec.n_samples == 2**15
    assert rec.analytic_rate == pytest.approx(0.5 * LN2, abs=1e-10)
    assert rec.abs_gap == abs(rec.analytic_rate - rec.empirical_rate)
    assert rec.rel_gap == pytest.approx(rec.abs_gap / rec.analytic_rate)
    assert rec.passed and rec.floored_bins == 0
    d = rec.as_dict()
    assert d["tolerance"] == 0.05 and d["passed"] is True


def test_compare_report_zero_tolerance_fails():
    rec = compare_report(
        SimulationConfig(open_loop(), n_samples=2**15, seed=3), tolerance=0.0
    )
    assert not rec.passed
    with pytest.raises(InvalidInputError):
        compare_report(
            SimulationConfig(open_loop(), n_samples=2**15), tolerance=-0.1
        )


def test_compare_report_rel_gap_none_when_rate_is_zero():
    # y = w exactly: both routes give a hard zero, so rel_gap is undefined
    m = LoopModel(TF_ZERO, TF_ZERO, TF_ONE, white(1.0), white(0.0))
    rec = compare_report(SimulationConfig(m, n_samples=2**14, seed=0))
    assert rec.analytic_rate == 0.0
    assert rec.empirical_rate == 0.0
    assert rec.rel_gap is None
    assert rec.passed


def test_compare_report_surfaces_divergence_before_analysis():
    m = LoopModel(
        tf([0.0, 1.0], [1.0, -2.0]), tf([-0.1]), TF_ONE, white(1.0), white(1.0)
    )
    with pytest.raises(DivergenceError):
        compare_report(SimulationConfig(m, n_samples=2**13, seed=0))


def test_gap_shrinks_with_record_length():
    """Median agreement gap drops roughly like the inverse square root of the
    number of averaged segments; 8x the data must at least halve it."""
    gaps = {}
    for n in (2**14, 2**17):
        gs = []
        for seed in range(5):
            rec = compare_report(SimulationConfig(open_loop(), n_samples=n, seed=seed))
            gs.append(rec.abs_gap)
        gaps[n] = float(np.median(gs))
    assert gaps[2**17] < 0.5 * gaps[2**14]
