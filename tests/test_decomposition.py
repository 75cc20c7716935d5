"""Rate computation, the control/disturbance split, and its cross-checks."""

import csv
import io
import json
import math
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from mpmath import mp

from loopinfo import (
    ConsistencyError,
    DecompositionReport,
    DivisionDomainError,
    FrequencyGrid,
    InvalidInputError,
    LoopModel,
    RateInputs,
    SingularityError,
    UnstableLoopError,
    bode_term_analytic,
    close_loop,
    colored,
    controller_independence_check,
    decompose,
    export_integrands,
    gaussian_entropy_rate,
    is_stabilizing,
    log_integral,
    noise_psd,
    output_psd,
    pole_placement_controller,
    run_identity_suite,
    sensitivity_ratio,
    tf,
    white,
    white_noise_disturbance_term,
)
from loopinfo import decomposition, lti, spectral
from loopinfo.decomposition import _disturbance_term_exact
from loopinfo.lti import TF_ONE, TF_ZERO

LN2 = math.log(2.0)


def open_loop_model(sigma_v2=1.0):
    return LoopModel(TF_ZERO, TF_ZERO, TF_ONE, white(1.0), white(sigma_v2))


# ---------------------------------------------------------------------------
# entropy rate and the direct rate


def test_gaussian_entropy_rate_white():
    g = FrequencyGrid(256)
    assert gaussian_entropy_rate(noise_psd(white(1.0), g)) == pytest.approx(
        0.5 * math.log(2 * math.pi * math.e)
    )
    assert gaussian_entropy_rate(noise_psd(white(4.0), g)) == pytest.approx(
        0.5 * math.log(2 * math.pi * math.e * 4.0)
    )


def test_rate_open_loop_is_half_log_two():
    # y = w + v with unit variances: sqrt(S_Y/S_W) = sqrt(2) pointwise
    rate = decompose(RateInputs(open_loop_model())).total_rate
    assert rate == pytest.approx(0.5 * LN2, abs=1e-12)


def test_rate_zero_disturbance_stable_loop_is_zero():
    m = LoopModel(
        tf([0.0, 1.0], [1.0, -0.5]), tf([-0.3]), TF_ONE, white(1.0), white(0.0)
    )
    assert abs(decompose(RateInputs(m)).total_rate) < 1e-12


def test_rate_worked_example(worked_model):
    rate = decompose(RateInputs(worked_model)).total_rate
    assert rate == pytest.approx(LN2 + 0.5 * LN2, abs=1e-12)


def test_rate_inputs_reject_unstabilized_loop():
    m = LoopModel(
        tf([0.0, 1.0], [1.0, -2.0]), tf([0.0]), TF_ONE, white(1.0), white(1.0)
    )
    with pytest.raises(UnstableLoopError) as err:
        RateInputs(m)
    assert "2" in str(err.value)  # names the offending pole


# ---------------------------------------------------------------------------
# decompose


def test_decompose_worked_example(worked_model):
    rep = decompose(RateInputs(worked_model))
    assert rep.total_rate == pytest.approx(1.039720770839918, abs=1e-12)
    assert rep.control_term == pytest.approx(LN2, abs=1e-12)
    assert rep.disturbance_term == pytest.approx(0.5 * LN2, abs=1e-12)
    assert abs(rep.residual) < 1e-12
    assert rep.bode_analytic == pytest.approx(LN2, abs=1e-12)
    assert rep.grid_points == 4096
    assert rep.convergence_estimate < 1e-9


def test_decompose_zero_disturbance_collapses_to_bode(worked_model):
    m = replace(worked_model, output_disturbance=white(0.0))
    rep = decompose(RateInputs(m))
    assert rep.disturbance_term == pytest.approx(0.0, abs=1e-12)
    assert rep.total_rate == pytest.approx(rep.control_term, abs=1e-12)
    assert rep.control_term == pytest.approx(LN2, abs=1e-10)


def test_decompose_disturbance_depends_only_on_noise_ratio(worked_model):
    """With H = 1 and white noises the second term is 0.5 ln(1 + r) for any
    plant/controller pair — check two very different loops."""
    stable = LoopModel(
        tf([0.0, 1.0], [1.0, -0.5]), tf([0.2]), TF_ONE, white(1.0), white(1.0)
    )
    for m in (worked_model, stable, open_loop_model()):
        rep = decompose(RateInputs(m))
        assert rep.disturbance_term == pytest.approx(0.5 * LN2, abs=1e-10)


def test_decompose_total_grows_with_disturbance_power(worked_model):
    totals = []
    for s in (0.0, 0.5, 1.0, 2.0):
        rep = decompose(RateInputs(replace(worked_model, output_disturbance=white(s))))
        totals.append(rep.total_rate)
    assert all(b >= a - 1e-12 for a, b in zip(totals, totals[1:]))


def test_decompose_white_closed_form(worked_model):
    for r in (0.0, 0.5, 1.0, 3.0, 10.0):
        m = replace(worked_model, output_disturbance=white(r))
        rep = decompose(RateInputs(m))
        want = LN2 + 0.5 * math.log1p(r)
        assert rep.total_rate == pytest.approx(want, abs=1e-10)


def test_decompose_respects_grid_argument(worked_model):
    rep = decompose(RateInputs(worked_model, FrequencyGrid(1024)))
    assert rep.grid_points == 1024
    assert rep.total_rate == pytest.approx(1.039720770839918, abs=1e-10)


def test_decompose_colored_disturbance_residual_still_zero(worked_model):
    shaped = colored(1.0, tf([1.0], [1.0, -0.5]))
    rep = decompose(RateInputs(replace(worked_model, output_disturbance=shaped)))
    assert abs(rep.residual) < 1e-10
    assert rep.disturbance_term > 0.0


def test_report_serialization(worked_model):
    rep = decompose(RateInputs(worked_model))
    d = json.loads(json.dumps(asdict(rep)))
    assert list(d) == [
        "total_rate",
        "control_term",
        "disturbance_term",
        "residual",
        "bode_analytic",
        "grid_points",
        "convergence_estimate",
    ]
    assert d["total_rate"] == rep.total_rate


def test_report_invariants_enforced():
    with pytest.raises(ConsistencyError):
        DecompositionReport(
            total_rate=1.0,
            control_term=0.5,
            disturbance_term=-1e-6,
            residual=0.0,
            bode_analytic=0.5,
            grid_points=64,
            convergence_estimate=0.0,
        )
    with pytest.raises(ConsistencyError):
        DecompositionReport(
            total_rate=0.1,
            control_term=0.5,
            disturbance_term=0.0,
            residual=0.0,
            bode_analytic=0.5,
            grid_points=64,
            convergence_estimate=0.0,
        )


DYNAMIC_PLANT = tf([0.0, 1.0], [1.0, -2.0])
DYNAMIC_H = tf([1.0, 0.5], [1.0, -0.3])


def placed_controller(targets):
    return pole_placement_controller(DYNAMIC_PLANT * DYNAMIC_H, targets)


def colored_dynamic_h_model():
    """A loop with every evaluated transfer function distinct: dynamic H,
    colored channel noise and colored disturbance."""
    return LoopModel(
        DYNAMIC_PLANT,
        placed_controller([0.1, 0.2, -0.3]),
        DYNAMIC_H,
        colored(0.8, tf([1.0, -0.4])),
        colored(1.5, tf([1.0], [1.0, -0.6])),
    )


@pytest.mark.parametrize("kind", ["white", "colored"])
def test_decompose_total_equals_direct_route_exactly(worked_model, kind):
    """Each reported term is the plain grid mean of its integrand on the
    requested grid, bit for bit."""
    model = worked_model if kind == "white" else colored_dynamic_h_model()
    grid = FrequencyGrid(1024)
    rep = decompose(RateInputs(model, grid))
    cl = close_loop(model)
    sw = noise_psd(model.channel_noise, grid)
    sv = noise_psd(model.output_disturbance, grid)
    sy = output_psd(cl, sw, sv)
    assert rep.total_rate == log_integral(sensitivity_ratio(sy, sw))
    fwy2 = spectral.squared_gain(cl.f_wy, grid)
    assert rep.control_term == float(np.mean(0.5 * np.log(fwy2)))
    h2 = spectral.squared_gain(model.feedback_filter, grid)
    disturbance = 0.5 * np.log1p(h2 * sv.values / sw.values)
    assert rep.disturbance_term == float(np.mean(disturbance))


def test_independence_terms_equal_direct_f_ratio_means_exactly():
    """Each reported term is the plain grid mean of the F-ratio form on that
    controller's closed-loop gains, bit for bit."""
    model = colored_dynamic_h_model()
    controllers = [
        placed_controller(targets)
        for targets in ([0.1, 0.2, -0.3], [0.0, 0.4, 0.5], [-0.2, 0.3j, -0.3j])
    ]
    grid = FrequencyGrid(4096)  # where the F-ratio means differ in the last bit
    report = controller_independence_check(model, controllers, grid)
    sw = noise_psd(model.channel_noise, grid).values
    sv = noise_psd(model.output_disturbance, grid).values
    direct = []
    for k in controllers:
        cl = close_loop(replace(model, controller=k))
        fwy2 = spectral.squared_gain(cl.f_wy, grid)
        fvy2 = spectral.squared_gain(cl.f_vy, grid)
        direct.append(float(np.mean(0.5 * np.log1p(fvy2 * sv / (fwy2 * sw)))))
    assert report.disturbance_terms == tuple(direct)
    assert report.max_deviation == max(direct) - min(direct)


def _count_evaluations(monkeypatch):
    calls = []
    real = spectral.unit_circle_response

    def counting(tf_, points, omegas):
        calls.append((tf_, len(points)))
        return real(tf_, points, omegas)

    monkeypatch.setattr(spectral, "unit_circle_response", counting)
    return calls


def _times_evaluated(calls, tf_):
    return sum(1 for f, _ in calls if f is tf_)


def test_decompose_evaluates_each_transfer_function_once(monkeypatch):
    model = colored_dynamic_h_model()
    inputs = RateInputs(model, FrequencyGrid(512))
    cl = close_loop(model)
    calls = _count_evaluations(monkeypatch)
    decompose(inputs)
    evaluated = (
        cl.f_wy,
        cl.f_vy,
        model.feedback_filter,
        model.channel_noise.shaping,
        model.output_disturbance.shaping,
    )
    for f in evaluated:
        assert _times_evaluated(calls, f) == 1
    assert len(calls) == len(evaluated)
    # the requested grid only, and on it the 257 samples with omega in [-pi, 0]
    assert all(n == 512 // 2 + 1 for _, n in calls)


def test_independence_check_evaluates_sources_once(monkeypatch):
    model = colored_dynamic_h_model()
    controllers = [
        placed_controller(targets)
        for targets in ([0.1, 0.2, -0.3], [0.0, 0.4, 0.5], [-0.2, 0.3j, -0.3j])
    ]
    calls = _count_evaluations(monkeypatch)
    report = controller_independence_check(model, controllers, FrequencyGrid(512))
    assert report.passed
    for f in (
        model.feedback_filter,
        model.channel_noise.shaping,
        model.output_disturbance.shaping,
    ):
        assert _times_evaluated(calls, f) == 1
    assert len(calls) == 3 + 2 * len(controllers)  # F_wy and F_vy per controller


def test_verify_sequence_evaluates_each_transfer_function_once(monkeypatch):
    """decompose, then both noise PSDs and the output PSD on the same grid,
    as a benchmark verify op does: the sources keep their spectra and the
    closed loop its gains, so the later calls evaluate nothing."""
    model = colored_dynamic_h_model()
    grid = FrequencyGrid(512)
    cl = close_loop(model)
    calls = _count_evaluations(monkeypatch)
    report = decompose(RateInputs(model, grid))
    sw = noise_psd(model.channel_noise, grid)
    sv = noise_psd(model.output_disturbance, grid)
    sy = output_psd(close_loop(model), sw, sv)
    evaluated = (
        cl.f_wy,
        cl.f_vy,
        model.feedback_filter,
        model.channel_noise.shaping,
        model.output_disturbance.shaping,
    )
    for f in evaluated:
        assert _times_evaluated(calls, f) == 1
    assert len(calls) == len(evaluated)
    chain = gaussian_entropy_rate(sy) - gaussian_entropy_rate(sw)
    assert abs(report.total_rate - chain) < 1e-10


def test_verify_command_sequence_evaluates_each_shaping_filter_once(monkeypatch):
    """decompose, then the independence check, as `loopinfo verify` runs them:
    each candidate model shares the sources, so their spectra are formed once;
    |H|^2 is formed by each call; the model's own controller, first, reads
    the gains decompose kept, and each other controller forms its own."""
    model = colored_dynamic_h_model()
    controllers = [model.controller, placed_controller([0.0, 0.4, 0.5])]
    grid = FrequencyGrid(512)
    calls = _count_evaluations(monkeypatch)
    decompose(RateInputs(model, grid))
    assert controller_independence_check(model, controllers, grid).passed
    for f in (model.channel_noise.shaping, model.output_disturbance.shaping):
        assert _times_evaluated(calls, f) == 1
    assert _times_evaluated(calls, model.feedback_filter) == 2
    assert _times_evaluated(calls, close_loop(model).f_wy) == 1
    assert len(calls) == 5 + 1 + 2 * (len(controllers) - 1)


def test_independence_check_keeps_no_gains_and_reads_kept_ones_bit_for_bit():
    """On a model whose closed loop keeps no gains, the check forms its own
    controller's and keeps none, so its peak does not grow; after decompose
    it reads the kept ones and reports the same bits."""
    model = colored_dynamic_h_model()
    controllers = [model.controller, placed_controller([0.0, 0.4, 0.5])]
    grid = FrequencyGrid(512)
    cold = controller_independence_check(model, controllers, grid)
    assert close_loop(model)._gains == {}
    decompose(RateInputs(model, grid))
    assert grid.n_points in close_loop(model)._gains
    warm = controller_independence_check(model, controllers, grid)
    assert [t.hex() for t in warm.disturbance_terms] == [
        t.hex() for t in cold.disturbance_terms
    ]


def test_each_grid_size_is_evaluated_once(monkeypatch):
    model = colored_dynamic_h_model()
    calls = _count_evaluations(monkeypatch)
    for n in (512, 256, 512, 256):
        decompose(RateInputs(model, FrequencyGrid(n)))
    shaping = model.channel_noise.shaping
    assert [n for f, n in calls if f is shaping] == [257, 129]
    cl = close_loop(model)
    assert [n for f, n in calls if f is cl.f_wy] == [257, 129]
    # |H|^2 is not kept: every decompose forms it
    assert _times_evaluated(calls, model.feedback_filter) == 4


def test_a_replaced_noise_spec_gets_a_spectrum_of_its_own(monkeypatch):
    spec = colored(0.8, tf([1.0, -0.4]))
    grid = FrequencyGrid(256)
    calls = _count_evaluations(monkeypatch)
    first = noise_psd(spec, grid)
    louder = replace(spec, variance=1.6)
    second = noise_psd(louder, grid)
    assert _times_evaluated(calls, spec.shaping) == 2
    assert second is not first
    assert np.array_equal(second.values, first.values * 2.0)
    assert noise_psd(spec, grid) is first and noise_psd(louder, grid) is second
    assert _times_evaluated(calls, spec.shaping) == 2


def test_a_vanishing_shaping_filter_raises_on_every_call(monkeypatch):
    spec = colored(1.0, tf([1.0, 1.0]))  # 1 + d vanishes at omega = -pi
    grid = FrequencyGrid(256)
    calls = _count_evaluations(monkeypatch)
    for _ in range(3):
        with pytest.raises(SingularityError, match="omega=-3.141592653589793"):
            noise_psd(spec, grid)
    assert _times_evaluated(calls, spec.shaping) == 3
    assert spec._psd == {}


def test_rate_computations_read_only_the_stability_report(monkeypatch):
    """decompose, export_integrands and a four-controller independence check
    take stability from the model's StabilityReport alone: no
    ClosedLoop.is_stable call, and no RateInputs built per controller."""
    model = colored_dynamic_h_model()
    controllers = [
        placed_controller(targets)
        for targets in ([0.1, 0.2, -0.3], [0.0, 0.4, 0.5], [-0.2, 0.3j, -0.3j],
                        [0.3, -0.1, 0.2])
    ]
    grid = FrequencyGrid(512)
    inputs = RateInputs(model, grid)
    calls = []
    is_stable = lti.ClosedLoop.is_stable.fget
    post_init = decomposition.RateInputs.__post_init__

    def counted_is_stable(cl):
        calls.append("ClosedLoop.is_stable")
        return is_stable(cl)

    def counted_post_init(self):
        calls.append("RateInputs")
        post_init(self)

    monkeypatch.setattr(lti.ClosedLoop, "is_stable", property(counted_is_stable))
    monkeypatch.setattr(decomposition.RateInputs, "__post_init__", counted_post_init)
    decompose(inputs)
    export_integrands(inputs, io.StringIO())
    report = controller_independence_check(model, controllers, grid)
    assert len(report.disturbance_terms) == 4 and report.passed
    assert calls == []


@pytest.mark.parametrize("n", [4096, 65536])
def test_integrands_are_formed_on_the_evaluated_half(monkeypatch, n):
    """Both disturbance forms run on the n/2 + 1 samples with omega in
    [-pi, 0], in decompose and in the independence check."""
    sizes = []
    real = decomposition._simplified_form

    def counting(sw, sv, h2, out):
        sizes.append(len(out))
        return real(sw, sv, h2, out)

    monkeypatch.setattr(decomposition, "_simplified_form", counting)
    model = colored_dynamic_h_model()
    grid = FrequencyGrid(n)
    decompose(RateInputs(model, grid))
    assert sizes == [n // 2 + 1] * 2  # the simplified and the F-ratio form
    sizes.clear()
    controllers = [placed_controller([0.0, 0.4, 0.5]), placed_controller([0.1, 0.2, -0.3])]
    controller_independence_check(model, controllers, grid)
    assert sizes == [n // 2 + 1] * 3  # the simplified form, then one per controller


@pytest.mark.parametrize("n", [64, 4096, 65536])
def test_integrands_taken_are_full_and_exactly_even(n):
    taken, _ = decomposition._integrands(colored_dynamic_h_model(), FrequencyGrid(n), np.copy)
    assert len(taken) == 4
    for x in taken:
        assert x.shape == (n,)
        assert np.array_equal(x[1:], x[:0:-1])


def _root_key(coeffs):
    """A polynomial as its companion matrix sees it: leading zeros (pure
    delays) dropped."""
    return tuple(np.trim_zeros(np.asarray(coeffs, dtype=float), "f"))


def _count_roots(monkeypatch):
    calls = []
    real = lti._companion_roots

    def counting(c):
        calls.append(_root_key(c))
        return real(c)

    monkeypatch.setattr(lti, "_companion_roots", counting)
    return calls


def test_decompose_takes_each_polynomials_roots_once(monkeypatch):
    model = colored_dynamic_h_model()
    factors = (
        model.plant,
        model.controller,
        model.feedback_filter,
        model.channel_noise.shaping,
        model.output_disturbance.shaping,
    )
    calls = _count_roots(monkeypatch)
    decompose(RateInputs(model, FrequencyGrid(512)))
    assert calls
    assert len(set(calls)) == len(calls)
    # the factors' roots, taken when they were built, are reused
    assert not {_root_key(p.coeffs) for f in factors for p in (f.num, f.den)} & set(calls)
    # a second decompose of the model retakes only the disturbance spectrum's
    # roots: that polynomial is built per call, from the noises and H
    taken = list(calls)
    decompose(RateInputs(model, FrequencyGrid(512)))
    assert calls[len(taken):] == taken[-1:]


def test_independence_check_takes_the_disturbance_roots_once(monkeypatch):
    model = colored_dynamic_h_model()
    controllers = [
        placed_controller(targets)
        for targets in (
            [0.1, 0.2, -0.3], [0.0, 0.4, 0.5], [-0.2, 0.3j, -0.3j], [0.3, -0.1, 0.2]
        )
    ]
    calls = _count_roots(monkeypatch)
    decompose(RateInputs(model, FrequencyGrid(512)))
    disturbance = calls[-1]  # the root set decompose takes last, on every call
    del calls[:]
    report = controller_independence_check(model, controllers, FrequencyGrid(512))
    assert report.passed
    # the disturbance spectrum holds no controller: its roots are taken once
    assert calls.count(disturbance) == 1


def test_near_singular_integrand_raises_at_once(monkeypatch):
    """|F_wy|^2 is 4e-14 at omega = 0, a point of every grid, so no finer grid
    can help: decompose raises on the requested grid, naming that omega."""
    model = LoopModel(
        tf([0.0, 1.0], [1.0, -(1.0 - 1e-7)]), tf([-0.5]), TF_ONE, white(1.0), white(1.0)
    )
    inputs = RateInputs(model, FrequencyGrid(256))
    calls = _count_evaluations(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SingularityError, match="omega=0.0") as exc:
            decompose(inputs)
    assert exc.value.omega == 0.0
    # the requested grid only, and on it the samples with omega in [-pi, 0]
    assert calls and all(n == 256 // 2 + 1 for _, n in calls)
    assert not any("refin" in str(w.message) for w in caught)


def test_dynamic_h_disturbance_forms_agree_regression():
    """A loop whose F_vy, formed as H * F_wy, lost ~2e-9 of relative accuracy
    when H's pole cancelled against F_wy's numerator, so the two
    disturbance-integrand forms differed by 1.05e-10 and decompose raised
    ConsistencyError."""
    model = LoopModel(
        tf([0.0, 1.8025698696005552, 0.4385020310354182],
           [1.0, 0.5405927403462881, -0.09021457719775813, -0.04031893346700497]),
        tf([-0.32808288916146855, -0.39486196641305554,
            -0.15086700736778913, -0.018108073648656155],
           [1.0, 0.7429823163116535, 0.04759066951202291, -0.017744166463686175]),
        tf([1.0, 0.7898175287685162], [1.0, 0.407769016102593]),
        colored(0.59405389160713, tf([1.0, -0.2662902379128178])),
        colored(1.3761916969845562, tf([1.0], [1.0, 0.029071230870072462])),
    )
    grid = FrequencyGrid(4096)
    cl = close_loop(model)
    h2 = spectral.squared_gain(model.feedback_filter, grid)
    fwy2 = spectral.squared_gain(cl.f_wy, grid)
    fvy2 = spectral.squared_gain(cl.f_vy, grid)
    assert np.max(np.abs(fvy2 / (h2 * fwy2) - 1.0)) < 1e-12
    rep = decompose(RateInputs(model, grid))
    assert abs(rep.residual) < 1e-12


# ---------------------------------------------------------------------------
# closed forms


def test_bode_term_analytic_values(worked_model):
    assert bode_term_analytic(worked_model) == pytest.approx(LN2)
    stable = LoopModel(
        tf([0.0, 1.0], [1.0, -0.5]), tf([-0.3]), TF_ONE, white(1.0), white(1.0)
    )
    assert bode_term_analytic(stable) == 0.0
    two_poles = tf([0.0, 1.0], [1.0, 1.0, -6.0])  # poles {2, -3}
    m = LoopModel(two_poles, tf([0.0]), TF_ONE, white(1.0), white(1.0))
    assert bode_term_analytic(m) == pytest.approx(math.log(2) + math.log(3))
    # an unstable controller pole (z = 3) counts as well as the plant's
    unstable_k = replace(worked_model, controller=tf([0.5], [1.0, -3.0]))
    assert bode_term_analytic(unstable_k) == pytest.approx(LN2 + math.log(3))


def test_white_noise_disturbance_term_values():
    assert white_noise_disturbance_term(0.0, 1.0) == 0.0
    assert white_noise_disturbance_term(1.0, 1.0) == pytest.approx(0.5 * LN2)
    assert white_noise_disturbance_term(3.0, 1.0) == pytest.approx(LN2)
    assert white_noise_disturbance_term(1.0, 2.0) == pytest.approx(
        0.5 * math.log(1.5)
    )
    with pytest.raises(InvalidInputError):
        white_noise_disturbance_term(1.0, 0.0)
    with pytest.raises(InvalidInputError):
        white_noise_disturbance_term(1.0, -2.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(InvalidInputError, match="must be finite and > 0"):
            white_noise_disturbance_term(1.0, bad)
        with pytest.raises(InvalidInputError, match="must be finite and >= 0"):
            white_noise_disturbance_term(bad, 1.0)


# ---------------------------------------------------------------------------
# the exact (Jensen) route and the convergence estimate


def _first_order_log_factor(s, m):
    """(1/2pi) * integral of ln(s - 2m cos omega) for s > 2|m|: ln c of the
    spectral factor c |1 - b e^{-j omega}|^2, where c(1 + b^2) = s, c b = m."""
    m = abs(m)
    return math.log(0.5 * (s + math.sqrt((s - 2.0 * m) * (s + 2.0 * m))))


def _one_pole_closed_form(sigma_v2, sigma_w2, a):
    """Disturbance term for H = 1, white w and v shaped by 1/(1 - a d)."""
    s = sigma_w2 * (1.0 + a * a) + sigma_v2
    return 0.5 * (_first_order_log_factor(s, sigma_w2 * a) - math.log(sigma_w2))


def _one_zero_closed_form(sigma_v2, sigma_w2, a):
    """Disturbance term for H = 1, white w and v shaped by 1 - a d."""
    s = sigma_w2 + sigma_v2 * (1.0 + a * a)
    return 0.5 * (_first_order_log_factor(s, sigma_v2 * a) - math.log(sigma_w2))


def test_jensen_disturbance_term_white_noises(worked_model):
    for sigma_v2, sigma_w2 in ((0.0, 1.0), (1.0, 1.0), (3.0, 1.0), (0.4, 2.5), (7.0, 0.3)):
        m = replace(worked_model, channel_noise=white(sigma_w2),
                    output_disturbance=white(sigma_v2))
        want = white_noise_disturbance_term(sigma_v2, sigma_w2)
        assert abs(_disturbance_term_exact(m) - want) <= 1e-14
        # pure delays have unit modulus on the circle and change nothing
        delayed = replace(m, feedback_filter=tf([0.0, -1.0]),
                          channel_noise=colored(sigma_w2, tf([0.0, 0.0, 1.0])))
        assert abs(_disturbance_term_exact(delayed) - want) <= 1e-14


@pytest.mark.parametrize(
    "a", [-0.99, -0.6, 0.3, 0.9, 0.99, -0.999, 0.999, -0.9999, 0.9999]
)
def test_jensen_disturbance_term_first_order_closed_forms(worked_model, a):
    for sigma_v2, sigma_w2 in ((1.0, 1.0), (0.7, 1.3), (3.0, 0.2), (0.05, 2.0)):
        w = white(sigma_w2)
        pole = replace(worked_model, channel_noise=w,
                       output_disturbance=colored(sigma_v2, tf([1.0], [1.0, -a])))
        assert abs(_disturbance_term_exact(pole)
                   - _one_pole_closed_form(sigma_v2, sigma_w2, a)) <= 1e-14
        zero = replace(worked_model, channel_noise=w,
                       output_disturbance=colored(sigma_v2, tf([1.0, -a])))
        assert abs(_disturbance_term_exact(zero)
                   - _one_zero_closed_form(sigma_v2, sigma_w2, a)) <= 1e-14


# ---------------------------------------------------------------------------
# a 60-digit oracle: log-Mahler measures from mpmath's roots of the same
# float coefficients, with every product formed in mpf


def _mp_mul(a, b):
    out = [mp.mpf(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _mp_product(*polys):
    """The product of Polynomials' coefficients, formed in mpf."""
    out = [mp.mpf(1)]
    for p in polys:
        out = _mp_mul(out, [mp.mpf(c) for c in p.coeffs])
    return out


def _mp_log_mahler(coeffs):
    """ln|c_0| + sum of ln max(1, |z_i|) over the z-plane roots, the
    coefficients read as descending powers of z, pure delays stripped."""
    c = list(coeffs)
    while c[-1] == 0:
        c.pop()
    while c[0] == 0:
        c.pop(0)
    m = mp.log(abs(c[0]))
    if len(c) > 1:
        # clustered roots (a double pole and its mirror image) converge slowly
        for r in mp.polyroots(c, maxsteps=200, extraprec=200):
            m += mp.log(max(1, abs(r)))
    return m


def _mp_disturbance_term(model):
    """(1/2)[m(sigma_v^2 A A* + sigma_w^2 B B*) - m(sigma_w^2 B B*)], the
    roots of B B* taken as they are, not factor by factor."""
    w, v, h = model.channel_noise, model.output_disturbance, model.feedback_filter
    a = _mp_product(h.num, v.shaping.num, w.shaping.den)
    b = _mp_product(h.den, v.shaping.den, w.shaping.num)
    n = max(len(a), len(b))  # equal lengths: a a* and b b* share their centre
    a, b = a + [mp.mpf(0)] * (n - len(a)), b + [mp.mpf(0)] * (n - len(b))
    aa, bb = _mp_mul(a, a[::-1]), _mp_mul(b, b[::-1])
    sv, sw = mp.mpf(v.variance), mp.mpf(w.variance)
    spectrum = [sv * x + sw * y for x, y in zip(aa, bb)]
    return (_mp_log_mahler(spectrum) - _mp_log_mahler([sw * y for y in bb])) / 2


def _oracle_corpus():
    plant = tf([0.0, 1.0], [1.0, -2.0])
    h = tf([1.0, 0.5], [1.0, -0.3])
    placed = pole_placement_controller(plant * h, [0.1, 0.2, -0.3])
    r = 0.9999

    def deadbeat(shaping):
        return LoopModel(plant, tf([-2.0]), TF_ONE, white(1.0), colored(1.0, shaping))

    # an unstable double pole at 1.0001, whose float roots split by ~1e-8
    double_plant = tf([0.0, 1.0], [1.0, -2.0 * 1.0001, 1.0001**2])
    return {
        "v_poles_at_pm_0.9999": deadbeat(tf([1.0], [1.0, 0.0, -r * r])),
        "v_pole_at_1-1e-6": deadbeat(tf([1.0], [1.0, -(1.0 - 1e-6)])),
        "v_double_pole_at_0.9999": deadbeat(tf([1.0], [1.0, -2.0 * r, r * r])),
        "noise_ratio_1e12": LoopModel(plant, placed, h, white(1e-6), white(1e6)),
        "w_zero_at_0.999_dynamic_H": LoopModel(
            plant, placed, h, colored(1.0, tf([1.0, -0.999])), white(1.0)
        ),
        "plant_double_pole_at_1.0001": LoopModel(
            double_plant, pole_placement_controller(double_plant, [0.1, -0.2, 0.3]),
            TF_ONE, white(1.0), white(1.0),
        ),
    }


ORACLE_CORPUS = _oracle_corpus()


@pytest.mark.parametrize("name", sorted(ORACLE_CORPUS))
def test_exact_terms_match_a_60_digit_oracle(name):
    model = ORACLE_CORPUS[name]
    assert is_stabilizing(model).is_stabilizing
    with mp.workdps(60):
        disturbance = _mp_disturbance_term(model)
        bode = _mp_log_mahler(_mp_product(
            model.plant.den, model.controller.den, model.feedback_filter.den
        ))
        assert abs(_disturbance_term_exact(model) - disturbance) <= 1e-13
        assert abs(bode_term_analytic(model) - bode) <= 1e-13


def test_convergence_estimate_small_on_random_loops():
    for case in run_identity_suite(40, seed=0):
        assert case.report.convergence_estimate <= 1e-12


def test_convergence_estimate_small_with_huge_controller_coefficients():
    """A loop whose only stabilizing controllers are unstable; this one has a
    pole at 2.57e7 and coefficients up to 7.3e7."""
    model = LoopModel(
        tf([0.0, 0.6311072054600159, 0.790644542008086],
           [1.0, 1.7944493911628916, -0.12349787122083641,
            -2.5855381577598348e-05, -4.20939581710476e-09]),
        tf([-40788671.27148071, -73186578.2276199, 5049236.592373312, 234.14384242436054],
           [1.0, -25742026.17193811, -32245154.091835905, 5252.683731378798]),
        TF_ONE,
        white(2.8632139523999927),
        white(0.9604316783689053),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = decompose(RateInputs(model, FrequencyGrid(4096)))
    assert rep.convergence_estimate <= 1e-12


def test_silent_disturbance_has_exact_term_zero():
    """sigma_v^2 = 0 leaves only sigma_w^2 B B*, whose roots here are triple
    pairs close to the circle; roots of it would be off by ~1e-6."""
    model = LoopModel(
        tf([0.0, 1.0], [1.0, -0.5]),
        TF_ZERO,
        tf([1.0, 0.5], [1.0, -0.99]),
        colored(1.3, tf([1.0, -0.99])),
        colored(0.0, tf([1.0], [1.0, -0.99])),
    )
    assert _disturbance_term_exact(model) == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = decompose(RateInputs(model, FrequencyGrid(4096)))
    assert rep.disturbance_term == 0.0
    assert rep.convergence_estimate <= 1e-12


@pytest.mark.parametrize("a", [0.9999, -0.9999])
def test_near_circle_grid_error_is_estimated_and_warned(worked_model, a):
    """A disturbance pole at |a| = 0.9999 is too sharp for 4096 points; the
    estimate is the true quadrature error and decompose says so."""
    m = replace(worked_model, output_disturbance=colored(1.0, tf([1.0], [1.0, -a])))
    with pytest.warns(RuntimeWarning, match="4096 points") as caught:
        rep = decompose(RateInputs(m, FrequencyGrid(4096)))
    assert not any("refining the grid" in str(w.message) for w in caught)
    assert caught[0].filename == __file__
    true_error = abs(rep.disturbance_term - _one_pole_closed_form(1.0, 1.0, a))
    assert true_error > 1e-4
    assert abs(rep.convergence_estimate - true_error) <= 1e-11


# ---------------------------------------------------------------------------
# controller independence


def test_independence_across_controllers(worked_model):
    report = controller_independence_check(
        worked_model, [tf([-2.0]), tf([-2.5]), tf([-1.5])]
    )
    assert report.passed
    assert report.max_deviation < 1e-12
    assert all(t == pytest.approx(0.5 * LN2, abs=1e-10) for t in report.disturbance_terms)
    assert report.tolerance == 1e-9


def test_independence_single_controller(worked_model):
    report = controller_independence_check(worked_model, [tf([-2.0])])
    assert report.passed and report.max_deviation == 0.0


def test_independence_with_colored_disturbance(worked_model):
    m = replace(worked_model, output_disturbance=colored(1.0, tf([1.0], [1.0, -0.5])))
    report = controller_independence_check(m, [tf([-2.0]), tf([-2.5])])
    assert report.passed


def test_independence_check_warns_once_off_the_exact_value(worked_model):
    """The simplified mean holds no controller, so its gap to the exact
    Jensen value is taken, and warned about, once per check."""
    m = replace(worked_model, output_disturbance=colored(1.0, tf([1.0], [1.0, -0.9999])))
    with pytest.warns(RuntimeWarning, match="4096 points") as caught:
        controller_independence_check(m, [tf([-2.0]), tf([-2.5]), tf([-1.5])])
    assert len(caught) == 1
    assert caught[0].filename == __file__


def test_independence_check_rejects_a_silent_channel(worked_model):
    with pytest.raises(DivisionDomainError):
        controller_independence_check(
            replace(worked_model, channel_noise=white(0.0)), [tf([-2.0])]
        )


def test_independence_rejects_non_stabilizing_alternative(worked_model):
    with pytest.raises(UnstableLoopError) as err:
        controller_independence_check(worked_model, [tf([-2.0]), tf([0.1])])
    assert "#1" in str(err.value)


def test_independence_check_sees_no_stale_stability_report(worked_model):
    """The base model's cached report (stabilizing) must not carry over to the
    models built from it with another controller."""
    assert is_stabilizing(worked_model).is_stabilizing
    with pytest.raises(UnstableLoopError) as err:
        controller_independence_check(worked_model, [tf([-2.0]), tf([0.1])])
    assert "#1" in str(err.value)
    assert is_stabilizing(replace(worked_model, controller=tf([0.1]))).offending_poles



def test_non_finite_closed_loop_gain_raises_on_both_routes():
    """K = 1e160/(1 + 1e160 d) stabilizes P = d (the return difference is 1),
    but |F_wy|^2 overflows on the circle. decompose and the independence check
    both raise InvalidInputError, and neither leaks numpy's warnings."""
    k = tf([1e160], [1.0, 1e160])
    model = LoopModel(tf([0.0, 1.0]), k, TF_ONE, white(1.0), white(1.0))
    assert is_stabilizing(model).closed_loop_poles == (0j,)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="non-finite"):
            decompose(RateInputs(model))
        with pytest.raises(InvalidInputError, match="controller #0"):
            controller_independence_check(model, [k, k])


def test_overflowed_sensitivity_ratio_raises_on_both_routes(worked_model):
    """With channel variance 1e-200 and disturbance variance 1e200, S_Y/S_W
    and its controller-free part |H|^2 S_V/S_W overflow. Both routes raise
    the same InvalidInputError naming the ratio, and leak no numpy warning."""
    model = replace(worked_model, channel_noise=white(1e-200),
                    output_disturbance=white(1e200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match=r"sensitivity ratio S_Y/S_W"):
            decompose(RateInputs(model))
        with pytest.raises(InvalidInputError, match=r"sensitivity ratio S_Y/S_W"):
            controller_independence_check(model, [tf([-2.0]), tf([-1.5])])


@pytest.mark.parametrize("route", ["decompose", "independence"])
def test_disagreeing_disturbance_forms_raise(monkeypatch, worked_model, route):
    """An F-ratio form 2e-10 off the simplified one fails the 1e-10 cross-check."""
    real = decomposition._f_ratio_form

    def off(*args):
        out = real(*args)
        out += 2e-10
        return out

    monkeypatch.setattr(decomposition, "_f_ratio_form", off)
    with pytest.raises(ConsistencyError, match="disturbance-integrand forms disagree"):
        if route == "decompose":
            decompose(RateInputs(worked_model, FrequencyGrid(256)))
        else:
            controller_independence_check(worked_model, [tf([-2.0])], FrequencyGrid(256))


# ---------------------------------------------------------------------------
# integrand export


def test_integrand_csv_identity_holds_rowwise(worked_model):
    inputs = RateInputs(worked_model, FrequencyGrid(256))
    buf = io.StringIO()
    export_integrands(inputs, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == ["omega", "log_Syw", "log_Fwy", "disturbance_integrand"]
    assert len(rows) == 257
    data = np.array([[float(x) for x in row] for row in rows[1:]])
    assert np.allclose(data[:, 0], inputs.grid.omegas, atol=1e-11)
    # the decomposition identity holds per frequency, not just on average
    assert np.allclose(data[:, 1], data[:, 2] + data[:, 3], atol=1e-9)
    # and the column means are the report's terms, to the CSV's 12 digits
    report = decompose(inputs)
    means = data[:, 1:].mean(axis=0)
    terms = (report.total_rate, report.control_term, report.disturbance_term)
    assert np.allclose(means, terms, rtol=0.0, atol=1e-11)


# ---------------------------------------------------------------------------
# randomized suite


def test_identity_suite_invariants():
    cases = run_identity_suite(40, seed=123)
    assert len(cases) == 40
    saw_unstable_controller = False
    for case in cases:
        rep = case.report
        assert abs(rep.residual) < 1e-8
        assert case.proof_chain_gap < 1e-10
        assert rep.disturbance_term >= -1e-12
        assert rep.total_rate >= rep.control_term - 1e-8
        # the sensitivity quadrature and bode_analytic both count every
        # unstable loop-factor pole, the controller's included
        m = case.model
        full = sum(
            math.log(abs(p))
            for f in (m.plant, m.controller, m.feedback_filter)
            for p in f.poles()
            if abs(p) > 1.0
        )
        assert rep.control_term == pytest.approx(full, abs=1e-6)
        assert rep.bode_analytic == full
        plant_only = sum(
            math.log(abs(p)) for p in m.plant.poles() if abs(p) > 1.0
        )
        if full != plant_only:
            saw_unstable_controller = True
    assert saw_unstable_controller


@pytest.mark.parametrize("n_cases", [2.5, 2.0, True, "3"])
def test_identity_suite_count_must_be_an_integer(n_cases):
    with pytest.raises(InvalidInputError, match="n_cases must be an integer"):
        run_identity_suite(n_cases)


def test_identity_suite_models_get_a_verdict_afresh():
    """A model built again from a suite loop's parts forms its stability
    report anew, without an exception, and it is stabilizing."""
    for case in run_identity_suite(50):
        assert is_stabilizing(replace(case.model)).is_stabilizing


def test_identity_suite_rejects_a_negative_count():
    with pytest.raises(InvalidInputError, match="-3"):
        run_identity_suite(-3)
    assert run_identity_suite(0) == []


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_identity_suite_rejects_a_seed_outside_64_bits(seed):
    with pytest.raises(InvalidInputError, match="seed"):
        run_identity_suite(2, seed=seed)


@pytest.mark.parametrize("seed", [1.5, 2.0, True, "3", None])
def test_identity_suite_rejects_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(InvalidInputError, match="seed must be an integer"):
        run_identity_suite(1, seed=seed)


def test_identity_suite_takes_a_numpy_integer_seed():
    assert run_identity_suite(2, seed=np.uint64(9)) == run_identity_suite(2, seed=9)


def test_identity_suite_is_seeded():
    a = run_identity_suite(3, seed=9)
    b = run_identity_suite(3, seed=9)
    for ca, cb in zip(a, b):
        assert ca.report.total_rate == cb.report.total_rate


def test_identity_suite_forms_each_output_spectrum_once(monkeypatch):
    """The entropy route reads the S_Y its case's decomposition formed: one
    formation a case, and the gap an output_psd formed afresh gives."""
    formed = []
    real = spectral._output_spectrum

    def counting(*args):
        formed.append(args)
        return real(*args)

    for module in (spectral, decomposition):
        monkeypatch.setattr(module, "_output_spectrum", counting)
    cases = run_identity_suite(10, seed=0)
    assert len(formed) == 10
    monkeypatch.undo()
    grid = FrequencyGrid()
    for case in cases:
        sw = noise_psd(case.model.channel_noise, grid)
        sy = output_psd(close_loop(case.model), sw, noise_psd(case.model.output_disturbance, grid))
        chain = gaussian_entropy_rate(sy) - gaussian_entropy_rate(sw)
        assert case.proof_chain_gap == abs(case.report.total_rate - chain)
