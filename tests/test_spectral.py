"""Frequency grids, PSD containers, and the log-spectral quadrature."""

import csv
import io
import math
import warnings

import numpy as np
import pytest

from loopinfo import (
    ClosedLoop,
    DivisionDomainError,
    FrequencyGrid,
    InvalidInputError,
    LogDomainError,
    LoopModel,
    RateInputs,
    SimulationConfig,
    SingularityError,
    SpectrumSamples,
    UnstableLoopError,
    close_loop,
    colored,
    decompose,
    freq_response_array,
    gaussian_entropy_rate,
    log_integral,
    noise_psd,
    output_psd,
    pole_placement_controller,
    sensitivity_ratio,
    simulate_loop,
    spectrum_to_csv,
    tf,
    welch_psd,
    white,
)
from loopinfo import spectral
from loopinfo.lti import TF_ONE
from loopinfo.spectral import squared_gain


# ---------------------------------------------------------------------------
# FrequencyGrid / SpectrumSamples


def test_grid_defaults_and_spacing():
    g = FrequencyGrid()
    assert g.n_points == 4096
    w = g.omegas
    assert w[0] == pytest.approx(-np.pi)
    assert np.allclose(np.diff(w), 2 * np.pi / g.n_points)
    assert w[-1] < np.pi  # right endpoint excluded: periodic trapezoid rule


def test_grid_rejects_non_power_of_two():
    for bad in (100, 0, 63, 32):
        with pytest.raises(InvalidInputError):
            FrequencyGrid(bad)


@pytest.mark.parametrize("bad", [4096.0, np.float64(4096.0), 2.5, True, "4096"])
def test_grid_size_must_be_an_integer(bad):
    with pytest.raises(InvalidInputError, match="grid size must be an integer"):
        FrequencyGrid(bad)


def test_grid_takes_a_numpy_integer_size():
    assert np.array_equal(FrequencyGrid(np.int64(128)).omegas, FrequencyGrid(128).omegas)


def test_grid_omegas_read_only_and_doubled():
    g = FrequencyGrid(64)
    with pytest.raises(ValueError):
        g.omegas[0] = 0.0
    assert FrequencyGrid(2 * g.n_points).omegas.shape == (128,)


def test_doubled_grid_even_samples_are_the_grid_exactly():
    for k in range(6, 21):
        n = 2**k
        coarse, fine = FrequencyGrid(n), FrequencyGrid(2 * n)
        assert np.array_equal(fine.omegas[::2], coarse.omegas)
        if k <= 16:
            assert np.array_equal(fine.unit_circle[::2], coarse.unit_circle)


def test_grid_samples_cached_and_read_only():
    g = FrequencyGrid(256)
    assert g.unit_circle is FrequencyGrid(256).unit_circle
    assert FrequencyGrid(2 * g.n_points).omegas is FrequencyGrid(512).omegas
    with pytest.raises(ValueError):
        g.unit_circle[0] = 1.0
    assert np.array_equal(g.unit_circle, np.exp(-1j * g.omegas))


def test_spectrum_samples_validation():
    g = FrequencyGrid(64)
    with pytest.raises(InvalidInputError):
        SpectrumSamples(g, np.ones(63))
    with pytest.raises(InvalidInputError):
        SpectrumSamples(g, np.full(64, -1.0))
    with pytest.raises(InvalidInputError):
        SpectrumSamples(g, np.full(64, np.nan))
    # an even function of omega passes; a generic ramp does not
    vals = 2.0 + np.cos(g.omegas)
    s = SpectrumSamples(g, vals)
    assert not s.values.flags.writeable
    with pytest.raises(InvalidInputError):
        SpectrumSamples(g, np.linspace(1.0, 2.0, 64))
    # the evenness tolerance: 1e-9 of the mirror sample
    for asymmetry, even in ((0.0, True), (5e-10, True), (2e-9, False)):
        vals = 2.0 + np.cos(np.arange(64) * (2.0 * np.pi / 64))
        vals[1:32] = vals[63:32:-1]
        vals[20] *= 1.0 + asymmetry
        if even:
            SpectrumSamples(g, vals)
        else:
            with pytest.raises(InvalidInputError, match="not even-symmetric"):
                SpectrumSamples(g, vals)
    # an exactly even spectrum is still checked for finite, nonnegative values
    for bad, message in ((np.inf, "non-finite"), (-1.0, "negative PSD value -1.0 at omega=")):
        vals = np.ones(64)
        vals[20] = vals[44] = bad
        with pytest.raises(InvalidInputError, match=message):
            SpectrumSamples(g, vals)


def test_spectrum_samples_copies_what_a_caller_passes():
    g = FrequencyGrid(64)
    vals = 2.0 + np.cos(g.omegas)
    s = SpectrumSamples(g, vals)
    vals[:] = 7.0
    assert np.array_equal(s.values, 2.0 + np.cos(g.omegas))
    assert not np.shares_memory(s.values, vals)


def test_library_built_spectra_are_read_only():
    g = FrequencyGrid(256)
    model = LoopModel(
        tf([0.0, 1.0], [1.0, -0.5]), tf([-0.2]), tf([1.0, 0.5], [1.0, -0.3]),
        colored(0.8, tf([1.0, -0.4])), colored(1.5, tf([1.0], [1.0, -0.6])),
    )
    cl = close_loop(model)
    sw = noise_psd(model.channel_noise, g)
    sv = noise_psd(model.output_disturbance, g)
    sy = output_psd(cl, sw, sv)
    built = [
        noise_psd(white(2.0), g), sw, sv, sy, sensitivity_ratio(sy, sw),
        welch_psd(np.random.default_rng(0).standard_normal(4096), grid=g),
    ]
    for s in built:
        assert not s.values.flags.writeable
        with pytest.raises(ValueError):
            s.values[0] = 1.0


# ---------------------------------------------------------------------------
# NoiseSpec / PSDs


def test_noise_spec_validation():
    with pytest.raises(InvalidInputError):
        white(-1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(InvalidInputError, match="must be finite and >= 0"):
            white(bad)
    with pytest.raises(InvalidInputError):
        colored(1.0, None)
    with pytest.raises(InvalidInputError):
        colored(1.0, tf([1.0], [1.0, -2.0]))  # unstable shaping


def test_a_source_with_unit_shaping_is_white(worked_model):
    """A source is its variance and its shaping: unit shaping is white
    noise, whichever helper built it."""
    assert colored(0.7, TF_ONE) == white(0.7)
    g = FrequencyGrid(1024)
    assert noise_psd(colored(0.7, TF_ONE), g).values.tobytes() == (
        noise_psd(white(0.7), g).values.tobytes()
    )
    m_colored, m_white = (
        LoopModel(worked_model.plant, worked_model.controller, TF_ONE, white(1.3), source)
        for source in (colored(0.7, TF_ONE), white(0.7))
    )
    assert decompose(RateInputs(m_colored, g)) == decompose(RateInputs(m_white, g))
    a, b = (
        simulate_loop(SimulationConfig(m, n_samples=4096, burn_in=0, seed=3))
        for m in (m_colored, m_white)
    )
    for name in ("y", "w", "v", "z", "u"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_white_psd_is_flat():
    g = FrequencyGrid(128)
    s = noise_psd(white(2.5), g)
    assert np.all(s.values == 2.5)


def test_colored_psd_known_values():
    g = FrequencyGrid(4096)
    i0 = int(np.argmin(np.abs(g.omegas)))
    # G = 1/(1 - 0.5 d): |G(0)|^2 = 1/(1-0.5)^2 = 4
    s = noise_psd(colored(1.0, tf([1.0], [1.0, -0.5])), g)
    assert s.values[i0] == pytest.approx(4.0)
    # G = 1 - 0.9 d, variance 2: S(pi) = 2 * |1 + 0.9|^2 = 7.22
    s2 = noise_psd(colored(2.0, tf([1.0, -0.9])), g)
    assert s2.values[0] == pytest.approx(7.22)


def test_colored_psd_rejects_circle_zero_denominator():
    g = FrequencyGrid(64)
    with pytest.raises((SingularityError, InvalidInputError)):
        noise_psd(colored(1.0, tf([1.0], [1.0, -1.0])), g)



def test_shaping_zero_on_the_circle_raises_for_a_silent_source_too():
    """The filter is checked before the variance scales it: 1 + d vanishes at
    omega = -pi whatever the variance."""
    with pytest.raises(SingularityError, match="shaping filter vanishes") as exc:
        noise_psd(colored(0.0, tf([1.0, 1.0])), FrequencyGrid(64))
    assert exc.value.omega == -np.pi


def test_shaping_gain_just_above_the_floor_is_accepted():
    """|1 + c d| at omega = -pi is 1 - c = 2e-9, so |G|^2 = 4e-18 clears 1e-18."""
    s = noise_psd(colored(0.5, tf([1.0, 1.0 - 2e-9])), FrequencyGrid(64))
    assert s.values[0] == pytest.approx(2e-18, rel=1e-6)

def _even_test_model():
    """Dynamic H and colored noise on both sources: every spectrum evaluated."""
    plant, h = tf([0.0, 1.0], [1.0, -2.0]), tf([1.0, 0.5], [1.0, -0.3])
    return LoopModel(
        plant,
        pole_placement_controller(plant * h, [0.1, 0.2, -0.3]),
        h,
        colored(0.8, tf([1.0, -0.4])),
        colored(1.5, tf([1.0], [1.0, -0.6])),
    )


@pytest.mark.parametrize("n", [64, 4096, 65536])
def test_library_spectra_are_exactly_even(n):
    """Sample n - k is the mirror of sample k, bit for bit."""
    g = FrequencyGrid(n)
    model = _even_test_model()
    sw = noise_psd(model.channel_noise, g)
    sv = noise_psd(model.output_disturbance, g)
    evaluated = [
        sw.values,
        sv.values,
        squared_gain(model.feedback_filter, g),
        squared_gain(close_loop(model).f_wy, g),
        output_psd(close_loop(model), sw, sv).values,
    ]
    for v in evaluated:
        assert v[1:].tobytes() == v[:0:-1].tobytes()


@pytest.mark.parametrize("n", [64, 4096, 65536])
def test_squared_gain_evaluates_omega_up_to_zero_and_mirrors(n):
    """The samples with omega in [-pi, 0] are |tf|^2 there, as the
    arbitrary-omega route evaluates it; the rest are their mirrors."""
    g = FrequencyGrid(n)
    f = close_loop(_even_test_model()).f_vy
    head = np.abs(freq_response_array(f, g.omegas[: n // 2 + 1])) ** 2
    expected = np.concatenate([head, head[n // 2 - 1 : 0 : -1]])
    assert squared_gain(f, g).tobytes() == expected.tobytes()


def _all_n_formulas(cl, g, sw, sv, sy):
    """output_psd, sensitivity_ratio, log_integral and gaussian_entropy_rate
    as numpy forms them over all n samples."""
    fwy, fvy = squared_gain(cl.f_wy, g), squared_gain(cl.f_vy, g)
    mean_log = float(np.mean(np.log(sy.values)))
    return (
        (fwy * sw.values + fvy * sv.values).tobytes(),
        np.sqrt(sy.values / sw.values).tobytes(),
        mean_log,
        0.5 * math.log(2.0 * math.pi * math.e) + 0.5 * mean_log,
    )


def _library_routes(cl, sw, sv, sy):
    return (
        output_psd(cl, sw, sv).values.tobytes(),
        sensitivity_ratio(sy, sw).values.tobytes(),
        log_integral(sy),
        gaussian_entropy_rate(sy),
    )


@pytest.mark.parametrize("n", [64, 4096, 65536])
def test_exactly_even_spectra_take_the_half_bit_for_bit(n):
    g = FrequencyGrid(n)
    model = _even_test_model()
    cl = close_loop(model)
    sw = noise_psd(model.channel_noise, g)
    sv = noise_psd(model.output_disturbance, g)
    sy = output_psd(cl, sw, sv)
    assert sw._span == sv._span == sy._span == n // 2 + 1
    assert _library_routes(cl, sw, sv, sy) == _all_n_formulas(cl, g, sw, sv, sy)


def test_spectra_even_only_within_the_tolerance_take_all_n_samples():
    n = 4096
    g = FrequencyGrid(n)
    model = _even_test_model()
    sw = noise_psd(model.channel_noise, g)
    sv = noise_psd(model.output_disturbance, g)
    nearly = []
    for s in (sw, sv, output_psd(close_loop(model), sw, sv)):
        v = s.values.copy()
        v[20] *= 1.0 + 5e-10  # sample n - 20 is not moved
        nearly.append(SpectrumSamples(g, v))
        assert nearly[-1]._span == n
    sw, sv, sy = nearly
    cl = close_loop(model)
    assert _library_routes(cl, sw, sv, sy) == _all_n_formulas(cl, g, sw, sv, sy)


def test_evenness_is_compared_only_for_spectra_not_built_even(monkeypatch):
    """noise_psd, and output_psd and sensitivity_ratio when they mirror, form
    exactly even values and take the half without comparing the mirrors; a
    caller's values and welch_psd's interpolated spectrum are compared."""
    n = 4096
    g = FrequencyGrid(n)
    compared = []
    array_equal = np.array_equal

    def counting(a, b):
        compared.append(len(a))
        return array_equal(a, b)

    monkeypatch.setattr(spectral.np, "array_equal", counting)
    model = _even_test_model()
    sw = noise_psd(model.channel_noise, g)
    sv = noise_psd(model.output_disturbance, g)
    sy = output_psd(close_loop(model), sw, sv)
    built = [sw, sv, noise_psd(white(2.0), g), sy, sensitivity_ratio(sy, sw)]
    assert compared == []
    assert all(s._span == n // 2 + 1 for s in built)
    x = np.random.default_rng(0).standard_normal(2**14)
    welch = welch_psd(x, grid=g)
    assert compared == [n - 1]
    # the mirrors of its 1024 bins, interpolated, differ only by rounding
    assert welch._span == n
    assert SpectrumSamples(g, sy.values)._span == n // 2 + 1
    assert compared == [n - 1, n - 1]


def _ones_with(pairs, mirrored=True, n=64):
    """Ones, with each (index, value) set at index and, if mirrored, at its
    mirror n - index (sample 0 is its own)."""
    v = np.ones(n)
    for k, value in pairs:
        v[k] = value
        if mirrored:
            v[-k] = value
    return v


NEGATIVE = "negative PSD value {} at omega={!r}"
NON_FINITE = "spectrum contains non-finite values"


@pytest.mark.parametrize(
    "pairs, mirrored, message, at",
    [
        ([(20, np.nan)], True, NON_FINITE, None),
        ([(20, np.inf)], True, NON_FINITE, None),
        ([(20, -np.inf)], True, NON_FINITE, None),
        ([(0, np.nan)], True, NON_FINITE, None),
        ([(44, np.nan)], False, NON_FINITE, None),
        ([(10, -1.0), (30, np.nan)], True, NON_FINITE, None),  # finiteness first
        ([(20, -1.0)], True, NEGATIVE, (20, -1.0)),
        ([(32, -1.0)], True, NEGATIVE, (32, -1.0)),
        ([(10, -1.0), (20, -2.0)], True, NEGATIVE, (20, -2.0)),  # the smallest
        ([(44, -1.0)], False, NEGATIVE, (44, -1.0)),  # sign before evenness
        ([(20, 1.5)], False, "spectrum is not even-symmetric on the grid", None),
    ],
)
def test_spectrum_checks_raise_in_order_naming_the_sample(pairs, mirrored, message, at):
    g = FrequencyGrid(64)
    with pytest.raises(InvalidInputError) as caught:
        SpectrumSamples(g, _ones_with(pairs, mirrored))
    if at is not None:
        k, value = at
        message = message.format(value, float(g.omegas[k]))
        assert (caught.value.omega, caught.value.value) == (float(g.omegas[k]), value)
    assert str(caught.value) == message


def _unchecked(g, values):
    """A SpectrumSamples holding values that the constructor would reject."""
    s = object.__new__(SpectrumSamples)
    for name, value in (("grid", g), ("values", values), ("_span", g.n_points // 2 + 1)):
        object.__setattr__(s, name, value)
    return s


def test_log_integral_domain_rule_on_single_samples():
    g = FrequencyGrid(64)
    omega = float(g.omegas[20])
    for value in (0.0, -0.0):
        with pytest.raises(LogDomainError) as caught:
            log_integral(SpectrumSamples(g, _ones_with([(20, value)])))
        assert str(caught.value) == f"nonpositive log integrand {value!r} at omega={omega!r}"
    low = _ones_with([(20, 1e-13)])
    with pytest.warns(RuntimeWarning, match="near-singular samples"):
        assert log_integral(SpectrumSamples(g, low)) == float(np.mean(np.log(low)))
    # a NaN sample is neither nonpositive nor low: no error, no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(log_integral(_unchecked(g, _ones_with([(20, np.nan)]))))
        assert spectral._first_low("x", _ones_with([(5, np.nan)]), g.omegas) is None
        low_after_nan = _ones_with([(5, np.nan), (20, 1e-13)])
        assert spectral._first_low("x", low_after_nan, g.omegas) == 20
    with pytest.raises(LogDomainError, match=f"nonpositive x 0.0 at omega={omega!r}"):
        spectral._first_low("x", _ones_with([(5, np.nan), (20, 0.0)]), g.omegas)


@pytest.mark.parametrize("n", [64, 4096, 65536])
def test_mean_is_numpys_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for x in (rng.standard_normal(n), np.log(rng.uniform(1e-9, 1e9, n)), np.full(n, 0.1)):
        assert spectral._mean(x) == float(np.mean(x))


def test_output_psd_passthrough_and_worked_example(worked_model):
    g = FrequencyGrid(256)
    sw = noise_psd(white(1.0), g)
    sv = noise_psd(white(1.0), g)
    # P = 0: y = w + v, so S_Y = S_W + S_V everywhere
    from loopinfo.lti import TF_ZERO

    open_loop = LoopModel(TF_ZERO, TF_ZERO, TF_ONE, white(1.0), white(1.0))
    sy = output_psd(close_loop(open_loop), sw, sv)
    assert np.allclose(sy.values, 2.0)
    # worked example at omega = 0: |1 - 2|^2 * (1 + 1) = 2
    cl = close_loop(worked_model)
    sy2 = output_psd(cl, sw, sv)
    i0 = int(np.argmin(np.abs(g.omegas)))
    assert sy2.values[i0] == pytest.approx(2.0)


def test_output_psd_requires_matching_grid_and_stability():
    g = FrequencyGrid(64)
    sw = noise_psd(white(1.0), g)
    sv = noise_psd(white(1.0), FrequencyGrid(128))
    m = LoopModel(
        tf([0.0, 1.0], [1.0, -0.5]), tf([-0.3]), TF_ONE, white(1.0), white(1.0)
    )
    cl = close_loop(m)
    with pytest.raises(InvalidInputError):
        output_psd(cl, sw, sv)
    unstable = close_loop(
        LoopModel(tf([0.0, 1.0], [1.0, -2.0]), tf([-0.1]), TF_ONE, white(1.0), white(1.0))
    )
    with pytest.raises(UnstableLoopError):
        output_psd(unstable, sw, noise_psd(white(1.0), g))


def test_hand_built_closed_loop_takes_its_stability_from_f_wy():
    """A ClosedLoop is its two maps: poles and stability cannot be set apart
    from f_wy."""
    g = FrequencyGrid(64)
    f = tf([1.0], [1.0, -2.0])  # a pole at z = 2
    cl = ClosedLoop(f, f)
    assert cl.closed_loop_poles == (2 + 0j,) and not cl.is_stable
    with pytest.raises(UnstableLoopError) as info:
        output_psd(cl, noise_psd(white(1.0), g), noise_psd(white(1.0), g))
    assert info.value.poles == (2 + 0j,)


def test_hand_built_closed_loop_is_judged_on_f_vy_too():
    """A stable f_wy does not make the pair stable: is_stable and output_psd
    also read the poles of f_vy, while closed_loop_poles stay f_wy's."""
    g = FrequencyGrid(64)
    cl = ClosedLoop(tf([1.0]), tf([1.0], [1.0, -2.0]))
    assert cl.closed_loop_poles == () and not cl.is_stable
    with pytest.raises(UnstableLoopError) as info:
        output_psd(cl, noise_psd(white(1.0), g), noise_psd(white(1.0), g))
    assert info.value.poles == (2 + 0j,)


# ---------------------------------------------------------------------------
# sensitivity_ratio / log_integral


def test_sensitivity_ratio_values():
    g = FrequencyGrid(64)
    a = SpectrumSamples(g, np.full(64, 4.0))
    b = SpectrumSamples(g, np.full(64, 1.0))
    assert np.allclose(sensitivity_ratio(a, b).values, 2.0)
    assert np.allclose(sensitivity_ratio(a, a).values, 1.0)
    assert np.allclose(sensitivity_ratio(b, a).values, 0.5)


def test_sensitivity_ratio_rejects_zero_reference():
    g = FrequencyGrid(64)
    a = SpectrumSamples(g, np.full(64, 1.0))
    zeros = SpectrumSamples(g, np.zeros(64))
    with pytest.raises(DivisionDomainError):
        sensitivity_ratio(a, zeros)



@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowed_sensitivity_ratio_raises_decompose_error(worked_model):
    """Channel variance 1e-200 against a disturbance of 1e200: S_Y/S_W
    overflows. The public ratio raises decompose's error, without a numpy
    overflow warning."""
    model = LoopModel(
        worked_model.plant, worked_model.controller, TF_ONE, white(1e-200), white(1e200)
    )
    g = FrequencyGrid(256)
    sw = noise_psd(model.channel_noise, g)
    sy = output_psd(close_loop(model), sw, noise_psd(model.output_disturbance, g))
    with pytest.raises(InvalidInputError) as got:
        sensitivity_ratio(sy, sw)
    assert str(got.value) == "the sensitivity ratio S_Y/S_W exceeds the float range"
    with pytest.raises(InvalidInputError) as want:
        decompose(RateInputs(model, g))
    assert str(got.value) == str(want.value)


def test_sensitivity_ratio_rejects_mismatched_grids():
    a = SpectrumSamples(FrequencyGrid(64), np.ones(64))
    b = SpectrumSamples(FrequencyGrid(128), np.ones(128))
    with pytest.raises(InvalidInputError, match="mismatched grids: 64 vs 128"):
        sensitivity_ratio(a, b)

def test_log_integral_of_constant():
    g = FrequencyGrid(64)
    s = SpectrumSamples(g, np.full(64, math.e))
    assert log_integral(s) == pytest.approx(1.0)


def test_log_integral_jensen_cases():
    """(1/2pi) int log|1 - a e^{-jw}|^2 dw is 0 inside the circle and
    2 ln|a| outside — the calibration identities for the quadrature."""
    g = FrequencyGrid(4096)
    z = np.exp(-1j * g.omegas)
    inside = SpectrumSamples(g, np.abs(1 - 0.5 * z) ** 2)
    outside = SpectrumSamples(g, np.abs(1 - 2.0 * z) ** 2)
    assert abs(log_integral(inside)) < 1e-9
    assert log_integral(outside) == pytest.approx(2 * math.log(2), abs=1e-9)


def test_log_integral_domain_errors_and_warning():
    g = FrequencyGrid(64)
    zeros = SpectrumSamples(g, np.zeros(64))
    with pytest.raises(LogDomainError):
        log_integral(zeros)
    tiny = SpectrumSamples(g, np.full(64, 1e-13))
    with pytest.warns(RuntimeWarning):
        val = log_integral(tiny)
    assert val == pytest.approx(math.log(1e-13))


# ---------------------------------------------------------------------------
# algebraic properties of the quadrature


def test_log_integral_is_additive_over_products():
    g = FrequencyGrid(512)
    z = np.exp(-1j * g.omegas)
    rng = np.random.default_rng(11)
    for _ in range(10):
        a, b = rng.uniform(-0.8, 0.8, 2)
        sa = SpectrumSamples(g, np.abs(1 - a * z) ** 2 + 0.5)
        sb = SpectrumSamples(g, np.abs(1 - b * z) ** 2 + 0.25)
        both = SpectrumSamples(g, sa.values * sb.values)
        assert log_integral(both) == pytest.approx(
            log_integral(sa) + log_integral(sb), abs=1e-10
        )


def test_ratio_integral_is_half_log_difference():
    g = FrequencyGrid(512)
    z = np.exp(-1j * g.omegas)
    sa = SpectrumSamples(g, np.abs(1 - 0.4 * z) ** 2 + 2.0)
    sb = SpectrumSamples(g, np.abs(1 + 0.6 * z) ** 2 + 1.0)
    lhs = log_integral(sensitivity_ratio(sa, sb))
    rhs = 0.5 * (log_integral(sa) - log_integral(sb))
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_output_psd_monotone_in_disturbance_power(worked_model):
    g = FrequencyGrid(256)
    cl = close_loop(worked_model)
    sw = noise_psd(white(1.0), g)
    lo = output_psd(cl, sw, noise_psd(white(0.5), g))
    hi = output_psd(cl, sw, noise_psd(white(2.0), g))
    assert np.all(hi.values >= lo.values)


def test_log_integral_grid_refinement_stable(worked_model):
    """Rational spectra are smooth on the circle, so doubling the grid moves
    the periodic trapezoid value by float noise only."""
    cl = close_loop(worked_model)
    vals = []
    for n in (1024, 2048):
        g = FrequencyGrid(n)
        sy = output_psd(cl, noise_psd(white(1.0), g), noise_psd(white(1.0), g))
        vals.append(log_integral(sy))
    assert abs(vals[0] - vals[1]) < 1e-9


# ---------------------------------------------------------------------------
# CSV export


def test_spectrum_csv_round_trip():
    g = FrequencyGrid(64)
    s = SpectrumSamples(g, 2.0 + np.cos(g.omegas))
    buf = io.StringIO()
    spectrum_to_csv(s, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == ["omega", "value"]
    assert len(rows) == 65
    back = np.array([[float(a), float(b)] for a, b in rows[1:]])
    assert np.allclose(back[:, 0], g.omegas, atol=1e-11)
    assert np.allclose(back[:, 1], s.values, atol=1e-11)


def test_spectrum_samples_reject_complex_values():
    g = FrequencyGrid(64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning on the way
        with pytest.raises(InvalidInputError, match="spectrum values must be real"):
            SpectrumSamples(g, np.ones(64) * (1 + 1j))
        with pytest.raises(InvalidInputError, match="spectrum values must be real"):
            SpectrumSamples(g, [1 + 0j] * 64)
    # real input keeps its bits, whatever its type
    vals = 2.0 + np.cos(g.omegas)
    for given in (vals, list(vals), vals.astype(np.float32)):
        want = np.array(given, dtype=float)
        assert SpectrumSamples(g, given).values.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Spectra kept on the immutable objects: each source's PSD on its NoiseSpec,
# each closed loop's squared gains on its ClosedLoop, once per grid size


def _kept_arrays(model, grid):
    cl = close_loop(model)
    return (
        noise_psd(model.channel_noise, grid).values,
        noise_psd(model.output_disturbance, grid).values,
        *spectral._closed_loop_gains(cl, grid),
    )


def test_kept_spectra_and_gains_are_shared_and_read_only():
    model = _even_test_model()
    grid = FrequencyGrid(256)
    decompose(RateInputs(model, grid))
    kept = _kept_arrays(model, grid)
    # the arrays decompose formed and kept, which every later call returns
    read = (
        model.channel_noise._psd[grid.n_points].values,
        model.output_disturbance._psd[grid.n_points].values,
        *close_loop(model)._gains[grid.n_points],
    )
    assert all(got is want for got, want in zip(read, kept))
    for a in kept:
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_kept_arrays_equal_those_formed_afresh():
    grid = FrequencyGrid(512)
    model = _even_test_model()
    decompose(RateInputs(model, grid))
    kept = _kept_arrays(model, grid)
    fresh = _even_test_model()
    assert fresh == model
    formed = _kept_arrays(fresh, grid)
    assert [a.tobytes() for a in kept] == [a.tobytes() for a in formed]
    # a hand-built closed loop with equal maps forms the same gains
    cl = close_loop(model)
    hand = spectral._closed_loop_gains(ClosedLoop(cl.f_wy, cl.f_vy), grid)
    assert [a.tobytes() for a in kept[2:]] == [a.tobytes() for a in hand]
    assert kept[2].tobytes() == squared_gain(cl.f_wy, grid).tobytes()
    # H = 1: F_vy is F_wy, and the pair holds one array twice
    plant = tf([0.0, 1.0], [1.0, -2.0])
    unit = LoopModel(plant, tf([-2.0]), TF_ONE, white(1.0), white(1.0))
    fwy2, fvy2 = spectral._closed_loop_gains(close_loop(unit), grid)
    assert fvy2 is fwy2


def test_filled_caches_leave_repr_eq_and_hash_unchanged():
    model = _even_test_model()
    cl = close_loop(model)
    objects = (model.channel_noise, model.output_disturbance, cl, model)
    before = [(repr(o), hash(o)) for o in objects]
    grid = FrequencyGrid(256)
    decompose(RateInputs(model, grid))
    sw = noise_psd(model.channel_noise, grid)
    output_psd(cl, sw, noise_psd(model.output_disturbance, grid))
    assert model.channel_noise._psd and model.output_disturbance._psd and cl._gains
    assert [(repr(o), hash(o)) for o in objects] == before
    fresh = _even_test_model()
    fresh_cl = close_loop(fresh)
    fresh_objects = (fresh.channel_noise, fresh.output_disturbance, fresh_cl, fresh)
    assert not fresh.channel_noise._psd and not fresh_cl._gains
    for filled, empty in zip(objects, fresh_objects):
        assert filled == empty and hash(filled) == hash(empty)
