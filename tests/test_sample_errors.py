"""Every error raised at one grid sample names that sample's frequency as a
plain float and carries it (and the sample's value, where it has one) as
Python floats."""

import numpy as np
import pytest

from loopinfo import (
    DivisionDomainError,
    FrequencyGrid,
    InvalidInputError,
    LogDomainError,
    LoopModel,
    RateInputs,
    SingularityError,
    SpectrumSamples,
    colored,
    decompose,
    freq_response_array,
    log_integral,
    noise_psd,
    sensitivity_ratio,
    tf,
    white,
)
from loopinfo.lti import TF_ONE

GRID = FrequencyGrid(64)
OMEGAS = GRID.omegas
K = 20  # an interior sample; its mirror is 64 - K


def _with_pair(fill, at):
    """An even-symmetric spectrum of fill with at on samples K and 64 - K."""
    v = np.full(64, fill)
    v[K] = v[64 - K] = at
    return v


def unit_circle_response():
    # 1 - d vanishes at omega = 0, sample 32 of the grid
    freq_response_array(tf([1.0], [1.0, -1.0]), OMEGAS)


def noise_psd_zero():
    # 1 + d vanishes at omega = -pi, sample 0
    noise_psd(colored(1.0, tf([1.0, 1.0])), GRID)


def divisor():
    ones = SpectrumSamples(GRID, np.ones(64))
    sensitivity_ratio(ones, SpectrumSamples(GRID, _with_pair(1.0, 0.0)))


def log_integral_zero():
    log_integral(SpectrumSamples(GRID, _with_pair(1.0, 0.0)))


def first_low():
    # a plant pole on the circle at z = 1 zeroes F_wy, and so S_Y, at omega = 0
    model = LoopModel(tf([0.0, 1.0], [1.0, -1.0]), tf([-0.5]), TF_ONE, white(1.0), white(1.0))
    decompose(RateInputs(model, GRID))


def _near_circle_loop(channel_variance):
    """|F_wy|^2 is 4e-14 at omega = 0."""
    plant = tf([0.0, 1.0], [1.0, -(1.0 - 1e-7)])
    return LoopModel(plant, tf([-0.5]), TF_ONE, white(channel_variance), white(1.0))


def f_ratio_form():
    # |F_wy|^2 * S_W = 4e-14 * 1e-290 at omega = 0
    decompose(RateInputs(_near_circle_loop(1e-290), GRID))


def near_singular():
    decompose(RateInputs(_near_circle_loop(1.0), GRID))


def negative_psd():
    SpectrumSamples(GRID, _with_pair(1.0, -1.0))


# (raising call, error type, index of the named sample, the sample's value
# where the error carries one)
SITES = {
    "lti.unit_circle_response": (unit_circle_response, SingularityError, 32, None),
    "spectral.noise_psd": (noise_psd_zero, SingularityError, 0, None),
    "spectral._divisor": (divisor, DivisionDomainError, K, None),
    "spectral.log_integral": (log_integral_zero, LogDomainError, K, 0.0),
    "spectral._first_low": (first_low, LogDomainError, 32, 0.0),
    "decomposition._f_ratio_form": (f_ratio_form, SingularityError, 32, None),
    "decomposition._reject_near_singular": (near_singular, SingularityError, 32, None),
    "SpectrumSamples": (negative_psd, InvalidInputError, K, -1.0),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_sample_error_names_a_float_omega(site):
    call, error, index, value = SITES[site]
    with pytest.raises(error) as exc:
        call()
    err = exc.value
    assert type(err) is error
    assert type(err.omega) is float and err.omega == OMEGAS[index]
    if value is not None:
        assert type(err.value) is float and err.value == value
    assert "np." not in str(err)
    assert f"omega={float(OMEGAS[index])!r}" in str(err)
