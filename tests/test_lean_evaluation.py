"""The allocation-lean evaluation path: recorded bits and peak memory.

The hex values below were recorded before unit-circle evaluation, spectrum
validation and the integrand means were rewritten to work in place. They are
compared bit for bit, on the numpy build and CPU family they were recorded
on: another build of the elementary functions, of LAPACK or of BLAS may move
the last digits of every route alike, so there the comparison is skipped
(the platform fingerprint names the functions that feed the reports).
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from loopinfo import (
    FrequencyGrid,
    LoopModel,
    RateInputs,
    SimulationConfig,
    colored,
    compare_report,
    controller_independence_check,
    decompose,
    integrands_csv_string,
    pole_placement_controller,
    tf,
    white,
)
from loopinfo.lti import TF_ONE

PLANT = tf([0.0, 1.0], [1.0, -2.0])
H = tf([1.0, 0.5], [1.0, -0.3])
TARGETS = ([0.1, 0.2, -0.3], [0.0, 0.4, 0.5], [-0.2, 0.3j, -0.3j])


def placed(targets):
    return pole_placement_controller(PLANT * H, targets)


def dynamic_model():
    """Every evaluated transfer function distinct: dynamic H, colored
    channel noise and colored disturbance."""
    return LoopModel(
        PLANT,
        placed(TARGETS[0]),
        H,
        colored(0.8, tf([1.0, -0.4])),
        colored(1.5, tf([1.0], [1.0, -0.6])),
    )


def pole_model():
    """The fine-grid shape: H = 1, white channel noise, a one-pole disturbance."""
    return LoopModel(
        PLANT, tf([-2.0]), TF_ONE, white(1.0), colored(1.3, tf([1.0], [1.0, -0.9]))
    )


MODELS = {"dynamic": dynamic_model, "pole": pole_model}


def _platform_fingerprint() -> str:
    x = np.linspace(-7.0, 7.0, 65536)
    z = np.empty(x.shape, complex)
    z.real = np.cos(x)
    z.imag = np.sin(x) + 0.25
    a = np.outer(np.sin(np.arange(72.0)), np.cos(np.arange(72.0))) + np.eye(72)
    parts = (
        np.log(np.abs(x) + 1e-3), np.log1p(np.abs(x)), np.sqrt(np.abs(x)),
        np.cos(x), np.sin(x), np.exp(-1j * x), np.abs(z), z / (z + 0.5), z * z,
        np.mean(x * x), np.roots([1.0, -0.3, 0.2, 0.1]), a @ a,
        np.fft.rfft(x[:1024]), np.interp(x, x[::7], np.cos(x[::7])),
    )
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes())
    return h.hexdigest()


RECORDED_PLATFORM = "cb87ef636695f8ed15f3b524313191c483d6940942b74f0ef9ed7b3c90acbece"

recorded_platform = pytest.mark.skipif(
    _platform_fingerprint() != RECORDED_PLATFORM,
    reason="the recorded bits come from another build of numpy's elementary functions",
)


def _hex(fields: dict) -> dict:
    def one(x):
        if isinstance(x, float):
            return x.hex()
        if isinstance(x, tuple):
            return [one(v) for v in x]
        return x

    return {k: one(v) for k, v in fields.items()}


DECOMPOSITIONS = {
    ("dynamic", 4096): {
        "total_rate": "0x1.81217fa2f73a0p+0",
        "control_term": "0x1.62e42fefa39efp-1",
        "disturbance_term": "0x1.9f5ecf564ad52p-1",
        "residual": "-0x1.0000000000000p-53",
        "bode_analytic": "0x1.62e42fefa39efp-1",
        "grid_points": 4096,
        "convergence_estimate": "0x1.0000000000000p-50",
    },
    ("dynamic", 65536): {
        "total_rate": "0x1.81217fa2f73a0p+0",
        "control_term": "0x1.62e42fefa39f0p-1",
        "disturbance_term": "0x1.9f5ecf564ad50p-1",
        "residual": "0x0.0p+0",
        "bode_analytic": "0x1.62e42fefa39efp-1",
        "grid_points": 65536,
        "convergence_estimate": "0x1.4000000000000p-50",
    },
    ("pole", 4096): {
        "total_rate": "0x1.3649a61c63864p+0",
        "control_term": "0x1.62e42fefa39efp-1",
        "disturbance_term": "0x1.09af1c49236dap-1",
        "residual": "-0x1.0000000000000p-53",
        "bode_analytic": "0x1.62e42fefa39efp-1",
        "grid_points": 4096,
        "convergence_estimate": "0x1.0000000000000p-52",
    },
    ("pole", 65536): {
        "total_rate": "0x1.3649a61c63865p+0",
        "control_term": "0x1.62e42fefa39f0p-1",
        "disturbance_term": "0x1.09af1c49236dap-1",
        "residual": "0x0.0p+0",
        "bode_analytic": "0x1.62e42fefa39efp-1",
        "grid_points": 65536,
        "convergence_estimate": "0x1.0000000000000p-53",
    },
}

INDEPENDENCE = {
    4096: {
        "disturbance_terms": ["0x1.9f5ecf564ad52p-1"] * 3,
        "max_deviation": "0x0.0p+0",
        "passed": True,
        "tolerance": "0x1.12e0be826d695p-30",
    },
    65536: {
        "disturbance_terms": ["0x1.9f5ecf564ad50p-1"] * 3,
        "max_deviation": "0x0.0p+0",
        "passed": True,
        "tolerance": "0x1.12e0be826d695p-30",
    },
}

COMPARISON = {
    "seed": 3,
    "n_samples": 32768,
    "analytic_rate": "0x1.81217fa2f73a0p+0",
    "empirical_rate": "0x1.7f64e01329bc8p+0",
    "abs_gap": "0x1.bc9f8fcd7d800p-8",
    "rel_gap": "0x1.278b8fee6b792p-8",
    "tolerance": "0x1.eb851eb851eb8p-6",
    "passed": True,
    "floored_bins": 0,
}

CSV_SHA256 = {
    "dynamic": "31b19dbebe8c1cf729e8a2a02342531f15ca20fc007914fa708dcce474927b19",
    "pole": "b8eb8028d9ef829623ee0441d77a2bbbb002b6364b499109fddd55251f3e7f22",
}


@recorded_platform
@pytest.mark.parametrize("name, n", sorted(DECOMPOSITIONS))
def test_decompose_reproduces_recorded_bits(name, n):
    report = decompose(RateInputs(MODELS[name](), FrequencyGrid(n)))
    assert _hex(report.as_dict()) == DECOMPOSITIONS[name, n]


@recorded_platform
@pytest.mark.parametrize("n", sorted(INDEPENDENCE))
def test_independence_check_reproduces_recorded_bits(n):
    controllers = [placed(t) for t in TARGETS]
    report = controller_independence_check(dynamic_model(), controllers, FrequencyGrid(n))
    assert _hex(report.as_dict()) == INDEPENDENCE[n]


@recorded_platform
def test_compare_report_reproduces_recorded_bits():
    record = compare_report(SimulationConfig(dynamic_model(), n_samples=2**15, seed=3))
    assert _hex(record.as_dict()) == COMPARISON


@recorded_platform
@pytest.mark.parametrize("name", sorted(CSV_SHA256))
def test_export_integrands_reproduces_recorded_bytes(name):
    text = integrands_csv_string(RateInputs(MODELS[name](), FrequencyGrid(4096)))
    assert hashlib.sha256(text.encode()).hexdigest() == CSV_SHA256[name]


# ---------------------------------------------------------------------------
# peak memory at 65536 points, in units of one 65536-sample float array

ARRAY = 65536 * 8


def _peak_arrays(fn) -> float:
    """Peak traced allocation of fn() over what was live before it, after
    one untraced call has filled the grid and model caches."""
    fn()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - before) / ARRAY


def test_decompose_peak_allocation_at_65536_points():
    """Measured 9.26 arrays (14.26 before the integrands, spectrum checks and
    unit-circle evaluation were made to work in place)."""
    inputs = RateInputs(dynamic_model(), FrequencyGrid(65536))
    assert _peak_arrays(lambda: decompose(inputs)) <= 10.0


def test_independence_check_peak_allocation_at_65536_points():
    """Four controllers. Measured 9.26 arrays: one controller's closed-loop
    gains are freed before the next one's are formed (12.27 while they were
    kept, 17.26 before the evaluation worked in place)."""
    model = dynamic_model()
    controllers = [placed(t) for t in TARGETS + ([0.3, -0.1, 0.0],)]
    grid = FrequencyGrid(65536)
    peak = _peak_arrays(lambda: controller_independence_check(model, controllers, grid))
    assert peak <= 10.0
