"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion; the printed figures show the measured margins.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from loopinfo import (
    FrequencyGrid,
    LoopModel,
    RateInputs,
    SimulationConfig,
    SpectrumSamples,
    controller_independence_check,
    decompose,
    is_stabilizing,
    log_integral,
    pole_placement_controller,
    run_identity_suite,
    simulate_loop,
    empirical_directed_info,
    tf,
    white,
)
from loopinfo.lti import TF_ONE, TF_ZERO

GRID = FrequencyGrid(4096)
LN2 = math.log(2.0)


@pytest.fixture(scope="module")
def random_suite():
    t0 = time.time()
    cases = run_identity_suite(200, seed=0, grid=GRID)
    return cases, time.time() - t0


def test_criterion_1_decomposition_identity_on_random_loops(random_suite):
    """total - control - disturbance vanishes on 200 random stabilized loops."""
    cases, elapsed = random_suite
    assert len(cases) == 200
    worst = max(abs(c.report.residual) for c in cases)
    print(f"criterion 1: max |residual| = {worst:.3e} over 200 loops in {elapsed:.1f}s")
    assert worst < 1e-8
    assert elapsed < 30.0


def _stable_plant(rng):
    order = int(rng.integers(1, 3))
    if order == 1:
        poles = [complex(rng.uniform(-0.8, 0.8))]
    elif rng.random() < 0.5:
        poles = [complex(rng.uniform(-0.8, 0.8)), complex(rng.uniform(-0.8, 0.8))]
    else:
        r = rng.uniform(0.1, 0.8)
        th = rng.uniform(0.2, math.pi - 0.2)
        poles = [r * complex(math.cos(th), math.sin(th))]
        poles.append(poles[0].conjugate())
    den = np.array([1.0])
    for p in poles:
        den = np.convolve(den, [1.0, -p])
    num = [0.0] + list(rng.uniform(-1.0, 1.0, order))
    return tf(num, den.real)


def test_criterion_2_bode_pole_formula():
    """Sensitivity quadrature equals the sum of unstable plant pole logs."""
    fixtures = (
        ([1.0, -2.0], tf([-2.0]), LN2),
        ([1.0, 3.0], tf([3.0]), math.log(3.0)),
        ([1.0, 1.0, -6.0], None, math.log(2.0) + math.log(3.0)),
        ([1.0, -3.0, 2.25], None, 2.0 * math.log(1.5)),
    )
    worst = 0.0
    for den, ctrl, want in fixtures:
        plant = tf([0.0, 1.0], den)
        if ctrl is None:
            ctrl = pole_placement_controller(plant, (0.0, 0.2, -0.2))
        m = LoopModel(plant, ctrl, TF_ONE, white(1.0), white(1.0))
        rep = decompose(RateInputs(m, GRID))
        worst = max(worst, abs(rep.control_term - want))
    print(f"criterion 2: max unstable-set error = {worst:.3e}")
    assert worst < 1e-6

    rng = np.random.default_rng(2024)
    worst_stable = 0.0
    for _ in range(50):
        plant = _stable_plant(rng)
        while True:
            m = LoopModel(
                plant, tf([float(rng.uniform(-0.4, 0.4))]), TF_ONE, white(1.0), white(1.0)
            )
            if is_stabilizing(m).is_stabilizing:
                break
        rep = decompose(RateInputs(m, GRID))
        worst_stable = max(worst_stable, abs(rep.control_term))
    print(f"criterion 2: max |quadrature| over 50 stable plants = {worst_stable:.3e}")
    assert worst_stable < 1e-8


def test_criterion_3_white_noise_simplification():
    """H = 1, white noises: total = sum ln max(1,|pole|) + 0.5 ln(1 + r)."""
    plant = tf([0.0, 1.0], [1.0, -2.0])
    worst = 0.0
    for sigma_w2 in (1.0, 2.0):
        for ratio in (0.0, 0.5, 1.0, 3.0, 10.0):
            m = LoopModel(
                plant, tf([-2.0]), TF_ONE, white(sigma_w2), white(ratio * sigma_w2)
            )
            rep = decompose(RateInputs(m, GRID))
            want = LN2 + 0.5 * math.log1p(ratio)
            worst = max(worst, abs(rep.total_rate - want))
    print(f"criterion 3: max closed-form gap = {worst:.3e}")
    assert worst < 1e-6


def test_criterion_4_controller_independence():
    """The disturbance term ignores which stabilizing controller is in place."""
    m = LoopModel(
        tf([0.0, 1.0], [1.0, -2.0]), tf([-2.0]), TF_ONE, white(1.0), white(1.0)
    )
    report = controller_independence_check(
        m, [tf([-2.0]), tf([-2.5]), tf([-1.5])], GRID
    )
    print(f"criterion 4: max deviation = {report.max_deviation:.3e} over 3 controllers")
    assert report.passed
    assert report.max_deviation < 1e-9


def test_criterion_5_rate_equals_entropy_difference(random_suite):
    """Direct quadrature agrees with h(Y) - h(W) on the randomized suite."""
    cases, _ = random_suite
    worst = max(c.proof_chain_gap for c in cases)
    print(f"criterion 5: max proof-chain gap = {worst:.3e}")
    assert worst < 1e-10


def test_criterion_6_monte_carlo_agreement():
    """Median empirical rate over 10 seeds within 0.03 nats on 3 reference loops."""
    loops = (
        ("open", LoopModel(TF_ZERO, TF_ZERO, TF_ONE, white(1.0), white(1.0))),
        (
            "stable",
            LoopModel(
                tf([0.0, 1.0], [1.0, -0.5]), tf([-0.3]), TF_ONE, white(1.0), white(0.0)
            ),
        ),
        (
            "unstable",
            LoopModel(
                tf([0.0, 1.0], [1.0, -2.0]), tf([-2.0]), TF_ONE, white(1.0), white(1.0)
            ),
        ),
    )
    t0 = time.time()
    worst = 0.0
    for name, model in loops:
        analytic = decompose(RateInputs(model, GRID)).total_rate
        gaps = []
        for seed in range(10):
            traj = simulate_loop(SimulationConfig(model, n_samples=2**17, seed=seed))
            gaps.append(abs(empirical_directed_info(traj, grid=GRID) - analytic))
        med = float(np.median(gaps))
        print(f"criterion 6: {name} median gap = {med:.4f}")
        worst = max(worst, med)
    elapsed = time.time() - t0
    print(f"criterion 6: worst median gap = {worst:.4f} in {elapsed:.1f}s")
    assert worst < 0.03
    assert elapsed < 60.0


def test_criterion_7_quadrature_calibration():
    """Jensen identities at 4096 points pin the trapezoid rule's accuracy."""
    z = np.exp(-1j * GRID.omegas)
    inside = log_integral(SpectrumSamples(GRID, np.abs(1 - 0.5 * z) ** 2))
    outside = log_integral(SpectrumSamples(GRID, np.abs(1 - 2.0 * z) ** 2))
    err = max(abs(inside), abs(outside - 2.0 * LN2))
    print(f"criterion 7: max Jensen error = {err:.3e}")
    assert err < 1e-9


def test_criterion_8_simulation_determinism(tmp_path):
    """Identical config and seed produce byte-identical comparison records."""
    cfg = {
        "plant": {"num": [0.0, 1.0], "den": [1.0, -2.0]},
        "controller": {"num": [-2.0]},
        "options": {"seed": 7, "n_samples": 65536},
    }
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(cfg))
    cmd = [sys.executable, "-m", "loopinfo.cli", "simulate", str(path)]
    runs = [subprocess.run(cmd, capture_output=True) for _ in range(2)]
    for r in runs:
        assert r.returncode == 0, r.stderr.decode()
    assert runs[0].stdout == runs[1].stdout
    rec = json.loads(runs[0].stdout)
    print(f"criterion 8: identical records, gap = {rec['abs_gap']:.4f}")
    assert rec["passed"] is True
