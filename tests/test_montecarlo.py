"""Time-domain simulation, Welch spectra, and analytic-vs-empirical agreement."""

import csv
import hashlib
import io
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import asdict, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

from loopinfo import (
    DivergenceError,
    FrequencyGrid,
    InvalidInputError,
    LoopModel,
    RateInputs,
    SimulationConfig,
    SingularityError,
    TrajectorySet,
    UnstableLoopError,
    compare_report,
    colored,
    decompose,
    empirical_directed_info,
    simulate_loop,
    tf,
    welch_psd,
    white,
)
from loopinfo import montecarlo
from loopinfo.lti import TF_ONE, TF_ZERO, pole_placement_controller
from test_lean_evaluation import recorded_platform

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


@pytest.mark.parametrize(
    "field, value",
    [("n_samples", 8192.0), ("n_samples", True), ("n_samples", np.float64(8192.0)),
     ("burn_in", 1.5), ("burn_in", 0.0), ("burn_in", False)],
)
def test_simulation_config_counts_must_be_integers(field, value):
    with pytest.raises(InvalidInputError, match=f"{field} must be an integer"):
        SimulationConfig(open_loop(), **{field: value})


@pytest.mark.parametrize("seed", [1.5, 2.0, True, np.float64(3.0), "3"])
def test_simulation_config_rejects_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(InvalidInputError, match="seed must be an integer"):
        SimulationConfig(open_loop(), seed=seed)


def test_simulation_config_takes_a_numpy_integer_seed():
    cfg = SimulationConfig(open_loop(), n_samples=2**12, burn_in=0, seed=np.int64(5))
    traj = simulate_loop(cfg)
    assert traj.y.tobytes() == simulate_loop(replace(cfg, seed=5)).y.tobytes()


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


def test_silent_unstable_loop_stays_silent():
    # closed-loop pole 2.9: the 64-sample carry's 11th power overflows, and
    # the zero state must never meet it (0 * inf is NaN)
    m = LoopModel(
        tf([0.0, 1.0], [1.0, -3.0]), tf([-0.1]), TF_ONE, white(0.0), white(0.0)
    )
    traj = simulate_loop(SimulationConfig(m, n_samples=2**14, seed=0))
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
        TrajectorySet(y=z, w=w, v=z, z=z, u=z, seed=0)  # y != z + w
    with pytest.raises(InvalidInputError):
        TrajectorySet(y=w, w=w, v=z, z=np.zeros(n - 1), u=z, seed=0)
    bad = np.full(n, np.nan)
    with pytest.raises(InvalidInputError):
        TrajectorySet(y=w, w=w, v=bad, z=z, u=z, seed=0)
    row, flat = w.reshape(1, n), z.reshape(1, n)  # equal lengths, but 2-d
    with pytest.raises(InvalidInputError, match="1-d"):
        TrajectorySet(y=row, w=row, v=flat, z=flat, u=flat, seed=0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["+inf", "-inf", "nan"])
@pytest.mark.parametrize("name", ["y", "w", "v", "z", "u"])
def test_trajectory_set_rejects_non_finite_samples(name, bad):
    n = 8
    signals = dict(y=np.ones(n), w=np.ones(n), v=np.zeros(n), z=np.zeros(n), u=np.zeros(n))
    signals[name][5] = bad
    with pytest.raises(InvalidInputError) as info:
        TrajectorySet(**signals, seed=0)
    assert str(info.value) == f"signal {name} contains non-finite samples"


def test_trajectory_set_accepts_float_extremes_and_empty_signals():
    big = np.array([1.7e308, -1.7e308])
    traj = TrajectorySet(y=big, w=big, v=-big, z=np.zeros(2), u=big, seed=0)
    assert np.array_equal(traj.v, -big)
    empty = np.empty(0)
    assert TrajectorySet(y=empty, w=empty, v=empty, z=empty, u=empty, seed=0).sample_count == 0


def test_trajectory_set_copies_what_a_caller_passes():
    n = 8
    w, z = np.arange(n, dtype=float), np.full(n, 0.5)
    y, v, u = z + w, np.ones(n), -np.ones(n)
    traj = TrajectorySet(y=y, w=w, v=v, z=z, u=u, seed=0)
    for arr in (y, w, v, z, u):
        arr[:] = 9.0
    assert np.array_equal(traj.w, np.arange(n, dtype=float))
    assert np.array_equal(traj.y, np.full(n, 0.5) + np.arange(n))
    assert np.array_equal(traj.u, -np.ones(n))


def test_trajectory_set_rejects_a_complex_signal_naming_it():
    n = 8
    z, w = np.zeros(n), np.ones(n)
    with pytest.raises(InvalidInputError, match="signal u must be real"):
        TrajectorySet(y=w, w=w, v=z, z=z, u=z * (1 + 1j), seed=0)
    # real input keeps its bits, a list or float32 too
    traj = TrajectorySet(y=list(w), w=w.astype(np.float32), v=z, z=z, u=-w, seed=0)
    assert traj.y.tobytes() == traj.w.tobytes() == w.tobytes()


def test_trajectory_set_names_a_bad_shape_and_a_broken_channel_equation():
    n = 8
    z, w = np.zeros(n), np.ones(n)
    with pytest.raises(InvalidInputError) as info:
        TrajectorySet(y=z, w=w, v=z, z=z, u=z, seed=0)
    assert str(info.value) == "channel equation y = z + w violated"
    with pytest.raises(InvalidInputError) as info:
        TrajectorySet(y=w, w=w, v=z, z=np.zeros(n - 1), u=z, seed=0)
    assert str(info.value) == "signal z has shape (7,); each must be 1-d, as long as y"
    with pytest.raises(InvalidInputError) as info:
        TrajectorySet(y=w.reshape(2, 4), w=w, v=z, z=z, u=z, seed=0)
    assert str(info.value) == "signal y has shape (2, 4); each must be 1-d, as long as y"


# (controller, w, v, n_samples, burn_in) on the plant d/(1 - 2d); each
# source is named, since the colored ones are defined further down
_RECORDS = {
    "worked": (-2.0, "white", "white", 5000, 256),
    "colored": (-2.0, "colored", "colored", 4113, 0),
    "silent-v": (-2.0, "white", "silent", 4100, 64),
    # closed-loop pole at 1.9: 48 samples reach about 5e11, inside the guard
    "near-guard": (-0.1, "white", "white", 48, 0),
}


@pytest.mark.parametrize("case", list(_RECORDS))
def test_simulated_record_meets_every_constructor_check(case):
    """simulate_loop's record is handed over unchecked; the public
    constructor, which checks everything, accepts it and copies it bit for
    bit."""
    gain, w, v, n_samples, burn_in = _RECORDS[case]
    sources = {"white": white(1.0), "silent": white(0.0)}
    w = COLORED_W if w == "colored" else sources[w]
    v = COLORED_V if v == "colored" else sources[v]
    model = LoopModel(tf([0.0, 1.0], [1.0, -2.0]), tf([gain]), TF_ONE, w, v)
    traj = simulate_loop(SimulationConfig(model, n_samples=n_samples, burn_in=burn_in, seed=3))
    checked = TrajectorySet(traj.y, traj.w, traj.v, traj.z, traj.u, traj.seed)
    for name in "ywvzu":
        assert getattr(checked, name).tobytes() == getattr(traj, name).tobytes()
        assert not getattr(traj, name).flags.writeable
    assert checked.sample_count == traj.sample_count == n_samples - burn_in


def test_simulated_signals_are_read_only(worked_model):
    traj = simulate_loop(SimulationConfig(worked_model, n_samples=2**13, seed=1))
    for name in ("y", "w", "v", "z", "u"):
        arr = getattr(traj, name)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
        # nor through the array the record's signals are views of
        base = arr.base if arr.base is not None else arr
        with pytest.raises(ValueError):
            base[...] = 1.0


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



@pytest.mark.parametrize(
    "w, v, name",
    [
        (white(1e30), white(1.0), "w"),
        (white(1.0), colored(1e30, tf([1.0], [1.0, -0.5])), "v"),
    ],
)
def test_source_beyond_the_guard_raises(w, v, name):
    m = LoopModel(tf([0.0, 1.0], [1.0, -2.0]), tf([-2.0]), TF_ONE, w, v)
    with pytest.raises(DivergenceError, match=f"noise source {name} exceeded the 1e\\+12"):
        simulate_loop(SimulationConfig(m, n_samples=2**13, seed=0))

# ---------------------------------------------------------------------------
# the block runner against the per-sample recursion


class _ScalarDf2t:
    """One DF2T element stepped a sample at a time on Python floats."""

    def __init__(self, tf_, state=None):
        b = list(tf_.num.coeffs)
        a = list(tf_.den.coeffs)
        m = max(len(b), len(a)) - 1
        self.b = [x / a[0] for x in b] + [0.0] * (m + 1 - len(b))
        self.a = [x / a[0] for x in a] + [0.0] * (m + 1 - len(a))
        self.s = list(state) if state is not None else [0.0] * m

    @property
    def pending(self):
        return self.s[0] if self.s else 0.0

    def step(self, x):
        b, a, s = self.b, self.a, self.s
        m = len(s)
        y = b[0] * x + (s[0] if m else 0.0)
        for i in range(m - 1):
            s[i] = b[i + 1] * x - a[i + 1] * y + s[i + 1]
        if m:
            s[m - 1] = b[m] * x - a[m] * y
        return y


def source_draws(seed, n):
    """Each source's n standard normals for a seed, w's then v's: w draws
    from Philox(seed), v from Philox(seed).jumped(), a stream of its own."""
    bits = np.random.Philox(seed)
    return [np.random.Generator(b).standard_normal(n) for b in (bits, bits.jumped())]


def per_sample_oracle(cfg):
    """The loop recursion one sample at a time: the reference the block
    runner must reproduce. Returns the full-length signals y, w, v, z, u."""
    model, n = cfg.model, cfg.n_samples
    noise = []
    specs = (model.channel_noise, model.output_disturbance)
    for spec, eps in zip(specs, source_draws(cfg.seed, n)):
        driven = math.sqrt(spec.variance) * eps
        if spec.shaping != TF_ONE:
            step = _ScalarDf2t(spec.shaping).step
            driven = np.array([step(x) for x in driven.tolist()])
        noise.append(driven)
    w_sig, v_sig = noise
    elements = (model.plant, model.feedback_filter, model.controller)
    orders = [max(len(f.num.coeffs), len(f.den.coeffs)) - 1 for f in elements]
    x0 = model.initial_state or (0.0,) * sum(orders)
    cut = np.cumsum([0] + orders)
    fp, fh, fk = (
        _ScalarDf2t(f, x0[lo:hi]) for f, lo, hi in zip(elements, cut[:-1], cut[1:])
    )
    if fp.b[0] == 0.0:
        order = "p_first"
    else:
        order = "k_first" if fk.b[0] == 0.0 else "h_first"
    out = np.empty((3, n))
    for t in range(n):
        wt, vt = w_sig[t], v_sig[t]
        if order == "p_first":
            zt = fh.step(fp.pending + vt)
            yt = zt + wt
            ut = fk.step(yt)
            fp.step(ut)
        elif order == "k_first":
            ut = fk.pending
            zt = fh.step(fp.step(ut) + vt)
            yt = zt + wt
            fk.step(yt)
        else:
            zt = fh.pending
            yt = zt + wt
            ut = fk.step(yt)
            fh.step(fp.step(ut) + vt)
        out[:, t] = yt, zt, ut
        if not (abs(yt) <= 1e12 and abs(ut) <= 1e12):
            raise DivergenceError("per-sample oracle diverged", index=t)
    y, z, u = out
    return {"y": y, "w": w_sig, "v": v_sig, "z": z, "u": u}


def worst_relative_error(model, **cfg_kwargs):
    cfg = SimulationConfig(model, **cfg_kwargs)
    got = simulate_loop(cfg)
    want = per_sample_oracle(cfg)
    k = cfg.burn_in
    worst = 0.0
    for name, ref in want.items():
        ref = ref[k:]
        scale = np.max(np.abs(ref))
        err = np.max(np.abs(getattr(got, name) - ref))
        worst = max(worst, err / scale if scale else err)
    return worst


COLORED_W = colored(1.3, tf([1.0, 0.4, -0.3], [1.0, -1.2, 0.72]))
COLORED_V = colored(0.7, tf([1.0, 0.5], [1.0, -0.9]))


@pytest.mark.parametrize(
    "plant, controller, feedback, state",
    [
        # p_first: the plant is strictly proper
        (tf([0.0, 1.0], [1.0, -2.0]), tf([-1.8, 0.4], [1.0, -0.3]), TF_ONE, (0.5, -0.4)),
        # k_first: the controller is strictly proper
        (tf([0.5, 1.0], [1.0, -0.5]), tf([0.0, -0.3], [1.0, 0.2]), TF_ONE, (0.3, -0.2)),
        # h_first: only the feedback filter is strictly proper
        (
            tf([0.5, 1.0], [1.0, -0.5]),
            tf([-0.3, 0.1], [1.0, 0.2]),
            tf([0.0, 1.0], [1.0, -0.1]),
            (0.3, -0.2, 0.4),
        ),
    ],
    ids=["p_first", "k_first", "h_first"],
)
def test_block_runner_matches_per_sample_recursion(plant, controller, feedback, state):
    model = LoopModel(plant, controller, feedback, COLORED_W, COLORED_V, initial_state=state)
    assert worst_relative_error(model, n_samples=2**13, burn_in=0, seed=3) <= 1e-13


def test_underflowing_feedthrough_product_simulates():
    # P(0) * K(0) * H(0) underflows to zero, so LoopModel accepts the loop
    # although no element has exactly zero feedthrough
    controller, feedback = tf([1e-200, -0.3]), tf([1.0, 0.5])
    tiny = LoopModel(
        tf([1e-200, 1.0], [1.0, -0.5]), controller, feedback, white(1.0), white(0.5)
    )
    exact = replace(tiny, plant=tf([0.0, 1.0], [1.0, -0.5]))
    assert decompose(RateInputs(tiny)).total_rate > 0.0
    got, want = (
        simulate_loop(SimulationConfig(m, n_samples=2**13, seed=2)) for m in (tiny, exact)
    )
    for name in ("y", "w", "v", "z", "u"):
        ref = getattr(want, name)
        err = np.max(np.abs(getattr(got, name) - ref))
        assert err <= 1e-12 * np.max(np.abs(ref)), name


@pytest.mark.parametrize(
    "n_samples, state",
    # 4100 samples end one block into a superblock of the carry
    [(4100, ()), (50, ()), (4100, (0.7,))],
    ids=["4100", "50", "4100-initial-state"],
)
def test_block_runner_pads_the_last_block(worked_model, n_samples, state):
    model = LoopModel(
        worked_model.plant, worked_model.controller, worked_model.feedback_filter,
        COLORED_W, COLORED_V, initial_state=state,
    )
    assert worst_relative_error(model, n_samples=n_samples, burn_in=0, seed=4) <= 1e-13


def test_block_runner_near_circle_closed_loop_pole():
    # 1 - PK = 1 - 0.9999 d: the closed-loop pole sits at 0.9999
    model = LoopModel(
        tf([0.0, 1.0], [1.0, -0.5]), tf([0.4999]), TF_ONE, white(1.0), white(1.0)
    )
    assert worst_relative_error(model, n_samples=2**15, seed=5) <= 1e-13


def test_block_runner_large_transient_gain():
    # every stabilizing controller of this plant is unstable; this one has
    # poles near -207 and -1.7, so the loop's state map has norm ~6e4
    model = LoopModel(
        tf(
            [0.0, 1.4520640809007752, 2.497379388024823],
            [1.0, 2.3772238662961285, 0.009083897532343765, 4.0541782802832575e-05],
        ),
        tf(
            [144.72050646328532, 334.1436920494877, 1.2479393401470893],
            [1.0, 208.59788133832112, 351.0819550796564],
        ),
        TF_ONE,
        white(2.5312844946994644),
        white(0.6143038958998109),
    )
    assert worst_relative_error(model, n_samples=2**14, seed=0) <= 1e-9


@pytest.mark.parametrize(
    "plant_pole, gain, n_samples",
    # closed-loop poles 1.9, 1.01, 2.9 and 1.003; at 2.9 the carry's powers
    # overflow within the first superblock, at 1.003 the loop diverges in a
    # later one
    [(2.0, -0.1, 2**13), (0.5, 0.51, 2**13), (3.0, -0.1, 2**13), (0.5, 0.503, 2**14)],
    ids=["fast", "slow", "overflowing-powers", "later-superblock"],
)
def test_divergence_index_matches_per_sample_recursion(plant_pole, gain, n_samples):
    model = LoopModel(
        tf([0.0, 1.0], [1.0, -plant_pole]), tf([gain]), TF_ONE, white(1.0), white(1.0)
    )
    cfg = SimulationConfig(model, n_samples=n_samples, seed=0)
    with pytest.raises(DivergenceError) as want:
        per_sample_oracle(cfg)
    with pytest.raises(DivergenceError) as got:
        simulate_loop(cfg)
    assert got.value.index == want.value.index
    assert str(got.value) == (
        f"signal magnitude exceeded 1e+12 at sample {want.value.index} "
        "(non-stabilizing configuration or numerical blow-up)"
    )
    assert abs(got.value.value) > 1e12


# An order-8 k_first loop: plant poles 1.6, 0.5 and -0.4 with feedthrough, a
# dynamic H, a strictly proper controller placing seven closed-loop poles,
# and a colored channel noise. Prints the sha256 of y, w, v, z and u.
_TRAJECTORY_DIGEST = """
import hashlib
import numpy as np
from loopinfo import LoopModel, SimulationConfig, colored, simulate_loop, tf, white
from loopinfo.lti import pole_placement_controller

plant = tf([1.0, 0.5, 0.2], np.poly([1.6, 0.5, -0.4]))
h = tf([1.0, 0.5], [1.0, -0.3])
k = pole_placement_controller(
    plant * h * tf([0.0, 1.0]), (0.3, -0.3, 0.2, 0.1, -0.1, 0.4j, -0.4j)
)
model = LoopModel(
    plant, tf([0.0] + list(k.num.coeffs), k.den.coeffs), h,
    colored(1.3, tf([1.0, 0.4, -0.3], [1.0, -1.2, 0.72])), white(0.5),
)
traj = simulate_loop(SimulationConfig(model, n_samples=2**17, seed=9))
digest = hashlib.sha256()
for name in "ywvzu":
    digest.update(getattr(traj, name).tobytes())
print(digest.hexdigest())
"""


def test_trajectories_are_byte_identical_across_blas_thread_counts():
    digests = []
    for count in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=count, OMP_NUM_THREADS=count)
        proc = subprocess.run(
            [sys.executable, "-c", _TRAJECTORY_DIGEST],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


# ---------------------------------------------------------------------------
# the block maps, built once per loop recursion


def order8_loop(v=white(0.5)):
    """A new LoopModel each call: the order-8 loop of _TRAJECTORY_DIGEST, with
    its colored channel noise, and the output disturbance v."""
    plant = tf([1.0, 0.5, 0.2], np.poly([1.6, 0.5, -0.4]))
    h = tf([1.0, 0.5], [1.0, -0.3])
    k = pole_placement_controller(
        plant * h * tf([0.0, 1.0]), (0.3, -0.3, 0.2, 0.1, -0.1, 0.4j, -0.4j)
    )
    return LoopModel(
        plant, tf([0.0] + list(k.num.coeffs), k.den.coeffs), h,
        colored(1.3, tf([1.0, 0.4, -0.3], [1.0, -1.2, 0.72])), v,
    )


def signal_bytes(model, **cfg_kwargs):
    traj = simulate_loop(SimulationConfig(model, **cfg_kwargs))
    return [getattr(traj, name).tobytes() for name in "ywvzu"]


def builds():
    return montecarlo._block_maps.cache_info().misses


@pytest.mark.parametrize("v", [white(0.5), white(0.0)], ids=["white-v", "silent-v"])
def test_memo_hit_is_byte_identical_to_a_cold_build(v):
    run = dict(n_samples=2**14, seed=9)
    montecarlo._block_maps.cache_clear()
    cold = signal_bytes(order8_loop(v), **run)
    hit = signal_bytes(order8_loop(v), **run)  # an equal loop, built apart
    assert montecarlo._block_maps.cache_info()[:2] == (1, 1)  # hits, misses
    montecarlo._block_maps.cache_clear()
    assert hit == cold == signal_bytes(order8_loop(v), **run)


def test_memo_is_keyed_by_the_recursion_alone(worked_model):
    montecarlo._block_maps.cache_clear()
    simulate_loop(SimulationConfig(worked_model, n_samples=2**13, seed=0))
    same_recursion = [
        replace(worked_model, channel_noise=white(2.0)),
        replace(worked_model, output_disturbance=white(0.0)),
        replace(worked_model, initial_state=(0.4,)),
    ]
    for model in same_recursion:
        simulate_loop(SimulationConfig(model, n_samples=2**13, seed=0))
    simulate_loop(SimulationConfig(worked_model, n_samples=2**13, seed=1))
    simulate_loop(SimulationConfig(worked_model, n_samples=5000, seed=0))
    assert builds() == 1
    other_controller = replace(worked_model, controller=tf([-1.9]))
    simulate_loop(SimulationConfig(other_controller, n_samples=2**13, seed=0))
    assert builds() == 2


def test_memo_arrays_are_read_only(worked_model):
    model = replace(worked_model, output_disturbance=COLORED_V)
    maps = montecarlo._block_maps_for(model)
    arrays = [maps.states, maps.powers] + [r for r in maps.rows if r is not None]
    assert len(arrays) == 5  # v, z and u rows: the white w needs none
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_memo_keeps_the_last_sixteen_loops(worked_model):
    montecarlo._block_maps.cache_clear()
    loops = [replace(worked_model, controller=tf([-2.0 + 0.01 * i])) for i in range(17)]
    for model in loops:
        simulate_loop(SimulationConfig(model, n_samples=128, burn_in=0))
    assert montecarlo._block_maps.cache_info().currsize == montecarlo._MAPS_KEPT == 16
    simulate_loop(SimulationConfig(loops[16], n_samples=128, burn_in=0))
    assert builds() == 17  # the newest is kept
    simulate_loop(SimulationConfig(loops[0], n_samples=128, burn_in=0))
    assert builds() == 18  # the oldest was evicted


def test_memo_keys_negative_zero_apart():
    # transfer functions compare -0.0 and 0.0 equal; the maps are keyed apart
    plus, minus = (
        LoopModel(tf([z, 1.0], [1.0, -2.0]), tf([-2.0]), TF_ONE, white(1.0), white(0.5))
        for z in (0.0, -0.0)
    )
    assert plus == minus and math.copysign(1.0, minus.plant.num.coeffs[0]) < 0.0
    montecarlo._block_maps.cache_clear()
    for model in (plus, minus):
        simulate_loop(SimulationConfig(model, n_samples=2**13))
    assert builds() == 2


# ---------------------------------------------------------------------------
# the analytic rate: decompose's total, formed on every call


def short_run(model, seed=0):
    """A record just long enough for one Welch segment after burn-in."""
    return SimulationConfig(model, n_samples=1088, burn_in=64, seed=seed)


def colored_v_loop():
    """A new LoopModel each call: the worked loop with a colored v."""
    return LoopModel(tf([0.0, 1.0], [1.0, -2.0]), tf([-2.0]), TF_ONE, white(1.0), COLORED_V)


@pytest.mark.parametrize("n_points", [256, 4096])
@pytest.mark.parametrize("loop", [order8_loop, colored_v_loop], ids=["order8", "colored-v"])
def test_analytic_rate_is_the_decompose_total_bit_for_bit(loop, n_points):
    # the equality the benchmark's monte-carlo check relies on
    g = FrequencyGrid(n_points)
    exact = decompose(RateInputs(loop(), g)).total_rate.hex()
    records = [compare_report(short_run(loop(), seed), grid=g) for seed in (0, 1)]
    assert [r.analytic_rate.hex() for r in records] == [exact, exact]
    assert records[0].empirical_rate != records[1].empirical_rate


def test_compare_report_calls_decompose_on_every_call(monkeypatch, worked_model):
    calls = []

    def counted(inputs):
        calls.append((inputs.model, inputs.grid.n_points))
        return decompose(inputs)

    monkeypatch.setattr(montecarlo, "decompose", counted)
    g = FrequencyGrid(256)
    for seed in (0, 1, 1):
        compare_report(short_run(worked_model, seed), grid=g)
    assert calls == [(worked_model, 256)] * 3


def test_off_exact_warning_comes_with_every_call(worked_model):
    model = replace(worked_model, output_disturbance=colored(1.0, tf([1.0], [1.0, -0.9999])))
    g = FrequencyGrid(512)
    messages = []
    for seed in (0, 1):
        with pytest.warns(RuntimeWarning, match="from the exact Jensen values") as caught:
            compare_report(short_run(model, seed), grid=g)
        messages += [str(w.message) for w in caught]
    assert len(messages) == 2 and messages[0] == messages[1]


@pytest.mark.parametrize(
    "pole, gain, error",
    # closed-loop pole 1.0001: 1088 samples grow by under 12%, so the
    # simulation passes and RateInputs refuses the loop; plant pole
    # 0.9999999: a closed-loop zero that decompose finds near-singular
    [(0.5, 0.5001, UnstableLoopError), (0.9999999, -0.5, SingularityError)],
    ids=["non-stabilizing", "near-singular"],
)
def test_compare_report_raises_on_every_call(pole, gain, error):
    model = LoopModel(
        tf([0.0, 1.0], [1.0, -pole]), tf([gain]), TF_ONE, white(1.0), white(1.0)
    )
    for seed in (0, 1):
        with pytest.raises(error):
            compare_report(short_run(model, seed), grid=FrequencyGrid(64))


# ---------------------------------------------------------------------------
# source rows: innovations that need no product, and draws that are skipped


def test_white_source_rows_are_the_scaled_draws(worked_model):
    model = replace(worked_model, channel_noise=white(1.3), output_disturbance=white(0.7))
    traj = simulate_loop(SimulationConfig(model, n_samples=4100, burn_in=0, seed=6))
    ew, ev = source_draws(6, 4100)
    assert traj.w.tobytes() == (math.sqrt(1.3) * ew).tobytes()
    assert traj.v.tobytes() == (math.sqrt(0.7) * ev).tobytes()


@pytest.mark.parametrize(
    "silent", [white(0.0), colored(0.0, COLORED_V.shaping)], ids=["white", "colored"]
)
def test_silent_v_takes_no_draw(worked_model, silent):
    loud, quiet = (
        simulate_loop(SimulationConfig(model, n_samples=4100, burn_in=0, seed=8))
        for model in (
            replace(worked_model, output_disturbance=white(0.5)),
            replace(worked_model, output_disturbance=silent),
        )
    )
    assert quiet.w.tobytes() == loud.w.tobytes()
    assert not np.any(np.signbit(quiet.v))  # +0.0 at every sample


def test_silent_v_is_positive_zero_in_a_reused_buffer(worked_model):
    # the record is not a whole number of blocks, and the loud run before it
    # leaves nonzero samples in the memory the silent run's buffer may reuse
    run = dict(n_samples=4113, burn_in=0, seed=3)
    loud = replace(worked_model, output_disturbance=COLORED_V)
    quiet = replace(worked_model, output_disturbance=white(0.0))
    assert np.any(simulate_loop(SimulationConfig(loud, **run)).v)
    v = simulate_loop(SimulationConfig(quiet, **run)).v
    assert np.all(v == 0.0) and not np.any(np.signbit(v))


# sha256 of y, w, v, z and u, burn_in=0 and seed 11, for records that end
# inside a block; the block products run through BLAS, so another build may
# move their last digits
_PADDED_DIGESTS = {
    ("colored-v", 4100): "d260302b93a43668cc2b0382a4d4a7db8f3093102b4966556c4a69afb9c664fe",
    ("colored-v", 4113): "d1977f1389d09605f5c58cdb8af1579ea4aa236922666c7927dfb1cccd202871",
    ("colored-v", 5000): "5e9863905b806dcadd2436c3f6399ca45edbaf8d1d55aba80d07997c6151cbd9",
    ("silent-v", 4100): "25f559709de9b382ab8553ed73fbe090621d0858205ba39cdf35b1e0937220d9",
    ("silent-v", 4113): "1d88a2829ef91adebf41bd4c6a30fa1c81f72b849e6ef144ef40a0676d592433",
    ("silent-v", 5000): "605b7b681c24cef09428494e7c411dd5b79477b46093ed42a3b627371d66d5c1",
}


@recorded_platform
@pytest.mark.parametrize("loop, n_samples", list(_PADDED_DIGESTS), ids=str)
def test_records_ending_inside_a_block_are_pinned(worked_model, loop, n_samples):
    v = COLORED_V if loop == "colored-v" else white(0.0)
    model = replace(worked_model, output_disturbance=v)
    digest = hashlib.sha256()
    for chunk in signal_bytes(model, n_samples=n_samples, burn_in=0, seed=11):
        digest.update(chunk)
    assert digest.hexdigest() == _PADDED_DIGESTS[loop, n_samples]


def test_silent_white_w_takes_no_draw(worked_model):
    loud, quiet = (
        simulate_loop(SimulationConfig(model, n_samples=4100, burn_in=0, seed=8))
        for model in (worked_model, replace(worked_model, channel_noise=white(0.0)))
    )
    assert quiet.v.tobytes() == loud.v.tobytes() == source_draws(8, 4100)[1].tobytes()
    assert not np.any(quiet.w) and not np.any(np.signbit(quiet.w))


def drawn_innovations(model, seed, n=4100):
    """The innovations of w and of v that simulate_loop hands to the block
    runner, before any shaping filter or loop element acts on them."""
    seen = []
    run = montecarlo._lifted_run

    def spy(maps, x0, sig):
        seen.append(sig[:2, :n].copy())
        run(maps, x0, sig)

    with mock.patch.object(montecarlo, "_lifted_run", spy):
        simulate_loop(SimulationConfig(model, n_samples=n, burn_in=0, seed=seed))
    return seen[0]


# (P, K, H) with the strictly proper element in P, in K and in H, and the open loop
_LOOPS = (
    (tf([0.0, 1.0], [1.0, -2.0]), tf([-2.0]), TF_ONE),
    (tf([0.5, 1.0], [1.0, -0.5]), tf([0.0, -0.3], [1.0, 0.2]), TF_ONE),
    (tf([0.5, 1.0], [1.0, -0.5]), tf([-0.3, 0.1], [1.0, 0.2]), tf([0.0, 1.0], [1.0, -0.1])),
    (TF_ZERO, TF_ZERO, TF_ONE),
)
_W = (white(1.0), white(0.3), white(0.0), COLORED_W, colored(0.0, COLORED_W.shaping))
_V = (white(1.0), white(0.7), white(0.0), COLORED_V, colored(0.0, COLORED_V.shaping))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.sampled_from(_LOOPS), st.sampled_from(_LOOPS),
    st.sampled_from(_W), st.sampled_from(_W),
    st.sampled_from(_V), st.sampled_from(_V),
)
def test_a_sources_innovations_depend_only_on_the_seed_and_the_source(
    seed, loop, other_loop, w, other_w, v, other_v
):
    """Each source's innovations are the root of its variance times its own
    stream's normals, or +0.0 when silent. w's stream is Philox(seed), so a
    loud w keeps the bits it had when w and v shared that stream."""
    base = drawn_innovations(LoopModel(*loop, w, v), seed)
    # v's bytes under another w (silent included), w shaping, P, K and H
    moved_w = drawn_innovations(LoopModel(*other_loop, other_w, v), seed)
    assert base[1].tobytes() == moved_w[1].tobytes()
    # w's bytes under another v
    moved_v = drawn_innovations(LoopModel(*loop, w, other_v), seed)
    assert base[0].tobytes() == moved_v[0].tobytes()
    for row, spec, eps in zip(base, (w, v), source_draws(seed, 4100)):
        want = math.sqrt(spec.variance) * eps if spec.variance > 0.0 else np.zeros(4100)
        assert row.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Welch estimator


def test_welch_white_noise_is_flat():
    rng = np.random.Generator(np.random.Philox(0))
    x = rng.standard_normal(2**16)
    s = welch_psd(x, FrequencyGrid(4096))
    assert float(np.mean(np.abs(s.values - 1.0))) < 0.09
    assert float(np.mean(s.values)) == pytest.approx(1.0, abs=0.02)


def test_welch_rejects_complex_input():
    x = np.random.Generator(np.random.Philox(0)).standard_normal(2048)
    with pytest.raises(InvalidInputError, match="sequence x must be real"):
        welch_psd(x + 0.5j, FrequencyGrid(1024))
    # real input keeps its bits, as a list too
    s = welch_psd(x, FrequencyGrid(1024))
    assert welch_psd(list(x), FrequencyGrid(1024)).values.tobytes() == s.values.tobytes()


def test_welch_integrated_power_matches_sample_variance():
    rng = np.random.Generator(np.random.Philox(2))
    x = rng.standard_normal(2**15) * 1.7
    s = welch_psd(x, FrequencyGrid(4096))
    assert float(np.mean(s.values)) == pytest.approx(float(np.var(x)), rel=0.03)


def test_welch_localizes_a_sinusoid():
    k0 = 100
    omega0 = 2 * np.pi * k0 / 1024
    t = np.arange(2**14)
    s = welch_psd(np.sin(omega0 * t), FrequencyGrid(4096))
    peak = abs(float(s.grid.omegas[int(np.argmax(s.values))]))
    assert peak == pytest.approx(omega0, abs=2 * np.pi / 1024)


def shaped_w(spec, n_samples, seed):
    """Channel noise shaped by spec, as the loop simulation produces it."""
    model = LoopModel(TF_ZERO, TF_ZERO, TF_ONE, spec, white(1.0))
    cfg = SimulationConfig(model, n_samples=n_samples, burn_in=0, seed=seed)
    return simulate_loop(cfg).w


def test_welch_colored_spectrum_shape():
    g = FrequencyGrid(4096)
    x = shaped_w(colored(1.0, tf([1.0], [1.0, -0.5])), 2**16, seed=1)
    s = welch_psd(x, g)
    i0 = int(np.argmin(np.abs(g.omegas)))
    # true PSD: 1/|1 - 0.5 e^{-jw}|^2, i.e. 4 at DC, 4/9 at the band edge;
    # single bins carry ~10% estimator noise, so the seed is pinned
    assert s.values[i0] == pytest.approx(4.0, rel=0.12)
    assert s.values[0] == pytest.approx(4.0 / 9.0, rel=0.12)
    assert float(np.mean(s.values)) == pytest.approx(4.0 / 3.0, rel=0.03)


def test_welch_equals_the_explicit_segment_loop():
    # 2^17 - 4096 samples make 247 segments of 1024: seven blocks of 32 and a
    # partial block of 23; 5000 samples make 8, fewer than one block
    for n in (2**17 - 4096, 5000):
        x = np.random.Generator(np.random.Philox(4)).standard_normal(n)
        nseg, hop = 1024, 512
        win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(nseg) / nseg)
        acc = np.zeros(nseg // 2 + 1)
        count = 0
        for start in range(0, len(x) - nseg + 1, hop):
            acc += np.abs(np.fft.rfft(x[start : start + nseg] * win)) ** 2
            count += 1
        half = acc / (count * np.sum(win**2))
        got = welch_psd(x, FrequencyGrid(nseg))
        # on a grid of nseg points the bins land on grid points exactly
        want = np.roll(np.concatenate([half, half[1 : nseg // 2][::-1]]), nseg // 2)
        assert np.array_equal(got.values, want)


def test_welch_is_exactly_even_only_where_grid_samples_are_bins():
    x = np.random.Generator(np.random.Philox(5)).standard_normal(2**15)
    for n in (64, 1024, 4096, 65536):
        v = welch_psd(x, FrequencyGrid(n)).values
        gap = np.abs(v[1:] - v[:0:-1]) / v[:0:-1]
        # at most 1024 points every sample is a bin; finer grids interpolate,
        # and np.interp's periodic reduction (negative omegas and bins shifted
        # by 2 pi, with a rounding) treats a sample and its mirror unequally
        assert (float(np.max(gap)) == 0.0) == (n <= 1024)
        assert float(np.max(gap)) < 1e-12


def test_shaped_noise_one_pole_is_the_explicit_recursion():
    c = 0.9
    eps = np.random.Generator(np.random.Philox(2)).standard_normal(4096)
    got = shaped_w(colored(2.0, tf([1.0], [1.0, -c])), 4096, seed=2)
    x = math.sqrt(2.0) * eps
    want = np.empty_like(x)
    prev = 0.0
    for t in range(len(x)):
        prev = x[t] + c * prev
        want[t] = prev
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_shaped_noise_arma_matches_impulse_response_convolution():
    num, den = [1.0, 0.4, -0.3], [1.0, -1.2, 0.72]  # poles 0.6 +- 0.6j, |p| ~ 0.85
    eps = np.random.Generator(np.random.Philox(3)).standard_normal(4096)
    got = shaped_w(colored(0.5, tf(num, den)), 4096, seed=3)
    # impulse response as the inverse FFT of the frequency response on 1024
    # points; the aliased tail is ~0.85^1024, far below rounding
    n = 1024
    d = np.exp(-2j * np.pi * np.arange(n) / n)
    h = np.fft.ifft(npoly.polyval(d, num) / npoly.polyval(d, den)).real
    want = np.convolve(math.sqrt(0.5) * eps, h)[: len(eps)]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_welch_rejects_short_input():
    with pytest.raises(InvalidInputError):
        welch_psd(np.zeros(100))


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
    assert rec.tolerance == 0.05 and rec.passed is True


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


@pytest.mark.parametrize("n_samples, burn_in", [(5000, 4096), (1087, 64)])
def test_compare_report_refuses_a_short_record_before_simulating(
    monkeypatch, worked_model, n_samples, burn_in
):
    def never(cfg):
        raise AssertionError("simulated a record too short to estimate")

    monkeypatch.setattr(montecarlo, "simulate_loop", never)
    cfg = SimulationConfig(worked_model, n_samples=n_samples, burn_in=burn_in)
    kept = n_samples - burn_in
    message = (
        "need n_samples - burn_in >= 1024, one Welch segment; "
        f"got n_samples={n_samples}, burn_in={burn_in} ({kept} samples)"
    )
    with pytest.raises(InvalidInputError) as err:
        compare_report(cfg)
    assert str(err.value) == message


def test_compare_report_surfaces_divergence_before_analysis():
    m = LoopModel(
        tf([0.0, 1.0], [1.0, -2.0]), tf([-0.1]), TF_ONE, white(1.0), white(1.0)
    )
    with pytest.raises(DivergenceError):
        compare_report(SimulationConfig(m, n_samples=2**13, seed=0))


def test_gap_shrinks_with_record_length():
    """Median agreement gap drops roughly like the inverse square root of the
    number of averaged segments; 8x the data must at least halve it. The
    medians are over 40 seeds, whose ratio reads 0.34 against 1/sqrt(8),
    about 0.35: over 5, the disjoint groups among seeds 0-39 read from 0.10
    to 2.90, and 4 of the 8 fail the bound."""
    gaps = {}
    for n in (2**14, 2**17):
        gs = []
        for seed in range(40):
            rec = compare_report(SimulationConfig(open_loop(), n_samples=n, seed=seed))
            gs.append(rec.abs_gap)
        gaps[n] = float(np.median(gs))
    assert gaps[2**17] < 0.5 * gaps[2**14]


# ---------------------------------------------------------------------------
# the worker thread: half of each op's products and Welch pair, bit for bit


def _record_hex(rec):
    return {k: v.hex() if isinstance(v, float) else v for k, v in asdict(rec).items()}


def test_concurrent_callers_get_the_serial_records(worked_model):
    cfgs = [
        SimulationConfig(model, n_samples=2**14, seed=seed)
        for seed, model in enumerate(
            (worked_model, colored_v_loop(), order8_loop(), open_loop(sigma_v2=0.5))
        )
    ]
    grid = FrequencyGrid(1024)
    serial = [_record_hex(compare_report(cfg, grid=grid)) for cfg in cfgs]
    got, errors = [None] * len(cfgs), []

    def caller(i):
        try:
            for _ in range(3):
                got[i] = _record_hex(compare_report(cfgs[i], grid=grid))
                assert got[i] == serial[i]
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(cfgs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert got == serial


# Simulates, forks, and simulates again in the child, which must start its
# own worker: the parent's thread is not copied into it. Prints whether the
# child's digest is the parent's, then the child's exit code.
_FORKED_DIGEST = """
import hashlib, os, sys, time
from loopinfo import LoopModel, SimulationConfig, colored, simulate_loop, tf, white

model = LoopModel(
    tf([0.0, 1.0], [1.0, -2.0]), tf([-2.0]), tf([1.0]), white(1.0),
    colored(0.7, tf([1.0, 0.5], [1.0, -0.9])),
)
cfg = SimulationConfig(model, n_samples=2**14, seed=4)


def digest():
    traj = simulate_loop(cfg)
    h = hashlib.sha256()
    for name in "ywvzu":
        h.update(getattr(traj, name).tobytes())
    return h.hexdigest()


mine = digest()
r, w = os.pipe()
pid = os.fork()
if pid == 0:
    os.write(w, digest().encode())
    os._exit(0)
os.close(w)
deadline = time.monotonic() + 30
while True:
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        break
    if time.monotonic() > deadline:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        sys.exit("the forked child did not finish its simulation")
    time.sleep(0.01)
print(os.read(r, 64).decode() == mine, os.waitstatus_to_exitcode(status))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_simulates_with_its_own_worker():
    proc = subprocess.run(
        [sys.executable, "-c", _FORKED_DIGEST], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "0"]


def test_cli_import_starts_no_thread():
    code = (
        "import sys, threading, loopinfo.cli; "
        "print(threading.active_count(), 'concurrent.futures' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "False"]


def test_the_worker_runs_under_the_callers_error_state():
    calls = []
    with np.errstate(over="call", call=lambda kind, flag: calls.append(kind)):
        big, _ = montecarlo._beside(lambda: np.float64(1e300) * 1e300, lambda: None)
    assert big == np.inf
    assert calls == ["overflow"]
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        montecarlo._beside(lambda: np.float64(1e300) * 1e300, lambda: None)


def test_the_callers_error_wins_after_the_task_has_ended():
    ended = []

    def task():
        time.sleep(0.05)
        ended.append(threading.current_thread().name)
        raise ValueError("the task's")

    def work():
        raise KeyError("the caller's")

    with pytest.raises(KeyError):
        montecarlo._beside(task, work)
    assert ended == ["loopinfo-montecarlo"]
    with pytest.raises(ValueError, match="the task's"):
        montecarlo._beside(task, lambda: None)


def test_the_caller_runs_both_halves_where_no_thread_starts(monkeypatch):
    def refuse(thread):
        raise RuntimeError("can't create new thread at interpreter shutdown")

    order = []
    monkeypatch.setattr(montecarlo, "_worker", None)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    got = montecarlo._beside(lambda: order.append("task") or 1, lambda: order.append("work") or 2)
    assert got == (1, 2)
    assert order == ["work", "task"]
    cfg = SimulationConfig(colored_v_loop(), n_samples=2**13, seed=2)
    grid = FrequencyGrid(256)
    alone = _record_hex(compare_report(cfg, grid=grid))
    monkeypatch.undo()
    assert alone == _record_hex(compare_report(cfg, grid=grid))


# Compares after the main thread has returned: from a thread that outlives
# it, and from an atexit hook. Each prints its record's empirical rate.
_AFTER_MAIN = """
import atexit, threading
from loopinfo import LoopModel, SimulationConfig, colored, compare_report, tf, white
from loopinfo.spectral import FrequencyGrid

model = LoopModel(
    tf([0.0, 1.0], [1.0, -2.0]), tf([-2.0]), tf([1.0]), white(1.0),
    colored(0.7, tf([1.0, 0.5], [1.0, -0.9])),
)
cfg = SimulationConfig(model, n_samples=2**13, seed=3)
grid = FrequencyGrid(256)
started = threading.Event()


def late(name):
    print(name, compare_report(cfg, grid=grid).empirical_rate.hex(), flush=True)


def outlives_main():
    started.set()
    threading.main_thread().join()
    for _ in range(2):
        late("thread")


atexit.register(late, "atexit")
threading.Thread(target=outlives_main).start()
started.wait()
late("main")
"""


def test_compare_report_works_after_the_main_thread_returns():
    proc = subprocess.run(
        [sys.executable, "-c", _AFTER_MAIN], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert [name for name, _ in lines] == ["main", "thread", "thread", "atexit"]
    assert len({rate for _, rate in lines}) == 1
