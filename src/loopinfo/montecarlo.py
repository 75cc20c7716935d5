"""Time-domain validation of the analytic rate via loop simulation.

The loop is run as a literal sample-by-sample recursion through the plant,
feedback filter, and controller (direct-form II transposed states), never
through the closed-form maps the analytic path uses — agreement between the
two routes is then an actual check, not a tautology. Spectra of the recorded
trajectories are estimated with Welch's method and pushed through the same
log-integral engine as the analytic path.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InvalidInputError
from .lti import LoopModel, TransferFunction
from .spectral import (
    FrequencyGrid,
    NoiseSpec,
    SpectrumSamples,
    _write_csv,
    log_integral,
    sensitivity_ratio,
)
from .decomposition import RateInputs, decompose

DIVERGENCE_LIMIT = 1e12

PSD_FLOOR = 1e-12


@dataclass(frozen=True)
class SimulationConfig:
    model: LoopModel
    n_samples: int = 2**17
    burn_in: int = 4096
    seed: int = 0

    def __post_init__(self):
        if not (self.n_samples > self.burn_in >= 0):
            raise InvalidInputError(
                f"need n_samples > burn_in >= 0, got {self.n_samples}, {self.burn_in}"
            )
        if not (0 <= self.seed < 2**64):
            raise InvalidInputError(f"seed must fit in 64 bits, got {self.seed!r}")


@dataclass(frozen=True, eq=False)
class TrajectorySet:
    """Post-burn-in signal records. y = z + w holds exactly at every sample."""

    y: np.ndarray
    w: np.ndarray
    v: np.ndarray
    z: np.ndarray
    u: np.ndarray
    seed: int
    sample_count: int

    def __init__(self, y, w, v, z, u, seed, sample_count):
        arrays = {}
        for name, val in (("y", y), ("w", w), ("v", v), ("z", z), ("u", u)):
            arr = np.asarray(val, dtype=float)
            if arr.shape != (sample_count,):
                raise InvalidInputError(
                    f"signal {name} has length {arr.shape}, expected {sample_count}"
                )
            if not np.all(np.isfinite(arr)):
                raise InvalidInputError(f"signal {name} contains non-finite samples")
            arr = arr.copy()
            arr.flags.writeable = False
            arrays[name] = arr
        if not np.array_equal(arrays["y"], arrays["z"] + arrays["w"]):
            raise InvalidInputError("channel equation y = z + w violated")
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "seed", int(seed))
        object.__setattr__(self, "sample_count", int(sample_count))

    def to_csv(self, target) -> None:
        signals = (self.w, self.v, self.z, self.y, self.u)
        rows = (
            [t] + [f"{s[t]:.12g}" for s in signals] for t in range(self.sample_count)
        )
        _write_csv(target, ["t", "w", "v", "z", "y", "u"], rows)


@dataclass(frozen=True)
class WelchParams:
    segment_length: int = 1024
    overlap_fraction: float = 0.5
    window: str = "hann"

    def __post_init__(self):
        n = self.segment_length
        if n < 2 or (n & (n - 1)) != 0:
            raise InvalidInputError(f"segment length must be a power of two, got {n}")
        if not (0.0 <= self.overlap_fraction < 1.0):
            raise InvalidInputError(
                f"overlap fraction must lie in [0, 1), got {self.overlap_fraction!r}"
            )
        if self.window != "hann":
            raise InvalidInputError(f"only the hann window is supported, got {self.window!r}")


class _Df2t:
    """Direct-form II transposed realization of one transfer function."""

    __slots__ = ("b", "a", "s")

    def __init__(self, tf_: TransferFunction, state=None):
        b = list(tf_.num.coeffs)
        a = list(tf_.den.coeffs)
        a0 = a[0]
        m = max(len(b), len(a)) - 1
        self.b = [x / a0 for x in b] + [0.0] * (m + 1 - len(b))
        self.a = [x / a0 for x in a] + [0.0] * (m + 1 - len(a))
        self.s = list(state) if state is not None else [0.0] * m
        if len(self.s) != m:
            raise InvalidInputError(f"expected {m} initial states, got {len(self.s)}")

    @property
    def order(self) -> int:
        return len(self.s)

    @property
    def pending(self) -> float:
        """The part of the next output already fixed by the past."""
        return self.s[0] if self.s else 0.0

    def step(self, x: float) -> float:
        b, a, s = self.b, self.a, self.s
        m = len(s)
        y = b[0] * x + (s[0] if m else 0.0)
        for i in range(m - 1):
            s[i] = b[i + 1] * x - a[i + 1] * y + s[i + 1]
        if m:
            s[m - 1] = b[m] * x - a[m] * y
        return y


def _shaped_noise(spec: NoiseSpec, eps: np.ndarray) -> np.ndarray:
    driven = math.sqrt(spec.variance) * eps
    if spec.kind == "white":
        return driven
    step = _Df2t(spec.shaping).step
    return np.array([step(x) for x in driven.tolist()])


def simulate_loop(cfg: SimulationConfig) -> TrajectorySet:
    """Run the loop recursion and record post-burn-in trajectories.

    Per sample: the one strictly proper element of (P, K, H) breaks the
    algebraic loop, fixing the update order; noise innovations are drawn
    once up front (w first, then v) from a Philox stream keyed by the seed,
    so trajectories are bit-reproducible for a given seed.
    """
    model = cfg.model
    n = cfg.n_samples

    rng = np.random.Generator(np.random.Philox(cfg.seed))
    w_sig = _shaped_noise(model.channel_noise, rng.standard_normal(n))
    v_sig = _shaped_noise(model.output_disturbance, rng.standard_normal(n))
    for name, sig in (("w", w_sig), ("v", v_sig)):
        if not np.all(np.isfinite(sig)) or np.max(np.abs(sig), initial=0.0) > DIVERGENCE_LIMIT:
            raise DivergenceError(f"noise signal {name} diverged during shaping")

    plant = model.plant
    ctrl = model.controller
    fb = model.feedback_filter

    orders = [
        max(len(f.num.coeffs), len(f.den.coeffs)) - 1 for f in (plant, fb, ctrl)
    ]
    total = sum(orders)
    x0 = model.initial_state
    if len(x0) == 0:
        x0 = (0.0,) * total
    if len(x0) != total:
        raise InvalidInputError(
            f"initial_state must hold {total} values "
            f"(plant {orders[0]}, feedback {orders[1]}, controller {orders[2]}), "
            f"got {len(x0)}"
        )
    fp = _Df2t(plant, x0[: orders[0]])
    fh = _Df2t(fb, x0[orders[0] : orders[0] + orders[1]])
    fk = _Df2t(ctrl, x0[orders[0] + orders[1] :])

    gp, gh, gk = fp.b[0], fh.b[0], fk.b[0]
    if gp != 0.0:
        if gk == 0.0:
            order = "k_first"
        elif gh == 0.0:
            order = "h_first"
        else:
            raise InvalidInputError(
                "no exactly-zero feedthrough in P, K, H; the loop recursion "
                "needs one strictly proper element"
            )
    else:
        order = "p_first"

    y_out = np.empty(n)
    z_out = np.empty(n)
    u_out = np.empty(n)
    limit = DIVERGENCE_LIMIT

    for t in range(n):
        wt = w_sig[t]
        vt = v_sig[t]
        if order == "p_first":
            pt = fp.pending  # gp == 0: plant output ignores u_t
            zt = fh.step(pt + vt)
            yt = zt + wt
            ut = fk.step(yt)
            fp.step(ut)
        elif order == "k_first":
            ut = fk.pending  # gk == 0
            pt = fp.step(ut)
            zt = fh.step(pt + vt)
            yt = zt + wt
            fk.step(yt)
        else:
            zt = fh.pending  # gh == 0
            yt = zt + wt
            ut = fk.step(yt)
            pt = fp.step(ut)
            fh.step(pt + vt)
        y_out[t] = yt
        z_out[t] = zt
        u_out[t] = ut
        if not (abs(yt) <= limit and abs(ut) <= limit):
            raise DivergenceError(
                f"signal magnitude exceeded {limit:g} at sample {t} "
                "(non-stabilizing configuration or numerical blow-up)",
                index=t,
                value=yt if abs(yt) > limit else ut,
            )

    k = cfg.burn_in
    kept = n - k
    return TrajectorySet(
        y=y_out[k:], w=w_sig[k:], v=v_sig[k:], z=z_out[k:], u=u_out[k:],
        seed=cfg.seed, sample_count=kept,
    )


def welch_psd(
    x, params: WelchParams = WelchParams(), grid: FrequencyGrid | None = None
) -> SpectrumSamples:
    """Averaged windowed-periodogram PSD estimate mapped onto the grid.

    Normalized so the grid mean of the estimate equals the sample variance
    for white input. Even symmetry is exact by construction (half-spectrum
    mirroring), matching the SpectrumSamples contract.
    """
    grid = grid or FrequencyGrid()
    x = np.asarray(x, dtype=float)
    nseg = params.segment_length
    if x.ndim != 1 or len(x) < nseg:
        raise InvalidInputError(
            f"need a 1-d sequence of at least {nseg} samples, got shape {x.shape}"
        )
    # periodic Hann, the right variant for overlapped averaging
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(nseg) / nseg)
    scale = np.sum(win**2)
    hop = max(1, int(round(nseg * (1.0 - params.overlap_fraction))))

    acc = np.zeros(nseg // 2 + 1)
    count = 0
    for start in range(0, len(x) - nseg + 1, hop):
        seg = x[start : start + nseg] * win
        acc += np.abs(np.fft.rfft(seg)) ** 2
        count += 1
    half = acc / (count * scale)

    full = np.empty(nseg)
    full[: nseg // 2 + 1] = half
    full[nseg // 2 + 1 :] = half[1 : nseg // 2][::-1]
    # bins at 2*pi*k/nseg for k = 0..nseg-1; re-center on [-pi, pi)
    bin_omegas = -np.pi + 2.0 * np.pi * np.arange(nseg) / nseg
    centered = np.roll(full, nseg // 2)

    vals = np.interp(grid.omegas, bin_omegas, centered, period=2.0 * np.pi)
    return SpectrumSamples(grid, vals)


def _floored_log_ratio(sy: SpectrumSamples, sw: SpectrumSamples) -> tuple[float, int]:
    floored = int(np.sum(sy.values < PSD_FLOOR) + np.sum(sw.values < PSD_FLOOR))
    if floored:
        warnings.warn(
            f"floored {floored} near-zero PSD bins at {PSD_FLOOR:g}",
            RuntimeWarning,
            stacklevel=3,
        )
        sy = SpectrumSamples(sy.grid, np.maximum(sy.values, PSD_FLOOR))
        sw = SpectrumSamples(sw.grid, np.maximum(sw.values, PSD_FLOOR))
    return log_integral(sensitivity_ratio(sy, sw)), floored


def empirical_directed_info(
    traj: TrajectorySet,
    params: WelchParams = WelchParams(),
    grid: FrequencyGrid | None = None,
) -> float:
    """Plug-in rate estimate: the analytic integral evaluated on Welch spectra."""
    value, _ = _empirical_detail(traj, params, grid)
    return value


def _empirical_detail(traj, params, grid) -> tuple[float, int]:
    grid = grid or FrequencyGrid()
    sy = welch_psd(traj.y, params, grid)
    sw = welch_psd(traj.w, params, grid)
    return _floored_log_ratio(sy, sw)


@dataclass(frozen=True)
class ComparisonRecord:
    """Analytic vs simulated rate for one (config, seed)."""

    seed: int
    n_samples: int
    analytic_rate: float
    empirical_rate: float
    abs_gap: float
    rel_gap: float | None
    tolerance: float
    passed: bool
    floored_bins: int = 0

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "n_samples": self.n_samples,
            "analytic_rate": self.analytic_rate,
            "empirical_rate": self.empirical_rate,
            "abs_gap": self.abs_gap,
            "rel_gap": self.rel_gap,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "floored_bins": self.floored_bins,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.as_dict(), **kwargs)


def compare_report(
    cfg: SimulationConfig,
    params: WelchParams = WelchParams(),
    tolerance: float = 0.03,
    grid: FrequencyGrid | None = None,
) -> ComparisonRecord:
    """Simulate, estimate the rate, and compare with the analytic value.

    The simulation runs first, so a non-stabilizing configuration surfaces
    as a divergence error before any analytic work.
    """
    if not (tolerance >= 0.0):
        raise InvalidInputError(f"tolerance must be >= 0, got {tolerance!r}")
    grid = grid or FrequencyGrid()
    traj = simulate_loop(cfg)
    empirical, floored = _empirical_detail(traj, params, grid)
    analytic = decompose(RateInputs(cfg.model, grid)).total_rate
    gap = abs(analytic - empirical)
    return ComparisonRecord(
        seed=cfg.seed,
        n_samples=cfg.n_samples,
        analytic_rate=analytic,
        empirical_rate=empirical,
        abs_gap=gap,
        rel_gap=(gap / abs(analytic)) if analytic != 0.0 else None,
        tolerance=tolerance,
        passed=gap <= tolerance,
        floored_bins=floored,
    )
