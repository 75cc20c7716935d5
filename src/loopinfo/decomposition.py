"""Directed-information rate of the feedback channel and its decomposition.

The rate is the log-spectral integral of the generalized sensitivity ratio
sqrt(S_Y/S_W). It splits into a control term (the Bode sensitivity integral
of the loop) plus a nonnegative disturbance-transmission term; for white
noises and unit feedback the split collapses to the closed forms
sum of ln max(1, |pole|) and (1/2) ln(1 + sigma_v^2/sigma_w^2).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import (
    ConsistencyError,
    InvalidInputError,
    SingularityError,
    _check_int,
    _raise_at_sample,
)
from .lti import (
    LoopModel,
    Polynomial,
    TransferFunction,
    _poly_from_z_roots,
    close_loop,
    is_stabilizing,
    pole_placement_controller,
    poly_roots,
    tf,
)
from .spectral import (
    NEAR_SINGULAR_FLOOR,
    _RATIO_OVERFLOW,
    FrequencyGrid,
    NoiseSpec,
    SpectrumSamples,
    _closed_loop_gains,
    _divisor,
    _first_low,
    _mean,
    _mirror,
    _output_spectrum,
    _write_csv,
    colored,
    log_integral,
    noise_psd,
    squared_gain,
    white,
)

# The two algebraically equal disturbance-integrand forms must agree this
# closely, and the entropy-difference route must match the direct rate.
CROSS_CHECK_TOL = 1e-10
# The disturbance terms of one loop under several controllers must agree
# this closely.
_INDEPENDENCE_TOL = 1e-9


@dataclass(frozen=True)
class RateInputs:
    """A stabilized loop plus the evaluation grid for all rate integrals: its
    construction requires the model's StabilityReport, and nothing after."""

    model: LoopModel
    grid: FrequencyGrid = field(default_factory=FrequencyGrid)

    def __post_init__(self):
        is_stabilizing(self.model)._require("rate computation needs a stabilized loop")


@dataclass(frozen=True)
class DecompositionReport:
    """The three integrals of the rate decomposition, all in nats/sample.

    residual = total_rate - control_term - disturbance_term, which is zero in
    exact arithmetic because the identity holds pointwise per frequency.
    convergence_estimate is the gap to the exact Jensen values: the largest
    of |quadrature - exact| over the three integrals.
    """

    total_rate: float
    control_term: float
    disturbance_term: float
    residual: float
    bode_analytic: float
    grid_points: int
    convergence_estimate: float

    def __post_init__(self):
        if self.disturbance_term < -1e-12:
            raise ConsistencyError(
                f"disturbance term must be nonnegative, got {self.disturbance_term!r}"
            )
        if self.total_rate < self.control_term - 1e-8:
            raise ConsistencyError(
                "total rate fell below the control term: "
                f"{self.total_rate!r} < {self.control_term!r}"
            )


def gaussian_entropy_rate(s: SpectrumSamples) -> float:
    """Entropy rate (nats/sample) of a stationary Gaussian process with PSD s."""
    return 0.5 * math.log(2.0 * math.pi * math.e) + 0.5 * log_integral(s)


def _integrands(
    model: LoopModel, grid: FrequencyGrid, take, keep=None
) -> tuple[tuple, int | None]:
    """take applied to each integrand of the model's rate, in the order log
    sqrt(S_Y/S_W), (1/2) log|F_wy|^2, the simplified and the F-ratio
    disturbance form, each formed in |H|^2's array (the simplified form
    first, in place) and overwritten by the next (take must not keep it),
    and the first index where ratio^2 or |F_wy|^2 is near-singular, or None.
    The caller has checked stability.

    S_W and S_V are those noise_psd keeps on the model's sources, |F_wy|^2
    and |F_vy|^2 those kept on its closed loop; |H|^2 is formed here, and
    S_Y, the SpectrumSamples output_psd would form, is passed to keep (if
    given) and dropped once S_Y/S_W is formed. All are exactly even (see
    squared_gain), and each step is elementwise, so each integrand is formed
    on the n/2 + 1 samples with omega in [-pi, 0] and mirrored: take gets
    the n samples a full-grid pass would form, bit for bit. The sensitivity
    ratio gets sensitivity_ratio's divisor check, an overflowed ratio raises
    InvalidInputError naming it, and every check names the omega a full-grid
    check would.
    """
    omegas, m = grid.omegas, grid.n_points // 2 + 1
    # an overflowed or NaN sample fails S_Y's finiteness check instead
    with np.errstate(over="ignore", invalid="ignore"):
        sw = noise_psd(model.channel_noise, grid)
        sv = noise_psd(model.output_disturbance, grid)
        h2 = squared_gain(model.feedback_filter, grid)
        fwy2, fvy2 = _closed_loop_gains(close_loop(model), grid)
    with np.errstate(over="ignore"):  # S_Y and S_W are finite, S_W > 1e-300
        sy = _output_spectrum(fwy2, fvy2, sw, sv)
        if keep is not None:
            keep(sy)
        ratio = np.divide(sy.values[:m], _divisor(sw.values[:m], omegas))
    del sy  # freed, unless kept, before ratio^2 is formed
    sw, sv, fwy2, fvy2 = (a[:m] for a in (sw.values, sv.values, fwy2, fvy2))
    if not ratio.max() < np.inf:
        raise InvalidInputError(_RATIO_OVERFLOW)
    np.sqrt(ratio, out=ratio)

    low_ratio = _first_low("sensitivity ratio", np.square(ratio), omegas)
    low_fwy = _first_low("|f_wy|^2", fwy2, omegas)
    low = min((k for k in (low_ratio, low_fwy) if k is not None), default=None)

    head = _simplified_form(sw, sv, h2[:m], h2[:m])
    disturbance = take(_mirror(h2))
    np.log(ratio, out=head)
    total = take(_mirror(h2))
    del ratio  # freed before the F-ratio form's denominator is formed
    np.log(fwy2, out=head)
    head *= 0.5
    control = take(_mirror(h2))
    _f_ratio_form(sw, sv, fwy2, fvy2, omegas, head)
    disturbance_alt = take(_mirror(h2))
    return (total, control, disturbance, disturbance_alt), low


def _reject_near_singular(index: int | None, omegas: np.ndarray) -> None:
    if index is not None:
        what = (
            f"log integrand is near-singular (< {NEAR_SINGULAR_FLOOR:g}): "
            "a closed-loop zero is too close to the unit circle"
        )
        _raise_at_sample(SingularityError, what, omegas, index)


def _simplified_form(sw, sv, h2, out: np.ndarray) -> np.ndarray:
    """(1/2) log(1 + |H|^2 S_V/S_W) into out (which may be h2): no controller."""
    np.multiply(h2, sv, out=out)
    out /= sw
    np.log1p(out, out=out)
    out *= 0.5
    return out


def _f_ratio_form(sw, sv, fwy2, fvy2, omegas, out: np.ndarray) -> np.ndarray:
    """(1/2) log(1 + |F_vy|^2 S_V/(|F_wy|^2 S_W)) into out, if |F_wy|^2 S_W > 1e-300."""
    denom = np.multiply(fwy2, sw)
    _raise_at_sample(SingularityError, "|f_wy|^2 * S_W vanishes", omegas, denom <= 1e-300)
    return _simplified_form(denom, sv, fvy2, out)


def _require_forms_agree(simplified: float, f_ratio: float) -> None:
    if not abs(simplified - f_ratio) <= CROSS_CHECK_TOL:  # a NaN gap raises too
        raise ConsistencyError(
            f"the two disturbance-integrand forms disagree: {simplified!r} vs {f_ratio!r}"
        )


def _warn_if_off_exact(gap: float, grid: FrequencyGrid, stacklevel: int) -> None:
    if not gap <= CROSS_CHECK_TOL:  # a NaN gap warns too
        warnings.warn(
            f"quadrature on {grid.n_points} points is {gap:.3g} nats from "
            "the exact Jensen values; a root lies near the unit circle",
            RuntimeWarning,
            stacklevel=stacklevel + 1,
        )


def bode_term_analytic(model: LoopModel) -> float:
    """Discrete-time Bode sensitivity value: sum of ln max(1, |lambda|) over
    the poles of P, K and H, which are the open-loop poles of L = P*K*H.
    Matches the quadrature of log|f_wy| when the loop gain is strictly
    proper, the loop is stabilized, and nothing unstable cancels."""
    factors = (model.plant, model.controller, model.feedback_filter)
    return float(sum(math.log(max(1.0, abs(p))) for f in factors for p in f.poles()))


def white_noise_disturbance_term(sigma_v2: float, sigma_w2: float) -> float:
    """(1/2) ln(1 + sigma_v^2/sigma_w^2): disturbance term for white noises, H = 1."""
    if not np.isfinite(sigma_w2) or sigma_w2 <= 0.0:
        raise InvalidInputError(
            f"channel noise variance must be finite and > 0, got {sigma_w2!r}"
        )
    if not np.isfinite(sigma_v2) or sigma_v2 < 0.0:
        raise InvalidInputError(
            f"disturbance variance must be finite and >= 0, got {sigma_v2!r}"
        )
    return 0.5 * math.log1p(sigma_v2 / sigma_w2)


def _log_mahler(p: Polynomial) -> float:
    """(1/2pi) * integral of ln|p(e^{-j omega})| by Jensen's formula: ln|p_0| +
    sum of ln max(1, |z_i|) over p's z-plane roots, pure delays stripped."""
    mags = np.abs(poly_roots(p))
    lead = next(c for c in p.coeffs if c != 0.0)
    return math.log(abs(lead)) + float(np.sum(np.log(np.maximum(1.0, mags))))


def _disturbance_term_exact(model: LoopModel) -> float:
    """The disturbance term from roots: (1/2)[m(sigma_v^2 A A* + sigma_w^2 B B*)
    - m(sigma_w^2 B B*)], with A = H.num G_v.num G_w.den, B = H.den G_v.den
    G_w.num (G = 1 for white noise), m the log-Mahler measure; no controller.
    B B*'s roots pair up across the circle, ill-conditioned near it, so m(B B*)
    = 2 m(B) factor by factor, with m(G_v.den) = 0 (stable, den(0) = 1)."""
    w, v, h = model.channel_noise, model.output_disturbance, model.feedback_filter
    if v.variance == 0.0:
        return 0.0  # both measures are m(sigma_w^2 B B*)
    gw, gv = w.shaping, v.shaping
    a = np.convolve(np.convolve(h.num.coeffs, gv.num.coeffs), gw.den.coeffs)
    b = np.convolve(np.convolve(h.den.coeffs, gv.den.coeffs), gw.num.coeffs)
    # equal lengths make a a* and b b* share their centre
    n = max(len(a), len(b))
    a, b = np.append(a, np.zeros(n - len(a))), np.append(b, np.zeros(n - len(b)))
    spectrum = v.variance * np.convolve(a, a[::-1]) + w.variance * np.convolve(b, b[::-1])
    return (
        0.5 * (_log_mahler(Polynomial(spectrum)) - math.log(w.variance))
        - _log_mahler(h.den)
        - _log_mahler(gw.num)
    )


def decompose(inputs: RateInputs) -> DecompositionReport:
    """Split the directed-information rate into control + disturbance terms.

    Both disturbance-integrand forms (the F-ratio form and the simplified
    |H|^2 form) are evaluated and must agree within 1e-10; the report carries
    the simplified form. A near-singular integrand (a sample below 1e-12)
    raises SingularityError naming the first such omega: a finer grid keeps
    every sample of this one, so it cannot help.

    The reported values are grid means of _integrands, each transfer
    function evaluated once; the source PSDs and closed-loop gains are those
    kept on the model's objects (see noise_psd and close_loop).
    convergence_estimate is their gap to the exact Jensen values, from roots
    (the Bode sum; log-Mahler measures of the disturbance spectra, and the
    two summed for the total); a gap above 1e-10 raises a RuntimeWarning.
    """
    return _decompose(inputs)


def _decompose(inputs: RateInputs, keep=None, stacklevel: int = 3) -> DecompositionReport:
    """decompose's report, its S_Y passed to keep (see _integrands); the
    off-exact warning names the caller stacklevel - 1 frames up."""
    model, grid = inputs.model, inputs.grid
    means, low = _integrands(model, grid, _mean, keep)
    _reject_near_singular(low, grid.omegas)

    total, control, disturbance, disturbance_alt = means
    _require_forms_agree(disturbance, disturbance_alt)

    bode = bode_term_analytic(model)
    exact_disturbance = _disturbance_term_exact(model)
    estimate = max(
        abs(total - (bode + exact_disturbance)),
        abs(control - bode),
        abs(disturbance - exact_disturbance),
    )
    _warn_if_off_exact(estimate, grid, stacklevel)

    return DecompositionReport(
        total_rate=total,
        control_term=control,
        disturbance_term=disturbance,
        residual=total - control - disturbance,
        bode_analytic=bode,
        grid_points=grid.n_points,
        convergence_estimate=estimate,
    )


@dataclass(frozen=True)
class IndependenceReport:
    """F-ratio disturbance means of one loop under several stabilizing controllers."""

    disturbance_terms: tuple[float, ...]
    max_deviation: float
    passed: bool
    tolerance: float = _INDEPENDENCE_TOL


def controller_independence_check(
    model: LoopModel,
    alt_controllers: Sequence[TransferFunction],
    grid: FrequencyGrid | None = None,
) -> IndependenceReport:
    """Recompute the disturbance term with each controller swapped in.

    S_W, S_V, |H|^2 and the simplified mean hold no controller: they are
    formed once, and warn as in decompose; a mean that is not finite raises
    decompose's InvalidInputError for an overflowed S_Y/S_W. Each controller
    forms |F_wy|^2 and |F_vy|^2, keeping none (the model's own controller
    reads those a decompose kept on its closed loop), checked as in
    decompose (a non-finite sample raises InvalidInputError), and their
    F-ratio mean, which must match the simplified mean within 1e-10. PASS
    iff the F-ratio means agree within 1e-9. A controller whose
    StabilityReport is not stabilizing raises UnstableLoopError, naming its
    index.

    As in decompose, each integrand is formed on the n/2 + 1 samples with
    omega in [-pi, 0] and mirrored, and each mean is over all n samples.
    """
    grid = grid or FrequencyGrid()
    omegas, m = grid.omegas, grid.n_points // 2 + 1
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite gain raises below
        sw = _divisor(noise_psd(model.channel_noise, grid).values[:m], omegas)
        sv = noise_psd(model.output_disturbance, grid).values[:m]
        scratch = squared_gain(model.feedback_filter, grid)
        head = scratch[:m]
        _simplified_form(sw, sv, head, head)
        simplified = _mean(_mirror(scratch))
        if not math.isfinite(simplified):
            raise InvalidInputError(_RATIO_OVERFLOW)
        _warn_if_off_exact(abs(simplified - _disturbance_term_exact(model)), grid, stacklevel=2)

        terms = []
        for i, k in enumerate(alt_controllers):
            # the model's own controller reads the gains a decompose kept on
            # its closed loop; the check itself keeps none
            candidate = model if k == model.controller else replace(model, controller=k)
            is_stabilizing(candidate)._require(
                f"controller #{i} (num={k.num.coeffs}, den={k.den.coeffs}) "
                "does not stabilize the loop"
            )
            fwy2, fvy2 = _closed_loop_gains(close_loop(candidate), grid, keep=False)
            # max carries NaN; F_vy is F_wy when H = 1
            if not (fwy2[:m].max() < np.inf and (fvy2 is fwy2 or fvy2[:m].max() < np.inf)):
                raise InvalidInputError(f"controller #{i}: |f_wy|^2 or |f_vy|^2 is not finite")
            _reject_near_singular(_first_low("|f_wy|^2", fwy2[:m], omegas), omegas)
            _f_ratio_form(sw, sv, fwy2[:m], fvy2[:m], omegas, head)
            del fwy2, fvy2  # freed before the next controller's are formed
            term = _mean(_mirror(scratch))
            _require_forms_agree(simplified, term)
            terms.append(term)
    deviation = max(terms) - min(terms) if terms else 0.0
    return IndependenceReport(
        disturbance_terms=tuple(terms),
        max_deviation=deviation,
        passed=deviation < _INDEPENDENCE_TOL,
    )


def export_integrands(inputs: RateInputs, target) -> None:
    """Write per-frequency integrand samples as CSV: columns omega, log_Syw,
    log_Fwy, disturbance_integrand."""
    (log_ratio, log_fwy, disturbance, _), _ = _integrands(inputs.model, inputs.grid, np.copy)
    columns = (inputs.grid.omegas, log_ratio, log_fwy, disturbance)
    _write_csv(
        target,
        ["omega", "log_Syw", "log_Fwy", "disturbance_integrand"],
        ([f"{x:.12g}" for x in row] for row in zip(*columns)),
    )


# ---------------------------------------------------------------------------
# Randomized loop generation for the identity / proof-chain suites.


def _random_poles(rng: np.random.Generator, count: int, lo: float, hi: float):
    """count poles with magnitudes in [lo, hi], conjugate-closed."""
    poles: list[complex] = []
    while len(poles) < count:
        r = rng.uniform(lo, hi)
        if count - len(poles) >= 2 and rng.random() < 0.4:
            th = rng.uniform(0.15, math.pi - 0.15)
            poles.extend([r * complex(math.cos(th), math.sin(th)),
                          r * complex(math.cos(th), -math.sin(th))])
        else:
            poles.append(complex(rng.choice([-1.0, 1.0]) * r))
    return poles


def _random_noise(rng: np.random.Generator, allow_zero: bool) -> NoiseSpec:
    variance = 0.0 if (allow_zero and rng.random() < 0.15) else rng.uniform(0.3, 3.0)
    if variance > 0.0 and rng.random() < 0.4:
        c = rng.uniform(-0.6, 0.6)
        shape = tf([1.0], [1.0, -c]) if rng.random() < 0.5 else tf([1.0, -c])
        return colored(variance, shape)
    return white(variance)


def random_stabilized_loop(rng: np.random.Generator) -> LoopModel:
    """Draw a random loop: stable or unstable plant (stabilized by pole
    placement when needed), random stable feedback filter, random noise
    specs. Closed-loop poles and controller poles are kept away from the
    unit circle so spectra stay nonsingular."""
    n = int(rng.integers(1, 4))
    unstable_plant = rng.random() < 0.5
    if unstable_plant:
        n_unstable = int(rng.integers(1, n + 1))
        poles = _random_poles(rng, n_unstable, 1.1, 2.5) + _random_poles(
            rng, n - n_unstable, 0.0, 0.7
        )
    else:
        poles = _random_poles(rng, n, 0.0, 0.7)
    rng.shuffle(poles)

    num = [0.0, float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))]
    if n >= 2 and rng.random() < 0.5:
        num.append(float(rng.uniform(-0.8, 0.8)))
    plant = TransferFunction(Polynomial(num), _poly_from_z_roots(poles, 1.0))

    if rng.random() < 0.4:
        feedback = tf([1.0])
    else:
        feedback = tf([1.0, float(rng.uniform(-0.9, 0.9))],
                      [1.0, float(rng.uniform(-0.5, 0.5))])

    path = plant * feedback
    while True:
        if not unstable_plant and rng.random() < 0.3:
            controller = tf([0.0]) if rng.random() < 0.3 else tf(
                [float(rng.uniform(-0.3, 0.3))]
            )
        else:
            m = path.den.degree
            targets = _random_poles(rng, 2 * m - 1, 0.0, 0.5)
            try:
                controller = pole_placement_controller(path, targets)
            except InvalidInputError:
                continue
            if any(abs(abs(p) - 1.0) < 0.05 for p in controller.poles()):
                continue

        model = LoopModel(
            plant=plant,
            controller=controller,
            feedback_filter=feedback,
            channel_noise=_random_noise(rng, allow_zero=False),
            output_disturbance=_random_noise(rng, allow_zero=True),
        )
        if is_stabilizing(model).is_stabilizing:
            return model


def _check_seed(seed: int) -> None:
    """Seeds of the random suite and of the simulation are integers, Python's
    or numpy's but not bools, in [0, 2^64)."""
    _check_int(seed, "seed")
    if not (0 <= int(seed) < 2**64):
        raise InvalidInputError(f"seed must fit in 64 bits, got {seed!r}")


@dataclass(frozen=True)
class SuiteCase:
    """One randomized-suite evaluation: the loop, its decomposition, and the
    gap in the entropy-difference route to the same rate."""

    model: LoopModel
    report: DecompositionReport
    proof_chain_gap: float


def run_identity_suite(
    n_cases: int, seed: int = 0, grid: FrequencyGrid | None = None
) -> list[SuiteCase]:
    """Decompose n_cases random stabilized loops, cross-checking on each that
    the rate equals the entropy-rate difference h(Y) - h(W), taken from the
    S_Y and S_W the decomposition read."""
    _check_int(n_cases, "n_cases")
    if n_cases < 0:
        raise InvalidInputError(f"n_cases must be >= 0, got {n_cases!r}")
    _check_seed(seed)
    grid = grid or FrequencyGrid()
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n_cases):
        model = random_stabilized_loop(rng)
        # an equal copy is decomposed, so the spectra its sources and closed
        # loop keep go with it and the suite's memory does not grow per case
        probe = replace(
            model,
            channel_noise=replace(model.channel_noise),
            output_disturbance=replace(model.output_disturbance),
        )
        kept = []
        report = _decompose(RateInputs(probe, grid), kept.append, stacklevel=2)
        sw = noise_psd(probe.channel_noise, grid)
        chain = gaussian_entropy_rate(kept.pop()) - gaussian_entropy_rate(sw)
        cases.append(
            SuiteCase(
                model=model,
                report=report,
                proof_chain_gap=abs(report.total_rate - chain),
            )
        )
    return cases
