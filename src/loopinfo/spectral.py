"""Power spectral densities and log-spectral integrals on a uniform grid.

Spectra are sampled arrays over [-pi, pi), not symbolic objects, so the
analytic path and the Welch-estimated path share one integral engine and
one log-domain rule, _first_low: a nonpositive log integrand sample raises
LogDomainError, one below NEAR_SINGULAR_FLOOR is near-singular. The grid
mean of a PSD equals the process variance, (1/2pi) * integral over [-pi, pi).
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DivisionDomainError,
    InvalidInputError,
    LogDomainError,
    SingularityError,
    UnstableLoopError,
    _check_int,
    _raise_at_sample,
)
from .lti import (
    TF_ONE,
    ClosedLoop,
    LoopModel,
    TransferFunction,
    _omegas,
    _unit_circle,
    _unstable,
    close_loop,
    unit_circle_response,
)

DEFAULT_GRID_POINTS = 4096

# Below this, a log integrand sample is treated as near-singular: integrable
# in principle, but the fixed grid cannot certify accuracy.
NEAR_SINGULAR_FLOOR = 1e-12

# The error of every route whose S_Y/S_W, or part of it, overflows.
_RATIO_OVERFLOW = "the sensitivity ratio S_Y/S_W exceeds the float range"


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform samples of [-pi, pi), power-of-two count."""

    n_points: int = DEFAULT_GRID_POINTS

    def __post_init__(self):
        n = self.n_points
        _check_int(n, "grid size")
        if n < 64 or (n & (n - 1)) != 0:
            raise InvalidInputError(
                f"grid size must be a power of two >= 64, got {n}"
            )

    @property
    def omegas(self) -> np.ndarray:
        """The n frequencies -pi + 2 pi k / n, read-only and cached per size,
        with omegas[n - k] == -omegas[k] exactly; freq_response_array
        evaluates this very array at unit_circle, n/2 + 1 points of it."""
        return _omegas(self.n_points)

    @property
    def unit_circle(self) -> np.ndarray:
        """The points e^{-j omega}, at which every transfer function is evaluated."""
        return _unit_circle(self.n_points)


def _owned(cls, *fields):
    """An instance of cls taking over fields whose arrays are new and held by
    no one else: validated by cls._adopt, as the copying constructor does,
    and made read-only there, but not copied."""
    obj = cls.__new__(cls)
    obj._adopt(*fields)
    return obj


@dataclass(frozen=True, eq=False)
class SpectrumSamples:
    """Nonnegative, even-symmetric PSD samples on a FrequencyGrid.

    values is read-only and owned by the spectrum. The constructor copies
    the values a caller passes, so changing the caller's array later changes
    nothing here. The library's own spectra (noise_psd, output_psd,
    LoopSpectra.sy, sensitivity_ratio, welch_psd and its floored copies in
    the empirical rate) are built by _owned from arrays just formed for them
    and referenced nowhere else.

    The values are checked in order: finite, nonnegative, then even, sample k
    matching its mirror n - k within 1e-300 + 1e-9 times the mirror. An
    exactly even spectrum, as every library spectrum on an analytic path is,
    passes the last check in one comparison, and the first two on its first
    n/2 + 1 samples; output_psd, sensitivity_ratio and log_integral then
    form their samples on that half too (see _elementwise).
    """

    grid: FrequencyGrid
    values: np.ndarray

    def __init__(self, grid: FrequencyGrid, values):
        self._adopt(grid, np.array(values, dtype=float))

    def _adopt(self, grid: FrequencyGrid, v: np.ndarray) -> None:
        if v.shape != (grid.n_points,):
            raise InvalidInputError(
                f"expected {grid.n_points} samples, got shape {v.shape}"
            )
        tail, mirror = v[1:], v[:0:-1]  # sample 0 is its own mirror
        even = np.array_equal(tail, mirror)
        # the samples that determine the rest: n/2 + 1 if exactly even
        span = grid.n_points // 2 + 1 if even else grid.n_points
        _check_psd_values(v[:span], grid.omegas)
        if not even:
            # Two scratch arrays hold the gaps and the tolerances, rounded
            # exactly as in abs(tail - mirror) > 1e-300 + 1e-9 * mirror, so
            # the decision keeps its bits; an exact pair has gap 0 and passes.
            gap = np.subtract(tail, mirror)
            np.abs(gap, out=gap)
            tol = np.multiply(mirror, 1e-9)
            tol += 1e-300
            if np.any(gap > tol):
                raise InvalidInputError("spectrum is not even-symmetric on the grid")
        v.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "_span", span)


def _check_psd_values(v: np.ndarray, omegas: np.ndarray) -> None:
    """SpectrumSamples' value checks, on a spectrum's samples, or on the first
    n/2 + 1 of an exactly even one: every sample finite, then none negative,
    the first smallest one named if one is (in the first n/2 + 1, as its
    mirrors lie at higher indices)."""
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("spectrum contains non-finite values")
    if np.any(v < 0.0):
        k = int(np.argmin(v))
        _raise_at_sample(InvalidInputError, "negative PSD value", omegas, k, v)


@dataclass(frozen=True)
class NoiseSpec:
    """Stationary Gaussian source: white noise of the given variance through
    a stable shaping filter, TF_ONE for a white source. Zero variance is
    allowed (a silent source); operations that need a strictly positive
    spectrum reject it at call time.
    """

    variance: float
    shaping: TransferFunction = TF_ONE

    def __post_init__(self):
        if not np.isfinite(self.variance) or self.variance < 0.0:
            raise InvalidInputError(
                f"noise variance must be finite and >= 0, got {self.variance!r}"
            )
        if not isinstance(self.shaping, TransferFunction):
            raise InvalidInputError(f"shaping is not a TransferFunction: {self.shaping!r}")
        unstable = list(filter(_unstable, self.shaping.poles()))
        if unstable:
            raise InvalidInputError(
                f"shaping filter has poles on/outside the unit circle: {unstable}"
            )


def white(variance: float) -> NoiseSpec:
    return NoiseSpec(variance)


def colored(variance: float, shaping: TransferFunction) -> NoiseSpec:
    return NoiseSpec(variance, shaping)


def squared_gain(tf_: TransferFunction, grid: FrequencyGrid) -> np.ndarray:
    """|tf(e^{-j omega})|^2 on the grid, a new array, exactly even; a static
    gain c needs no evaluation.

    tf_ has real coefficients, so |tf| is even in omega, and sample n - k of
    the grid is the mirror of sample k. Only the n/2 + 1 samples with omega
    in [-pi, 0] are evaluated; the rest are copied from their mirrors (see
    _mirror). A check on the evaluated samples names the first one it flags,
    as a check on all n would: a flagged sample with omega > 0 has its
    mirror at a lower index.
    """
    n = grid.n_points
    if tf_.num.degree == 0 and tf_.den.degree == 0:
        c = tf_.num.coeffs[0] / tf_.den.coeffs[0]
        return np.full(n, c * c)
    m = n // 2 + 1
    response = unit_circle_response(tf_, grid.unit_circle[:m], grid.omegas[:m])
    out = np.empty(n)
    head = np.abs(response, out=out[:m])
    np.square(head, out=head)
    return _mirror(out)


def noise_psd(spec: NoiseSpec, grid: FrequencyGrid) -> SpectrumSamples:
    """PSD of the source on the grid: sigma^2 * |G|^2, exactly even (see
    squared_gain). A shaping filter with |G|^2 <= 1e-18 somewhere on the grid
    vanishes on the unit circle, a silent source's too: SingularityError,
    named at the sample nearest the zero."""
    values = squared_gain(spec.shaping, grid)
    if values.min() <= 1e-18:
        what = "shaping filter vanishes on the unit circle"
        _raise_at_sample(SingularityError, what, grid.omegas, int(np.argmin(values)))
    values *= spec.variance
    return _owned(SpectrumSamples, grid, values)


def _mirror(out: np.ndarray) -> np.ndarray:
    """out, whose first n/2 + 1 samples (omega in [-pi, 0]) are set, made
    exactly even: each sample n - k with omega > 0 is copied from sample k."""
    h = len(out) // 2
    out[h + 1 :] = out[h - 1 : 0 : -1]
    return out


def _elementwise(form, span: int, *arrays: np.ndarray) -> np.ndarray:
    """A new array of n samples, the elementwise form(*heads, out=head) on
    the arrays' first span samples; a span of n/2 + 1, for exactly even
    arrays, is mirrored (see _mirror): the bits of an all-n pass."""
    out = np.empty(len(arrays[0]))
    form(*(a[:span] for a in arrays), out=out[:span])
    return out if span == len(out) else _mirror(out)


def output_psd(
    cl: ClosedLoop, sw: SpectrumSamples, sv: SpectrumSamples
) -> SpectrumSamples:
    """Loop-output PSD: |F_wy|^2 * S_W + |F_vy|^2 * S_V; an unstable pole of
    either map raises UnstableLoopError, naming it (see ClosedLoop.is_stable)."""
    if sw.grid != sv.grid:
        raise InvalidInputError(
            f"mismatched grids: {sw.grid.n_points} vs {sv.grid.n_points} points"
        )
    if not cl.is_stable:
        raise UnstableLoopError(
            "output PSD is defined only for a stable loop", poles=cl._unstable_poles
        )
    return _output_spectrum(*_closed_loop_gains(cl, sw.grid), sw, sv)


def _output_spectrum(fwy, fvy, sw: SpectrumSamples, sv: SpectrumSamples) -> SpectrumSamples:
    """|F_wy|^2 * S_W + |F_vy|^2 * S_V, from exactly even squared gains."""
    values = _elementwise(
        lambda a, b, c, d, out: np.add(np.multiply(a, b, out=out), c * d, out=out),
        max(sw._span, sv._span), fwy, sw.values, fvy, sv.values,
    )
    return _owned(SpectrumSamples, sw.grid, values)


def _closed_loop_gains(cl: ClosedLoop, grid: FrequencyGrid):
    """|F_wy|^2 and |F_vy|^2 on the grid, stability checked by the caller;
    F_vy equals F_wy when H = 1."""
    fwy = squared_gain(cl.f_wy, grid)
    fvy = fwy if cl.f_vy == cl.f_wy else squared_gain(cl.f_vy, grid)
    return fwy, fvy


@dataclass(frozen=True, eq=False)
class LoopSpectra:
    """A loop's spectra on one grid, each transfer function evaluated once,
    on the half of the grid with omega in [-pi, 0], and mirrored: every
    array here, sy too, is exactly even (see squared_gain).

    sw and sv are the source PSDs; h2, fwy2 and fvy2 the squared gains |H|^2,
    |F_wy|^2 and |F_vy|^2. Every quantity the rate, its split and the entropy
    route need is formed from these arrays, elementwise, so it is formed on
    the first n/2 + 1 samples and mirrored (see _mirror): sy here, the
    integrands in the decomposition. The caller has checked stability.
    """

    sw: SpectrumSamples
    sv: SpectrumSamples
    h2: np.ndarray
    fwy2: np.ndarray
    fvy2: np.ndarray

    @classmethod
    def evaluate(cls, model: LoopModel, grid: FrequencyGrid) -> "LoopSpectra":
        # an overflowed or NaN sample fails sy's finiteness check instead
        with np.errstate(over="ignore", invalid="ignore"):
            sw = noise_psd(model.channel_noise, grid)
            sv = noise_psd(model.output_disturbance, grid)
            h2 = squared_gain(model.feedback_filter, grid)
            return cls(sw, sv, h2, *_closed_loop_gains(close_loop(model), grid))

    @cached_property
    def sy(self) -> SpectrumSamples:
        """Loop-output PSD: |F_wy|^2 * S_W + |F_vy|^2 * S_V."""
        return _output_spectrum(self.fwy2, self.fvy2, self.sw, self.sv)


def sensitivity_ratio(sa: SpectrumSamples, sb: SpectrumSamples) -> SpectrumSamples:
    """Generalized sensitivity sqrt(S_a / S_b), pointwise on the grid; a
    ratio beyond the float range raises InvalidInputError, as in decompose."""
    if sa.grid != sb.grid:
        raise InvalidInputError(
            f"mismatched grids: {sa.grid.n_points} vs {sb.grid.n_points} points"
        )
    span = max(sa._span, sb._span)
    with np.errstate(over="ignore"):  # S_a and S_b are finite, S_b > 1e-300
        ratio = _elementwise(
            lambda a, b, w, out: np.sqrt(np.divide(a, _divisor(b, w), out=out), out=out),
            span, sa.values, sb.values, sa.grid.omegas,
        )
    if not ratio[:span].max() < np.inf:
        raise InvalidInputError(_RATIO_OVERFLOW)
    return _owned(SpectrumSamples, sa.grid, ratio)


def _divisor(values: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """values, a spectrum's samples, which must stay above 1e-300 to divide by them."""
    tiny = values <= 1e-300
    _raise_at_sample(DivisionDomainError, "denominator spectrum vanishes", omegas, tiny)
    return values


def log_integral(s: SpectrumSamples) -> float:
    """(1/2pi) * integral of log s(omega) over [-pi, pi).

    Uniform-grid trapezoid rule, which by periodicity reduces to the plain
    mean of the log samples and converges spectrally for integrands analytic
    near the unit circle. A nonpositive sample raises LogDomainError, and a
    near-singular one warns (see _first_low). An exactly even s has its logs
    formed on half the grid (see _elementwise); the mean is over all n.
    """
    if _first_low("log integrand", s.values[: s._span], s.grid.omegas) is not None:
        warnings.warn(
            "log integrand has near-singular samples (< 1e-12); "
            "the fixed grid cannot certify accuracy",
            RuntimeWarning,
            stacklevel=2,
        )
    return float(np.mean(_elementwise(np.log, s._span, s.values)))


def _first_low(label: str, vals: np.ndarray, omegas: np.ndarray) -> int | None:
    """The log-domain rule: the index of the first sample of vals below
    NEAR_SINGULAR_FLOOR (None if none); raises LogDomainError at the first
    sample that is not positive."""
    _raise_at_sample(LogDomainError, f"nonpositive {label}", omegas, vals <= 0.0, vals)
    low = vals < NEAR_SINGULAR_FLOOR
    return int(np.argmax(low)) if np.any(low) else None


def _write_csv(target, header, rows) -> None:
    """Write a header and rows as CSV to a path (opened and closed here) or
    to an open file object (left open)."""
    own = isinstance(target, (str, bytes)) or hasattr(target, "__fspath__")
    fh = open(target, "w", newline="") if own else target
    try:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if own:
            fh.close()


def spectrum_to_csv(s: SpectrumSamples, target) -> None:
    """Write the spectrum as CSV (columns omega, value) to a path or file object."""
    rows = ([f"{w:.12g}", f"{v:.12g}"] for w, v in zip(s.grid.omegas, s.values))
    _write_csv(target, ["omega", "value"], rows)
