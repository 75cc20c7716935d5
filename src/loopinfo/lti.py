"""Rational transfer-function algebra for the feedback loop.

Everything is expressed in the unit-delay variable d = z^{-1}: a coefficient
list [c0, c1, c2] means c0 + c1*d + c2*d**2. Reading that same list as
descending powers of z gives the z-plane polynomial, which is where poles,
zeros and stability live. Causality means the denominator has a nonzero
constant term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    ConsistencyError,
    InvalidInputError,
    SingularityError,
    UnstableLoopError,
    _raise_at_sample,
)

if TYPE_CHECKING:
    from .spectral import NoiseSpec

STABILITY_MARGIN = 1e-9  # a pole is stable only if |p| < 1 - STABILITY_MARGIN
# Two roots within this z-plane distance are treated as a pole/zero cancellation.
CANCEL_TOL = 1e-9


def _unstable(p: complex) -> bool:
    """Every stability check's rule: p is unstable unless |p| < 1 - STABILITY_MARGIN."""
    return not abs(p) < 1.0 - STABILITY_MARGIN


def _strip_trailing_zeros(coeffs: Sequence[float]) -> tuple[float, ...]:
    c = tuple(map(float, coeffs))
    k = len(c)
    while k > 1 and c[k - 1] == 0.0:
        k -= 1
    return c[:k]


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial in the delay variable, ascending coefficients; being
    immutable, it computes its z-plane roots once, on first use, by
    _companion_roots: the roots np.roots gives, bit for bit, from one call
    to LAPACK's eigensolver."""

    coeffs: tuple[float, ...]

    def __init__(self, coeffs: Sequence[float]):
        if len(coeffs) == 0:
            raise InvalidInputError("polynomial needs at least one coefficient")
        c = _strip_trailing_zeros(coeffs)
        if not all(map(math.isfinite, c)):
            raise InvalidInputError(f"non-finite polynomial coefficients: {c}")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0.0,)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(np.convolve(self.coeffs, other.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        # numpy's polysub bit for bit, -0.0 included: it forms (-y) + x, equal
        # to x - y, when other is longer, whose own terms it negates
        a, b = self.coeffs, other.coeffs
        k = min(len(a), len(b))
        return Polynomial(tuple(x - y for x, y in zip(a, b)) + a[k:] + tuple(-y for y in b[k:]))

    def scaled(self, a: float) -> "Polynomial":
        if a == 1.0:  # exact: keep this object and its computed roots
            return self
        return Polynomial(tuple(a * c for c in self.coeffs))

    @cached_property
    def _roots(self) -> tuple[complex, ...]:
        c = self.coeffs
        lead = next((x for x in c if x != 0.0), 1.0)  # the companion row divides by it
        try:
            if all(math.isfinite(x / lead) for x in c):  # else the companion row is not finite
                return _companion_roots(c) if self.degree else ()
        except np.linalg.LinAlgError:
            pass
        raise InvalidInputError(f"cannot compute the roots of {c}: too wide a coefficient range")


# LAPACK's eigensolver (geev) and linear solver (gesv): the gufuncs that
# numpy.linalg's eigvals and solve call, called here without those
# wrappers' checks and casts, on finite float64 arrays.
_geev = _umath_linalg.eigvals
_gesv = _umath_linalg.solve1


def _did_not_converge(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


def _lapack_errstate(callback) -> np.errstate:
    """numpy.linalg's error state around a LAPACK gufunc: a failure comes
    back as a floating-point invalid flag, which calls callback to raise
    LinAlgError. A fresh one per call: numpy 2 will not re-enter one."""
    return np.errstate(
        call=callback, invalid="call", over="ignore", divide="ignore", under="ignore"
    )


# LAPACK's geev rescales a matrix whose largest entry lies outside about
# [2^-459, 2^459], and scaling back can move the last bit; inside, the
# eigenvalue of a 1x1 matrix is its entry, unchanged.
_EXACT_1X1 = (2.0**-400, 2.0**400)


@lru_cache(maxsize=32)
def _subdiagonal(n: int) -> np.ndarray:
    a = np.eye(n, k=-1)
    a.flags.writeable = False
    return a


def _companion_roots(c: tuple[float, ...]) -> tuple[complex, ...]:
    """The z-plane roots of ascending-d coefficients c (last one nonzero,
    each finite over the first nonzero one): np.roots(c), bit for bit and
    in its order, at the cost of LAPACK's geev alone.

    Leading zeros, pure delays whose roots lie at infinity, are dropped, as
    np.roots drops them. The rest's companion matrix, with row
    -c[1:]/c[0] over a unit subdiagonal, is np.roots' own, and goes to the
    same eigensolver under the same error state as numpy.linalg's eigvals;
    the roots are real, as there, when no imaginary part is nonzero. At
    degree 1 the matrix's one entry is the root, unless it lies where that
    solver would rescale it.
    """
    p = c[next(i for i, x in enumerate(c) if x != 0.0):]
    n = len(p) - 1
    if n == 0:
        return ()
    p0 = p[0]
    if n == 1:
        r = -p[1] / p0
        if _EXACT_1X1[0] < abs(r) < _EXACT_1X1[1]:
            return (complex(r),)
    a = _subdiagonal(n).copy()
    a[0] = [-x / p0 for x in p[1:]]  # numpy's -p[1:] / p0, one IEEE op each
    with _lapack_errstate(_did_not_converge):
        w = _geev(a, signature="d->D").tolist()
    if any(z.imag for z in w):
        return tuple(w)
    return tuple(complex(z.real) for z in w)


def poly_roots(p: Polynomial) -> list[complex]:
    """Roots of p read as a z-plane polynomial (ascending-in-d = descending-in-z).

    Delay factors (zero constant term) put roots at infinity, which are
    omitted; every returned root is finite. They are the eigenvalues of
    np.roots' companion matrix, taken from LAPACK's geev directly, equal to
    np.roots bit for bit and in its order (see _companion_roots), once per
    polynomial; each call returns a fresh list.
    """
    return list(p._roots)


def _poly_from_z_roots(z_roots, constant: float) -> Polynomial:
    """Ascending-d coefficients of constant * prod(1 - z_i*d).

    Anchoring at the constant term keeps the polynomial's value exact when a
    root is dropped during cancellation — the remaining factors are untouched.
    Raises ConsistencyError if the roots are not conjugate-closed (an
    imaginary residue above 1e-9 * max|c|).
    """
    c = np.array([1.0 + 0j])
    for z in z_roots:
        c = np.convolve(c, np.array([1.0, -z]))
    c = constant * c
    imag_mag = float(np.max(np.abs(c.imag)))
    scale = float(np.max(np.abs(c))) or 1.0
    if imag_mag > 1e-9 * scale:
        raise ConsistencyError(
            "a product of root factors left a complex coefficient residue "
            f"({imag_mag:.3e}); the roots were not conjugate-closed"
        )
    return Polynomial(c.real)


def _reduce_pair(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Cancel common roots (z-plane distance < CANCEL_TOL), normalize den(0) = 1."""
    if den.is_zero:
        raise InvalidInputError("denominator is the zero polynomial")
    if den.coeffs[0] == 0.0:
        raise InvalidInputError(
            "denominator constant term is zero; the map is not causal/well-posed"
        )
    if num.is_zero:
        return Polynomial((0.0,)), Polynomial((1.0,))

    # pure-delay prefactor of the numerator: num = d^delay * q with q(0) != 0;
    # num and q have the same finite roots
    delay = next(i for i, c in enumerate(num.coeffs) if c != 0.0)
    nroots = poly_roots(num)
    droots = poly_roots(den)
    cancel_n: list[int] = []
    cancel_d: list[int] = []
    for j, zb in enumerate(droots):
        best = None
        best_dist = CANCEL_TOL
        for i, za in enumerate(nroots):
            if i in cancel_n:
                continue
            dist = abs(za - zb)
            if dist < best_dist:
                best, best_dist = i, dist
        if best is not None:
            cancel_n.append(best)
            cancel_d.append(j)

    if cancel_d:
        keep_n = [a for i, a in enumerate(nroots) if i not in cancel_n]
        keep_d = [b for j, b in enumerate(droots) if j not in cancel_d]
        reduced = _poly_from_z_roots(keep_n, num.coeffs[delay])
        num = Polynomial((0.0,) * delay + reduced.coeffs)
        den = _poly_from_z_roots(keep_d, den.coeffs[0])

    d0 = den.coeffs[0]
    return num.scaled(1.0 / d0), den.scaled(1.0 / d0)


@dataclass(frozen=True)
class TransferFunction:
    """Reduced rational map num(d)/den(d) with den(0) = 1.

    Construction cancels pole/zero pairs closer than CANCEL_TOL in the z-plane
    and rescales, so two equal systems built along different routes compare
    equal coefficient-wise to rounding.
    """

    num: Polynomial
    den: Polynomial

    def __init__(self, num, den):
        if not isinstance(num, Polynomial):
            num = Polynomial(num)
        if not isinstance(den, Polynomial):
            den = Polynomial(den)
        num, den = _reduce_pair(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __mul__(self, other: "TransferFunction") -> "TransferFunction":
        return TransferFunction(self.num * other.num, self.den * other.den)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def poles(self) -> list[complex]:
        """z-plane poles, including origin poles from delay excess."""
        p = poly_roots(self.den)
        excess = self.num.degree - self.den.degree
        if excess > 0 and not self.num.is_zero:
            p += [0j] * excess
        return p

    def zeros(self) -> list[complex]:
        """z-plane zeros, including origin zeros from denominator degree excess."""
        if self.num.is_zero:
            return []
        z = poly_roots(self.num)
        excess = self.den.degree - self.num.degree
        if excess > 0:
            z += [0j] * excess
        return z


def tf(num: Sequence[float], den: Sequence[float] = (1.0,)) -> TransferFunction:
    """Shorthand constructor from ascending delay-variable coefficient lists."""
    return TransferFunction(Polynomial(num), Polynomial(den))


TF_ONE = tf([1.0])
TF_ZERO = tf([0.0])


def freq_response_array(tf_: TransferFunction, omegas: np.ndarray) -> np.ndarray:
    """Vectorized unit-circle response over an array of frequencies, as a
    new complex array (see unit_circle_response for the temporaries it
    avoids).

    A grid's own frequencies, the read-only array FrequencyGrid.omegas
    returns, are evaluated at that grid's cached points e^{-j omega}, only
    the n/2 + 1 with omega <= 0: sample n - k, at -omega_k, is the conjugate
    of sample k (a static gain is one quotient). Any other array gets its
    points computed and all evaluated, with the same bits.
    """
    omegas = np.asarray(omegas, dtype=float)
    n, m = omegas.size, omegas.size // 2 + 1
    # the cached points are only read; a writeable array, a view or a size
    # no grid has leaves the caches untouched
    if (omegas.flags.writeable or omegas.base is not None or n < 64
            or n & (n - 1) or omegas is not _omegas(n)):
        return unit_circle_response(tf_, _unit_circle_points(omegas), omegas)
    if tf_.num.degree == 0 and tf_.den.degree == 0:
        # conjugating would turn the quotient's +0j into -0j
        q = np.full(1, complex(tf_.num.coeffs[0]))
        return np.full(n, np.divide(q, complex(tf_.den.coeffs[0]), out=q)[0])
    head = unit_circle_response(tf_, _unit_circle(n)[:m], omegas[:m])
    out = np.empty(n, dtype=complex)
    out[:m] = head
    np.conjugate(head[m - 2 : 0 : -1], out=out[m:])
    return out


def _unit_circle_points(omegas: np.ndarray) -> np.ndarray:
    """e^{-j omega} for real omegas, as a new complex array."""
    return np.exp(-1j * omegas)


# Grids are rebuilt freely (each defaulted grid argument is a new one), so
# their sample arrays are cached per size, read-only, for the last few sizes
# used; spectral.FrequencyGrid hands them out.
@lru_cache(maxsize=6)
def _omegas(n: int) -> np.ndarray:
    # -pi + 2*pi*k/n for the n/2 + 1 samples in [-pi, 0], exact up to one
    # rounding that a power-of-two n does not change, so omegas(2n)[::2] ==
    # omegas(n) bit for bit; their exact negatives in (0, pi), so the points
    # e^{-j omega} there are exact conjugates (numpy's cos is even, sin odd).
    m = n // 2 + 1
    w = np.empty(n)
    w[:m] = -np.pi + 2.0 * np.pi * np.arange(m) / n
    np.negative(w[m - 2 : 0 : -1], out=w[m:])
    w.flags.writeable = False
    return w


@lru_cache(maxsize=6)
def _unit_circle(n: int) -> np.ndarray:
    e = _unit_circle_points(_omegas(n))
    e.flags.writeable = False
    return e


def _horner(points: np.ndarray, coeffs: tuple[float, ...]) -> np.ndarray:
    """sum_k coeffs[k] * points**k by Horner's rule, in place.

    The multiplies and adds are numpy polyval's, less its leading multiply
    by zero, so the values agree bit for bit; skipped are the temporaries
    and the casting of each real coefficient against the complex array. A
    constant polynomial is returned as a complex scalar, with no array.
    """
    if len(coeffs) == 1:
        return complex(coeffs[0])
    acc = points * coeffs[-1]
    acc += coeffs[-2]
    for c in coeffs[-3::-1]:
        acc *= points
        acc += c
    return acc


def unit_circle_response(
    tf_: TransferFunction, points: np.ndarray, omegas: np.ndarray
) -> np.ndarray:
    """num(e)/den(e) at precomputed unit-circle points e = e^{-j omega}.

    omegas are the frequencies of the points; they only name the first
    singular sample in the error. The denominator is tested before the
    numerator is formed, and the quotient is written over one of the two,
    so no more than two arrays of the points' size are alive at once; a
    constant numerator or denominator is divided as a scalar, the same
    numpy division with no array of its own.
    """
    den = _horner(points, tf_.den.coeffs)
    bad = np.abs(den) < 1e-12
    _raise_at_sample(SingularityError, "denominator vanishes on the unit circle", omegas, bad)
    del bad
    num = _horner(points, tf_.num.coeffs)
    if isinstance(num, np.ndarray):
        return np.divide(num, den, out=num)
    if isinstance(den, np.ndarray):
        return np.divide(num, den, out=den)
    q = np.full(np.shape(points), num)
    return np.divide(q, den, out=q)


@dataclass(frozen=True)
class LoopModel:
    """The full loop interconnection: u -> P -> (+v) -> H -> z -> (+w) -> y -> K -> u.

    Positive-feedback convention: the return difference is 1 - P*K*H, so the
    usual negative-feedback loop is obtained by negating the controller. The
    loop gain must be strictly proper (at least one sample of delay around the
    loop) for the sample-by-sample recursion to be well posed. Its raw loop
    gain is formed on construction; being immutable, it forms its stability
    report and closed loop once, on first use.
    """

    plant: TransferFunction
    controller: TransferFunction
    feedback_filter: TransferFunction
    channel_noise: "NoiseSpec"
    output_disturbance: "NoiseSpec"
    initial_state: tuple[float, ...] = field(default=())

    def __post_init__(self):
        feedthrough = (
            self.plant.num.coeffs[0]
            * self.controller.num.coeffs[0]
            * self.feedback_filter.num.coeffs[0]
        )
        if feedthrough != 0.0:
            raise InvalidInputError(
                "loop gain P*K*H must be strictly proper "
                "(at least one of P, K, H needs a leading zero numerator coefficient)"
            )
        object.__setattr__(self, "initial_state", tuple(float(x) for x in self.initial_state))
        self._loop_gain_raw  # formed now: a product that overflows raises here

    @cached_property
    def _loop_gain_raw(self) -> tuple[Polynomial, Polynomial, Polynomial]:
        """Unreduced numerator and denominator of L = P*K*H, and the
        unreduced return difference den_L - num_L, never zero: num_L(0) = 0
        and den_L(0), a product of normalized den(0), is 1 up to rounding."""
        num = self.plant.num * self.controller.num * self.feedback_filter.num
        den = self.plant.den * self.controller.den * self.feedback_filter.den
        return num, den, den - num

    @cached_property
    def _stability(self) -> "StabilityReport":
        return _check_stability(self)

    @cached_property
    def _closed_loop(self) -> "ClosedLoop":
        return _form_closed_loop(self)


@dataclass(frozen=True)
class ClosedLoop:
    """Closed-loop maps of a LoopModel: its poles are f_wy's, and it is stable
    if neither map has an unstable pole. A LoopModel's verdict is instead its
    StabilityReport, which also sees modes that cancellation hides.

    f_wy: channel noise w -> loop output y, equal to 1/(1 - L).
    f_vy: output disturbance v -> loop output y, equal to H/(1 - L).

    Being immutable, it keeps the squared gains |f_wy|^2 and |f_vy|^2 on the
    unit circle once formed, one read-only pair per grid size (see
    spectral._closed_loop_gains).
    """

    f_wy: TransferFunction
    f_vy: TransferFunction

    @cached_property
    def _gains(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """The squared gains per grid size, filled on first use and freed
        with the closed loop; threads racing to fill an entry each form the
        same bits."""
        return {}

    @property
    def closed_loop_poles(self) -> tuple[complex, ...]:
        """The poles of f_wy, origin poles from delay excess included."""
        return tuple(self.f_wy.poles())

    @property
    def is_stable(self) -> bool:
        return not self._unstable_poles

    @property
    def _unstable_poles(self) -> tuple[complex, ...]:
        """The unstable poles of f_wy, then those of f_vy not already listed."""
        wy = tuple(filter(_unstable, self.closed_loop_poles))
        return wy + tuple(p for p in filter(_unstable, self.f_vy.poles()) if p not in wy)


def close_loop(model: LoopModel) -> ClosedLoop:
    """The closed-loop transfer functions, formed once per model: every call
    returns the one ClosedLoop, whose squared gains on a grid are formed
    once and shared, read-only, by every spectrum computed from it.

    F_vy's numerator H.num * P.den * K.den is not part of the loop gain
    formed when the model is built, so it can exceed the float range on a
    model that is_stabilizing answers: that raises InvalidInputError here.
    """
    return model._closed_loop


def _form_closed_loop(model: LoopModel) -> ClosedLoop:
    _, den_l, char_raw = model._loop_gain_raw
    # char_raw(0) = 1, so unless a cancellation rebuilds it, f_wy.den is
    # char_raw itself and shares its roots with the stability check
    f_wy = TransferFunction(den_l, char_raw)
    # H/(1 - L) = H.num * P.den * K.den / (den_L - num_L), formed directly:
    # H * f_wy would cancel H's poles against f_wy's numerator and rebuild
    # both polynomials from computed roots, perturbing |f_vy| by ~1e-9.
    # With H = 1 that numerator is den_L and f_vy is f_wy.
    try:
        num_vy = model.feedback_filter.num * model.plant.den * model.controller.den
    except InvalidInputError as err:
        raise InvalidInputError(
            "the closed loop of this model exceeds the float range: "
            f"F_vy's numerator H.num * P.den * K.den overflows ({err})"
        ) from err
    f_vy = f_wy if num_vy == den_l else TransferFunction(num_vy, char_raw)
    return ClosedLoop(f_wy, f_vy)


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of the internal-stability check: the one verdict on a
    LoopModel, read by every rate computation through _require.

    closed_loop_poles come from the unreduced return difference, so modes
    hidden by pole/zero cancellation between the P, K, H factors still show
    up. unstable_cancellations lists unstable factor poles that a factor zero
    cancels within CANCEL_TOL; any such loop is rejected as unstabilizable.
    offending_poles lists the unstable closed-loop poles, then each unstable
    cancellation not within CANCEL_TOL of one of them.
    """

    is_stabilizing: bool
    closed_loop_poles: tuple[complex, ...]
    offending_poles: tuple[complex, ...]
    unstable_cancellations: tuple[complex, ...]

    def _require(self, message: str) -> None:
        """Raise UnstableLoopError(message, offending poles) unless stabilizing."""
        if not self.is_stabilizing:
            raise UnstableLoopError(message, poles=self.offending_poles)


def is_stabilizing(model: LoopModel) -> StabilityReport:
    """Check internal stability of the loop, once per model; never raises, as
    the model's construction formed the polynomials it reads."""
    return model._stability


def _check_stability(model: LoopModel) -> StabilityReport:
    num_l, den_l, char_raw = model._loop_gain_raw
    # delay excess around the loop shows up as z-plane poles at the origin
    loop_order = max(num_l.degree if not num_l.is_zero else 0, den_l.degree)
    origin = loop_order - char_raw.degree
    poles = tuple(poly_roots(char_raw)) + (0j,) * origin
    unstable = tuple(filter(_unstable, poles))

    factors = (model.plant, model.controller, model.feedback_filter)
    product_zeros: list[complex] = []
    for f in factors:
        if not f.num.is_zero:
            product_zeros.extend(poly_roots(f.num))
    cancelled: list[complex] = []
    for f in factors:
        for p in filter(_unstable, f.poles()):
            if any(abs(p - z) < CANCEL_TOL for z in product_zeros):
                cancelled.append(p)

    hidden = [p for p in cancelled if all(abs(p - q) >= CANCEL_TOL for q in unstable)]
    return StabilityReport(
        is_stabilizing=not unstable and not cancelled,
        closed_loop_poles=poles,
        offending_poles=unstable + tuple(hidden),
        unstable_cancellations=tuple(cancelled),
    )


def pole_placement_controller(
    path: TransferFunction, target_poles: Sequence[complex]
) -> TransferFunction:
    """Controller K placing the closed-loop poles of 1 - path*K at target_poles.

    Solves the Diophantine equation den*x - num*y = char over coefficient
    vectors, with char(d) the product of (1 - lambda*d) factors. The path is
    whatever K multiplies in the loop gain (P itself, or P*H). For a path of
    denominator degree n the controller has degree n - 1 and exactly 2n - 1
    poles must be supplied (conjugate-closed).

    Raises InvalidInputError if the path is static, the pole count is wrong,
    or the Sylvester system is singular (non-coprime path).
    """
    n = path.den.degree
    if n < 1:
        raise InvalidInputError("pole placement needs a path with at least one pole")
    if path.num.degree > n:
        raise InvalidInputError(
            "path numerator delay-degree exceeds denominator degree; "
            "absorb the extra delay into the path before placement"
        )
    want = 2 * n - 1
    targets = [complex(p) for p in target_poles]
    if len(targets) != want:
        raise InvalidInputError(f"expected {want} target poles, got {len(targets)}")

    try:
        char = _poly_from_z_roots(targets, 1.0).coeffs
    except ConsistencyError as exc:
        raise InvalidInputError("target poles are not conjugate-closed") from exc

    size = 2 * n
    dp = np.zeros(size)
    dp[: len(path.den.coeffs)] = path.den.coeffs
    npv = np.zeros(size)
    npv[: len(path.num.coeffs)] = path.num.coeffs

    a = np.zeros((size, size))
    for j in range(n):  # columns for x (den of K), degree n-1
        a[j : j + n + 1, j] = dp[: n + 1]
    for j in range(n):  # columns for y (num of K), degree n-1
        a[j : j + n + 1, n + j] = -npv[: n + 1]
    rhs = np.zeros(size)
    rhs[: len(char)] = char

    try:
        with _lapack_errstate(_singular):
            sol = _gesv(a, rhs, signature="dd->d")
    except np.linalg.LinAlgError as exc:
        raise InvalidInputError(f"pole placement system is singular: {exc}") from exc
    x, y = sol[:n], sol[n:]
    if abs(x[0]) < 1e-12:
        raise InvalidInputError("placement produced a non-causal controller")
    return TransferFunction(Polynomial(y), Polynomial(x))
