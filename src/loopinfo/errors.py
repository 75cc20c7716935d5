"""Exception types shared across the package.

Every failure mode the library reports deliberately maps onto one of these,
so callers (and the CLI exit-code contract) can branch on class rather than
on message text. A failure at one frequency-grid sample is located, worded
and raised in one place, _raise_at_sample; every integer argument is checked
by _check_int. UnstableLoopError follows from a LoopModel's one stability
verdict, its StabilityReport, or from a hand-built ClosedLoop's two maps.
"""

from numbers import Integral


class LoopInfoError(Exception):
    """Base class for all loopinfo errors."""


class InvalidInputError(LoopInfoError, ValueError):
    """Malformed or out-of-contract input (bad coefficients, mismatched grids, ...)."""


class _SampleError(LoopInfoError):
    """A failure at one grid sample. Carries its frequency as .omega and,
    where the failure has one, the sample's value as .value (else None)."""

    def __init__(self, message, omega=None, value=None):
        super().__init__(message)
        self.omega = omega
        self.value = value


class SingularityError(_SampleError):
    """A map or log integrand is (near-)singular on the unit circle. Carries the frequency."""


class UnstableLoopError(LoopInfoError):
    """The closed loop is not (internally) stable.

    Carries the offending pole locations when known.
    """

    def __init__(self, message, poles=()):
        poles = tuple(poles)
        if poles:
            listed = ", ".join(f"{p:.6g}" for p in poles)
            message = f"{message} (offending poles: {listed})"
        super().__init__(message)
        self.poles = poles


class DivergenceError(LoopInfoError):
    """A simulated sample exceeded the blow-up guard (non-stabilizing loop or numerics)."""

    def __init__(self, message, index=None, value=None):
        super().__init__(message)
        self.index = index
        self.value = value


class LogDomainError(_SampleError):
    """A log integrand sample was nonpositive. Carries the frequency and value."""


class DivisionDomainError(_SampleError):
    """A spectral ratio denominator vanished. Carries the frequency."""


class ConsistencyError(LoopInfoError):
    """Two internally redundant computations of the same quantity disagreed."""


class ConfigError(InvalidInputError):
    """A config file failed to parse. Carries the offending field path."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


def _raise_at_sample(error, what, omegas, at, values=None):
    """Raise error at sample at, a flat index into omegas (and values) or the
    first sample a boolean array flags; return if it flags none.
    The message reads "<what> [<value>] at omega=<omega>", both Python floats,
    which the error carries as .omega and .value (None without values)."""
    if not isinstance(at, int):
        if not at.any():
            return
        at = int(at.argmax())
    omega = float(omegas.flat[at])
    value = None if values is None else float(values.flat[at])
    shown = "" if value is None else f" {value!r}"
    err = error(f"{what}{shown} at omega={omega!r}")
    err.omega, err.value = omega, value
    raise err


def _check_int(value, name: str) -> None:
    """Raise InvalidInputError "<name> must be an integer, got <value>" unless
    value is an integer, Python's or numpy's but not a bool."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
