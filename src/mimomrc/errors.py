"""Exception types shared across the package, and the one check each of
a number's type, of point inputs and of counts."""

import math
import numbers
import sys

import numpy as np


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""


class NumericalError(RuntimeError):
    """Raised when a numerical routine cannot reach its accuracy target."""


class QuadratureError(NumericalError):
    """Quadrature failed to meet tolerance; carries the best estimate found.

    Attributes:
        estimate: value of the integral at the point of failure; from
            ``exact_ser``, the SER of the first SNR refused.
        error_bound: estimated absolute error of ``estimate``, from the
            intervals still open.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


# The rule each kind of linear point must meet, in words and as a test.
_RULES = {
    "evaluation point": ("finite and >= 0", lambda v: (v >= 0.0) & (v < math.inf)),
    "outage threshold": ("positive", lambda v: (v > 0.0) & (v < math.inf)),
    "grid point": ("finite", np.isfinite),
}


def checked_numbers(values, refusal: str, complex_ok: bool = False) -> np.ndarray:
    """``values``, a number or an array or nest of lists of them, as a
    numpy array (of dtype object unless it was an array already), if each
    is an integer or a float or, with ``complex_ok``, a complex number; a
    bool, a string, any other object or a ragged nest of lists is refused
    with ``ValidationError``: ``refusal``, then ``values``. So is an
    integer larger in size than the largest double, naming the integer:
    no float holds it. The one type rule of points and of matrices."""
    raw = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    kinds, number = ("iufc", numbers.Complex) if complex_ok else ("iuf", numbers.Real)
    if raw.dtype != object:
        ok = raw.dtype.kind in kinds
    else:
        ok = all(isinstance(v, number) and not isinstance(v, bool) for v in raw.flat)
    if not ok:
        raise ValidationError(f"{refusal}, got {values!r}")
    for v in raw.flat if raw.dtype == object else ():
        if isinstance(v, numbers.Integral) and not abs(v) <= sys.float_info.max:
            raise ValidationError(f"{refusal}; an integer must lie within the double range "
                                  f"(size at most {sys.float_info.max:.5g}), got {v!r}")
    return raw


def checked_points(values, name: str, db: bool = False) -> np.ndarray:
    """``values``, a number or an array of them, as a float array of their
    shape, every one checked before any is used; ``ValidationError``
    names the first one refused. A number is an integer or a float (see
    :func:`checked_numbers`): a bool, a string, a complex number, any
    other object or a ragged nest of lists is refused, naming ``values``.

    A linear ``name`` is an ``"evaluation point"`` (finite and >= 0), an
    ``"outage threshold"`` (finite and > 0) or a ``"grid point"`` of the
    empirical c.d.f. (finite). With ``db``, the values are
    in dB (an ``"SNR"``, or a threshold) and their linear values come
    back, each Python's float ``10 ** (v / 10)``: one that is not a
    positive normal double, which is outside about -3076.5 to 3082.5 dB,
    is refused.
    """
    raw = checked_numbers(values, f"{name} must be an integer or a float, or an array of them")
    points = np.asarray(raw, dtype=float)
    if not db:
        rule, valid = _RULES[name]
        ok = valid(points)
        if not ok.all():
            raise ValidationError(f"{name} must be {rule}, got {float(points[~ok].flat[0])!r}")
        return points
    linear = []
    for v in points.ravel().tolist():
        if not math.isfinite(v):
            raise ValidationError(f"{name} must be finite, got {v!r}")
        try:
            linear.append(10.0 ** (v / 10.0))
        except OverflowError:
            linear.append(math.inf)
        if not sys.float_info.min <= linear[-1] < math.inf:
            raise ValidationError(f"{name} must lie within about -3076.5 to 3082.5 dB, where "
                                  f"its linear value is a normal double, got {v!r} dB")
    return np.array(linear).reshape(points.shape)


def check_count(value, name: str, low: int = 1, high: int | None = None) -> None:
    """Refuse, with ``ValidationError`` naming ``name``, a ``value`` that is
    not an integer (a bool is not one), or is below ``low`` or, given
    ``high``, not below ``high``."""
    if (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and low <= value and (high is None or value < high)):
        return
    rule = f">= {low}" if high is None else f"in [{low}, {high})"
    raise ValidationError(f"{name} must be an integer {rule}, got {value!r}")
