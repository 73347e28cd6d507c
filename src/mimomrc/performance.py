"""Symbol-error-rate and outage analytics built on the max-eigenvalue
distribution: exact SER by quadrature, its high-SNR power-law form with
diversity order and array gain, and exact/asymptotic outage probability.

Average SNR always enters these interfaces in dB; outage thresholds are
linear SNR ratios. Everything is a pure function over immutable models.
Every point-wise function takes a number, giving a float, or an array,
giving an array of its shape (the outages broadcast the SNR against the
thresholds), as :mod:`~mimomrc.eigdist` describes; an SNR is refused
unless its linear value is a positive normal double (about -3076.5 to
3082.5 dB). :func:`exact_ser` runs the quadratures of all its SNRs together.

Both high-SNR laws are read off alpha, the leading coefficient of the
c.d.f. F(x) ~ alpha x^(mn), mn = n_min n_max: the outage asymptote at
x = gamma_th / snr, and the SER asymptote as its average of
a Q(sqrt(2 b snr x)) (see :func:`high_snr_ser`).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

# exact_cdf_stable is not called here; the benchmark's tracer wraps this binding
from .eigdist import EigDistModel, asymptotic_cdf, cdf, exact_cdf_stable
from .errors import QuadratureError, ValidationError, checked_points
from .specfun import double_factorial_odd

# Result tolerance for the SER quadrature: absolute 1e-12 or relative
# 1e-8, whichever is looser.
_SER_ABS_TOL = 1e-12
_SER_REL_TOL = 1e-8

# The 31-point Gauss-Legendre rule on [-1, 1], each value bit for bit
# that of numpy.polynomial.legendre.leggauss(31), which is symmetric:
# (node, weight) for the 16 non-negative nodes, mirrored below. Written
# out so that importing the package does not import numpy.polynomial.
_GL_HALF = np.array([
    (0.0, 0.0997205447934261),
    (0.09955531215234152, 0.09922501122667202),
    (0.19812119933557062, 0.09774333538632848),
    (0.29471806998170164, 0.09529024291231925),
    (0.38838590160823294, 0.09189011389364123),
    (0.4781937820449025, 0.08757674060847759),
    (0.5632491614071492, 0.08239299176158914),
    (0.6427067229242603, 0.07639038659877635),
    (0.7157767845868533, 0.06962858323541009),
    (0.781733148416625, 0.06217478656102821),
    (0.8399203201462674, 0.05410308242491654),
    (0.8897600299482711, 0.04549370752720094),
    (0.9307569978966481, 0.03643227391238576),
    (0.9625039250929497, 0.027009019184978878),
    (0.9846859096651525, 0.017318620790311608),
    (0.997087481819477, 0.00747083157925088),
])
_GL_NODES = np.concatenate((-_GL_HALF[:0:-1, 0], _GL_HALF[:, 0]))
_GL_WEIGHTS = np.concatenate((_GL_HALF[:0:-1, 1], _GL_HALF[:, 1]))
_MAX_BISECTIONS = 40

# Intervals that may descend from one starting interval at one bisection
# level. Integrands that converge need a few (4 as a rule, 1,508 at most
# on the 1-4 x 1-4 antenna grid); one whose noise sits above its floor
# keeps doubling them until memory runs out, and is refused here instead.
_MAX_FANOUT = 4096

# The SER quadrature sizes its tolerance from single-panel estimates of the
# first blocks: _SIZING_ROUND more blocks per round for each SNR whose
# truncation rule has not fired, which it does by block 28 of _SIZING_PANELS.
_SIZING_ROUND = 8
_SIZING_PANELS = 32


@dataclass(frozen=True)
class Modulation:
    """Constants (a, b) of the error-rate template a*Q(sqrt(2*b*snr))."""

    name: str
    a: float
    b: float

    def __post_init__(self):
        for label in ("a", "b"):
            value = getattr(self, label)
            if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
                    and 0.0 < value < math.inf):
                raise ValidationError(f"modulation constant {label} must be a positive, "
                                      f"finite real number, got {value!r}")


# Built-in constants for the a*Q(sqrt(2 b snr)) template. The 8PSK pair is
# the standard template approximation; QPSK is a convenience preset.
MODULATIONS = {
    "bpsk": Modulation("bpsk", a=1.0, b=1.0),
    "qpsk": Modulation("qpsk", a=2.0, b=0.5),
    "8psk": Modulation("8psk", a=2.0, b=0.146),
}


def modulation_preset(name: str) -> Modulation:
    if isinstance(name, str) and name.lower() in MODULATIONS:
        return MODULATIONS[name.lower()]
    raise ValidationError(f"unknown modulation {name!r}; choose from {sorted(MODULATIONS)}")


def _cdf_argument(snr: np.ndarray, gbar: np.ndarray) -> np.ndarray:
    """snr / gbar, an output SNR over the average, as a c.d.f. argument: a
    quotient past the double range, or over a gbar of 0, reads as the
    largest double, where the c.d.f. is 1, rather than as an overflow or
    a division by zero."""
    with np.errstate(over="ignore", divide="ignore"):
        return np.minimum(snr / gbar, sys.float_info.max)


def _gl_panel(f, lo, width, bg):
    """31-point Gauss-Legendre estimate over each panel [lo, lo + width].

    ``lo`` is an array of panel starts and ``width`` a number; f takes the
    array of every panel's nodes at once, followed by ``bg`` (one value per
    panel, broadcasting against ``lo``), and returns values of the nodes'
    shape.
    """
    half = 0.5 * width
    nodes = (lo + half)[..., None] + half * _GL_NODES
    return half * (f(nodes, bg[..., None]) @ _GL_WEIGHTS)


def _adaptive(f, lo, whole, tol, floor, noise_rate, bg, owner) -> np.ndarray:
    """Adaptive bisection of the unit blocks [lo_i, lo_i + 1], given the
    single-panel estimate ``whole`` of each; returns each block's value.

    ``tol``, ``floor`` and ``bg`` (passed on to f, see :func:`_gl_panel`)
    hold one value per block, and block i is a part of integral
    ``owner[i]``. Every open interval at bisection level d has width 2^-d
    and tolerance 2^-d of its block's ``tol``; both halves of every open
    interval go to f in one call. A block's value is the sum of its
    accepted halves, added level by level, left to right within a level.
    An interval still open after ``_MAX_BISECTIONS`` levels raises
    ``QuadratureError``, as does a block with more than ``_MAX_FANOUT``
    open intervals at one level, the sign of an integrand whose noise no
    split can shrink. The error names the first such block's first open
    interval, or the span of its open intervals, and reports its integral:
    the ``estimate`` sums the accepted and open halves of all the
    integral's blocks, the ``error_bound`` the open halves' errors.
    """
    total = np.zeros(len(lo))
    block = np.arange(len(lo))
    for level in range(_MAX_BISECTIONS + 1):
        width = 0.5 ** level
        starts = np.stack([lo, lo + width / 2], axis=-1)
        halves = _gl_panel(f, starts, width / 2, bg[block, None])
        sums = halves[:, 0] + halves[:, 1]
        err = np.abs(sums - whole)
        # Two extra acceptance paths beyond the split tolerance: a floor that
        # ends the recursion once the local error is negligible against the
        # whole integral (a step in the integrand, like the distribution's
        # saturation point, otherwise recurses forever because error and
        # tolerance shrink at the same rate), and a width-proportional budget
        # matching the integrand's own noise floor (the tied-eigenvalue
        # guard's wobble cannot be refined away).
        done = (err <= tol[block] * width) | (err <= floor[block]) | (err <= noise_rate * width)
        total += np.bincount(block[done], sums[done], len(total))
        if done.all():
            return total
        split = ~done
        fanout = 2 * np.bincount(block[split], minlength=len(total))
        failing = fanout > (0 if level == _MAX_BISECTIONS else _MAX_FANOUT)
        if failing.any():
            o = failing.argmax()
            opened = lo[split & (block == o)]
            if level == _MAX_BISECTIONS:
                message = (f"quadrature failed to reach tolerance {tol[o] * width:.3e} on "
                           f"[{opened[0]:.17g}, {opened[0] + width:.17g}]")
            else:
                message = (f"quadrature failed to converge: more than {_MAX_FANOUT} intervals "
                           f"of one block, on [{opened[0]:g}, {opened[-1] + width:g}]")
            mine = split & (owner[block] == owner[o])
            raise QuadratureError(
                message, estimate=float(total[owner == owner[o]].sum() + sums[mine].sum()),
                error_bound=float(err[mine].sum()),
            )
        lo = starts[split].ravel()
        whole = halves[split].ravel()
        block = np.repeat(block[split], 2)


def _size_blocks(f, bg: np.ndarray):
    """Single-panel estimates of the first unit blocks of f(u, bg), for
    each bg of a 1-D array, and how many blocks its truncation rule counts.

    Block k (from 0) is [k, k + 1], and f decays at least like exp(-u^2).
    The rule counts the first k blocks once the Gaussian tail past k, at
    most exp(-k^2)/(2k), is at most 1e-16 of the running sum of their
    panels (both 0 where f underflows). exp(-k^2) underflows to 0 at
    k = 28, so for any input the rule fires by block 28, inside the
    ``_SIZING_PANELS`` panels.

    Each round evaluates the next ``_SIZING_ROUND`` panels of every bg
    whose rule has not fired, in one evaluator call, up to
    ``_SIZING_PANELS`` panels; a bg's panels of a round are one
    (_SIZING_ROUND, 31) slice, as in a call for that bg alone. Returns
    the panels (row i for ``bg[i]``, zero past the ones evaluated) and
    each bg's block count.
    """
    wholes = np.zeros((len(bg), _SIZING_PANELS))
    counts = np.full(len(bg), _SIZING_PANELS)
    pending = np.arange(len(bg))
    for start in range(0, _SIZING_PANELS, _SIZING_ROUND):
        if not pending.size:
            break
        end = start + _SIZING_ROUND
        ks = np.arange(start + 1, end + 1)
        wholes[pending, start:end] = _gl_panel(f, ks - 1, 1.0, bg[pending, None])
        running = np.cumsum(wholes[pending, :end], axis=1)[:, start:]
        stops = np.exp(-ks * ks) / (2 * ks) <= 1e-16 * running
        fired = stops.any(axis=1)
        counts[pending[fired]] = start + 1 + stops[fired].argmax(axis=1)
        pending = pending[~fired]
    return wholes, counts


def exact_ser(model: EigDistModel, mod: Modulation, snr_db) -> float | np.ndarray:
    """Average symbol error rate by quadrature of the c.d.f. kernel.

    The defining average of a*Q(sqrt(2*b*snr)) over the fading SNR is
    evaluated in its integrated-by-parts form over the output-SNR c.d.f.;
    substituting b snr x = u^2 removes the endpoint singularity, leaving
    (a / sqrt(pi)) * int_0^inf exp(-u^2) F(u^2 / (b snr)) du with a smooth
    Gaussian-tailed integrand at the SER's own scale, in which b enters
    only through b snr.

    ``snr_db`` is a number, answered with a float, or an array (or list)
    of SNRs, answered with an array of its shape. The quadratures of all
    SNRs of an array run together, each bisection level of every one in
    a single evaluator call, and each element is bit for bit the value a
    call at that SNR alone returns. An SNR refused anywhere (see the
    module docstring) raises ``ValidationError`` before any evaluation.
    The truncation rule is applied once, to single panels over each SNR's
    leading unit blocks (see :func:`_size_blocks`): it counts at most 28
    blocks for any input, their panels size the SNR's tolerance, and the
    counted blocks of every SNR are then bisected together: each block's
    accepted halves are summed level by level, and each SNR's blocks in
    block order (see :func:`_adaptive`).

    The quadrature's tolerance is absolute 1e-12 or relative 1e-8,
    whichever is looser, for models with distinct correlation eigenvalues;
    models on the tied-eigenvalue guard loosen the relative part to
    roughly ``model.noise_floor``. It bounds only the error of integrating
    this package's own c.d.f., and is missed even there next to the
    c.d.f.'s kinks at the crossover and at saturation (2.85e-7 low on 2x3
    rho .5/.5 8PSK at 5 dB). It does not cover the c.d.f.'s own errors,
    the crossover floor and saturation, which are far larger. Against the
    independent table in ``tests/data/oracle.json``, 2x3 rho .5/.5 8PSK is
    off by +6.3e-5 at 5 dB, +54% at 20 dB and +10.7% at 30 dB, 3x3
    rho .9/.9 8PSK by +319% at 20 dB, and 4x4 identity QPSK is 17.9 times
    the true SER at 10 dB. On SISO, BPSK at -10 dB is 1.5e-8 relative
    high (the c.d.f. reports 1 once 1 - F falls to 1e-6), and a custom b
    with b snr between about 1e-16 and 1e-8 is up to 1e-4 high (the
    c.d.f. rises near u = sqrt(b snr), below block 0's first node, u =
    1.5e-3). Where the c.d.f.'s rounding noise exceeds the noise floor,
    bisection cannot converge and ``QuadratureError`` is raised (see
    :func:`_adaptive`), for the first SNR refused: its ``estimate`` is that
    SNR's SER from the accepted and open halves of all its blocks, and its
    ``error_bound`` the open halves' errors, summed and scaled alike.
    """
    gbars = checked_points(snr_db, "SNR", db=True)
    with np.errstate(over="ignore"):
        bg = mod.b * gbars.ravel()  # inf past the double range, where F is 0
    scale = mod.a / math.sqrt(math.pi)

    def integrand(u: np.ndarray, g: np.ndarray) -> np.ndarray:
        return np.exp(-u * u) * cdf(model, _cdf_argument(u * u, g))

    # Single panels over the first unit blocks, as many as each SNR's
    # truncation rule counts (at most 28), size the tolerance (abs 1e-12 /
    # rel 1e-8 on the SER, whichever is looser); the Gaussian tail past
    # them is at most 1e-16 of their sum. They are also the blocks'
    # starting estimates: every SNR's counted blocks are bisected together,
    # and each SNR's refined blocks are summed in block order.
    wholes, counts = _size_blocks(integrand, bg)
    rough = np.sum(wholes, axis=1)
    tol = np.maximum(_SER_ABS_TOL, _SER_REL_TOL * scale * np.abs(rough)) / scale
    floor = 1e-15 * np.maximum(np.abs(rough), 1e-300)
    owner, ks = np.nonzero(np.arange(_SIZING_PANELS) < counts[:, None])
    try:
        values = _adaptive(integrand, ks, wholes[owner, ks],
                           np.ldexp(tol[owner], -(ks + 2)) + 1e-300,
                           floor[owner], model.noise_floor, bg[owner], owner)
    except QuadratureError as exc:  # the integral, as the SNR's SER
        raise QuadratureError(str(exc), scale * exc.estimate, scale * exc.error_bound) from None
    value = scale * np.bincount(owner, values, len(bg))
    ser = np.minimum(1.0, np.maximum(0.0, value)).reshape(gbars.shape)
    return ser if ser.ndim else float(ser)


@dataclass(frozen=True)
class HighSnrSer:
    """High-SNR SER law (array_gain * snr)^(-diversity_order)."""

    diversity_order: int
    array_gain: float


def high_snr_ser(model: EigDistModel, mod: Modulation) -> HighSnrSer:
    """Diversity order and array gain of the high-SNR SER power law, read
    off the leading coefficient alpha of the c.d.f.

    Averaging a Q(sqrt(2 b snr x)) over F(x) ~ alpha x^(mn), mn = n_min n_max,
    gives SER ~ (a/2) (2mn - 1)!! alpha (2 b snr)^(-mn). The diversity order
    is mn whatever the correlation, which enters only through alpha, so
    only the array gain 2b ((a/2) (2mn - 1)!! alpha)^(-1/mn). Accumulated
    in logs so large antenna counts cannot overflow.
    """
    mn = model.n_min * model.n_max
    log_inner = math.log(mod.a / 2.0) + math.log(double_factorial_odd(mn)) + model.log_alpha
    return HighSnrSer(diversity_order=mn,
                      array_gain=math.exp(math.log(2.0 * mod.b) - log_inner / mn))


def ser_asymptote_eval(hs: HighSnrSer, snr_db):
    """Evaluate (array_gain * snr)^(-diversity_order) at the given dB SNRs,
    unclamped (``inf`` past the double range)."""
    gbar = checked_points(snr_db, "SNR", db=True)
    with np.errstate(over="ignore"):
        out = np.exp(-hs.diversity_order * (math.log(hs.array_gain) + np.log(gbar)))
    return out if gbar.ndim else float(out)


def exact_outage(model: EigDistModel, snr_db, gamma_th):
    """Probability that the combiner output SNR falls below gamma_th.

    gamma_th is a linear SNR threshold, or an array of them, evaluated in
    one evaluator call; the average SNR is given in dB, and broadcasts
    against the thresholds.
    """
    gammas = checked_points(gamma_th, "outage threshold")
    return cdf(model, _cdf_argument(gammas, checked_points(snr_db, "SNR", db=True)))


def asymptotic_outage(model: EigDistModel, snr_db, gamma_th):
    """Leading-order outage: alpha * (gamma_th / snr)^(n_min*n_max),
    unclamped, taking numbers and arrays as :func:`exact_outage` does."""
    gammas = checked_points(gamma_th, "outage threshold")
    return asymptotic_cdf(model, _cdf_argument(gammas, checked_points(snr_db, "SNR", db=True)))
