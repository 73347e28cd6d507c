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
_MAX_BLOCKS = 400

# Intervals that may descend from one starting interval at one bisection
# level. Integrands that converge need a few (4 as a rule, 1,508 at most
# on the 1-4 x 1-4 antenna grid); one whose noise sits above its floor
# keeps doubling them until memory runs out, and is refused here instead.
_MAX_FANOUT = 4096

# The SER quadrature sizes its tolerance from single-panel estimates of the
# first blocks: _SIZING_ROUND more blocks per round for each SNR whose
# stop rule has not fired, up to _SIZING_PANELS blocks.
_SIZING_ROUND = 8
_SIZING_PANELS = 32


@dataclass(frozen=True)
class Modulation:
    """Constants (a, b) of the error-rate template a*Q(sqrt(2*b*snr))."""

    name: str
    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise ValidationError(f"modulation constant a must be positive, got {self.a!r}")
        if not (self.b > 0.0 and math.isfinite(self.b)):
            raise ValidationError(f"modulation constant b must be positive, got {self.b!r}")


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
    quotient past the double range reads as the largest double, where
    the c.d.f. is 1, rather than as an overflow."""
    with np.errstate(over="ignore"):
        return np.minimum(snr / gbar, sys.float_info.max)


def _gl_panel(f, lo, hi, *args):
    """31-point Gauss-Legendre estimate over each panel [lo, hi].

    ``lo`` and ``hi`` are scalars or arrays of one shape; f takes the
    array of every panel's nodes at once, followed by ``args`` (arrays
    that broadcast against ``lo``, one value per panel), and returns
    values of the nodes' shape.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[..., None] + half[..., None] * _GL_NODES
    return half * (f(nodes, *(a[..., None] for a in args)) @ _GL_WEIGHTS)


def _adaptive(f, lo, hi, whole, tol, floor, noise_rate, depth, *args) -> np.ndarray:
    """Adaptive bisection of every interval [lo_i, hi_i] (1-D arrays or
    scalars), given the single-panel estimate ``whole`` of each.

    ``floor`` and ``args`` (passed on to f, see :func:`_gl_panel`) hold
    one value per interval, like ``tol``, and go with each half on a
    split. A whole bisection level (both halves of every open interval)
    goes to f in one call. Each interval's value is summed in the order
    the depth-first recursion would sum it; the first interval (left to
    right) still open after ``depth`` levels raises ``QuadratureError``, as
    does a starting interval with more than ``_MAX_FANOUT`` descendants at
    one level, the sign of an integrand whose noise no split can shrink.
    """
    lo, hi, whole, tol, floor, *args = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(a, dtype=float)) for a in (lo, hi, whole, tol, floor, *args))
    )
    # each interval's starting interval, and the accepted value of each
    origin = np.arange(lo.size)
    banked = np.zeros(lo.size)
    levels = []
    while True:
        mid = 0.5 * (lo + hi)
        halves = _gl_panel(
            f, np.stack([lo, mid], axis=-1), np.stack([mid, hi], axis=-1),
            *(a[:, None] for a in args),
        )
        sums = halves[:, 0] + halves[:, 1]
        err = np.abs(sums - whole)
        # Two extra acceptance paths beyond the split tolerance: a floor that
        # ends the recursion once the local error is negligible against the
        # whole integral (a step in the integrand, like the distribution's
        # saturation point, otherwise recurses forever because error and
        # tolerance shrink at the same rate), and a width-proportional budget
        # matching the integrand's own noise floor (the tied-eigenvalue
        # guard's wobble cannot be refined away).
        done = (err <= tol) | (err <= floor) | (err <= noise_rate * (hi - lo))
        levels.append((done, sums))
        if done.all():
            break
        if depth <= 0:
            i = np.flatnonzero(~done)[0]
            raise QuadratureError(
                f"quadrature failed to reach tolerance {tol[i]:.3e} on [{lo[i]:g}, {hi[i]:g}]",
                estimate=float(sums[i]),
                error_bound=float(err[i]),
            )
        depth -= 1
        split = ~done
        banked += np.bincount(origin[done], sums[done], banked.size)
        fanout = 2 * np.bincount(origin[split], minlength=banked.size)
        if fanout.max() > _MAX_FANOUT:
            o = np.flatnonzero(fanout > _MAX_FANOUT)[0]
            mine = split & (origin == o)
            raise QuadratureError(
                f"quadrature failed to converge: more than {_MAX_FANOUT} intervals "
                f"of one block, on [{lo[mine][0]:g}, {hi[mine][-1]:g}]",
                estimate=float(banked[o] + sums[mine].sum()),
                error_bound=float(err[mine].sum()),
            )
        lo = np.stack([lo[split], mid[split]], axis=-1).ravel()
        hi = np.stack([mid[split], hi[split]], axis=-1).ravel()
        whole = halves[split].ravel()
        tol = np.repeat(0.5 * tol[split], 2)
        floor, origin, *args = (np.repeat(a[split], 2) for a in (floor, origin, *args))
    values = levels[-1][1]
    for done, sums in reversed(levels[:-1]):
        values, children = sums.copy(), values
        values[~done] = children[0::2] + children[1::2]
    return values


def _size_blocks(f, b: float, gbar: np.ndarray):
    """Single-panel estimates of the first blocks of f(v, gbar), for each
    gbar of a 1-D array, as many as its stop rule needs.

    The blocks and the stop rule are those of :func:`_integrate_blocks`,
    here applied to the running sum of the panels. Each round evaluates
    the next ``_SIZING_ROUND`` panels of every gbar whose stop rule has not
    fired, in one evaluator call, up to ``_SIZING_PANELS`` panels; a gbar's
    panels of a round are one (_SIZING_ROUND, 31) slice, as in a call for
    that gbar alone. Returns the panels (row i for ``gbar[i]``, zero past
    the ones evaluated), how many were evaluated, and how many blocks the
    stop rule needs (all evaluated ones where it never fired).
    """
    width = 1.0 / math.sqrt(b)
    wholes = np.zeros((len(gbar), _SIZING_PANELS))
    sized = np.zeros(len(gbar), dtype=int)
    counts = np.full(len(gbar), _SIZING_PANELS)
    pending = np.arange(len(gbar))
    for start in range(0, _SIZING_PANELS, _SIZING_ROUND):
        if not pending.size:
            break
        end = start + _SIZING_ROUND
        lo = width * np.arange(start, end)
        wholes[pending, start:end] = _gl_panel(f, lo, lo + width, gbar[pending, None])
        sized[pending] = end
        running = np.cumsum(wholes[pending, :end], axis=1)[:, start:]
        ends = width * np.arange(start + 1, end + 1)
        stops = np.exp(-b * ends * ends) <= 1e-16 * running
        fired = stops.any(axis=1)
        counts[pending[fired]] = start + 1 + stops[fired].argmax(axis=1)
        pending = pending[~fired]
    return wholes, sized, counts


def _integrate_blocks(f, b: float, wholes: np.ndarray, sized: np.ndarray, counts: np.ndarray,
                      tol: np.ndarray, floor: np.ndarray, noise_rate: float,
                      gbar: np.ndarray) -> np.ndarray:
    """Integrate f(v, gbar) over v in [0, inf) for each gbar of a 1-D
    array, where f decays at least like exp(-b v^2).

    For each gbar, fixed-width blocks are appended until the Gaussian
    envelope at the block boundary is at most 1e-16 of its running total
    (both 0 where f underflows); each block is refined by adaptive
    bisection of a 31-point Gauss-Legendre rule. ``wholes``, ``sized``
    and ``counts`` come from :func:`_size_blocks`: row i of ``wholes``
    holds the single-panel estimates of the first ``sized[i]`` blocks for
    ``gbar[i]``, their starting estimates; a later block starts from a
    fresh (1, 31) panel. ``tol`` and ``floor`` hold each gbar's tolerances.

    The ``counts[i]`` blocks that those estimates say the stop rule needs
    are refined together, and the stop rule is then applied block by block
    to the refined values, so the sum is the one a block-at-a-time loop
    gives. Each round refines the next blocks of every gbar still open in
    one ``_adaptive`` call; a gbar's blocks are summed, and its stop rule
    applied, exactly as a call for that gbar alone does them.
    """
    width = 1.0 / math.sqrt(b)
    counts = counts.tolist()
    totals = [0.0] * len(gbar)
    nexts = [0] * len(gbar)
    pending = list(range(len(gbar)))
    while pending:
        ks = [np.arange(nexts[i], min(nexts[i] + counts[i], _MAX_BLOCKS)) for i in pending]
        lengths = [len(k) for k in ks]
        owner = np.repeat(pending, lengths)
        ks = np.concatenate(ks)
        lo = ks * width
        hi = lo + width
        fresh = ks >= sized[owner]
        block_wholes = np.empty(len(ks))
        block_wholes[~fresh] = wholes[owner[~fresh], ks[~fresh]]
        if fresh.any():
            # a (1, 31) panel per block, the shape a one-SNR call gives it,
            # so the weights' dot product rounds alike
            block_wholes[fresh] = _gl_panel(
                f, lo[fresh, None], hi[fresh, None], gbar[owner[fresh], None]
            )[:, 0]
        values = _adaptive(
            f, lo, hi, block_wholes, np.ldexp(tol[owner], -(ks + 2)) + 1e-300, floor[owner],
            noise_rate, _MAX_BISECTIONS, gbar[owner],
        ).tolist()
        hi = hi.tolist()
        still_open = []
        start = 0
        for i, length in zip(pending, lengths):
            total = totals[i]
            for value, block_hi in zip(values[start : start + length], hi[start : start + length]):
                total += value
                if math.exp(-b * block_hi * block_hi) <= 1e-16 * total:
                    break
            else:
                still_open.append(i)
            totals[i] = total
            nexts[i] += length
            counts[i] = 1
            start += length
        pending = still_open
        for i in pending:
            if nexts[i] >= _MAX_BLOCKS:
                raise QuadratureError(
                    "semi-infinite quadrature did not converge within the block budget",
                    estimate=totals[i],
                    error_bound=math.inf,
                )
    return np.array(totals)


def exact_ser(model: EigDistModel, mod: Modulation, snr_db) -> float | np.ndarray:
    """Average symbol error rate by quadrature of the c.d.f. kernel.

    The defining average of a*Q(sqrt(2*b*snr)) over the fading SNR is
    evaluated in its integrated-by-parts form over the output-SNR c.d.f.;
    substituting u = v^2 removes the endpoint singularity, leaving
    (a sqrt(b) / sqrt(pi)) * int_0^inf exp(-b v^2) F(v^2 / snr) dv with a
    smooth Gaussian-tailed integrand.

    ``snr_db`` is a number, answered with a float, or an array (or list)
    of SNRs, answered with an array of its shape. The quadratures of all
    SNRs of an array run together, each bisection level of every one in
    a single evaluator call, and each element is bit for bit the value a
    call at that SNR alone returns. An SNR refused anywhere (see the
    module docstring) raises ``ValidationError`` before any evaluation.
    Each SNR sizes its tolerance from single panels over as many leading
    blocks as its truncation rule needs, in rounds of ``_SIZING_ROUND``.

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
    the true SER at 10 dB. Where the c.d.f.'s rounding noise exceeds the
    noise floor, bisection cannot converge and ``QuadratureError`` is
    raised (see :func:`_adaptive`).
    """
    gbars = checked_points(snr_db, "SNR", db=True)
    gbar = gbars.ravel()
    scale = mod.a * math.sqrt(mod.b) / math.sqrt(math.pi)

    def integrand(v: np.ndarray, g: np.ndarray) -> np.ndarray:
        return np.exp(-mod.b * v * v) * cdf(model, _cdf_argument(v * v, g))

    # Single panels over the first blocks, as many as each SNR's stop rule
    # needs, size the tolerance (abs 1e-12 / rel 1e-8 on the SER, whichever
    # is looser); panels past the stop add less than 1e-16 of their sum.
    # The same panels are the blocks' starting estimates in the adaptive pass.
    wholes, sized, counts = _size_blocks(integrand, mod.b, gbar)
    rough = np.sum(wholes, axis=1)
    tol = np.maximum(_SER_ABS_TOL, _SER_REL_TOL * scale * np.abs(rough)) / scale
    floor = 1e-15 * np.maximum(np.abs(rough), 1e-300)
    value = scale * _integrate_blocks(
        integrand, mod.b, wholes, sized, counts, tol, floor, model.noise_floor, gbar
    )
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
