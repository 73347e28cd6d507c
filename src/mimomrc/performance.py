"""Symbol-error-rate and outage analytics built on the max-eigenvalue
distribution: exact SER by quadrature, its high-SNR power-law form with
diversity order and array gain, and exact/asymptotic outage probability.

Average SNR always enters these interfaces in dB; outage thresholds are
linear SNR ratios. Everything is a pure function over immutable models.
An SER sweep is one call: :func:`exact_ser` takes an array of SNRs and
runs their quadratures together, each element equal to a scalar call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlation import correlation_penalty
from .eigdist import EigDistModel, asymptotic_cdf, cdf, exact_cdf_stable
from .errors import QuadratureError, ValidationError
from .specfun import double_factorial_odd, log_multivariate_gamma_norm

# Result tolerance for the SER quadrature: absolute 1e-12 or relative
# 1e-8, whichever is looser.
_SER_ABS_TOL = 1e-12
_SER_REL_TOL = 1e-8

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(31)
_MAX_BISECTIONS = 40
_MAX_BLOCKS = 400


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
    try:
        return MODULATIONS[name.lower()]
    except KeyError:
        raise ValidationError(
            f"unknown modulation {name!r}; choose from {sorted(MODULATIONS)}"
        ) from None


def snr_from_db(snr_db: float) -> float:
    snr_db = float(snr_db)
    if not math.isfinite(snr_db):
        raise ValidationError(f"SNR must be finite, got {snr_db!r}")
    return 10.0 ** (snr_db / 10.0)


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
    right) still open after ``depth`` levels raises ``QuadratureError``.
    """
    lo, hi, whole, tol, floor, *args = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(a, dtype=float)) for a in (lo, hi, whole, tol, floor, *args))
    )
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
        lo = np.stack([lo[split], mid[split]], axis=-1).ravel()
        hi = np.stack([mid[split], hi[split]], axis=-1).ravel()
        whole = halves[split].ravel()
        tol = np.repeat(0.5 * tol[split], 2)
        floor, *args = (np.repeat(a[split], 2) for a in (floor, *args))
    values = levels[-1][1]
    for done, sums in reversed(levels[:-1]):
        values, children = sums.copy(), values
        values[~done] = children[0::2] + children[1::2]
    return values


def _integrate_blocks(f, b: float, wholes: np.ndarray, tol: np.ndarray, floor: np.ndarray,
                      noise_rate: float, gbar: np.ndarray) -> np.ndarray:
    """Integrate f(v, gbar) over v in [0, inf) for each gbar of a 1-D
    array, where f decays at least like exp(-b v^2).

    For each gbar, fixed-width blocks are appended until the Gaussian
    envelope at the block boundary falls below 1e-16 of its running total;
    each block is refined by adaptive bisection of a 31-point
    Gauss-Legendre rule. Row i of ``wholes`` holds the single-panel
    estimates of the first blocks for ``gbar[i]``, and ``tol`` and
    ``floor`` its tolerances.

    The blocks that those estimates say the stop rule needs are refined
    together, and the stop rule is then applied block by block to the
    refined values, so the sum is the one a block-at-a-time loop gives.
    Each round refines the next blocks of every gbar still open in one
    ``_adaptive`` call; a gbar's blocks are summed, and its stop rule
    applied, exactly as a call for that gbar alone does them.
    """
    width = 1.0 / math.sqrt(b)
    first = wholes.shape[1]
    running = np.cumsum(wholes, axis=1)
    ends = width * np.arange(1, first + 1)
    stops = (running > 0.0) & (np.exp(-b * ends * ends) < 1e-16 * running)
    counts = np.where(stops.any(axis=1), stops.argmax(axis=1) + 1, first).tolist()
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
        fresh = ks >= first
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
                if total > 0.0 and math.exp(-b * block_hi * block_hi) < 1e-16 * total:
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

    ``snr_db`` is a scalar, answered with a float, or an array (or list)
    of SNRs, answered with an array of its shape. The quadratures of all
    SNRs of an array run together, each bisection level of every one in
    a single evaluator call, and each element is bit for bit the value a
    scalar call at that SNR returns. A non-finite SNR anywhere raises
    ``ValidationError`` before any evaluation.

    Accuracy is the stated quadrature tolerance (absolute 1e-12 or
    relative 1e-8, whichever is looser) for models with distinct
    correlation eigenvalues; models on the tied-eigenvalue guard carry
    the guard's noise floor, which at low SNR loosens the achievable
    relative accuracy to roughly ``model.noise_floor``.
    """
    snrs = np.asarray(snr_db, dtype=float)
    # element by element: Python's float pow, which an array ** need not match
    gbar = np.array([snr_from_db(s) for s in snrs.ravel().tolist()])
    scale = mod.a * math.sqrt(mod.b) / math.sqrt(math.pi)

    def integrand(v: np.ndarray, g: np.ndarray) -> np.ndarray:
        return np.exp(-mod.b * v * v) * cdf(model, v * v / g)

    # Single-panel pass over the first 32 blocks to size the tolerance
    # (abs 1e-12 / rel 1e-8 on the SER, whichever is looser); the same
    # panels are the blocks' starting estimates in the adaptive pass. Each
    # SNR's panels are one (32, 31) slice, as in a call for that SNR alone.
    width = 1.0 / math.sqrt(mod.b)
    lo = width * np.arange(32)
    wholes = _gl_panel(integrand, lo, lo + width, gbar[:, None])
    rough = np.sum(wholes, axis=1)
    tol = np.maximum(_SER_ABS_TOL, _SER_REL_TOL * scale * np.abs(rough)) / scale
    floor = 1e-15 * np.maximum(np.abs(rough), 1e-300)
    value = scale * _integrate_blocks(integrand, mod.b, wholes, tol, floor, model.noise_floor, gbar)
    ser = np.minimum(1.0, np.maximum(0.0, value)).reshape(snrs.shape)
    return float(ser) if ser.ndim == 0 else ser


@dataclass(frozen=True)
class HighSnrSer:
    """High-SNR SER law (array_gain * snr)^(-diversity_order)."""

    diversity_order: int
    array_gain: float
    model: EigDistModel


def high_snr_ser(model: EigDistModel, mod: Modulation) -> HighSnrSer:
    """Diversity order and array gain of the high-SNR SER power law.

    The diversity order is the antenna product regardless of correlation;
    correlation scales the array gain down by the determinant penalty
    factor. Accumulated in logs so large antenna counts cannot overflow.
    """
    n, m = model.n_min, model.n_max
    mn = n * m
    log_inner = (
        math.log(mod.a)
        + log_multivariate_gamma_norm(n, n)
        - math.log(2.0)
        - log_multivariate_gamma_norm(n, m + n)
        + math.log(double_factorial_odd(mn))
    )
    log_gain = (
        math.log(correlation_penalty(model.pair))
        + math.log(2.0 * mod.b)
        - log_inner / mn
    )
    return HighSnrSer(diversity_order=mn, array_gain=math.exp(log_gain), model=model)


def ser_asymptote_eval(hs: HighSnrSer, snr_db: float) -> float:
    """Evaluate (array_gain * snr)^(-diversity_order) at the given dB SNR."""
    gbar = snr_from_db(snr_db)
    return math.exp(-hs.diversity_order * (math.log(hs.array_gain) + math.log(gbar)))


def exact_outage(model: EigDistModel, snr_db: float, gamma_th):
    """Probability that the combiner output SNR falls below gamma_th.

    gamma_th is a linear SNR threshold, or an array of them (answered by
    one evaluator call, as an array); the average SNR is given in dB.
    """
    gammas = np.asarray(gamma_th, dtype=float)
    bad = ~((gammas > 0.0) & np.isfinite(gammas))
    if bad.any():
        raise ValidationError(
            f"outage threshold must be positive, got {float(gammas[bad].flat[0])!r}"
        )
    if gammas.ndim == 0:
        return exact_cdf_stable(model, float(gammas) / snr_from_db(snr_db))
    return cdf(model, gammas / snr_from_db(snr_db))


def asymptotic_outage(model: EigDistModel, snr_db: float, gamma_th: float) -> float:
    """Leading-order outage: alpha * (gamma_th / snr)^(n_min*n_max)."""
    gamma_th = float(gamma_th)
    if not (gamma_th > 0.0 and math.isfinite(gamma_th)):
        raise ValidationError(f"outage threshold must be positive, got {gamma_th!r}")
    return asymptotic_cdf(model, gamma_th / snr_from_db(snr_db))
