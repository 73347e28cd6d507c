"""Distribution of the largest eigenvalue of the doubly correlated channel
Gram matrix: exact determinant form plus its leading small-argument term.

Two numerical hazards are handled at model-construction time:

* Repeated correlation eigenvalues make the determinant form 0/0. Tied
  clusters are spread multiplicatively (product preserved, so the leading
  coefficient is untouched), evaluated at two spread widths, and
  extrapolated to zero spread. The centered spread has no first-order
  effect, so the extrapolation error is O(width^4).
* Near the origin the determinant loses all significance to cancellation.
  A crossover point is located below which the evaluator returns the
  leading-order polynomial instead; the two agree within a few percent at
  the crossover by construction.

Every point-wise function here takes a number, giving a float, or an
array, giving an array of its shape; a number takes the array path, so
its value is bit for bit that of the same point inside an array. Points
are checked by :func:`~mimomrc.errors.checked_points` before any is
evaluated, and every c.d.f. evaluation goes through one array evaluator,
:func:`cdf`. Models are immutable once built and every evaluation here is
a pure function of (model, x), so concurrent evaluation is safe.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import linalg
from .correlation import CorrelationPair, det_major, det_minor
from .errors import NumericalError, ValidationError, checked_points
from .specfun import log_multivariate_gamma_norm, multivariate_gamma_norm

# Eigenvalues closer than this (relative) are treated as tied.
DEGENERACY_TOL = 1e-6

# Determinant-form values this close to 1 are reported as exactly 1; far
# in the upper tail the form's rounding jitter exceeds the (tiny) true
# increments, and the snap keeps the reported curve nondecreasing there.
_ONE_SNAP = 1e-6

# Upper-tail saturation: once the form first reaches 1 - theta(mn), the
# stable evaluator reports exactly 1 from there on. The threshold grows
# with the antenna product because the form's tail jitter does (entries
# grow polynomially while the determinant stays near the structural
# constant); measured dip-onset levels are 2e-7 at mn=4, 5e-5 at mn=9,
# 4e-4 at mn=16, and theta sits several times above each.
_SAT_STEP = 1.05
_SAT_MAX_STEPS = 800
# Scan points per evaluator call; divides _SAT_MAX_STEPS. The grid models
# of 1-4 antennas a side stop within 48-236 steps, so most take one call.
_SAT_CHUNK = 160


def _saturation_theta(mn: int) -> float:
    return float(min(2e-3, max(1e-6, 10.0 ** (mn / 2.0 - 8.0))))

# Relative mismatch against the leading-order term that defines the
# small-argument crossover.
_CROSSOVER_REL = 0.02

# Crossover scan: geometric grid downward from where the leading term
# equals _SCAN_TOP_CDF, ratio _SCAN_STEP per step, spanning _SCAN_DECADES.
# The top level caps how far the leading-order substitution and the floor
# above it can sit from the true curve, which bounds the absolute error of
# the stable evaluator by _SCAN_TOP_CDF below the saturation point (past
# it the saturation threshold theta(mn) bounds it instead).
_SCAN_TOP_CDF = 1.5e-4
_SCAN_STEP = 0.85
_SCAN_DECADES = 14.0


@dataclass(frozen=True)
class _EvalSet:
    """One eigenvalue configuration ready for the determinant formula."""

    minor: tuple[float, ...]
    major: tuple[float, ...]
    vand_minor: float
    vand_major: float
    weight: float


@dataclass(frozen=True)
class EigDistModel:
    """Precomputed quantities for evaluating the max-eigenvalue distribution."""

    pair: CorrelationPair
    alpha: float
    log_alpha: float
    det_minor: float
    det_major: float
    crossover: float
    saturation: float
    degenerate: bool
    noise_floor: float
    eval_sets: tuple[_EvalSet, ...]

    @property
    def n_min(self) -> int:
        return self.pair.n_min

    @property
    def n_max(self) -> int:
        return self.pair.n_max


def alpha_coefficient(pair: CorrelationPair) -> float:
    """Leading coefficient of the small-argument expansion of the c.d.f.

    Accumulated in the log domain (log-gammas and log-determinants) so
    large antenna counts cannot overflow intermediate products. Raises
    ``NumericalError`` when the coefficient itself lies outside the normal
    double range.
    """
    return math.exp(_log_alpha(pair))


def _log_alpha(pair: CorrelationPair) -> float:
    """log alpha, refused where alpha is no normal double: the leading term,
    and the scans that start from it, have no value there."""
    n, m = pair.n_min, pair.n_max
    log_det_minor = float(np.sum(np.log(pair.minor_eigs)))
    log_det_major = float(np.sum(np.log(pair.major_eigs)))
    log_alpha = (
        log_multivariate_gamma_norm(n, n)
        - m * log_det_minor
        - n * log_det_major
        - log_multivariate_gamma_norm(n, m + n)
    )
    if not math.log(sys.float_info.min) <= log_alpha <= math.log(sys.float_info.max):
        raise NumericalError(
            f"leading coefficient alpha = exp({log_alpha:.6g}) lies outside the normal double "
            "range for this correlation/geometry; use the Monte-Carlo simulator for this "
            "configuration"
        )
    return log_alpha


def _cluster(values: np.ndarray, rel_tol: float) -> list[list[int]]:
    """Group indices of an ascending list whose neighbors are within rel_tol."""
    clusters = [[0]]
    for i in range(1, len(values)):
        scale = max(abs(values[i]), abs(values[i - 1]))
        if abs(values[i] - values[i - 1]) <= rel_tol * scale:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


def _spread_clusters(values: np.ndarray, clusters: list[list[int]], delta: float) -> np.ndarray:
    """Spread each tied cluster multiplicatively, preserving its product.

    Within a cluster of size c the members become v_i * (1 + i*delta)
    rescaled so the cluster product (hence the determinant) is unchanged;
    after rescaling the relative offsets are centered, which kills the
    first-order effect of the spread on any symmetric function.
    """
    out = values.astype(float).copy()
    for cluster in clusters:
        c = len(cluster)
        if c < 2:
            continue
        factors = np.array([1.0 + (k + 1) * delta for k in range(c)])
        factors /= np.prod(factors) ** (1.0 / c)
        out[cluster] = out[cluster] * factors
    return np.sort(out)


# Spread width by total vanishing order (sum of c(c-1)/2 over tied
# clusters of both lists). Calibrated against high-precision references:
# the determinant's rounding noise grows like delta^-order while the
# extrapolation residual grows like delta^4, and these widths sit at the
# measured optimum (worst-case relative error about 3e-11 at order 1,
# 1e-8 at orders 2-3, 5e-7 at order 4, 3e-5 at order 6, 1e-2 at 12).
_DELTA_BY_ORDER = {1: 5e-4, 2: 3e-3, 3: 4e-3, 4: 1e-2, 5: 2e-2, 6: 3e-2}

# Guard noise floor by vanishing order: roughly four times the measured
# worst-case error above. Consumers that integrate the distribution use
# this to stop refining below the evaluator's own wobble.
_NOISE_BY_ORDER = {1: 1e-9, 2: 4e-8, 3: 1e-7, 4: 8e-6, 5: 3e-5, 6: 1.3e-4}
_CLEAN_NOISE = 1e-13

# Beyond this total vanishing order the spread guard has no usable
# accuracy left in double precision (errors reach tens of percent), so
# model construction refuses instead of degrading silently. Covers the
# fully tied (identity-correlation) case up to 4x4.
_MAX_GUARD_ORDER = 12


def _noise_floor(order: int) -> float:
    if order == 0:
        return _CLEAN_NOISE
    if order in _NOISE_BY_ORDER:
        return _NOISE_BY_ORDER[order]
    return float(min(5e-2, 1.3e-4 * 4.0 ** (order - 6)))


def _pick_delta(order: int) -> float:
    """Cluster-spread width balancing cancellation noise against bias, for
    a total vanishing order of at least 1."""
    if order in _DELTA_BY_ORDER:
        return _DELTA_BY_ORDER[order]
    return float(min(0.1, 3e-2 * 2.0 ** ((order - 6) / 2.0)))


def _eval_set(minor: np.ndarray, major: np.ndarray, weight: float) -> _EvalSet:
    return _EvalSet(
        minor=tuple(float(v) for v in minor),
        major=tuple(float(v) for v in major),
        vand_minor=linalg.vandermonde(minor),
        vand_major=linalg.vandermonde(major),
        weight=weight,
    )


def build_model(pair: CorrelationPair) -> EigDistModel:
    """Precompute everything needed to evaluate the distribution."""
    log_alpha = _log_alpha(pair)
    alpha = math.exp(log_alpha)
    d_minor = det_minor(pair)
    d_major = det_major(pair)

    minor_clusters = _cluster(pair.minor_eigs, DEGENERACY_TOL)
    major_clusters = _cluster(pair.major_eigs, DEGENERACY_TOL)
    order = sum(
        len(c) * (len(c) - 1) // 2
        for clusters in (minor_clusters, major_clusters)
        for c in clusters
    )
    # a cluster of two or more members has order at least 1
    degenerate = order > 0
    if order > _MAX_GUARD_ORDER:
        raise NumericalError(
            f"tied correlation eigenvalues of total vanishing order {order} exceed "
            f"double-precision support of the spread guard (limit {_MAX_GUARD_ORDER}); "
            "use the Monte-Carlo simulator for this geometry or perturb the matrices"
        )

    if not degenerate:
        sets = (_eval_set(pair.minor_eigs.astype(float), pair.major_eigs.astype(float), 1.0),)
    else:
        delta = _pick_delta(order)
        sets = []
        # Two spread widths, Richardson-combined to cancel the O(delta^2)
        # bias of each single evaluation.
        for d, w in ((delta / 2.0, 4.0 / 3.0), (delta, -1.0 / 3.0)):
            minor = _spread_clusters(np.asarray(pair.minor_eigs, dtype=float), minor_clusters, d)
            major = _spread_clusters(np.asarray(pair.major_eigs, dtype=float), major_clusters, d)
            sets.append(_eval_set(minor, major, w))
        sets = tuple(sets)

    model = EigDistModel(
        pair=pair,
        alpha=alpha,
        log_alpha=log_alpha,
        det_minor=d_minor,
        det_major=d_major,
        crossover=0.0,
        saturation=math.inf,
        degenerate=degenerate,
        noise_floor=_noise_floor(order),
        eval_sets=sets,
    )
    object.__setattr__(model, "crossover", _find_crossover(model))
    object.__setattr__(model, "saturation", _find_saturation(model))
    return model


def _ipow(x, k: int):
    """x**k for an integer k >= 0 by repeated squaring.

    Only multiplications, so a value rounds the same whether it comes alone
    or inside an array of any length (libm and SIMD ``pow`` need not agree).
    An array's power is a new array, formed in place after its first product.
    """
    out = 1.0
    while k:
        if k & 1:
            out *= x
        k >>= 1
        if k:
            x = x * x
    return out


@functools.lru_cache(maxsize=None)
def _series_coefficients(m: int) -> tuple[float, ...]:
    """c_j = 1/((m+1)(m+2)...(m+j)) for j = 0, 1, ...: the coefficients of
    the powers of -t that the tail series keeps on t < m + 1, each
    correctly rounded.

    The series is cut once a term falls below 1e-19 of the leading term at
    the switch point t = m + 1, its largest argument; the sum there is at
    least a third of the leading term, so the cut sits below 1e-18 of it.
    """
    term, k = 1.0, m
    while term > 1e-19 and k < m + 200:
        k += 1
        term *= (m + 1.0) / k
    coefficients, prod = [1.0], 1
    for d in range(m + 1, k + 1):
        prod *= d
        coefficients.append(1 / prod)  # int true division rounds correctly
    return tuple(coefficients)


def _exp_tail(t: np.ndarray, m: int) -> np.ndarray:
    """exp(-t) minus its order-(m-1) Taylor partial sum, elementwise and stably.

    Algebraically equal to sum_{k>=m} (-t)^k / k!. The subtracted form has
    absolute error ~eps from the O(1) leading terms, which ruins the
    eigenvalue-difference determinants at small t; the tail series keeps
    the error relative. For t beyond the series' comfortable range the
    subtracted form is accurate (no comparable cancellation there). The
    series' length is fixed by ``m``, so every element is a function of
    its own t alone. The kernel is written over ``t``, which is returned.
    """
    neg = np.negative(t, out=t)
    series = neg > -(m + 1.0)
    if series.all():
        return _tail_series(neg, m)
    far = ~series
    neg[series] = _tail_series(neg[series], m)
    far_neg = neg[far]
    partial = np.ones_like(far_neg)
    for k in range(m - 1, 0, -1):
        partial *= far_neg
        partial /= k
        partial += 1.0
    neg[far] = np.subtract(np.exp(far_neg, out=far_neg), partial, out=far_neg)
    return neg


def _tail_series(neg: np.ndarray, m: int) -> np.ndarray:
    """sum_{k>=m} (-t)^k / k! from its power series, written over -t.

    The series is (-t)^m / m! times a polynomial in -t with the
    precomputed coefficients of :func:`_series_coefficients`, evaluated by
    Horner's rule: a multiply and an add per term, no division, and no
    (points, terms) array.
    """
    coefficients = _series_coefficients(m)
    sums = coefficients[-1] * neg
    for c in coefficients[-2:0:-1]:  # c_{K-1} down to c_1
        sums += c
        sums *= neg
    sums += coefficients[0]
    power = _ipow(neg, m)
    return np.multiply(np.divide(power, math.factorial(m), out=power), sums, out=neg)


def _psi_stack(minor, major, xs: np.ndarray) -> np.ndarray:
    """The (m, m, len(xs)) stack of evaluation matrices, points innermost
    (``[:, :, k]`` is the matrix at ``xs[k]``), each row filled in place."""
    minor = np.asarray(minor, dtype=float)
    inv = 1.0 / np.asarray(major, dtype=float)
    n, m = len(minor), len(inv)
    psi = np.empty((m, m, len(xs)))
    for i in range(m - n):
        psi[i] = _ipow(inv, m - 1 - i)[:, None]
    _exp_tail(np.divide(xs * inv[:, None], minor[:, None, None], out=psi[m - n:]), m)
    return psi


def psi_matrix(minor, major, x: float) -> np.ndarray:
    """The m-by-m evaluation matrix of the determinant-form c.d.f.

    Rows below the dimension gap hold inverse powers of the major-side
    eigenvalues; the remaining rows hold the partial-exponential-sum
    kernel exp(-t) - sum_{k<m} (-t)^k / k! with t = x / (minor * major):
    the evaluator's stack at one point. Nothing in the library calls it:
    the tests check the kernel through it, and the benchmark's traced mode
    times it as a span.
    """
    minor = [float(v) for v in minor]
    major = [float(v) for v in major]
    if len(minor) > len(major) or not minor:
        raise ValidationError("need 1 <= len(minor) <= len(major)")
    return _psi_stack(minor, major, checked_points(x, "evaluation point").reshape(1))[:, :, 0]


def _det_stack(a: np.ndarray) -> np.ndarray:
    """Determinants of an (m, m, points) stack, one per point, by Gaussian
    elimination with partial pivoting run across the points axis; the
    stack is overwritten.

    In each column every point takes its own first row of largest
    magnitude as pivot, swapped in by masked copies, and the multipliers
    and row updates are whole-row operations over the points, so a point's
    value depends on that point alone. The determinant is the signed
    product of the pivots. A zero pivot column gives 0: its multipliers
    stay 0. Entries that are not finite give a value that is not finite;
    neither case warns.
    """
    m, points = a.shape[0], a.shape[2]
    odd = np.zeros(points, dtype=bool)
    pivots = np.empty(points, dtype=np.intp)
    top = np.empty_like(a[0])
    with np.errstate(invalid="ignore"):
        for k in range(m - 1):
            rows = a[k:, k:]
            mags = np.abs(rows[:, 0])
            pivots.fill(0)
            for i in range(1, m - k):
                np.copyto(pivots, i, where=mags[i] > mags[0])
                np.maximum(mags[0], mags[i], out=mags[0])
            np.copyto(top[k:], rows[0])
            for i in range(1, m - k):
                swap = pivots == i
                np.copyto(rows[0], rows[i], where=swap)
                np.copyto(rows[i], top[k:], where=swap)
            np.logical_xor(odd, pivots, out=odd)
            pivot, multipliers = rows[0, 0], rows[1:, 0]
            np.divide(multipliers, pivot, out=multipliers, where=pivot != 0.0)
            rows[1:, 1:] -= multipliers[:, None] * rows[0, 1:]
    det = a[0, 0].copy()
    for k in range(1, m):
        det *= a[k, k]
    return np.negative(det, out=det, where=odd)


def _cdf_raw(model: EigDistModel, xs: np.ndarray) -> np.ndarray:
    """Unclamped determinant-form c.d.f. at every x > 0 of a 1-D array
    (Richardson-combined under ties): one stacked elimination per set."""
    n, m = model.n_min, model.n_max
    half_exp = n * (n - 1) // 2
    sign = -1.0 if (n + half_exp) % 2 else 1.0
    gamma_nn = float(multivariate_gamma_norm(n, n))
    common = sign * gamma_nn * model.det_minor ** (n - 1) * model.det_major ** (m - 1)
    x_pow = _ipow(xs, half_exp)
    value = 0.0
    for s in model.eval_sets:
        term = _det_stack(_psi_stack(s.minor, s.major, xs))
        term *= s.weight * common
        term /= s.vand_minor * s.vand_major * x_pow
        value += term
    return value


def _geometric(start: float, ratio: float, count: int) -> np.ndarray:
    """start, start*ratio, ... by repeated multiplication, as a scan steps."""
    out = [start]
    for _ in range(count - 1):
        out.append(out[-1] * ratio)
    return np.array(out)


def _scan_top(model: EigDistModel) -> float:
    """Where the leading term equals _SCAN_TOP_CDF: the top of the crossover
    scan, which only moves down from it, and the start of the saturation
    scan."""
    return (_SCAN_TOP_CDF / model.alpha) ** (1.0 / (model.n_min * model.n_max))


def _find_crossover(model: EigDistModel) -> float:
    """Largest argument below which the leading-order term replaces the
    determinant form.

    Scans geometrically downward from where the leading term equals
    _SCAN_TOP_CDF and returns the first (largest) point where the two
    disagree beyond _CROSSOVER_REL. Disagreement at that level has two
    possible causes, both of which want the polynomial:

    * genuine higher-order terms still matter there (large antenna
      products, strong correlation), in which case everything below is
      deliberately reported as the leading-order behavior, or
    * the determinant form has hit floating-point cancellation, which for
      the well-converged small systems happens ten or more decades down.

    The whole scan grid is evaluated in one call.
    """
    mn = model.n_min * model.n_max
    x_top = _scan_top(model)
    steps = int(math.ceil(_SCAN_DECADES / -math.log10(_SCAN_STEP)))
    grid = _geometric(x_top, _SCAN_STEP, steps + 1)
    lead = model.alpha * _ipow(grid, mn)
    # lead underflows to 0 at the bottom of the scan for large mn; the
    # NaN ratios there are never hits. A determinant that overflows is
    # left to the saturation scan, which refuses the model.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        hits = np.flatnonzero(np.abs(_cdf_raw(model, grid) / lead - 1.0) > _CROSSOVER_REL)
    if hits.size:
        return float(grid[hits[0]])
    return x_top * 10.0 ** (-_SCAN_DECADES)


def _range_slack(model: EigDistModel) -> float:
    """Allowed out-of-range excursion of the determinant form."""
    return max(1e-5, 4.0 * model.noise_floor)


def _find_saturation(model: EigDistModel) -> float:
    """Smallest argument beyond which the distribution reports exactly 1.

    Scans geometrically upward until the determinant form first reaches
    1 - theta(mn); beyond that point the form's jitter can exceed the
    true tail increments, so the stable evaluator saturates there.

    The walk doubles as a usability check of the whole bulk: non-finite,
    wildly out-of-range or non-monotone values mean the determinant form
    has no double-precision accuracy left for this correlation/geometry
    (very large dimension spreads under strong correlation do this), and
    the model refuses to build rather than return garbage.

    Points are evaluated _SAT_CHUNK at a time and judged in scan order.
    """
    theta = _saturation_theta(model.n_min * model.n_max)
    slack = _range_slack(model)
    x = _scan_top(model)
    high_water = -math.inf
    for _ in range(_SAT_MAX_STEPS // _SAT_CHUNK):
        grid = _geometric(x, _SAT_STEP, _SAT_CHUNK)
        # an overflowing determinant gives inf or NaN, which the test refuses
        with np.errstate(over="ignore", invalid="ignore"):
            raws = _cdf_raw(model, grid).tolist()
        for x, raw in zip(grid.tolist(), raws):
            if not -slack <= raw <= 1.0 + slack or raw < high_water - slack:
                raise NumericalError(
                    "determinant form loses double-precision significance for this "
                    f"correlation/geometry (value {raw:.3g} at x={x:.3g}); use the "
                    "Monte-Carlo simulator for this configuration"
                )
            if raw >= 1.0 - theta:
                return x
            high_water = max(high_water, raw)
        x *= _SAT_STEP
    return x


# Determinant-regime points per evaluator pass. A pass holds the block's
# (m, m, points) stack, a few arrays the size of its kernel rows, which are
# filled in place, and the elimination's row-sized temporaries, so its
# memory does not grow with the call (such as a whole SER sweep): measured
# peaks 1.58 MiB at 4x4 identity and 0.83 MiB at 2x3.
_EVAL_BLOCK = 4096


def _determinant_cdf(model: EigDistModel, xs: np.ndarray) -> np.ndarray:
    """Determinant form at every x > 0 of a 1-D array, clamped to [0, 1]
    and snapped to 1 near the top.

    Between crossover and saturation, an excursion out of [0, 1] beyond the
    usability envelope verified when the model was built (wider for
    tied-eigenvalue guard noise) raises ``NumericalError``.
    """
    raw = _cdf_raw(model, xs)
    excess = np.maximum(raw - 1.0, -raw)
    for i in np.flatnonzero(~(excess <= _range_slack(model))):
        if model.crossover <= xs[i] <= model.saturation:
            raise NumericalError(f"determinant form out of range by {excess[i]:.3e} "
                                 f"at x={float(xs[i])!r}")
    np.clip(raw, 0.0, 1.0, out=raw)
    raw[raw >= 1.0 - _ONE_SNAP] = 1.0
    return raw


def cdf(model: EigDistModel, x):
    """C.d.f. of the maximum eigenvalue, with the small- and
    large-argument guards applied; the one evaluator of the distribution.

    Below the model's crossover the leading-order polynomial is returned
    (the determinant form is either insignificant there or already lost to
    cancellation). Above it, the determinant form is floored at the
    crossover level so the result is continuous and nondecreasing through
    the switch; the floor is at most _SCAN_TOP_CDF, which bounds the
    absolute deviation from the true distribution up to the saturation
    point. Beyond that point the value is exactly 1, where the form first
    reached 1 - theta(mn): the deviation there is at most theta(mn), which
    is 1e-4 at mn = 8, 3.2e-4 at mn = 9, 1e-3 at mn = 10 and 2e-3 from
    mn = 11 (about 1.8e-3 is reached on 3x4 at rho 0/0.9). Everywhere the
    absolute error is at most max(_SCAN_TOP_CDF, theta(mn)) plus the
    determinant form's own rounding error, which the tied-eigenvalue
    guard's noise floor estimates.

    Determinant-regime points are taken ``_EVAL_BLOCK`` at a time: per
    evaluation set, one (m, m, points) stack filled in place and one
    pivoted elimination across its points axis, so the evaluator's working
    memory does not grow with the array; every point's value depends on
    that point alone.
    """
    xs = checked_points(x, "evaluation point")
    flat = xs.ravel()
    out = np.ones_like(flat)
    mn = model.n_min * model.n_max
    lead = flat < model.crossover
    if lead.any():
        out[lead] = np.minimum(1.0, model.alpha * _ipow(flat[lead], mn))
    det = np.flatnonzero(~lead & (flat < model.saturation))
    floor = min(1.0, model.alpha * _ipow(model.crossover, mn))
    for start in range(0, det.size, _EVAL_BLOCK):
        block = det[start : start + _EVAL_BLOCK]
        values = _determinant_cdf(model, flat[block])
        out[block] = np.maximum(values, floor, out=values)
    return out.reshape(xs.shape) if xs.ndim else float(out[0])


def asymptotic_cdf(model: EigDistModel, x):
    """Leading small-argument term alpha * x^(n_min*n_max), unclamped
    (``inf`` past the double range)."""
    xs = checked_points(x, "evaluation point")
    with np.errstate(over="ignore"):
        out = model.alpha * _ipow(xs, model.n_min * model.n_max)
    return out if xs.ndim else float(out)


def asymptotic_pdf(model: EigDistModel, x):
    """Leading small-argument density term n*m*alpha * x^(n*m - 1),
    unclamped."""
    xs = checked_points(x, "evaluation point")
    mn = model.n_min * model.n_max
    # filled first: at mn = 1 the power is the number 1.0, not an array
    out = np.full(xs.shape, mn * model.alpha)
    with np.errstate(over="ignore"):
        out *= _ipow(xs, mn - 1)
    return out if xs.ndim else float(out)


# The evaluator's module-level second name, not exported by the package:
# the benchmark's tracer wraps this binding.
exact_cdf_stable = cdf
