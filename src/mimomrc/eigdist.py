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

Every evaluation goes through one array evaluator, :func:`cdf`; the
scalar functions are thin callers of it. Models are immutable once built
and every evaluation here is a pure function of (model, x), so concurrent
evaluation is safe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .correlation import CorrelationPair, det_major, det_minor
from .errors import NumericalError, ValidationError
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
_SAT_CHUNK = 32  # scan points per evaluator call; divides _SAT_MAX_STEPS


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
    vand_minor: float
    vand_major: float
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
    large antenna counts cannot overflow intermediate products.
    """
    return math.exp(_log_alpha(pair))


def _log_alpha(pair: CorrelationPair) -> float:
    n, m = pair.n_min, pair.n_max
    log_det_minor = float(np.sum(np.log(pair.minor_eigs)))
    log_det_major = float(np.sum(np.log(pair.major_eigs)))
    return (
        log_multivariate_gamma_norm(n, n)
        - m * log_det_minor
        - n * log_det_major
        - log_multivariate_gamma_norm(n, m + n)
    )


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


def build_model(pair: CorrelationPair, degeneracy_tol: float = DEGENERACY_TOL) -> EigDistModel:
    """Precompute everything needed to evaluate the distribution."""
    log_alpha = _log_alpha(pair)
    alpha = math.exp(log_alpha)
    d_minor = det_minor(pair)
    d_major = det_major(pair)

    minor_clusters = _cluster(pair.minor_eigs, degeneracy_tol)
    major_clusters = _cluster(pair.major_eigs, degeneracy_tol)
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
        vand_minor=sets[0].vand_minor,
        vand_major=sets[0].vand_major,
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
    """
    out = 1.0
    while k:
        if k & 1:
            out = out * x
        k >>= 1
        if k:
            x = x * x
    return out


@functools.lru_cache(maxsize=None)
def _series_divisors(m: int) -> tuple[float, ...]:
    """m+1, m+2, ...: the divisors k of the term ratios -t/k that the tail
    series keeps on t < m + 1.

    The series is cut once a term falls below 1e-19 of the leading term at
    the switch point t = m + 1, its largest argument; the sum there is at
    least a third of the leading term, so the cut sits below 1e-18 of it.
    """
    term, k = 1.0, m
    while term > 1e-19 and k < m + 200:
        k += 1
        term *= (m + 1.0) / k
    return tuple(float(d) for d in range(m + 1, k + 1))


def _exp_tail(t: np.ndarray, m: int) -> np.ndarray:
    """exp(-t) minus its order-(m-1) Taylor partial sum, elementwise and stably.

    Algebraically equal to sum_{k>=m} (-t)^k / k!. The subtracted form has
    absolute error ~eps from the O(1) leading terms, which ruins the
    eigenvalue-difference determinants at small t; the tail series keeps
    the error relative. For t beyond the series' comfortable range the
    subtracted form is accurate (no comparable cancellation there). The
    series' length is fixed by ``m``, so every element is a function of
    its own t alone.
    """
    neg = -np.asarray(t, dtype=float)
    series = neg > -(m + 1.0)
    if series.all():
        return _tail_series(neg, m)
    partial = np.ones_like(neg)
    for k in range(m - 1, 0, -1):
        partial *= neg
        partial /= k
        partial += 1.0
    out = np.exp(neg) - partial
    if series.any():
        out[series] = _tail_series(neg[series], m)
    return out


def _tail_series(neg: np.ndarray, m: int) -> np.ndarray:
    """sum_{k>=m} (-t)^k / k! from its power series, given -t.

    The terms after the leading one, relative to it, are nested by Horner's
    rule from the last divisor inward, so the work is a few elementwise
    passes per term and no (points, terms) array is formed.
    """
    sums = np.zeros_like(neg)
    for d in reversed(_series_divisors(m)):
        sums += 1.0
        sums *= neg
        sums /= d
    return _ipow(neg, m) / math.factorial(m) * (1.0 + sums)


def _psi_stack(minor, major, xs: np.ndarray) -> np.ndarray:
    """The (len(xs), m, m) stack of evaluation matrices, one per point."""
    minor = np.asarray(minor, dtype=float)
    major = np.asarray(major, dtype=float)
    n, m = len(minor), len(major)
    gap = m - n
    inv = 1.0 / major
    psi = np.empty((len(xs), m, m))
    for i in range(gap):
        psi[:, i, :] = _ipow(inv, m - 1 - i)
    psi[:, gap:, :] = _exp_tail(xs[:, None, None] * inv / minor[:, None], m)
    return psi


def psi_matrix(minor, major, x: float) -> np.ndarray:
    """The m-by-m evaluation matrix of the determinant-form c.d.f.

    Rows below the dimension gap hold inverse powers of the major-side
    eigenvalues; the remaining rows hold the partial-exponential-sum
    kernel exp(-t) - sum_{k<m} (-t)^k / k! with t = x / (minor * major).
    """
    minor = [float(v) for v in minor]
    major = [float(v) for v in major]
    x = float(x)
    if len(minor) > len(major) or not minor:
        raise ValidationError("need 1 <= len(minor) <= len(major)")
    if not math.isfinite(x) or x < 0.0:
        raise ValidationError(f"evaluation point must be finite and >= 0, got {x!r}")
    return _psi_stack(minor, major, np.array([x]))[0]


def _cdf_raw(model: EigDistModel, xs: np.ndarray) -> np.ndarray:
    """Unclamped determinant-form c.d.f. at every x > 0 of a 1-D array
    (Richardson-combined under ties): one stacked determinant per set."""
    n, m = model.n_min, model.n_max
    half_exp = n * (n - 1) // 2
    sign = -1.0 if (n + half_exp) % 2 else 1.0
    gamma_nn = float(multivariate_gamma_norm(n, n))
    common = sign * gamma_nn * model.det_minor ** (n - 1) * model.det_major ** (m - 1)
    x_pow = _ipow(xs, half_exp)
    value = 0.0
    for s in model.eval_sets:
        det_psi = np.linalg.det(_psi_stack(s.minor, s.major, xs))
        value = value + s.weight * common * det_psi / (s.vand_minor * s.vand_major * x_pow)
    return value


def _geometric(start: float, ratio: float, count: int) -> np.ndarray:
    """start, start*ratio, ... by repeated multiplication, as a scan steps."""
    out = [start]
    for _ in range(count - 1):
        out.append(out[-1] * ratio)
    return np.array(out)


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
    x_top = (_SCAN_TOP_CDF / model.alpha) ** (1.0 / mn)
    steps = int(math.ceil(_SCAN_DECADES / -math.log10(_SCAN_STEP)))
    grid = _geometric(x_top, _SCAN_STEP, steps + 1)
    lead = model.alpha * _ipow(grid, mn)
    # lead underflows to 0 at the bottom of the scan for large mn; the
    # NaN ratios there are never hits
    with np.errstate(divide="ignore", invalid="ignore"):
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

    The walk doubles as a usability check of the whole bulk: wildly
    out-of-range or non-monotone values mean the determinant form has no
    double-precision accuracy left for this correlation/geometry (very
    large dimension spreads under strong correlation do this), and the
    model refuses to build rather than return garbage.

    Points are evaluated _SAT_CHUNK at a time and judged in scan order.
    """
    theta = _saturation_theta(model.n_min * model.n_max)
    slack = _range_slack(model)
    x = max(model.crossover, (_SCAN_TOP_CDF / model.alpha) ** (1.0 / (model.n_min * model.n_max)))
    high_water = -math.inf
    for _ in range(_SAT_MAX_STEPS // _SAT_CHUNK):
        grid = _geometric(x, _SAT_STEP, _SAT_CHUNK)
        for x, raw in zip(grid.tolist(), _cdf_raw(model, grid).tolist()):
            if raw > 1.0 + slack or raw < -slack or raw < high_water - slack:
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


# Determinant-regime points per evaluator pass: bounds the (points, m, m)
# work arrays of a large call, such as a whole SER sweep, to a few MB
# (peak about 4 MB at 4x4).
_EVAL_BLOCK = 4096


def _points(x) -> np.ndarray:
    """Evaluation points as a float array, refusing negative or non-finite ones."""
    xs = np.asarray(x, dtype=float)
    ok = (xs >= 0.0) & (xs < math.inf)
    if not ok.all():
        raise ValidationError(
            f"evaluation point must be finite and >= 0, got {float(xs[~ok].flat[0])!r}"
        )
    return xs


def _determinant_cdf(model: EigDistModel, xs: np.ndarray) -> np.ndarray:
    """Determinant form at every x > 0 of a 1-D array, clamped to [0, 1]
    and snapped to 1 near the top.

    Between crossover and saturation, an excursion out of [0, 1] beyond the
    usability envelope verified when the model was built (wider for
    tied-eigenvalue guard noise) raises ``NumericalError``.
    """
    raw = _cdf_raw(model, xs)
    excess = np.maximum(raw - 1.0, -raw)
    bad = ~(excess <= _range_slack(model)) & (model.crossover <= xs) & (xs <= model.saturation)
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise NumericalError(
            f"determinant form out of range by {excess[i]:.3e} at x={float(xs[i])!r}"
        )
    clamped = np.clip(raw, 0.0, 1.0)
    clamped[clamped >= 1.0 - _ONE_SNAP] = 1.0
    return clamped


def cdf(model: EigDistModel, x) -> np.ndarray:
    """C.d.f. of the maximum eigenvalue at every point of an array.

    The one evaluator of the distribution: each point takes the regime
    that :func:`exact_cdf_stable` describes (leading-order term below the
    model's crossover, floored determinant form up to its saturation
    point, exactly 1 beyond). Determinant-regime points are taken
    ``_EVAL_BLOCK`` at a time, one stacked determinant per evaluation set
    and block, so the evaluator's working memory does not grow with the
    array; every point's value depends on that point alone. Returns an
    array of the shape of ``x``.
    """
    xs = _points(x)
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
        out[block] = np.maximum(_determinant_cdf(model, flat[block]), floor)
    return out.reshape(xs.shape)


def exact_cdf(model: EigDistModel, x: float) -> float:
    """Determinant-form c.d.f. of the maximum eigenvalue, clamped to [0, 1].

    Not reliable below ``model.crossover`` or beyond ``model.saturation``;
    use :func:`exact_cdf_stable` unless the raw determinant value is
    specifically wanted.
    """
    x = float(_points(x))
    if x == 0.0:
        return 0.0
    return float(_determinant_cdf(model, np.array([x]))[0])


def asymptotic_cdf(model: EigDistModel, x: float) -> float:
    """Leading small-argument term alpha * x^(n_min*n_max), unclamped."""
    x = float(_points(x))
    return model.alpha * _ipow(x, model.n_min * model.n_max)


def asymptotic_pdf(model: EigDistModel, x: float) -> float:
    """Leading small-argument density term n*m*alpha * x^(n*m - 1)."""
    x = float(_points(x))
    mn = model.n_min * model.n_max
    return mn * model.alpha * x ** (mn - 1)


def exact_cdf_stable(model: EigDistModel, x: float) -> float:
    """C.d.f. with the small- and large-argument guards applied.

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

    The scalar face of :func:`cdf`, which gives the same value for the
    same point inside an array.
    """
    return float(cdf(model, float(x)))
