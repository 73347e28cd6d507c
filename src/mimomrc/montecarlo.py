"""Monte-Carlo channel simulator: the independent oracle for the analytic
distribution and error-rate formulas.

A Kronecker channel corr_rx^{1/2} * white * corr_tx^{1/2} has the same
largest-eigenvalue law as diag(l_rx)^{1/2} * white * diag(l_tx)^{1/2},
because a white complex Gaussian matrix is unitarily invariant; l_rx and
l_tx are the eigenvalues of the two correlations. They come from the
config's correlation pair (:func:`to_pair`), the one the analytic model
is built on, so the simulator and the model accept exactly the same
matrices. The simulator therefore draws each entry (i, j) as a complex
Gaussian of variance l_rx[i] * l_tx[j], with no matrix square root (the
tests keep the full-matrix draw as its reference), and takes the largest
eigenvalue of the Gram matrix on the smaller side in closed form for up
to three antennas there, by ``eigvalsh`` from four. For three the
closed form is the trigonometric root of the characteristic cubic; the
rows where it would lose accuracy (a near-tied top pair, or three nearly
equal eigenvalues) are recomputed by ``eigvalsh``. One routine forms
the Gram entries for every antenna count, once per block, on real planes
(the channels' real and imaginary parts laid out (n_min, n_max, rows),
rows innermost): each column's term first, the columns added left to
right (see :func:`_gram_entries`).

Trials are partitioned into fixed-size batches, each driven by its own
jumped Philox stream keyed by (seed, batch index), and batch statistics
are merged with a pairwise scheme, so results are bit-identical for a
given (config, seed) regardless of how many workers process the batches
or how a batch is split into blocks; not across versions of the package.
The draw and the SER estimator spread their batches over every CPU the
process may run on, one worker thread each, through one batch runner;
the CPU affinity mask is what limits them. Each worker computes in
buffers the calling thread allocates once per call. A draw's worker
draws a batch's real normals whole, then its imaginary normals
``_BLOCK`` rows at a time, each block coloured into the planes and
turned into λmax before the next is drawn. That consumes a batch's
stream exactly as one draw of the real and then of the imaginary block
does. An estimating worker takes a whole batch of samples at a time, so
that it makes few, long numpy calls: threads making many short ones
mostly wait for each other to hand back the interpreter lock (see
:func:`_ser_estimate`).

The estimators take a config: :func:`mc_ser` for the SER, and
:func:`mc_outage` for the outage probability, which is the empirical
c.d.f. (:func:`empirical_cdf`) at γ/ḡ, counted by the same routine. The
samples are a pure function of the config, so :func:`simulate_lambda_max`
draws and checks them once per config object and hands the same
read-only array to every later call on it, unchecked; that is how one
draw serves every SNR, threshold and grid point. Their points are
refused before any draw, and the draw is freed with its config.
"""

from __future__ import annotations

import math
import os
import weakref
from dataclasses import dataclass

import numpy as np

from .correlation import CorrelationPair, checked_matrix, checked_rho, exp_correlation, make_pair
from .errors import ValidationError, check_count, checked_points
from .performance import Modulation
from .specfun import gauss_q_upper_into

_BATCH = 1 << 16
# Rows of a batch turned into channels and λmax at a time: small enough
# that the block buffers and λmax temporaries are reused from block to
# block, large enough that numpy's per-call overhead stays small.
_BLOCK = 8192

# Each config's samples, kept for as long as the config object lives.
_DRAWS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@dataclass(frozen=True, eq=False)
class McConfig:
    """Simulation setup: geometry, correlation, trial count, seed.

    Correlation is either the exponential model through rho_rx/rho_tx or
    explicit matrices (which take precedence when given), each square in
    its side's antenna count; the config keeps read-only complex copies
    of the matrices. A config compares and hashes by identity:
    :func:`simulate_lambda_max` keeps its draw for as long as the config
    object lives.
    """

    n_rx: int
    n_tx: int
    rho_rx: float = 0.0
    rho_tx: float = 0.0
    rx_corr: np.ndarray | None = None
    tx_corr: np.ndarray | None = None
    trials: int = 100_000
    seed: int = 12345

    def __post_init__(self):
        for label in ("n_rx", "n_tx", "trials"):
            check_count(getattr(self, label), label)
        check_count(self.seed, "seed", low=0, high=2**64)
        checked_rho(self.rho_rx, "rho_rx")
        checked_rho(self.rho_tx, "rho_tx")
        for size, label in ((self.n_rx, "rx_corr"), (self.n_tx, "tx_corr")):
            if getattr(self, label) is not None:
                # a read-only copy: the config keys its draw, so its
                # matrices must not change under it
                mat = checked_matrix(getattr(self, label), label, size)
                mat.flags.writeable = False
                object.__setattr__(self, label, mat)


@dataclass(frozen=True)
class McResult:
    estimate: float
    std_error: float
    trials: int


def to_pair(cfg: McConfig) -> CorrelationPair:
    """Validated correlation pair for the analytic model of this config:
    its matrices, or else the exponential model of its rho on that side."""
    return make_pair(
        exp_correlation(cfg.rho_rx, cfg.n_rx) if cfg.rx_corr is None else cfg.rx_corr,
        exp_correlation(cfg.rho_tx, cfg.n_tx) if cfg.tx_corr is None else cfg.tx_corr,
    )


def _batch_rng(seed: int, index: int) -> np.random.Generator:
    # Philox is counter based; jumping by the batch index yields
    # non-overlapping streams that do not depend on execution order.
    return np.random.Generator(np.random.Philox(seed).jumped(index))


# A channel's power bounds its Gram entries and is at most n_min λmax.
# Below _MAX_POWER no sum overflows; from _MIN_POWER on, subnormal products
# cost λmax at most about n_min^2 n_max 2^-54. The 2x2 closed form squares
# the entries: its bounds are sqrt(_MAX_POWER) and _MIN_POWER_PAIR, from
# which a near tie's squared half gap, underflowing, costs 2e-14 at most.
_MAX_POWER = 2.0**1020
_MIN_POWER = 2.0**-1020
_MIN_POWER_PAIR = 2.0**-490


def lambda_max(h) -> np.ndarray:
    """Largest eigenvalue of the Gram matrix of each channel in a
    (count, n_rx, n_tx) batch.

    The Gram matrix is taken on the smaller side. With one antenna there
    it is the squared row norm; with two, the larger root of the 2x2
    Gram matrix [[a, b], [b*, d]], (a + d)/2 + sqrt(((a - d)/2)^2 + |b|^2),
    which adds two nonnegative terms and so loses no precision; with three,
    the trigonometric root of the cubic, with ``eigvalsh`` for the rows it
    cannot resolve (see :func:`_three_lambda_max`); with four or more,
    ``eigvalsh``. The channels are taken as complex128 and laid out as the
    planes the simulator computes on (see :func:`_planar_lambda_max`).
    Raises ``ValidationError``, before any of that runs, unless ``h`` is
    a 3-D array with at least one antenna on each side, and each channel's
    power (the sum of its entries' squared magnitudes, the Gram matrix's
    trace, which bounds every Gram entry) lies below 2^1020 and is 0 (it
    then gives 0) or at least 2^-1020; with two antennas, where the closed
    form squares the entries, below 2^510 and 0 or at least 2^-490.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 3 or 0 in h.shape[1:]:
        raise ValidationError(f"channels must be a (count, n_rx, n_tx) array, got shape {h.shape}")
    with np.errstate(over="ignore"):
        power = np.sum(h.real**2 + h.imag**2, axis=(1, 2))
    low, high = ((_MIN_POWER_PAIR, math.sqrt(_MAX_POWER)) if min(h.shape[1:]) == 2
                 else (_MIN_POWER, _MAX_POWER))
    ok = (power < high) & ((power >= low) | (power == 0.0))
    if not ok.all():  # NaN fails too
        raise ValidationError(f"each channel's squared magnitudes must sum below {high:.4g}, "
                              f"and to 0 or at least {low:.4g}, got {float(power[~ok][0])!r}")
    h = h.transpose(_plane_axes(h.shape[1], h.shape[2]))
    planes = np.array((h.real, h.imag), order="C")
    out = np.empty(h.shape[2])
    _planar_lambda_max(planes, out, *_planar_work(h.shape[0], h.shape[2]))
    return out


def _plane_axes(n_rx: int, n_tx: int) -> tuple[int, int, int]:
    """The transpose that lays (rows, n_rx, n_tx) channels out as
    (n_min, n_max, rows). On the smaller side h^T conj(h) is the conjugate
    of h^H h, with the same eigenvalues."""
    return (1, 2, 0) if n_rx <= n_tx else (2, 1, 0)


def _planar_work(n: int, rows: int) -> tuple[np.ndarray, ...]:
    """Work buffers of :func:`_planar_lambda_max` for up to ``rows`` rows
    of channels with ``n`` antennas on the smaller side: the rows of
    :func:`_gram_entries`, then from four antennas a complex (n, n, rows)
    Gram matrix, zeroed."""
    flat = np.empty((n * (n + 7), rows))
    if n <= 3:
        return (flat,)
    return flat, np.zeros((n, n, rows), dtype=np.complex128)


def _gram_entries(planes: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """The Gram entries A_ik = sum_j h_ij conj(h_kj), i >= k, of the
    channels whose real and imaginary parts are the (2, n, m, rows)
    ``planes``, as the re and im parts (2, n(n+1)/2, rows) in the first
    n(n+1) rows of ``flat``; the next 6n rows are scratch, free again on
    return. The entries are the diagonal, then each subdiagonal
    (i, k) = (d, 0), (d + 1, 1), ... in turn; the diagonal's im parts,
    zero, are not written.

    Each column's term is formed first, and the m columns are added left
    to right, one ufunc call per column on whole rows of the planes, so
    every sample is a function of its own channel alone (einsum's order
    depends on the operands' shapes and on the SIMD width of the build).
    """
    _, n, m, rows = planes.shape
    size = n * (n + 1) // 2
    sums = flat[: 2 * size].reshape(2, size, rows)
    products = flat[2 * size : 2 * size + 4 * n].reshape(2, 2, n, rows)
    tmp = flat[2 * size + 4 * n : 2 * size + 6 * n].reshape(2, n, rows)
    swapped = planes[::-1]  # (im, re)
    at = 0
    for d in range(n):
        k = n - d
        parts = 2 if d else 1
        h_i, h_k, prod = planes[:, d:], planes[:, :k], products[:, :, :k]
        for j in range(m):
            term = tmp[:, :k] if j else sums[:, at : at + k]
            # (re_i re_k, im_i im_k) and (im_i re_k, re_i im_k)
            np.multiply(h_i[:, :, j], h_k[:, :, j], out=prod[0])
            np.add(prod[0, 0], prod[0, 1], out=term[0])
            if d:
                np.multiply(swapped[:, d:, j], h_k[:, :, j], out=prod[1])
                np.subtract(prod[1, 0], prod[1, 1], out=term[1])
            if j:
                sums[:parts, at : at + k] += term[:parts]
        at += k
    return sums


def _planar_lambda_max(planes: np.ndarray, out: np.ndarray, flat: np.ndarray, gram=None) -> None:
    """Write into ``out`` (rows,) the largest eigenvalue of h h^H for each
    (n, m) channel h, n <= m, whose real and imaginary parts are
    ``planes[0]`` and ``planes[1]``, (2, n, m, rows) with each entry's
    rows contiguous. ``flat`` and ``gram`` are the buffers of
    :func:`_planar_work`.

    The Gram entries are formed once, by :func:`_gram_entries`, and go to
    the closed forms of :func:`lambda_max` for up to three antennas, to
    :func:`_gram_lambda_max` from four.
    """
    _, n, _, rows = planes.shape
    flat = flat[:, :rows]
    sums = _gram_entries(planes, flat)
    if n == 1:
        out[:] = sums[0, 0]
        return
    if n == 3:
        _three_lambda_max(planes, sums, flat, out)
        return
    if n > 3:
        out[:] = _gram_lambda_max(sums, gram[..., :rows])
        return
    # a = A_00, d = A_11 and b = A_10, with (re, im) = cross
    (a, d), cross = sums[0, :2], sums[:, 2]
    half_gap, mean = flat[6:8]
    np.subtract(a, d, out=half_gap)
    half_gap *= 0.5
    np.add(a, d, out=mean)
    mean *= 0.5
    np.multiply(half_gap, half_gap, out=out)
    for term in cross:
        np.multiply(term, term, out=half_gap)
        out += half_gap
    np.sqrt(out, out=out)
    out += mean


def _gram_lambda_max(sums: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each Gram matrix, by ``eigvalsh``, from its
    entries ``sums`` as :func:`_gram_entries` lays them out, copied into
    the complex (n, n, rows) ``gram``, zeroed (see :func:`_planar_work`).
    Only the lower triangle, which ``eigvalsh`` reads, is written, and the
    diagonal's im parts stay zero."""
    n = gram.shape[0]
    # (i, k) of each entry, in the order _gram_entries writes them
    i, k = np.array([(d + j, j) for d in range(n) for j in range(n - d)]).T
    gram.real[i, k] = sums[0]
    gram.imag[i[n:], k[n:]] = sums[1, n:]
    return np.linalg.eigvalsh(gram.transpose(2, 0, 1))[:, -1]


# The trigonometric root of the 3x3 cubic has relative error about
# eps / sqrt(1 + r): acos amplifies the rounding in r as r tends to -1,
# which is where the top two eigenvalues tie (1 + r is about
# 3/8 (gap/p)^2). Rows with 1 + r below _TIE_LIMIT, where the error would
# pass eps / 1e-2 = 2e-14 (a gap below about p/60), are recomputed by
# eigvalsh. r itself carries rounding of about eps / (p/q) from the
# cancellation in a_ii - q, so rows with p/q at most _SPREAD_LIMIT (three
# nearly equal eigenvalues) are recomputed too: the tie test could not be
# trusted there, and above it that rounding stays near 2e-10, far below
# _TIE_LIMIT.
_TIE_LIMIT = 1e-4
_SPREAD_LIMIT = 1e-6


def _three_lambda_max(
    planes: np.ndarray, sums: np.ndarray, flat: np.ndarray, out: np.ndarray
) -> None:
    """:func:`_planar_lambda_max` for three antennas, from the Gram
    entries ``sums`` that :func:`_gram_entries` wrote into the first rows
    of ``flat``; the rest of ``flat`` is scratch.

    With q = tr(A)/3, p^2 = ||A - qI||_F^2 / 6 and r = det(A - qI)/(2 p^3),
    the largest eigenvalue is q + 2p cos(acos(r)/3) (O. K. Smith, CACM
    1961), a sum of two nonnegative terms. The diagonal and the cross
    terms of A are scaled by 1/q so that p^3 cannot underflow or overflow.
    As in J. Kopp's hybrid method (IJMPC 2008), rows where the closed form
    is inaccurate, r too close to -1 or p/q too small, are recomputed by
    ``eigvalsh``. The scaling is done in place, so those rows form their
    Gram entries again from their planes.
    """
    rows = planes.shape[3]
    # a_i = A_ii, and A_ik = x + iy for (i, k) = (1, 0), (2, 1), (2, 0)
    a, x, y = sums[0, :3], sums[0, 3:], sums[1, 3:]
    s, part, squares = flat[12:21].reshape(3, 3, rows)
    q, inv_q, p2, p, cycle, u, r = flat[21:28]
    np.add(a[0], a[1], out=q)
    q += a[2]
    q /= 3.0
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(1.0, q, out=inv_q)
        # d_i = (a_i - q)/q, and the cross terms over q
        a -= q
        a *= inv_q
        x *= inv_q
        y *= inv_q
        # s_ik = |A_ik|^2
        np.multiply(x, x, out=s)
        np.multiply(y, y, out=part)
        s += part
        np.multiply(a, a, out=squares)
        np.add(squares[0], squares[1], out=p2)
        p2 += squares[2]
        np.add(s[0], s[1], out=u)
        u += s[2]
        u *= 2.0
        p2 += u
        p2 /= 6.0
        np.sqrt(p2, out=p)
        # Re(A_01 A_12 A_20) for the two off-diagonal cycles of the determinant
        np.multiply(x[0], x[1], out=cycle)
        np.multiply(y[0], y[1], out=u)
        cycle -= u
        cycle *= x[2]
        np.multiply(x[0], y[1], out=u)
        np.multiply(y[0], x[1], out=r)
        u += r
        u *= y[2]
        cycle += u
        # r = det(A - qI)/(2 p^3), all over q
        np.multiply(a[0], a[1], out=r)
        r *= a[2]
        cycle *= 2.0
        r += cycle
        for i, k in ((0, 1), (1, 2), (2, 0)):
            np.multiply(a[i], s[k], out=u)
            r -= u
        np.multiply(p2, 2.0, out=u)
        u *= p
        r /= u
        np.clip(r, -1.0, 1.0, out=u)
        np.arccos(u, out=u)
        u /= 3.0
        np.cos(u, out=u)
        np.multiply(p, 2.0, out=cycle)
        cycle *= u
        cycle += 1.0
        np.multiply(q, cycle, out=out)
        # a zero channel gives NaN, which fails both tests
        r += 1.0
        resolved = (r >= _TIE_LIMIT) & (p > _SPREAD_LIMIT)
    if not resolved.all():
        again = ~resolved
        count = int(np.count_nonzero(again))
        entries = _gram_entries(planes[..., again], *_planar_work(3, count))
        out[again] = _gram_lambda_max(entries, np.zeros((3, 3, count), dtype=np.complex128))


def _worker_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def simulate_lambda_max(cfg: McConfig) -> np.ndarray:
    """All largest-eigenvalue samples for the config (trials,), read-only.

    The samples are drawn and checked (see :func:`_checked_samples`) on
    the first call for a config object and kept (weakly, by identity) for
    as long as that object lives: later calls on it return the same array
    unchecked, and so do :func:`mc_ser`, :func:`mc_outage` and
    :func:`empirical_cdf`. Another config with equal
    fields, such as one made by ``dataclasses.replace``, draws again, and
    gets the same bits.

    The draw runs a worker thread per CPU in this process's affinity mask
    (``taskset``, ``os.sched_setaffinity``), at most one per batch. Batch
    ``i`` holds trials ``i * _BATCH`` onward and is drawn from its own
    stream, so the samples do not depend on the worker count. Each worker
    draws into buffers this thread allocates before the pool starts: one
    batch's real normals (``n_rx·n_tx·0.5`` MiB), ``_BLOCK`` rows of
    imaginary normals, the two planes of ``_BLOCK`` channels and the
    λmax kernel's work buffers. A worker holds 1.9 MiB beyond the real
    normals on 2x2, 3.6 MiB on 3x3 and 7.8 MiB on 4x4, besides the
    (trials,) output. Raises ``ValidationError`` for a correlation matrix
    that :func:`~mimomrc.correlation.make_pair` refuses, with its message
    (see :func:`~mimomrc.correlation.correlation_eigenvalues`).
    """
    out = _DRAWS.get(cfg)
    if out is None:
        # two threads that both missed drew the same bits; the first stored wins
        out = _DRAWS.setdefault(cfg, _checked_samples(_draw(cfg, _worker_count())))
    return out


def _draw(cfg: McConfig, workers: int) -> np.ndarray:
    """The config's samples, drawn afresh by ``workers`` threads (see
    :func:`_run_batches`).

    The entries' standard deviations come from the correlation pair of
    :func:`to_pair`, whose minor side is the planes' first axis: they are
    already laid out as the planes, (n_min, n_max, 1). The normals, drawn
    (rows, n_rx, n_tx), are transposed into that layout by
    :func:`_plane_axes`.
    """
    pair = to_pair(cfg)
    std = np.sqrt(0.5 * np.outer(pair.minor_eigs, pair.major_eigs))[..., None]
    axes = _plane_axes(cfg.n_rx, cfg.n_tx)
    out = np.empty(cfg.trials)
    batch = min(_BATCH, cfg.trials)
    block = min(_BLOCK, batch)

    def allocate():
        return (
            np.empty((batch, cfg.n_rx, cfg.n_tx)),
            np.empty((block, cfg.n_rx, cfg.n_tx)),
            np.empty((2, pair.n_min, pair.n_max, block)),
            *_planar_work(pair.n_min, block),
        )

    def run(index, buffers):
        real, imag, planes, *work = buffers
        start = index * _BATCH
        count = min(_BATCH, cfg.trials - start)
        # one draw of the batch's real block, then of its imaginary
        # block, here drawn _BLOCK rows at a time
        rng = _batch_rng(cfg.seed, index)
        rng.standard_normal(out=real[:count])
        for lo in range(0, count, _BLOCK):
            rows = min(_BLOCK, count - lo)
            rng.standard_normal(out=imag[:rows])
            block = planes[..., :rows]
            np.multiply(real[lo : lo + rows].transpose(axes), std, out=block[0])
            np.multiply(imag[:rows].transpose(axes), std, out=block[1])
            _planar_lambda_max(block, out[start + lo : start + lo + rows], *work)

    _run_batches(math.ceil(cfg.trials / _BATCH), workers, allocate, run)
    out.flags.writeable = False
    return out


def _run_batches(batches: int, workers: int, allocate, run) -> None:
    """Call ``run(index, buffers)`` for every batch index below
    ``batches``, on ``workers`` threads (at most one per batch): worker
    ``w`` of ``W`` takes batches ``w, w + W, ...``, each with the buffers
    that one call of ``allocate()`` made for it.

    ``allocate`` runs on the calling thread, before the pool starts. A
    pool thread allocates from its own malloc arena: with the draw's and
    the SER estimator's buffers allocated there, the peak resident size
    of the benchmark's Monte-Carlo workload rose from 97.7-98.1 to
    105.9-112.1 MB. An error in a worker is raised again here, after
    every worker has stopped.
    """
    workers = min(workers, batches)
    buffers = [allocate() for _ in range(workers)]

    def work(worker):
        for index in range(worker, batches, workers):
            run(index, buffers[worker])

    if workers > 1:
        # Imported here, on first use: a thread pool imported with the
        # package (with logging and queue) costs every command a few ms.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, range(workers)))
    elif workers:
        work(0)


def empirical_cdf(cfg: McConfig, grid):
    """Fraction of the config's largest-eigenvalue samples (see
    :func:`simulate_lambda_max`) at or below each grid point: a number
    gives a float, an array one value per point, in an array of its
    shape. A grid point may be negative, where the fraction is 0; NaN and
    ±inf anywhere are refused with ``ValidationError`` before any draw.
    :func:`mc_outage` is this fraction at γ/ḡ."""
    points = checked_points(grid, "grid point")
    out = _fractions(simulate_lambda_max(cfg), points).reshape(points.shape)
    return out if points.ndim else float(out)


def _fractions(samples: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The fraction of ``samples`` at or below each of the checked
    ``points``, flat, on the calling thread: one sort of the samples per
    call (about 8 ms per 10^6; the sorted copy is not kept), then a
    binary search per point, which counts what a comparison would."""
    counts = np.searchsorted(np.sort(samples), points.ravel(), side="right")
    return counts / samples.size


def _merge(stat_a, stat_b):
    n_a, mean_a, m2_a = stat_a
    n_b, mean_b, m2_b = stat_b
    n = n_a + n_b
    delta = mean_b - mean_a
    mean = mean_a + delta * n_b / n
    m2 = m2_a + m2_b + delta * delta * n_a * n_b / n
    return (n, mean, m2)


def _pairwise_reduce(stats):
    while len(stats) > 1:
        merged = [_merge(stats[i], stats[i + 1]) for i in range(0, len(stats) - 1, 2)]
        if len(stats) % 2:
            merged.append(stats[-1])
        stats = merged
    return stats[0]


def _checked_samples(samples) -> np.ndarray:
    """The samples as a float array; ``ValidationError`` unless they are a
    nonempty 1-D array of finite, nonnegative values. The draw's check,
    the one place samples are checked (see :func:`simulate_lambda_max`)."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size == 0:
        raise ValidationError(f"samples must be a nonempty 1-D array, got shape {samples.shape}")
    lo, hi = samples.min(), samples.max()
    if not (lo >= 0.0 and hi < math.inf):
        raise ValidationError(
            f"samples must be finite and nonnegative, got values from {lo!r} to {hi!r}"
        )
    return samples


def _ser_estimate(samples: np.ndarray, mod: Modulation, gbar: np.ndarray, workers: int):
    """:func:`mc_ser` over checked samples at the checked linear SNRs
    ``gbar`` (see :func:`_sweep`), on ``workers`` threads (see
    :func:`_run_batches`).

    Each worker computes a whole batch of one SNR at a time, in four
    ``_BATCH``-sized buffers (2 MB) that this thread allocates, about 60
    numpy calls per batch. Threads making many short calls convoy on the
    interpreter lock, handing it back and forth at each call: on a 2-vCPU
    host, two threads running Q over 2^20 points each reached 0.61 times
    one thread's throughput in passes of 8192 points, and 1.45 times in
    passes of 65,536.
    """
    scales = (2.0 * mod.b * gbar).ravel().tolist()
    batches = math.ceil(samples.size / _BATCH)
    # the statistics of batch b of SNR s at s * batches + b
    stats = [None] * (len(scales) * batches)
    size = min(_BATCH, samples.size)

    def run(index, buffers):
        point, batch = divmod(index, batches)
        part = samples[batch * _BATCH : (batch + 1) * _BATCH]
        x, den, t, values = (b[: part.size] for b in buffers)
        with np.errstate(over="ignore"):  # Q is 0 past the double range
            np.multiply(part, scales[point], out=x)
        np.sqrt(x, out=x)
        gauss_q_upper_into(x, values, (den, t))
        values *= mod.a
        mean = float(values.mean())
        # the squared deviations, in place
        values -= mean
        np.square(values, out=values)
        stats[index] = (part.size, mean, float(values.sum()))

    _run_batches(len(stats), workers, lambda: np.empty((4, size)), run)
    results = []
    for lo in range(0, len(stats), batches):
        n, mean, m2 = _pairwise_reduce(stats[lo : lo + batches])
        std_error = math.sqrt(m2 / (n - 1) / n) if n > 1 else 0.0
        results.append(McResult(estimate=mean, std_error=std_error, trials=n))
    return results if gbar.ndim else results[0]


def _sweep(values, name: str, db: bool = False, ndim: int = 1) -> np.ndarray:
    """:func:`~mimomrc.errors.checked_points` of at most ``ndim`` dimensions."""
    points = checked_points(values, name, db)
    if points.ndim > ndim:
        shape = ("a number", "a number or a 1-D array")[ndim]
        raise ValidationError(f"{name} must be {shape}, got shape {points.shape}")
    return points


def mc_ser(cfg: McConfig, mod: Modulation, snr_db: float):
    """Semi-analytic SER over the config's largest-eigenvalue samples (see
    :func:`simulate_lambda_max`): the sample mean of
    a*Q(sqrt(2*b*snr*lambda)), with its standard error.

    Unbiased for the ensemble-average SER with far lower variance than
    symbol counting, which is what the quadrature result is compared to.
    ``snr_db`` is one SNR in dB, giving one :class:`McResult`, or a 1-D
    array of them, giving a list with one result per SNR, each equal to
    the one-SNR call's. Statistics are taken per ``_BATCH`` samples and
    merged pairwise, so the result does not depend on how the samples
    were computed. The batches of every SNR run in one pool of the
    simulator's worker threads, and the result is bit-identical for any
    worker count. Raises ``ValidationError``, before any draw, unless
    each SNR's linear value is a positive normal double (about -3076.5 to
    3082.5 dB).
    """
    gbar = _sweep(snr_db, "SNR", db=True)
    return _ser_estimate(simulate_lambda_max(cfg), mod, gbar, _worker_count())


def mc_outage(cfg: McConfig, snr_db: float, gamma_th):
    """Outage probability at the linear threshold ``gamma_th`` and the
    average SNR ``snr_db`` (a number, in dB): :func:`empirical_cdf` at
    γ/ḡ, the fraction p of the config's samples whose output SNR ḡ·λmax
    is at or below the threshold, with its binomial standard error
    sqrt(p(1 - p)/trials).

    ``gamma_th`` is one threshold, giving one :class:`McResult`, or a 1-D
    array of them, giving a list with one result per threshold, each
    equal to the one-threshold call's. The SNR and every threshold are
    refused with ``ValidationError`` before any draw.
    """
    gammas = _sweep(gamma_th, "outage threshold")
    gbar = float(_sweep(snr_db, "SNR", db=True, ndim=0))
    n = cfg.trials
    results = [McResult(estimate=p, std_error=math.sqrt(p * (1.0 - p) / n), trials=n)
               for p in _fractions(simulate_lambda_max(cfg), gammas / gbar).tolist()]
    return results if gammas.ndim else results[0]
