"""Monte-Carlo channel simulator: the independent oracle for the analytic
distribution and error-rate formulas.

A Kronecker channel corr_rx^{1/2} * white * corr_tx^{1/2} has the same
largest-eigenvalue law as diag(l_rx)^{1/2} * white * diag(l_tx)^{1/2},
because a white complex Gaussian matrix is unitarily invariant; l_rx and
l_tx are the eigenvalues of the two correlations. They come from
``correlation.correlation_eigenvalues``, the check the analytic model
uses too, so the simulator and the model accept exactly the same
matrices. The simulator therefore draws each entry (i, j) as a complex
Gaussian of variance l_rx[i] * l_tx[j], with no matrix square root (the
tests keep the full-matrix draw as its reference), and takes the largest
eigenvalue of the Gram matrix on the smaller side in closed form for up
to three antennas there, by ``eigvalsh`` from four. For three the
closed form is the trigonometric root of the characteristic cubic; the
rows where it would lose accuracy (a near-tied top pair, or three nearly
equal eigenvalues) are recomputed by ``eigvalsh``.

Trials are partitioned into fixed-size batches, each driven by its own
jumped Philox stream keyed by (seed, batch index), and batch statistics
are merged with a pairwise scheme, so results are bit-identical for a
given (config, seed) regardless of how many workers process the batches.
The draw and the SER estimator spread their batches over every CPU the
process may run on, one worker thread each, through one batch runner;
the CPU affinity mask is what limits them. Each worker computes in
buffers the calling thread allocates once per call. A draw's worker
draws a batch's real normals whole, then its imaginary normals
``_BLOCK`` rows at a time, each block turned into channels and λmax
before the next is drawn. That consumes a batch's stream exactly as one
draw of the real and then of the imaginary block does. An estimating
worker takes a whole batch of samples at a time, so that it makes few,
long numpy calls: threads making many short ones mostly wait for each
other to hand back the interpreter lock (see :func:`_ser_estimate`).
The estimators take the samples as an array, so one draw can serve
several SNRs or thresholds. The samples are a pure function of the
config, so :func:`simulate_lambda_max` draws them once per config object
and hands the same read-only array to every later call on it; that is
how :func:`mc_ser`, :func:`mc_outage` and :func:`empirical_cdf` share one
draw. The draw is freed with its config.
"""

from __future__ import annotations

import math
import os
import weakref
from dataclasses import dataclass

import numpy as np

from . import linalg
from .correlation import CorrelationPair, correlation_eigenvalues, exp_correlation, make_pair
from .errors import ValidationError
from .performance import Modulation, snr_from_db
from .specfun import gauss_q_upper_into

_BATCH = 1 << 16
# Rows of a batch turned into channels and λmax at a time: small enough
# that the block buffers and λmax temporaries are reused from block to
# block, large enough that numpy's per-call overhead stays small.
_BLOCK = 8192

# Each config's samples, kept for as long as the config object lives.
_DRAWS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True, eq=False)
class McConfig:
    """Simulation setup: geometry, correlation, trial count, seed.

    Correlation is either the exponential model through rho_rx/rho_tx or
    explicit matrices (which take precedence when given); the config
    keeps read-only copies of the matrices. A config compares and hashes
    by identity: :func:`simulate_lambda_max` keeps its draw for as long
    as the config object lives.
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
        if not _is_integer(self.n_rx) or self.n_rx < 1:
            raise ValidationError(f"n_rx must be a positive integer, got {self.n_rx!r}")
        if not _is_integer(self.n_tx) or self.n_tx < 1:
            raise ValidationError(f"n_tx must be a positive integer, got {self.n_tx!r}")
        if not _is_integer(self.trials) or self.trials < 1:
            raise ValidationError(f"trials must be a positive integer, got {self.trials!r}")
        if not _is_integer(self.seed) or not 0 <= self.seed < 2**64:
            raise ValidationError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        for rho, label in ((self.rho_rx, "rho_rx"), (self.rho_tx, "rho_tx")):
            if not (0.0 <= float(rho) < 1.0):
                raise ValidationError(f"{label} must lie in [0, 1), got {rho!r}")
        for size, label in ((self.n_rx, "rx_corr"), (self.n_tx, "tx_corr")):
            mat = getattr(self, label)
            if mat is None:
                continue
            # a read-only copy: the config keys its draw, so its matrices
            # must not change under it
            mat = np.array(mat)
            mat.flags.writeable = False
            object.__setattr__(self, label, mat)
            if mat.shape != (size, size):
                raise ValidationError(
                    f"{label} must be a square {size}x{size} matrix, got shape {mat.shape}"
                )


@dataclass(frozen=True)
class McResult:
    estimate: float
    std_error: float
    trials: int


def corr_matrices(cfg: McConfig) -> tuple[np.ndarray, np.ndarray]:
    """Receive and transmit correlation matrices implied by the config."""
    rx = linalg.as_matrix(cfg.rx_corr) if cfg.rx_corr is not None else exp_correlation(cfg.rho_rx, cfg.n_rx)
    tx = linalg.as_matrix(cfg.tx_corr) if cfg.tx_corr is not None else exp_correlation(cfg.rho_tx, cfg.n_tx)
    return rx, tx


def to_pair(cfg: McConfig) -> CorrelationPair:
    """Validated correlation pair for the analytic model of this config."""
    rx, tx = corr_matrices(cfg)
    return make_pair(rx, tx)


def _batch_rng(seed: int, index: int) -> np.random.Generator:
    # Philox is counter based; jumping by the batch index yields
    # non-overlapping streams that do not depend on execution order.
    return np.random.Generator(np.random.Philox(seed).jumped(index))


def lambda_max(h) -> np.ndarray:
    """Largest eigenvalue of the Gram matrix of each channel in a
    (count, n_rx, n_tx) batch.

    The Gram matrix is taken on the smaller side. With one antenna there
    it is the squared row norm; with two, the larger root of the 2x2
    Gram matrix [[a, b], [b*, d]], (a + d)/2 + sqrt(((a - d)/2)^2 + |b|^2),
    which adds two nonnegative terms and so loses no precision; with three,
    :func:`_lambda_max_three` (the trigonometric root of the cubic, with
    ``eigvalsh`` for the rows it cannot resolve); with four or more,
    ``eigvalsh``.
    """
    h = np.asarray(h)
    if h.shape[1] > h.shape[2]:
        # h^T conj(h) is the conjugate of h^H h: the same eigenvalues
        h = h.transpose(0, 2, 1)
    n = h.shape[1]
    if n == 1:
        return np.einsum("bij,bij->b", h.real, h.real) + np.einsum("bij,bij->b", h.imag, h.imag)
    if n == 2:
        power = np.einsum("bij,bij->bi", h.real, h.real) + np.einsum("bij,bij->bi", h.imag, h.imag)
        cross = np.einsum("bj,bj->b", h[:, 0], h[:, 1].conj())
        half_gap = 0.5 * (power[:, 0] - power[:, 1])
        return 0.5 * (power[:, 0] + power[:, 1]) + np.sqrt(
            half_gap * half_gap + cross.real * cross.real + cross.imag * cross.imag
        )
    if n == 3:
        return _lambda_max_three(h)
    return _gram_lambda_max(h)


def _gram_lambda_max(h: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each h h^H in a (count, n, m) batch, by ``eigvalsh``."""
    return np.linalg.eigvalsh(np.einsum("bij,bkj->bik", h, h.conj()))[:, -1]


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


def _lambda_max_three(h: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each h h^H in a (count, 3, m) batch.

    With q = tr(A)/3, p^2 = ||A - qI||_F^2 / 6 and r = det(A - qI)/(2 p^3),
    the largest eigenvalue is q + 2p cos(acos(r)/3) (O. K. Smith, CACM
    1961), a sum of two nonnegative terms. The diagonal and the three
    cross terms of A come from real einsums, without the complex Gram
    matrix, and are scaled by 1/q so that p^3 cannot underflow or overflow.
    As in J. Kopp's hybrid method (IJMPC 2008), rows where the closed form
    is inaccurate, r too close to -1 or p/q too small, are recomputed by
    ``eigvalsh``.
    """
    h = np.ascontiguousarray(h)
    count, _, m = h.shape
    # (re, im) of each row side by side: a dot product of two rows of
    # this view is the real part of their complex inner product
    pairs = h.view(np.float64).reshape(count, 3, 2 * m)
    re, im = h.real, h.imag
    a0, a1, a2 = np.einsum("bij,bij->ib", pairs, pairs)
    q = (a0 + a1 + a2) / 3.0
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_q = 1.0 / q
        d0, d1, d2 = (a0 - q) * inv_q, (a1 - q) * inv_q, (a2 - q) * inv_q

        def cross(i, k):
            # A_ik = sum_j h_ij conj(h_kj), over q
            x = np.einsum("bj,bj->b", pairs[:, i], pairs[:, k])
            y = np.einsum("bj,bj->b", im[:, i], re[:, k])
            y -= np.einsum("bj,bj->b", re[:, i], im[:, k])
            return x * inv_q, y * inv_q

        (x01, y01), (x12, y12), (x02, y02) = cross(0, 1), cross(1, 2), cross(0, 2)
        s01 = x01 * x01 + y01 * y01
        s12 = x12 * x12 + y12 * y12
        s02 = x02 * x02 + y02 * y02
        p2 = (d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * (s01 + s12 + s02)) / 6.0
        p = np.sqrt(p2)
        # Re(A_01 A_12 A_20) for the two off-diagonal cycles of the determinant
        cycle = (x01 * x12 - y01 * y12) * x02 + (x01 * y12 + y01 * x12) * y02
        det = d0 * d1 * d2 + 2.0 * cycle - d0 * s12 - d1 * s02 - d2 * s01
        r = det / (2.0 * p2 * p)
        lam = q * (1.0 + 2.0 * p * np.cos(np.arccos(np.clip(r, -1.0, 1.0)) / 3.0))
        # a zero channel gives NaN, which fails both tests
        recompute = ~((1.0 + r >= _TIE_LIMIT) & (p > _SPREAD_LIMIT))
    if recompute.any():
        lam[recompute] = _gram_lambda_max(h[recompute])
    return lam


def _worker_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def simulate_lambda_max(cfg: McConfig) -> np.ndarray:
    """All largest-eigenvalue samples for the config (trials,), read-only.

    The samples are drawn on the first call for a config object and kept
    (weakly, by identity) for as long as that object lives: later calls
    on it return the same array, and so do :func:`mc_ser`,
    :func:`mc_outage` and :func:`empirical_cdf`. Another config with equal
    fields, such as one made by ``dataclasses.replace``, draws again, and
    gets the same bits.

    The draw runs a worker thread per CPU in this process's affinity mask
    (``taskset``, ``os.sched_setaffinity``), at most one per batch. Batch
    ``i`` holds trials ``i * _BATCH`` onward and is drawn from its own
    stream, so the samples do not depend on the worker count. Each worker
    draws into buffers this thread allocates before the pool starts: one
    batch's real normals (``n_rx·n_tx·0.5`` MB), and ``_BLOCK`` rows of
    imaginary normals and of complex channels. With the λmax temporaries
    of a block, a worker holds 1.4 MB beyond the real normals on 2x2,
    3.4 MB on 3x3 and 7 MB on 4x4, besides the (trials,) output. Raises
    ``ValidationError`` for a correlation matrix that
    :func:`~mimomrc.correlation.make_pair` refuses too (see
    :func:`~mimomrc.correlation.correlation_eigenvalues`).
    """
    out = _DRAWS.get(cfg)
    if out is None:
        # two threads that both missed drew the same bits; the first stored wins
        out = _DRAWS.setdefault(cfg, _draw(cfg, _worker_count()))
    return out


def _draw(cfg: McConfig, workers: int) -> np.ndarray:
    """The config's samples, drawn afresh by ``workers`` threads (see
    :func:`_run_batches`)."""
    rx, tx = corr_matrices(cfg)
    rx_eigs = correlation_eigenvalues(rx, "receive")
    tx_eigs = correlation_eigenvalues(tx, "transmit")
    std = np.sqrt(0.5 * np.outer(rx_eigs, tx_eigs))
    out = np.empty(cfg.trials)
    plane = (min(_BATCH, cfg.trials), cfg.n_rx, cfg.n_tx)
    block = (min(_BLOCK, plane[0]), cfg.n_rx, cfg.n_tx)

    def allocate():
        return np.empty(plane), np.empty(block), np.empty(block, dtype=np.complex128)

    def run(index, buffers):
        real, imag, h = buffers
        start = index * _BATCH
        count = min(_BATCH, cfg.trials - start)
        # one draw of the batch's real block, then of its imaginary
        # block, here drawn _BLOCK rows at a time
        rng = _batch_rng(cfg.seed, index)
        rng.standard_normal(out=real[:count])
        for lo in range(0, count, _BLOCK):
            rows = min(_BLOCK, count - lo)
            rng.standard_normal(out=imag[:rows])
            chunk = h[:rows]
            chunk.real = real[lo : lo + rows]
            chunk.imag = imag[:rows]
            chunk *= std
            out[start + lo : start + lo + rows] = lambda_max(chunk)

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
    else:
        work(0)


def empirical_cdf(cfg: McConfig, grid) -> np.ndarray:
    """Fraction of simulated largest eigenvalues at or below each grid point."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValidationError("grid must be a nonempty 1-D array")
    if np.any(np.diff(grid) < 0.0):
        raise ValidationError("grid must be ascending")
    samples = np.sort(simulate_lambda_max(cfg))
    return np.searchsorted(samples, grid, side="right") / cfg.trials


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
    nonempty 1-D array of finite, nonnegative values."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size == 0:
        raise ValidationError(f"samples must be a nonempty 1-D array, got shape {samples.shape}")
    lo, hi = samples.min(), samples.max()
    if not (lo >= 0.0 and hi < math.inf):
        raise ValidationError(
            f"samples must be finite and nonnegative, got values from {lo!r} to {hi!r}"
        )
    return samples


def ser_estimate(samples: np.ndarray, mod: Modulation, snr_db: float) -> McResult:
    """Semi-analytic SER over largest-eigenvalue samples: the sample mean
    of a*Q(sqrt(2*b*snr*lambda)).

    Unbiased for the ensemble-average SER with far lower variance than
    symbol counting, which is what the quadrature result is compared to.
    Statistics are taken per ``_BATCH`` samples and merged pairwise, so the
    result does not depend on how the samples were computed. The batches
    run on the simulator's worker threads (see :func:`simulate_lambda_max`),
    and the result is bit-identical for any worker count. Raises
    ``ValidationError`` unless the samples are a nonempty 1-D array of
    finite, nonnegative values.
    """
    return _ser_estimate(samples, mod, snr_db, _worker_count())


def _ser_estimate(samples, mod: Modulation, snr_db: float, workers: int) -> McResult:
    """:func:`ser_estimate` on ``workers`` threads (see :func:`_run_batches`).

    Each worker computes a whole batch at a time, in four ``_BATCH``-sized
    buffers (2 MB) that this thread allocates, about 60 numpy calls per
    batch. Threads making many short calls convoy on the interpreter
    lock, handing it back and forth at each call: on a 2-vCPU host, two
    threads running Q over 2^20 points each reached 0.61 times one
    thread's throughput in passes of 8192 points, and 1.45 times in
    passes of 65,536.
    """
    samples = _checked_samples(samples)
    scale = 2.0 * mod.b * snr_from_db(snr_db)
    batches = math.ceil(samples.size / _BATCH)
    stats = [None] * batches
    size = min(_BATCH, samples.size)

    def run(index, buffers):
        part = samples[index * _BATCH : (index + 1) * _BATCH]
        x, den, t, values = (b[: part.size] for b in buffers)
        np.multiply(part, scale, out=x)
        np.sqrt(x, out=x)
        gauss_q_upper_into(x, values, (den, t))
        values *= mod.a
        mean = float(values.mean())
        # the squared deviations, in place
        values -= mean
        np.square(values, out=values)
        stats[index] = (part.size, mean, float(values.sum()))

    _run_batches(batches, workers, lambda: np.empty((4, size)), run)
    n, mean, m2 = _pairwise_reduce(stats)
    std_error = math.sqrt(m2 / (n - 1) / n) if n > 1 else 0.0
    return McResult(estimate=mean, std_error=std_error, trials=n)


def _threshold(gamma_th) -> float:
    gamma_th = float(gamma_th)
    if not (gamma_th > 0.0 and math.isfinite(gamma_th)):
        raise ValidationError(f"outage threshold must be positive, got {gamma_th!r}")
    return gamma_th


def outage_estimate(samples: np.ndarray, snr_db: float, gamma_th: float) -> McResult:
    """Fraction of largest-eigenvalue samples whose output SNR falls at or
    below gamma_th, with its binomial standard error. Runs on the calling
    thread: one comparison and one count per sample cost less than
    starting the worker threads. Refuses the samples as
    :func:`ser_estimate` does."""
    samples = _checked_samples(samples)
    gamma_th = _threshold(gamma_th)
    gbar = snr_from_db(snr_db)
    p = int(np.count_nonzero(samples <= gamma_th / gbar)) / samples.size
    std_error = math.sqrt(p * (1.0 - p) / samples.size)
    return McResult(estimate=p, std_error=std_error, trials=samples.size)


def mc_ser(cfg: McConfig, mod: Modulation, snr_db: float) -> McResult:
    """:func:`ser_estimate` over the config's samples (see
    :func:`simulate_lambda_max`)."""
    return ser_estimate(simulate_lambda_max(cfg), mod, snr_db)


def mc_outage(cfg: McConfig, snr_db: float, gamma_th: float) -> McResult:
    """:func:`outage_estimate` over the config's samples (see
    :func:`simulate_lambda_max`)."""
    _threshold(gamma_th)  # refuse before drawing
    return outage_estimate(simulate_lambda_max(cfg), snr_db, gamma_th)
