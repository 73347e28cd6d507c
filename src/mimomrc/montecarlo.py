"""Monte-Carlo channel simulator: the independent oracle for the analytic
distribution and error-rate formulas.

A Kronecker channel corr_rx^{1/2} * white * corr_tx^{1/2} has the same
largest-eigenvalue law as diag(l_rx)^{1/2} * white * diag(l_tx)^{1/2},
because a white complex Gaussian matrix is unitarily invariant; l_rx and
l_tx are the eigenvalues of the two correlations. They come from
``correlation.correlation_eigenvalues``, the check the analytic model
uses too, so the simulator and the model accept exactly the same
matrices. The simulator therefore draws each entry (i, j) as a complex
Gaussian of variance l_rx[i] * l_tx[j] and takes the largest eigenvalue
of the Gram matrix on the smaller side in closed form for up to three
antennas there, by ``eigvalsh`` from four. For three the closed form is
the trigonometric root of the characteristic cubic; the rows where it
would lose accuracy (a near-tied top pair, or three nearly equal
eigenvalues) are recomputed by ``eigvalsh``.

Trials are partitioned into fixed-size batches, each driven by its own
jumped Philox stream keyed by (seed, batch index), and batch statistics
are merged with a pairwise scheme, so results are bit-identical for a
given (config, seed) regardless of how many workers process the batches.
By default the batches are spread over every CPU the process may run
on. Each worker draws into buffers the calling thread allocates once per
call: a batch's real normals are drawn whole, then its imaginary normals
``_BLOCK`` rows at a time, each block turned into channels and λmax
before the next is drawn. That consumes a batch's stream exactly as one
draw of the real and then of the imaginary block does.
The estimators take the samples as an array, so one draw can serve
several SNRs or thresholds.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import linalg
from .correlation import CorrelationPair, correlation_eigenvalues, exp_correlation, make_pair
from .errors import NumericalError, ValidationError
from .performance import Modulation, snr_from_db
from .specfun import gauss_q, scipy_special

_BATCH = 1 << 16
# Rows of a batch turned into channels and λmax at a time: small enough
# that the block buffers and λmax temporaries are reused from block to
# block, large enough that numpy's per-call overhead stays small.
_BLOCK = 8192


@dataclass(frozen=True, eq=False)
class McConfig:
    """Simulation setup: geometry, correlation, trial count, seed.

    Correlation is either the exponential model through rho_rx/rho_tx or
    explicit matrices (which take precedence when given).
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
        if not isinstance(self.n_rx, (int, np.integer)) or self.n_rx < 1:
            raise ValidationError(f"n_rx must be a positive integer, got {self.n_rx!r}")
        if not isinstance(self.n_tx, (int, np.integer)) or self.n_tx < 1:
            raise ValidationError(f"n_tx must be a positive integer, got {self.n_tx!r}")
        if not isinstance(self.trials, (int, np.integer)) or self.trials < 1:
            raise ValidationError(f"trials must be a positive integer, got {self.trials!r}")
        if not isinstance(self.seed, (int, np.integer)) or not 0 <= self.seed < 2**64:
            raise ValidationError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        for rho, label in ((self.rho_rx, "rho_rx"), (self.rho_tx, "rho_tx")):
            if not (0.0 <= float(rho) < 1.0):
                raise ValidationError(f"{label} must lie in [0, 1), got {rho!r}")
        for mat, size, label in (
            (self.rx_corr, self.n_rx, "rx_corr"),
            (self.tx_corr, self.n_tx, "tx_corr"),
        ):
            if mat is not None and np.asarray(mat).shape != (size, size):
                raise ValidationError(
                    f"{label} must be a square {size}x{size} matrix, "
                    f"got shape {np.asarray(mat).shape}"
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


def _draw_white(
    rng: np.random.Generator, count: int, n_rx: int, n_tx: int, std=math.sqrt(0.5)
) -> np.ndarray:
    """``count`` complex Gaussian matrices; ``std`` (a scalar or an
    (n_rx, n_tx) array) is the standard deviation of the real and of the
    imaginary part of each entry, unit variance by default."""
    h = np.empty((count, n_rx, n_tx), dtype=np.complex128)
    h.real = rng.standard_normal((count, n_rx, n_tx))
    h.imag = rng.standard_normal((count, n_rx, n_tx))
    h *= std
    return h


def draw_channel(cfg: McConfig, rng: np.random.Generator) -> np.ndarray:
    """One correlated channel draw using the given stream state."""
    rx, tx = corr_matrices(cfg)
    rx_root = linalg.herm_sqrt(rx)
    tx_root = linalg.herm_sqrt(tx)
    white = _draw_white(rng, 1, cfg.n_rx, cfg.n_tx)[0]
    return rx_root @ white @ tx_root


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


def max_eig_snr(h, snr_db: float, check: bool = False) -> tuple[float, float]:
    """Largest eigenvalue of the channel Gram matrix and the output SNR.

    The Gram matrix is formed on the smaller side of the channel (same
    nonzero spectrum, smaller eigenproblem). With ``check=True`` the
    eigenvector is verified to attain the eigenvalue as a Rayleigh
    quotient and to dominate random beamforming directions.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 2 or not np.all(np.isfinite(h)):
        raise ValidationError("channel matrix must be a finite 2-D array")
    n_rx, n_tx = h.shape
    gram_small = h.conj().T @ h if n_tx <= n_rx else h @ h.conj().T
    lam = float(np.linalg.eigvalsh(gram_small)[-1])
    gbar = snr_from_db(snr_db)
    if check:
        gram = h.conj().T @ h
        vals, vecs = np.linalg.eigh(gram)
        w_opt = vecs[:, -1]
        quad = float(np.real(w_opt.conj() @ gram @ w_opt))
        if not abs(quad - lam) <= 1e-10 * max(1.0, lam):
            raise NumericalError(
                f"beamformer Rayleigh quotient {quad!r} misses the largest eigenvalue {lam!r}"
            )
        probe_rng = np.random.default_rng(0)
        for _ in range(8):
            w = probe_rng.standard_normal(n_tx) + 1j * probe_rng.standard_normal(n_tx)
            w /= np.linalg.norm(w)
            probe = float(np.real(w.conj() @ gram @ w))
            if not probe <= lam * (1.0 + 1e-10):
                raise NumericalError(
                    f"a probe direction gains {probe!r}, above the largest eigenvalue {lam!r}"
                )
    return lam, gbar * lam


def _worker_count(workers) -> int:
    """``workers`` checked, with ``None`` read as every CPU this process
    may run on."""
    if workers is None:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # platforms without CPU affinity
            return os.cpu_count() or 1
    if isinstance(workers, bool) or not isinstance(workers, (int, np.integer)) or workers < 1:
        raise ValidationError(f"workers must be None or a positive integer, got {workers!r}")
    return int(workers)


def simulate_lambda_max(cfg: McConfig, workers: int | None = None) -> np.ndarray:
    """All largest-eigenvalue samples for the config (trials,).

    Batch ``i`` holds trials ``i * _BATCH`` onward and is drawn from its
    own stream, so the samples do not depend on ``workers``. Worker ``w``
    of ``W`` takes batches ``w, w + W, ...``; ``workers=None`` (the
    default) uses every CPU this process may run on, and no more workers
    than batches run. Each worker draws into buffers this thread
    allocates before the pool starts: one batch's real normals
    (``n_rx·n_tx·0.5`` MB), and ``_BLOCK`` rows of imaginary normals and
    of complex channels. With the λmax temporaries of a block, a worker
    holds 1.4 MB beyond the real normals on 2x2, 3.4 MB on 3x3 and 7 MB
    on 4x4, besides the (trials,) output. Raises ``ValidationError`` for a
    ``workers`` other than ``None`` or a positive integer, and for a
    correlation matrix that :func:`~mimomrc.correlation.make_pair` refuses
    too (see :func:`~mimomrc.correlation.correlation_eigenvalues`).
    """
    workers = _worker_count(workers)
    if cfg.trials > _BATCH:
        # A sweep of several batches loads scipy.special (for gauss_q)
        # before its first batch allocates. Loaded after such a sweep, the
        # module sits above the heap the batches used, and the next sweep
        # needs new pages: a second 10^6-trial 3x3 sweep then raised the
        # process high-water mark from 101 to 130 MB. One batch is too
        # small for this to matter, and analytic-only use never loads it.
        scipy_special()
    rx, tx = corr_matrices(cfg)
    rx_eigs = correlation_eigenvalues(rx, "receive")
    tx_eigs = correlation_eigenvalues(tx, "transmit")
    std = np.sqrt(0.5 * np.outer(rx_eigs, tx_eigs))
    out = np.empty(cfg.trials)
    batches = math.ceil(cfg.trials / _BATCH)
    workers = min(workers, batches)
    # Allocated here, not in the workers: a pool thread allocates from its
    # own malloc arena, and buffers allocated there raised the peak
    # resident size of the benchmark's Monte-Carlo workload from 100 to
    # 116 MB.
    plane = (min(_BATCH, cfg.trials), cfg.n_rx, cfg.n_tx)
    block = (min(_BLOCK, plane[0]), cfg.n_rx, cfg.n_tx)
    buffers = [
        (np.empty(plane), np.empty(block), np.empty(block, dtype=np.complex128))
        for _ in range(workers)
    ]

    def run(worker):
        real, imag, h = buffers[worker]
        for index in range(worker, batches, workers):
            start = index * _BATCH
            count = min(_BATCH, cfg.trials - start)
            # the stream order of _draw_white: the batch's real block, then
            # its imaginary block, here drawn _BLOCK rows at a time
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

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, range(workers)))
    else:
        run(0)
    return out


def empirical_cdf(cfg: McConfig, grid, workers: int | None = None) -> np.ndarray:
    """Fraction of simulated largest eigenvalues at or below each grid point."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValidationError("grid must be a nonempty 1-D array")
    if np.any(np.diff(grid) < 0.0):
        raise ValidationError("grid must be ascending")
    samples = np.sort(simulate_lambda_max(cfg, workers=workers))
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


def ser_estimate(samples: np.ndarray, mod: Modulation, snr_db: float) -> McResult:
    """Semi-analytic SER over largest-eigenvalue samples: the sample mean
    of a*Q(sqrt(2*b*snr*lambda)).

    Unbiased for the ensemble-average SER with far lower variance than
    symbol counting, which is what the quadrature result is compared to.
    Statistics are taken per ``_BATCH`` samples and merged pairwise, so the
    result does not depend on how the samples were computed.
    """
    gbar = snr_from_db(snr_db)
    stats = []
    for start in range(0, samples.size, _BATCH):
        values = mod.a * gauss_q(np.sqrt(2.0 * mod.b * gbar * samples[start : start + _BATCH]))
        mean = float(values.mean())
        stats.append((values.size, mean, float(((values - mean) ** 2).sum())))
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
    below gamma_th, with its binomial standard error."""
    gamma_th = _threshold(gamma_th)
    gbar = snr_from_db(snr_db)
    p = np.count_nonzero(samples <= gamma_th / gbar) / samples.size
    std_error = math.sqrt(p * (1.0 - p) / samples.size)
    return McResult(estimate=p, std_error=std_error, trials=samples.size)


def mc_ser(cfg: McConfig, mod: Modulation, snr_db: float, workers: int | None = None) -> McResult:
    """:func:`ser_estimate` over the config's samples."""
    return ser_estimate(simulate_lambda_max(cfg, workers=workers), mod, snr_db)


def mc_outage(
    cfg: McConfig, snr_db: float, gamma_th: float, workers: int | None = None
) -> McResult:
    """:func:`outage_estimate` over the config's samples."""
    _threshold(gamma_th)  # refuse before drawing
    return outage_estimate(simulate_lambda_max(cfg, workers=workers), snr_db, gamma_th)
