"""Stochastic validation of the analytic distributions.

Samples correlated complex Gaussian data matrices, extracts extreme
eigenvalues of Z^H Z with LAPACK's Hermitian eigensolver (`eigvalsh`),
and accumulates empirical CDFs with distribution-free
(Dvoretzky-Kiefer-Wolfowitz) confidence bands.  A Haar-unitary average of
the exponential trace functional provides an independent matrix-integral
estimate of the doubly correlated smallest-eigenvalue law.

Randomness is counter based: every value drawn for sample i is a pure
function of (master_seed, i), generated by a vectorized Philox4x32-10
block cipher.  Results are therefore bit-identical for a fixed seed and
sample count no matter how the samples are batched or ordered, and the
stream is bit-identical to earlier releases.

A run works one generation block of samples at a time: the callers cut
the sample indices with `_index_blocks` into blocks of whole samples,
about 16k values (`_BLOCK`) each, and `_complex_normals` draws each
request in place in one pass.  Each block's Gram matrices and eigenvalues, its extreme
eigenvalues counted against the grid by a sorted search, and its Haar
traces and exponentials follow.  Memory therefore does not grow with the
sample count (only `_extreme_eigs`'s output, one double a sample, does),
and every output keeps the bits of whole-run evaluation: a sample's values
never depend on its block-mates, integer counts add exactly, and the Haar
sums are still taken over the same 20 000-sample buffers (`_CHUNK`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .model import ColumnCorrelated, DoublyCorrelated, ModelCase, RowCorrelated

__all__ = [
    "MCConfig",
    "EmpiricalCDF",
    "sample_matrix",
    "empirical_extreme_cdf",
    "haar_hciz_estimate",
]

_M32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_PHILOX_M0 = np.uint64(0xD2511F53)
_PHILOX_M1 = np.uint64(0xCD9E8D57)
_WEYL0 = np.uint64(0x9E3779B9)
_WEYL1 = np.uint64(0xBB67AE85)
_TWO32, _TWO_M64 = 2.0 ** 32, 2.0 ** -64
# counters per generation block; the block's buffers stay in cache
_BLOCK = 16384

# purpose tags separating independent streams drawn for the same sample
_PURPOSE_GAUSSIAN = 0
_PURPOSE_HAAR = 1


def _check_u64(name: str, value) -> int:
    """``value`` as a Python int; ValueError unless an integer in [0, 2**64)."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or not 0 <= value < 2 ** 64):
        raise ValueError(f"{name} must be an integer in [0, 2**64), got {value!r}")
    return int(value)


@dataclass(frozen=True)
class MCConfig:
    """Sample count, master seed and band confidence for a validation run."""

    samples: int
    master_seed: int = 0
    confidence: float = 0.99

    def __post_init__(self):
        if _check_u64("samples", self.samples) < 100:
            raise ValueError("need at least 100 samples")
        if not (0.0 < self.confidence < 1.0):
            raise ValueError("confidence must lie in (0, 1)")
        _check_u64("master_seed", self.master_seed)


@dataclass(frozen=True)
class EmpiricalCDF:
    """Empirical distribution of an extreme eigenvalue over a lambda grid.

    ``fractions[i]`` estimates Pr(lambda_max <= grid[i]) for the max
    statistic and Pr(lambda_min >= grid[i]) for the min statistic, so both
    are directly comparable with the analytic cdf_max/cdf_min curves.
    """

    grid: tuple
    fractions: tuple
    dkw_epsilon: float
    samples: int


def dkw_epsilon(samples: int, confidence: float) -> float:
    """Half-width of the DKW uniform confidence band."""
    alpha = 1.0 - confidence
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * samples))


# ---------------------------------------------------------------------------
# counter-based randomness


def _philox_rounds(x0, x1, x2, x3, seed: int):
    """Ten Philox4x32 rounds on uint64 arrays holding 32-bit lanes.

    Works in place: the four counter arrays are overwritten by the output
    words and returned.
    """
    k0 = np.uint64(seed & 0xFFFFFFFF)
    k1 = np.uint64((seed >> 32) & 0xFFFFFFFF)
    p0 = np.empty_like(x0)
    p1 = np.empty_like(x2)
    for _ in range(10):
        np.multiply(x0, _PHILOX_M0, out=p0)
        np.multiply(x2, _PHILOX_M1, out=p1)
        np.right_shift(p1, _SHIFT32, out=x0)   # x0 <- hi1 ^ x1 ^ k0
        np.bitwise_xor(x0, x1, out=x0)
        np.bitwise_xor(x0, k0, out=x0)
        np.bitwise_and(p1, _M32, out=x1)       # x1 <- lo1
        np.right_shift(p0, _SHIFT32, out=x2)   # x2 <- hi0 ^ x3 ^ k1
        np.bitwise_xor(x2, x3, out=x2)
        np.bitwise_xor(x2, k1, out=x2)
        np.bitwise_and(p0, _M32, out=x3)       # x3 <- lo0
        k0 = (k0 + _WEYL0) & _M32
        k1 = (k1 + _WEYL1) & _M32
    return x0, x1, x2, x3


def _index_blocks(start: int, stop: int, n_entries: int):
    """The sample indices start..stop - 1 as uint64 arrays of whole samples
    of ``n_entries`` values, about `_BLOCK` values (one generation block) each."""
    step = max(1, _BLOCK // n_entries)
    for lo in range(start, stop, step):
        yield np.arange(lo, min(lo + step, stop), dtype=np.uint64)


def _complex_normals(seed: int, sample_indices: np.ndarray, n_entries: int,
                     purpose: int) -> np.ndarray:
    """Standard complex Gaussians, E|g|^2 = 1, shape (len(indices), n_entries).

    Entry b of sample i is a pure function of (seed, i, b, purpose): one
    Philox block supplies two 64-bit uniforms, turned into a complex normal
    by the Box-Muller map, in place and in one pass over the request.
    """
    idx = np.asarray(sample_indices, dtype=np.uint64)
    out = np.empty((idx.size, n_entries), dtype=np.complex128)
    c0, c1 = np.repeat(idx & _M32, n_entries), np.repeat(idx >> _SHIFT32, n_entries)
    c2 = np.tile(np.arange(n_entries, dtype=np.uint64), idx.size)
    c3 = np.full(out.size, purpose, dtype=np.uint64)
    _philox_rounds(c0, c1, c2, c3, seed)
    r, a, t = (np.empty(out.size) for _ in range(3))
    # two 64-bit uniforms hi 2^32 + lo: the words are below 2^32, so their
    # int64 views convert exactly, and the sum rounds once, as a uint64 cast would
    for u, hi, lo in ((r, c0, c1), (a, c2, c3)):
        u[...] = hi.view(np.int64)
        np.multiply(u, _TWO32, out=u)
        np.add(u, lo.view(np.int64), out=u)
    np.add(r, 1.0, out=r)
    np.multiply(r, _TWO_M64, out=r)                # u1 in (0, 1]
    np.log(r, out=r)
    np.negative(r, out=r)
    np.sqrt(r, out=r)                              # Rayleigh for E|g|^2 = 1
    np.multiply(a, _TWO_M64, out=a)                # u2 in [0, 1)
    np.multiply(a, 2.0 * np.pi, out=a)
    flat = out.reshape(-1)
    np.cos(a, out=t)
    np.multiply(r, t, out=flat.real)
    np.sin(a, out=t)
    np.multiply(r, t, out=flat.imag)
    return out


def _sample_batch(case: ModelCase, sample_indices: np.ndarray,
                  master_seed: int) -> np.ndarray:
    # scales only the sides the model correlates: the rows by s^-1/2, the
    # columns by r^-1/2 (the row model's s^-1/2)
    if not isinstance(case, (RowCorrelated, ColumnCorrelated, DoublyCorrelated)):
        raise TypeError(f"unknown model case {type(case).__name__}")
    n, m = case.dims.n, case.dims.m
    z = _complex_normals(master_seed, sample_indices, n * m, _PURPOSE_GAUSSIAN)
    z = z.reshape(len(sample_indices), n, m)
    if not isinstance(case, RowCorrelated):
        z *= 1.0 / np.sqrt(np.array(case.s.values))[:, None]
    if not isinstance(case, ColumnCorrelated):
        cols = case.r if isinstance(case, DoublyCorrelated) else case.s
        z *= 1.0 / np.sqrt(np.array(cols.values))
    return z


def sample_matrix(case: ModelCase, sample_index: int, master_seed: int) -> np.ndarray:
    """One n x m data matrix Z for the given case, sample index and seed.

    Z = L2 G L1^H with G standard complex Gaussian and L1, L2 the Cholesky
    factors of the two covariances; with spectra given directly the factors
    are diagonal (unitary invariance makes that choice harmless).  The draw
    depends only on (master_seed, sample_index), independent of batching.
    Both must be integers in [0, 2**64).
    """
    index = _check_u64("sample_index", sample_index)
    seed = _check_u64("master_seed", master_seed)
    return _sample_batch(case, np.array([index], dtype=np.uint64), seed)[0]


# ---------------------------------------------------------------------------
# Gram eigenvalues by LAPACK


def _gram_eigvals(z: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of Z^H Z for each Z of a stack (B, n, m).
    LAPACK solves every matrix of the stack on its own, so a sample's
    eigenvalues do not depend on its batch-mates."""
    return np.linalg.eigvalsh(np.einsum("bij,bik->bjk", np.conj(z), z))


# ---------------------------------------------------------------------------
# empirical CDFs


def _extreme_blocks(case: ModelCase, cfg: MCConfig, which: str):
    """The ``which`` ("max" or "min") extreme eigenvalue of each sample, one
    generation block of samples at a time, in sample order."""
    for idx in _index_blocks(0, cfg.samples, case.dims.n * case.dims.m):
        w = _gram_eigvals(_sample_batch(case, idx, cfg.master_seed))
        yield w[:, -1] if which == "max" else w[:, 0]


def _extreme_eigs(case: ModelCase, cfg: MCConfig, which: str) -> np.ndarray:
    # (copies: a view would keep its block's every eigenvalue alive)
    return np.concatenate([v.copy() for v in _extreme_blocks(case, cfg, which)])


def empirical_extreme_cdf(case: ModelCase, stat: str, grid: Sequence[float],
                          cfg: MCConfig) -> EmpiricalCDF:
    """Empirical CDF of the chosen extreme eigenvalue over a lambda grid.

    For ``stat="max"`` accumulates Pr-hat(lambda_max <= g); for ``"min"``
    Pr-hat(lambda_min >= g).  Each block of samples adds its integer counts
    per grid point, by a sorted search, so the result does not depend on
    the blocking or evaluation order.
    """
    if stat not in ("max", "min"):
        raise ValueError(f"stat must be 'max' or 'min', got {stat!r}")
    grid = [float(g) for g in grid]
    if any(b <= a for a, b in zip(grid, grid[1:])) or not all(0 < g < math.inf for g in grid):
        raise ValueError("grid must be finite, positive and strictly increasing")
    garr = np.asarray(grid)
    counts = np.zeros(len(grid), dtype=np.int64)
    for values in _extreme_blocks(case, cfg, stat):
        values = np.sort(values)
        if stat == "max":  # values <= g
            counts += np.searchsorted(values, garr, side="right")
        else:  # values >= g
            counts += len(values) - np.searchsorted(values, garr, side="left")
    fractions = counts / float(cfg.samples)
    return EmpiricalCDF(tuple(grid), tuple(fractions.tolist()),
                        dkw_epsilon(cfg.samples, cfg.confidence), cfg.samples)


# ---------------------------------------------------------------------------
# Haar-unitary matrix integral


# samples per sum of the Haar estimate: the sums keep the bits that
# whole-run evaluation, 20 000 samples at a time, gave
_CHUNK = 20000


def _haar_unitaries(n: int, sample_indices: np.ndarray, master_seed: int) -> np.ndarray:
    """Haar unitaries by modified Gram-Schmidt of complex Ginibre matrices.

    MGS makes every diagonal entry of the implicit R factor real positive,
    which is exactly the phase convention that makes the factorization (and
    hence the sample) unique.
    """
    g = _complex_normals(master_seed, sample_indices, n * n, _PURPOSE_HAAR)
    G = g.reshape(len(sample_indices), n, n)
    Q = np.empty_like(G)
    for k in range(n):
        v = G[:, :, k].copy()
        for _ in range(2):  # one reorthogonalization pass
            for j in range(k):
                proj = np.sum(np.conj(Q[:, :, j]) * v, axis=1)
                v -= proj[:, None] * Q[:, :, j]
        r = np.sqrt(np.sum(np.abs(v) ** 2, axis=1))
        Q[:, :, k] = v / r[:, None]
    return Q


def haar_hciz_estimate(lam: float, r: Sequence[float], s: Sequence[float],
                       cfg: MCConfig) -> Tuple[float, float]:
    """Monte Carlo average of exp(-lam Tr(R V^H S V)) over Haar unitaries.

    R and S are the diagonal matrices of the two spectra (same length n).
    Returns (mean, standard error).  This matrix integral equals the
    doubly correlated smallest-eigenvalue probability at m = n, giving an
    independent stochastic check of that determinant formula.
    """
    rv = np.asarray([float(v) for v in r])
    sv = np.asarray([float(v) for v in s])
    if rv.shape != sv.shape or rv.size == 0:
        raise ValueError("spectra must be nonempty and of the same length")
    if not all(0 < v < math.inf for v in [lam, *rv, *sv]):
        raise ValueError("lam and the spectra must be finite and positive")
    n = len(rv)
    total = total_sq = 0.0
    for chunk in range(0, cfg.samples, _CHUNK):
        # Tr(R V^H S V) = sum_{l,j} s_l r_j |V_{l j}|^2, one generation block at a time
        vals = np.concatenate([
            np.exp(-lam * np.einsum("blj,l,j->b",
                                    np.abs(_haar_unitaries(n, idx, cfg.master_seed)) ** 2, sv, rv))
            for idx in _index_blocks(chunk, min(chunk + _CHUNK, cfg.samples), n * n)])
        total += float(vals.sum())
        total_sq += float((vals ** 2).sum())
    mean = total / cfg.samples
    var = max(total_sq / cfg.samples - mean * mean, 0.0)
    stderr = math.sqrt(var / cfg.samples)
    return mean, stderr
