import hashlib
import math
import types

import numpy as np
import pytest

from corrwishart.detform import cdf_min
from corrwishart.model import (
    ColumnCorrelated,
    Dimensions,
    DoublyCorrelated,
    RowCorrelated,
    validate_spectrum,
)
from corrwishart.montecarlo import (
    MCConfig,
    dkw_epsilon,
    empirical_extreme_cdf,
    haar_hciz_estimate,
    sample_matrix,
)
from corrwishart.montecarlo import (
    _BLOCK,
    _CHUNK,
    _complex_normals,
    _extreme_eigs,
    _gram_eigvals,
    _haar_unitaries,
    _philox_rounds,
    _sample_batch,
)


def row_case(n, m, s):
    return RowCorrelated(Dimensions(n, m), validate_spectrum(s))


class TestGramEigvals:
    def test_batch_composition_does_not_change_results(self):
        # a sample whose Gram matrix is already diagonal, batched with a
        # dense one, must come out bit-identical to solving it alone
        rng = np.random.default_rng(55)
        easy = np.diag(np.sqrt([1.0, 2.0, 3.0])).astype(complex)
        hard = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        together = _gram_eigvals(np.stack([easy, hard]))
        alone_easy = _gram_eigvals(easy[None])
        alone_hard = _gram_eigvals(hard[None])
        assert np.array_equal(together[0], alone_easy[0])
        assert np.array_equal(together[1], alone_hard[0])
        assert np.allclose(together[0], [1.0, 2.0, 3.0], rtol=1e-14)


class TestSampling:
    def test_deterministic(self):
        case = row_case(3, 2, [1.0, 2.0])
        z1 = sample_matrix(case, 11, 987654321)
        z2 = sample_matrix(case, 11, 987654321)
        assert np.array_equal(z1, z2)

    def test_rejects_non_case(self):
        with pytest.raises(TypeError, match="unknown model case"):
            sample_matrix(object(), 0, 0)

    def test_batch_equals_single(self):
        case = row_case(2, 2, [1.0, 2.0])
        batch = _sample_batch(case, np.arange(5, dtype=np.uint64), 42)
        for i in range(5):
            assert np.array_equal(batch[i], sample_matrix(case, i, 42))

    @pytest.mark.parametrize("case", [
        row_case(1, 1, [1.0]),
        row_case(3, 2, [1.0, 2.0]),
        DoublyCorrelated(Dimensions(3, 3), validate_spectrum([1.0, 2.0, 3.0]),
                         validate_spectrum([0.5, 1.5, 2.5])),
    ], ids=["1x1", "row3x2", "doubly3x3"])
    def test_batch_equals_single_across_blocks(self, case):
        # the runs cut their samples into blocks of about _BLOCK counters
        # (`_index_blocks`); a sample's bits must not depend on where a block
        # boundary falls, nor on the size of the request that draws it
        N = _BLOCK + 6
        batch = _sample_batch(case, np.arange(N, dtype=np.uint64), 2024)
        step = max(1, _BLOCK // (case.dims.n * case.dims.m))
        boundaries = range(step, N, step)
        check = {0, 1, N - 1, *boundaries, *(b - 1 for b in boundaries)}
        for i in sorted(check):
            assert np.array_equal(batch[i], sample_matrix(case, i, 2024))

    def test_empty_batch(self):
        case = row_case(3, 2, [1.0, 2.0])
        assert _sample_batch(case, np.arange(0, dtype=np.uint64), 1).shape == (0, 3, 2)

    @pytest.mark.parametrize("index,seed", [
        (0, 2 ** 64), (0, -1), (0, 1.0), (0, None),
        (2 ** 64, 0), (-1, 0), (1.5, 0), (np.float64(2.0), 0),
    ], ids=["seed-2^64", "seed-negative", "seed-float", "seed-none",
            "index-2^64", "index-negative", "index-float", "index-numpy-float"])
    def test_sample_matrix_rejects_out_of_range(self, index, seed):
        # out-of-range values used to wrap modulo 2^64 or truncate silently
        with pytest.raises(ValueError):
            sample_matrix(row_case(2, 2, [1.0, 2.0]), index, seed)

    def test_sample_matrix_accepts_full_range(self):
        case = row_case(2, 2, [1.0, 2.0])
        top = sample_matrix(case, 2 ** 64 - 1, 2 ** 64 - 1)
        assert np.array_equal(top, sample_matrix(case, np.uint64(2 ** 64 - 1),
                                                 np.uint64(2 ** 64 - 1)))
        assert not np.array_equal(sample_matrix(case, 0, 2 ** 64 - 1),
                                  sample_matrix(case, 0, 0))

    def test_different_indices_differ(self):
        case = row_case(2, 2, [1.0, 2.0])
        assert not np.array_equal(sample_matrix(case, 0, 1), sample_matrix(case, 1, 1))

    def test_white_row_case_covariance(self):
        # vec(Z) of the all-ones spectrum has identity covariance
        case = row_case(2, 2, [1.0, 1.0 + 1e-6])
        N = 100000
        z = _sample_batch(case, np.arange(N, dtype=np.uint64), 7)
        vec = z.reshape(N, -1)
        cov = vec.conj().T @ vec / N
        tol = 3.0 / math.sqrt(N)
        assert np.max(np.abs(cov - np.eye(4))) <= tol

    def test_doubly_trace_moment(self):
        # E[Tr(S Z^H) pairing] normalizes to one under the model density
        r = [1.0, 2.0]
        s = [0.5, 1.5, 2.5]
        case = DoublyCorrelated(Dimensions(3, 2), validate_spectrum(r),
                                validate_spectrum(s))
        N = 50000
        z = _sample_batch(case, np.arange(N, dtype=np.uint64), 5)
        rv = np.array(case.r.values)
        sv = np.array(case.s.values)
        # Tr(Sigma2^-1 Z Sigma1^-1 Z^H) = sum_{j,k} s_j r_k |Z_jk|^2
        tr = np.einsum("bjk,j,k->b", np.abs(z) ** 2, sv, rv)
        mean = tr.mean() / (3 * 2)
        assert abs(mean - 1.0) <= 3.0 / math.sqrt(N)

    def test_gaussian_moments(self):
        case = row_case(1, 1, [1.0])
        N = 200000
        z = _sample_batch(case, np.arange(N, dtype=np.uint64), 99)[:, 0, 0]
        assert abs(np.mean(z.real)) <= 4.0 / math.sqrt(2 * N)
        assert abs(np.mean(np.abs(z) ** 2) - 1.0) <= 4.0 / math.sqrt(N)


def digest(a):
    """sha256 of an array's raw 64-bit words."""
    return hashlib.sha256(np.ascontiguousarray(a).view(np.uint64).tobytes()).hexdigest()


def reference_complex_normals(seed, idx, n_entries, purpose):
    """Philox4x32-10 plus Box-Muller as whole-array expressions, unblocked."""
    m32 = np.uint64(0xFFFFFFFF)
    shape = (idx.size, n_entries)
    x0 = np.broadcast_to((idx & m32)[:, None], shape).copy()
    x1 = np.broadcast_to((idx >> np.uint64(32))[:, None], shape).copy()
    x2 = np.broadcast_to(np.arange(n_entries, dtype=np.uint64)[None, :], shape).copy()
    x3 = np.full(shape, np.uint64(purpose))
    k0 = np.uint64(seed & 0xFFFFFFFF)
    k1 = np.uint64(seed >> 32)
    for _ in range(10):
        p0 = np.uint64(0xD2511F53) * x0
        p1 = np.uint64(0xCD9E8D57) * x2
        x0, x1, x2, x3 = ((p1 >> np.uint64(32)) ^ x1 ^ k0, p1 & m32,
                          (p0 >> np.uint64(32)) ^ x3 ^ k1, p0 & m32)
        k0 = (k0 + np.uint64(0x9E3779B9)) & m32
        k1 = (k1 + np.uint64(0xBB67AE85)) & m32
    u1 = (((x0 << np.uint64(32)) | x1).astype(np.float64) + 1.0) / 2.0 ** 64
    u2 = ((x2 << np.uint64(32)) | x3).astype(np.float64) / 2.0 ** 64
    radius = np.sqrt(-np.log(u1))
    angle = 2.0 * np.pi * u2
    return radius * (np.cos(angle) + 1j * np.sin(angle))


class TestStreamPinned:
    """The random stream is part of the interface: a fixed (seed, index)
    must give the same bits in every release.  The digests were taken with
    numpy 2.4 on x86-64 (AVX-512 dispatch of log, sin and cos)."""

    @pytest.mark.parametrize("counter,key,want", [
        ((0, 0, 0, 0), (0, 0),
         (0x6627e8d5, 0xe169c58d, 0xbc57ac4c, 0x9b00dbd8)),
        ((0xffffffff,) * 4, (0xffffffff,) * 2,
         (0x408f276d, 0x41c83b0e, 0xa20bc7c6, 0x6d5451fd)),
        ((0x243f6a88, 0x85a308d3, 0x13198a2e, 0x03707344), (0xa4093822, 0x299f31d0),
         (0xd16cfe09, 0x94fdcceb, 0x5001e420, 0x24126ea1)),
    ], ids=["zeros", "ones", "pi"])
    def test_philox_known_answers(self, counter, key, want):
        # Random123's philox4x32_10 known-answer vectors
        x = [np.array([c], dtype=np.uint64) for c in counter]
        got = _philox_rounds(*x, key[0] | (key[1] << 32))
        assert tuple(int(o[0]) for o in got) == want

    @pytest.mark.parametrize("seed,lo,hi,n_entries,purpose,want", [
        (0, 0, 5, 4, 0,
         "0ae5ec8528db565438387e16e06380d727e88ebf8a94c1e366601b33297cfff8"),
        (2 ** 64 - 1, 2 ** 32 - 3, 2 ** 32 + 3, 6, 0,
         "cf01d188ca46e07421ff69f16cacce1a90defaf9746f0dc02201df8e93d28415"),
        (123456789, 2 ** 63, 2 ** 63 + 10, 9, 1,
         "88187c0649035007a9d9787c5c76660b85527fc149ce4d86b522997096d6beb1"),
        (42, 0, 16383, 1, 0,
         "7eae90effee431ec97459eb09df06e2b4c19b624eda3e3d0ce622e979505701e"),
        (42, 0, 16385, 1, 0,
         "334666f2ce14e3f33c1527739dd87f9cbac3242701e49d18eee9d98315c1bc11"),
        (7, 0, 3, 16384, 0,
         "e1a020bc4f6ba758277ad5679590fb1531f14e6345bae80913e753f6de0d12b6"),
        (7, 5, 7, 16385, 1,
         "97e58cb95cc1fffb9b0cf550a454e85825b073a3fb6f14e4229b9fa9bac1139f"),
        (2026, 0, 700, 24, 0,
         "65c3b9f7b4424ead667530812f3bdfb3896683125557bfea3b0d0100665f4cd8"),
        (99, 2 ** 40, 2 ** 40 + 3641, 9, 1,
         "a2d523167c28968e6e183eed0794b00adee71f1c8f3254836df644bfdf3f9759"),
    ])
    def test_complex_normals_digest(self, seed, lo, hi, n_entries, purpose, want):
        g = _complex_normals(seed, np.arange(lo, hi, dtype=np.uint64), n_entries, purpose)
        assert g.shape == (hi - lo, n_entries)
        assert digest(g) == want

    @pytest.mark.parametrize("rows,n_entries", [(0, 3), (1, 1), (16385, 1), (3, 16385),
                                                (700, 24), (2000, 9)])
    def test_complex_normals_match_reference(self, rows, n_entries):
        # portable check of the same stream: one unblocked pass of the same ufuncs
        idx = np.arange(2 ** 32 - 5, 2 ** 32 - 5 + rows, dtype=np.uint64)
        got = _complex_normals(31337, idx, n_entries, 0)
        want = reference_complex_normals(31337, idx, n_entries, 0)
        assert got.shape == want.shape == (rows, n_entries)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_haar_digest(self):
        V = _haar_unitaries(3, np.arange(64, dtype=np.uint64), 17)
        assert digest(V) == \
            "17408441048f8c31a97037ef3fd2e91e49866ab8cc2e33852df066f2404885b4"

    def test_empirical_cdf_digest(self):
        emp = empirical_extreme_cdf(row_case(3, 2, [1.0, 2.0]), "max",
                                    list(np.linspace(0.5, 8.0, 16)),
                                    MCConfig(samples=5000, master_seed=11))
        assert digest(np.asarray(emp.fractions)) == \
            "cbeba81910e4e6cb26431a3d193d0612ab8cee6029eecd5284252e8041798502"


ROW_16X12 = row_case(16, 12, list(np.linspace(0.5, 4.0, 12)))
DOUBLY_3X3 = DoublyCorrelated(Dimensions(3, 3), validate_spectrum([1.0, 2.0, 3.2]),
                              validate_spectrum([0.9, 1.8, 3.1]))
# n -> (r, s, lam)
HAAR_CASES = {2: ([1.0, 2.0], [1.0, 3.0], 0.7), 3: ([1.0, 1.7, 2.6], [0.8, 1.9, 3.1], 0.5),
              6: ([0.6, 1.0, 1.5, 2.1, 2.8, 3.6], [0.5, 0.9, 1.4, 2.0, 2.7, 3.5], 0.2)}


@pytest.fixture(scope="module")
def row_16x12_cdf_run(traced_peak):
    # one 45 000-sample run on a 1000-point grid, for its digest and its memory peak
    grid = list(np.linspace(15.0, 90.0, 1000))
    return traced_peak(lambda: empirical_extreme_cdf(ROW_16X12, "max", grid,
                                                     MCConfig(samples=45000, master_seed=1618)))


class TestRunsPinned:
    """Whole runs past the 20 000 samples that were once evaluated together,
    pinned like the stream (numpy 2.4, x86-64)."""

    @pytest.mark.parametrize("n,samples,want", [
        (2, 20000, "98bea5a09157fd90c42f6f98a44dc60e11b8b4b10b6022f3eae917c8fd0ebbae"),
        (2, 45000, "5153728bf63055f66df7a5ba575560952bda2c836ae01a2c8c4915a64e49c985"),
        (3, 20000, "552f23ca28d73322576fe2e96e571cb069ea892d8b730e595ade2787330cd3fc"),
        (3, 45000, "28b83318909ef8e5c2b654d9eff06040d40e7825e3245270c01e4e37173ceee7"),
        (6, 20000, "61e6986dd6cccff9fc87ff17bba3190d5e5d8076cece03ccf9a5f3194c0fe764"),
        (6, 45000, "879abb80a72809c53321632beac651cd2cbaf3b171829c5bc3b70808d8e5bd13"),
    ])
    def test_haar_estimate_digest(self, n, samples, want):
        r, s, lam = HAAR_CASES[n]
        got = haar_hciz_estimate(lam, r, s, MCConfig(samples=samples, master_seed=2718))
        assert digest(np.array(got)) == want

    @pytest.mark.parametrize("case,stat,want", [
        (ROW_16X12, "max", "f809ced49f61d667909f3d73073828f799ac9761e077fcef4498583c930eae58"),
        (ROW_16X12, "min", "3cea244b27578a5fa139f6d7ba3e0871091e731ffc5ef0bb65066338b7bdfd7f"),
        (DOUBLY_3X3, "max", "18822719ad18b7044f97daf3a702ea06a09428251396eba8a5b3a276c60dd392"),
        (DOUBLY_3X3, "min", "37abe0321c8eec2623756b49bb5fc826c7209ed0a26baf8c0af9fd2b49f3be32"),
    ], ids=["row16x12-max", "row16x12-min", "doubly3x3-max", "doubly3x3-min"])
    def test_extreme_eigs_digest(self, case, stat, want):
        got = _extreme_eigs(case, MCConfig(samples=45000, master_seed=1618), stat)
        assert got.shape == (45000,)
        assert digest(got) == want

    def test_row_cdf_digest(self, row_16x12_cdf_run):
        emp, _ = row_16x12_cdf_run
        assert digest(np.asarray(emp.fractions)) == \
            "2ba4eb55bec2541607bf6d72fcd84313b1f9aa070853f47004fdd368c048b14d"

    def test_doubly_min_cdf_digest(self):
        emp = empirical_extreme_cdf(DOUBLY_3X3, "min", list(np.geomspace(1e-4, 1.0, 40)),
                                    MCConfig(samples=45000, master_seed=1618))
        assert digest(np.asarray(emp.fractions)) == \
            "48e782cd32ce65d7a19ffb000b6a8a83fc1ece281e76dc756ce415fe041467ca"


def run_config(samples, seed):
    """What the blocked loops read of an `MCConfig`, without its 100-sample
    floor, so that a run of one sample or one block - 1 reaches them."""
    return types.SimpleNamespace(samples=samples, master_seed=seed, confidence=0.99)


def reference_extremes(case, samples, seed):
    """Every sample's (smallest, largest) eigenvalue from one unblocked batch."""
    w = _gram_eigvals(_sample_batch(case, np.arange(samples, dtype=np.uint64), seed))
    return w[:, 0], w[:, -1]


def reference_haar(lam, r, s, samples, seed):
    """The Haar estimate from one unblocked batch of unitaries, its sums
    taken per 20 000 samples, as whole-run evaluation took them."""
    rv, sv = np.asarray(r), np.asarray(s)
    absV2 = np.abs(_haar_unitaries(len(rv), np.arange(samples, dtype=np.uint64), seed)) ** 2
    vals = np.exp(-lam * np.einsum("blj,l,j->b", absV2, sv, rv))
    total = total_sq = 0.0
    for start in range(0, samples, 20000):
        chunk = vals[start:start + 20000]
        total += float(chunk.sum())
        total_sq += float((chunk ** 2).sum())
    mean = total / samples
    return mean, math.sqrt(max(total_sq / samples - mean * mean, 0.0) / samples)


def boundary_counts(entries, largest):
    """1, one generation block - 1, one block and one block + 1 samples, for
    samples of ``entries`` values, and 20 001 (past `_CHUNK`) when the
    unblocked reference stays small (``largest``)."""
    block = _BLOCK // entries
    return sorted({1, max(block - 1, 1), block, block + 1}
                  | ({_CHUNK + 1} if _CHUNK * entries <= largest else set()))


BLOCK_CASES = {
    "row1x1": row_case(1, 1, [1.0]),
    "doubly3x3": DOUBLY_3X3,
    "row4x3": row_case(4, 3, [0.7, 1.5, 3.0]),
    "column6x4": ColumnCorrelated(Dimensions(6, 4),
                                  validate_spectrum([0.6, 1.1, 1.8, 2.7, 3.4, 4.0])),
    "row8x6": row_case(8, 6, [0.5, 1.0, 1.7, 2.4, 3.3, 4.1]),
    "row16x12": ROW_16X12,
}
# (a 20 001-sample run of row 16x12 is pinned above at 45 000 samples)
BLOCK_RUNS = [(kind, samples) for kind, case in BLOCK_CASES.items()
              for samples in boundary_counts(case.dims.n * case.dims.m, 24 * 20000)]
HAAR_RUNS = [(n, samples) for n in range(1, 7) for samples in boundary_counts(n * n, 36 * 20000)]


class TestBlockBoundaries:
    """A run cut into generation blocks gives what one unblocked batch gives,
    bit for bit, wherever the last block ends."""

    @pytest.mark.parametrize("kind,samples", BLOCK_RUNS,
                             ids=[f"{k}-{s}" for k, s in BLOCK_RUNS])
    def test_extremes_and_counts_equal_one_batch(self, kind, samples):
        case = BLOCK_CASES[kind]
        cfg = run_config(samples, 4242)
        lo, hi = reference_extremes(case, samples, 4242)
        assert np.array_equal(_extreme_eigs(case, cfg, "min"), lo)
        assert np.array_equal(_extreme_eigs(case, cfg, "max"), hi)
        for stat, want in (("min", lo), ("max", hi)):
            # grid points at sample values, where a count must take its ties
            grid = np.unique(np.concatenate([want[::max(1, samples // 9)],
                                             np.quantile(want, [0.1, 0.5, 0.9])]))
            grid = grid[grid > 0.0]
            below = want[:, None] <= grid if stat == "max" else want[:, None] >= grid
            emp = empirical_extreme_cdf(case, stat, grid.tolist(), cfg)
            assert emp.fractions == tuple((below.sum(axis=0) / float(samples)).tolist())

    @pytest.mark.parametrize("n,samples", HAAR_RUNS, ids=[f"n{n}-{s}" for n, s in HAAR_RUNS])
    def test_haar_equals_one_batch(self, n, samples):
        r, s = np.linspace(0.5, 3.0, n).tolist(), np.linspace(0.8, 2.5, n).tolist()
        got = haar_hciz_estimate(0.4, r, s, run_config(samples, 99))
        assert repr(got) == repr(reference_haar(0.4, r, s, samples, 99))


class TestMemoryBounded:
    # counting once formed a (samples x grid) matrix (164 MB here), and the
    # Haar and eigenvalue stages held 20 000 samples' arrays (27 MB at n = 6)
    def test_row_cdf(self, row_16x12_cdf_run):
        assert row_16x12_cdf_run[1] < 10.0

    def test_haar(self, traced_peak):
        r, s, lam = HAAR_CASES[6]
        assert traced_peak(lambda: haar_hciz_estimate(
            lam, r, s, MCConfig(samples=20000, master_seed=2718)))[1] < 5.0


class TestEmpiricalCDF:
    def test_single_eigenvalue_dkw(self):
        case = row_case(1, 1, [1.0])
        cfg = MCConfig(samples=200000, master_seed=2026)
        emp = empirical_extreme_cdf(case, "max", [0.5, 1.0, 2.0], cfg)
        assert emp.dkw_epsilon == pytest.approx(0.00364, abs=2e-5)
        for lam, frac in zip(emp.grid, emp.fractions):
            assert abs(frac - (1.0 - math.exp(-lam))) <= emp.dkw_epsilon

    def test_doubly_square_inside_band(self):
        # doubly correlated n = m = 2 with a nudged second spectrum, full-size run
        case = DoublyCorrelated(Dimensions(2, 2), validate_spectrum([1.0, 2.0]),
                                validate_spectrum([1.001, 2.001]))
        cfg = MCConfig(samples=200000, master_seed=77)
        grid = list(np.linspace(0.2, 4.0, 12))
        emp = empirical_extreme_cdf(case, "max", grid, cfg)
        from corrwishart.detform import cdf_max
        for lam, frac in zip(emp.grid, emp.fractions):
            assert abs(frac - cdf_max(case, lam).value) <= emp.dkw_epsilon

    def test_min_fractions_nonincreasing(self):
        case = row_case(3, 2, [1.0, 2.0])
        cfg = MCConfig(samples=2000, master_seed=0)
        emp = empirical_extreme_cdf(case, "min", list(np.linspace(0.05, 2.0, 12)), cfg)
        assert all(b <= a for a, b in zip(emp.fractions, emp.fractions[1:]))

    def test_dkw_scaling(self):
        e1 = dkw_epsilon(100, 0.99)
        e2 = dkw_epsilon(10000, 0.99)
        assert e1 / e2 == pytest.approx(10.0, rel=1e-12)

    def test_eigenvalue_count_and_positivity(self):
        case = ColumnCorrelated(Dimensions(3, 2), validate_spectrum([1.0, 2.0, 3.0]))
        z = _sample_batch(case, np.arange(200, dtype=np.uint64), 3)
        gram = np.einsum("bij,bik->bjk", np.conj(z), z)
        w = _gram_eigvals(z)
        assert w.shape == (200, 2)
        norms = np.linalg.norm(gram, axis=(1, 2))
        assert np.all(w[:, 0] >= -1e-10 * norms)

    @staticmethod
    def gap_inside_binomial_band(case, a, b):
        # the two-sided event {lambda_min >= a and lambda_max <= b} has no DKW
        # band, so use a plain binomial error bar at a fixed seed
        from corrwishart.detform import prob_gap
        N = 200000
        count = 0
        for start in range(0, N, 20000):
            idx = np.arange(start, min(start + 20000, N), dtype=np.uint64)
            w = _gram_eigvals(_sample_batch(case, idx, 314159))
            count += int(np.sum((w[:, 0] >= a) & (w[:, -1] <= b)))
        emp = count / N
        ana = prob_gap(case, a, b).value
        se = math.sqrt(emp * (1 - emp) / N)
        assert abs(emp - ana) <= 4.0 * se

    def test_gap_probability_inside_binomial_band(self):
        self.gap_inside_binomial_band(row_case(3, 2, [1.0, 2.0]), 0.35, 3.0)

    def test_square_column_gap_inside_binomial_band(self):
        # the column sampler at n = m against the row law it is evaluated by
        case = ColumnCorrelated(Dimensions(3, 3), validate_spectrum([0.6, 1.1, 1.8]))
        self.gap_inside_binomial_band(case, 0.3, 4.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MCConfig(samples=50)
        for samples in (150.5, np.float64(200), True):
            with pytest.raises(ValueError, match="samples must be an integer"):
                MCConfig(samples=samples)
        assert MCConfig(samples=np.int64(200)).samples == 200
        with pytest.raises(ValueError):
            MCConfig(samples=1000, confidence=1.0)
        with pytest.raises(ValueError):
            MCConfig(samples=1000, master_seed=2 ** 64)
        with pytest.raises(ValueError):
            MCConfig(samples=1000, master_seed=1.5)
        with pytest.raises(ValueError):
            empirical_extreme_cdf(row_case(1, 1, [1.0]), "median", [1.0],
                                  MCConfig(samples=100))
        with pytest.raises(ValueError):
            empirical_extreme_cdf(row_case(1, 1, [1.0]), "max", [2.0, 1.0],
                                  MCConfig(samples=100))


class TestHaar:
    def test_unitarity(self):
        V = _haar_unitaries(4, np.arange(64, dtype=np.uint64), 17)
        eye = np.eye(4)
        for i in range(64):
            assert np.linalg.norm(V[i].conj().T @ V[i] - eye) <= 1e-12

    def test_n1_exact(self):
        mean, se = haar_hciz_estimate(0.9, [2.0], [3.0], MCConfig(samples=500))
        assert mean == pytest.approx(math.exp(-0.9 * 6.0), abs=1e-14)
        assert se <= 1e-14

    def test_scalar_spectra_constant(self):
        mean, se = haar_hciz_estimate(0.5, [1.0, 1.0], [1.0, 1.0],
                                      MCConfig(samples=500))
        assert mean == pytest.approx(math.exp(-0.5 * 2.0), abs=1e-12)

    def test_matches_determinant_formula(self):
        cfg = MCConfig(samples=100000, master_seed=20260807)
        mean, se = haar_hciz_estimate(0.7, [1.0, 2.0], [1.0, 3.0], cfg)
        case = DoublyCorrelated(Dimensions(2, 2), validate_spectrum([1.0, 2.0]),
                                validate_spectrum([1.0, 3.0]))
        ana = cdf_min(case, 0.7).value
        assert abs(mean - ana) <= 3.0 * se

    def test_rejects_mismatched_spectra(self):
        with pytest.raises(ValueError):
            haar_hciz_estimate(1.0, [1.0], [1.0, 2.0], MCConfig(samples=100))


@pytest.mark.parametrize("call", [
    lambda cfg: haar_hciz_estimate(math.inf, [1.0, 2.0], [1.0, 3.0], cfg),
    lambda cfg: haar_hciz_estimate(math.nan, [1.0, 2.0], [1.0, 3.0], cfg),
    lambda cfg: haar_hciz_estimate(0.5, [-1.0, 2.0], [1.0, 3.0], cfg),
    lambda cfg: haar_hciz_estimate(0.5, [1.0, 2.0], [0.0, 3.0], cfg),
    lambda cfg: haar_hciz_estimate(0.5, [1.0, math.nan], [1.0, 3.0], cfg),
    lambda cfg: haar_hciz_estimate(0.5, [1.0, 2.0], [1.0, math.inf], cfg),
    lambda cfg: haar_hciz_estimate(0.5, [], [], cfg),
    lambda cfg: empirical_extreme_cdf(row_case(1, 1, [1.0]), "max", [math.nan], cfg),
    lambda cfg: empirical_extreme_cdf(row_case(1, 1, [1.0]), "min", [1.0, math.inf], cfg),
], ids=["lam-inf", "lam-nan", "r-negative", "s-zero", "r-nan", "s-inf", "empty-spectra",
        "grid-nan", "grid-inf"])
def test_monte_carlo_rejects_unusable_input(call):
    with pytest.raises(ValueError):
        call(MCConfig(samples=100))
