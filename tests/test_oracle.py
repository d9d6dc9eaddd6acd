import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import blockspectra as bs
from blockspectra import covariance as cov, errors, oracle as orc
from blockspectra.oracle import EnsembleSample

from conftest import random_hh_star_spec, random_selfadjoint_spec
from reference_laws import semicircle_cdf


# rectangular blocks of relative sizes 1/3 and 2/3, coupled only through
# sigma(1,2;2,1), which pairs the two off-square blocks
RECT = bs.rectangular_covariance(
    (1 / 3, 2 / 3), [(1, 1, 1, 1, 1.0), (2, 2, 2, 2, 1.0), (1, 2, 2, 1, 0.6)]
)


def _assert_pairing(x, y, want, n):
    """The mean of x * y is want / n, to within 5 standard errors."""
    prod = (x * y).ravel()
    est = prod.mean() * n
    se = prod.std() * n / np.sqrt(prod.size)
    assert abs(est - want) <= 5 * max(se, 1e-12)


class TestSampling:
    def test_seeded_determinism(self, isi44):
        s1 = bs.sample_block_gaussian(isi44, 20, 99)
        s2 = bs.sample_block_gaussian(isi44, 20, 99)
        assert np.array_equal(s1.matrix, s2.matrix)
        assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
        s3 = bs.sample_block_gaussian(isi44, 20, 100)
        assert not np.array_equal(s1.matrix, s3.matrix)

    def test_selfadjoint_exact_hermiticity(self):
        rng = np.random.default_rng(0)
        spec = random_selfadjoint_spec(3, rng)
        s = bs.sample_block_gaussian(spec, 40, 7)
        assert np.abs(s.matrix - s.matrix.conj().T).max() == 0.0

    def test_gue_entry_variance(self):
        spec = bs.selfadjoint_covariance(1, [(1, 1, 1, 1, 1.0)])
        N = 1000
        s = bs.sample_block_gaussian(spec, N, 11)
        off = s.matrix[np.triu_indices(N, 1)]
        m = off.size
        # |a|^2 is exponential with mean 1/N: sd of the sample mean = 1/(N sqrt(m))
        assert abs((np.abs(off) ** 2).mean() - 1.0 / N) <= 3.0 / (N * np.sqrt(m))

    def test_hh_star_circularity(self, mp_spec):
        N = 400
        s = bs.sample_block_gaussian(mp_spec, N, 13)
        H = s.matrix
        m = H.size
        second = (H**2).flatten().mean()
        # E[h^2] = 0 in law; 3 standard errors of the mean
        se = np.abs(H.flatten() ** 2).std() / np.sqrt(m)
        assert abs(second) <= 3 * se

    def test_entry_covariance_matches_spec(self):
        rng = np.random.default_rng(3)
        spec = random_selfadjoint_spec(2, rng)
        table = {e[:4]: e[4] for e in spec.entries}
        N = 500
        s = bs.sample_block_gaussian(spec, N, 21)
        X = s.matrix
        blocks = {
            (i, j): X[i * N:(i + 1) * N, j * N:(j + 1) * N]
            for i in range(2) for j in range(2)
        }
        n = 2 * N
        iu = np.triu_indices(N, 1)
        for (i, j, k, l), want in table.items():
            # E[a^(ij)_rp a^(kl)_pr] = sigma(i,j;k,l)/n over r<p positions
            prod = blocks[(i - 1, j - 1)][iu] * blocks[(k - 1, l - 1)].T[iu]
            est = prod.mean() * n
            se = prod.std() * n / np.sqrt(prod.size)
            assert abs(est - want) <= 5 * max(se, 1e-12)

    @pytest.mark.parametrize("positions", ["diagonal", "transposed"])
    def test_entry_covariance_off_the_upper_triangle(self, positions):
        # E[a^(ij)_rp a^(kl)_pr] = sigma(i,j;k,l)/n also for r = p and r > p
        spec = random_selfadjoint_spec(2, np.random.default_rng(3))
        N = 500
        X = bs.sample_block_gaussian(spec, N, 21).matrix
        idx = np.diag_indices(N) if positions == "diagonal" else np.tril_indices(N, -1)
        for (i, j, k, l, want) in spec.entries:
            x = X[(i - 1) * N:i * N, (j - 1) * N:j * N][idx]
            y = X[(k - 1) * N:k * N, (l - 1) * N:l * N].T[idx]
            _assert_pairing(x, y, want, 2 * N)

    def test_rectangular_off_square_blocks(self):
        # n = 2N rows in blocks of 2N/3 and 4N/3; the two off-square blocks
        # pair as sigma(1,2;2,1)/n, and E[x^2] = 0 for circular entries
        N = 90
        X = bs.sample_block_gaussian(RECT, N, 8).matrix
        X12, X21 = X[:60, 60:], X[60:, :60]
        assert X12.shape == (60, 120)
        _assert_pairing(X12, X21.T, 0.6, 2 * N)
        _assert_pairing(X12, X12.conj(), 0.6, 2 * N)
        _assert_pairing(X12, X12, 0.0, 2 * N)

    def test_rectangular_block_sizes(self):
        spec = bs.rectangular_covariance(
            (1 / 3, 2 / 3), [(1, 1, 1, 1, 1.0), (2, 2, 2, 2, 1.0)]
        )
        s = bs.sample_block_gaussian(spec, 30, 5)
        X = s.matrix
        # blocks of 20 and 40 rows; the spec couples no block to the other
        assert X.shape == (60, 60)
        assert np.abs(X - X.conj().T).max() == 0.0
        assert np.all(X[:20, 20:] == 0) and np.all(X[20:, :20] == 0)
        assert np.abs(X[:20, :20]).min() > 0 and np.abs(X[20:, 20:]).min() > 0

    def test_hh_star_sample_holds_channel(self, isi44):
        N = 15
        s = bs.sample_block_gaussian(isi44, N, 3)
        H = s.matrix
        assert H.shape == (isi44.a * N, isi44.b * N)
        want = np.linalg.eigvalsh(H @ H.conj().T)
        assert np.abs(s.eigenvalues - want).max() <= 1e-12 * np.abs(want).max()

    def test_zero_variance_blocks_exactly_zero(self, isi44):
        N = 15
        H = bs.sample_block_gaussian(isi44, N, 3).matrix
        var = np.diagonal(cov._tau_array(isi44).reshape(isi44.a * isi44.b, -1))
        blocks = H.reshape(isi44.a, N, isi44.b, N).swapaxes(1, 2)
        zero = (var == 0).reshape(isi44.a, isi44.b)
        assert zero.any() and not zero.all()
        assert np.all(blocks[zero] == 0)
        assert np.all(np.abs(blocks[~zero]).max(axis=(1, 2)) > 0)

    def test_gram_over_non_contiguous_blocks(self):
        # row 1 of H has blocks 1 and 3 only, so the (2,1) block of HH* sums
        # over a non-contiguous set of column blocks
        spec = bs.hh_star_covariance(2, 3, [
            (1, 1, 1, 1, 1.0), (1, 3, 1, 3, 2.0),
            (2, 1, 2, 1, 1.5), (2, 2, 2, 2, 1.0), (2, 3, 2, 3, 0.5),
        ])
        N = 6
        s = bs.sample_block_gaussian(spec, N, 2)
        H = s.matrix
        assert np.all(H[:N, N:2 * N] == 0)
        want = np.linalg.eigvalsh(H @ H.conj().T)
        assert np.abs(s.eigenvalues - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("which", ["isi22", "random23"])
    def test_seeded_stream_pinned(self, which):
        # a seed names the realization that the dense mixing of the same
        # normals (real parts, then imaginary parts) gave
        if which == "isi22":
            spec = bs.isi_covariance(2, 2)
        else:
            spec = random_hh_star_spec(2, 3, np.random.default_rng(4))
        a, b, N, seed = spec.a, spec.b, 9, 17
        C = cov._tau_array(spec).reshape(a * b, a * b) / ((a + b) * N)
        w, U = np.linalg.eigh(C)
        Phi = U * np.sqrt(np.clip(w, 0.0, None))
        rng = np.random.default_rng(seed)
        re = rng.standard_normal((a * b, N * N))
        im = rng.standard_normal((a * b, N * N))
        V = (Phi @ ((re + 1j * im) / np.sqrt(2.0))).reshape(a, b, N, N)
        want = V.transpose(0, 2, 1, 3).reshape(a * N, b * N)
        H = bs.sample_block_gaussian(spec, N, seed).matrix
        assert np.abs(H - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("which", ["selfadjoint", "rectangular"])
    def test_hermitian_stream_pinned(self, which):
        # a seed names X = (Y + Y*)/sqrt(2), Y the mix of the normals (real
        # parts, then imaginary parts) with the factor of sigma(i,j;l,k)/n;
        # a rectangular spec's blocks are cut from the largest block size
        N, seed = 9, 17
        if which == "selfadjoint":
            spec, sizes = random_selfadjoint_spec(2, np.random.default_rng(4)), (N, N)
        else:
            spec, sizes = RECT, (6, 12)
        d, n, m = spec.d, sum(sizes), max(sizes)
        C = np.einsum("ijlk->ijkl", cov._sigma_array(spec)).reshape(d * d, d * d) / n
        w, U = np.linalg.eigh(0.5 * (C + C.conj().T))
        Phi = U * np.sqrt(np.clip(w, 0.0, None))
        rng = np.random.default_rng(seed)
        re = rng.standard_normal((d * d, m * m))
        im = rng.standard_normal((d * d, m * m))
        V = (Phi @ ((re + 1j * im) / np.sqrt(2.0))).reshape(d, d, m, m)
        Y = np.block([[V[i, j][:sizes[i], :sizes[j]] for j in range(d)] for i in range(d)])
        want = (Y + Y.conj().T) / np.sqrt(2.0)
        X = bs.sample_block_gaussian(spec, N, seed).matrix
        assert np.abs(X - want).max() <= 1e-12 * np.abs(want).max()

    def test_oversized_draw_refused_before_allocating(self):
        spec = bs.isi_covariance(2, 2)
        tracemalloc.start()
        try:
            with pytest.raises(errors.BadParameter, match="GB of scratch"):
                bs.sample_block_gaussian(spec, 10**5, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10**6

    def test_hh_star_draw_never_builds_hermitization(self):
        spec = bs.isi_covariance(2, 2)
        N = 100
        bs.sample_block_gaussian(spec, 4, 0)  # warm up lazy imports
        tracemalloc.start()
        try:
            bs.sample_block_gaussian(spec, N, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < ((spec.a + spec.b) * N) ** 2 * 16

    def test_gram_lower_conjugates_only_the_columns_it_reads(self):
        # ISI K = L = 2, N = 200: conjugating each whole 200 x 600 block row
        # took 6.40 MB next to the 2.56 MB Gram matrix; the products' own
        # column slices take 4.48 MB
        spec, N = bs.isi_covariance(2, 2), 200
        a, b = spec.a, spec.b
        C = cov._tau_array(spec).reshape(a * b, a * b) / ((a + b) * N)
        H, live = orc._draw_blocks(C, a, b, N, np.random.default_rng(1), "hh_star")
        tracemalloc.start()
        try:
            G = orc._gram_lower(H, live, N)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * G.nbytes
        want = H @ H.conj().T
        assert np.abs(np.tril(G) - np.tril(want)).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("K, L, rank", [(4, 4, 4), (3, 2, 2)])
    def test_entry_factor_mixes_only_the_rank(self, K, L, rank):
        # the covariance's other eigenvalues are roundoff: their columns are zero
        spec = bs.isi_covariance(K, L)
        a, b = spec.a, spec.b
        C = cov._tau_array(spec).reshape(a * b, a * b) / ((a + b) * 10)
        Phi = orc._entry_factor(C, "hh_star")
        assert np.count_nonzero(Phi.any(axis=0)) == rank == np.linalg.matrix_rank(C)
        assert np.abs(Phi @ Phi.conj().T - C).max() <= 1e-14 * np.abs(C).max()

    def test_not_psd_rejected(self):
        with pytest.warns(RuntimeWarning, match="positivity"):
            spec = bs.selfadjoint_covariance(1, [(1, 1, 1, 1, -1.0)])
        with pytest.raises(errors.NotPSD):
            bs.sample_block_gaussian(spec, 10, 0)

    def test_bad_n(self, mp_spec):
        with pytest.raises(errors.BadParameter):
            bs.sample_block_gaussian(mp_spec, 0, 0)

    @pytest.mark.parametrize("seed", [-1, np.int64(-3)])
    def test_negative_seed_rejected(self, mp_spec, seed):
        with pytest.raises(errors.BadParameter, match="seed"):
            bs.sample_block_gaussian(mp_spec, 4, seed)


class TestEmpiricalSpectrum:
    def test_constant_matrices(self):
        zero = EnsembleSample(matrix=np.zeros((2, 2)), eigenvalues=np.zeros(2))
        assert np.array_equal(bs.empirical_spectrum(zero), np.zeros(2))
        one = EnsembleSample(matrix=np.array([[2.5]]), eigenvalues=np.array([2.5]))
        assert bs.empirical_spectrum(one)[0] == pytest.approx(2.5)

    def test_semicircle_edge(self):
        spec = bs.selfadjoint_covariance(1, [(1, 1, 1, 1, 1.0)])
        s = bs.sample_block_gaussian(spec, 2000, 17)
        assert 1.9 <= s.eigenvalues.max() <= 2.1
        assert -2.1 <= s.eigenvalues.min() <= -1.9

    def test_gram_form_requires_hh_star(self):
        # a selfadjoint sample's spectrum is X's own, with its negative half
        spec = bs.selfadjoint_covariance(1, [(1, 1, 1, 1, 1.0)])
        s = bs.sample_block_gaussian(spec, 40, 5)
        eig = bs.empirical_spectrum(s)
        assert np.array_equal(eig, np.linalg.eigvalsh(s.matrix))
        assert eig.min() < -1.0

    def test_gram_sample_has_no_x_form(self, mp_spec):
        # an hh_star sample holds H; its spectrum is HH*'s, not the hermitization's
        s = bs.sample_block_gaussian(mp_spec, 8, 1)
        H = s.matrix
        eig = bs.empirical_spectrum(s)
        assert eig.shape == (H.shape[0],)
        assert np.allclose(eig, np.linalg.eigvalsh(H @ H.conj().T), atol=1e-12)

    def test_gram_eigenvalues_nonnegative(self, isi44):
        s = bs.sample_block_gaussian(isi44, 15, 3)
        eig = bs.empirical_spectrum(s)
        assert eig.min() >= -1e-12
        assert np.all(np.diff(eig) >= 0)


class TestKsDistance:
    def test_sample_against_own_cdf(self):
        rng = np.random.default_rng(0)
        x = np.sort(rng.standard_normal(500))

        def emp(t):
            return np.searchsorted(x, t, side="right") / len(x)

        assert bs.ks_distance(x, emp) <= 1.0 / len(x) + 1e-12

    def test_tied_samples_at_an_atom(self):
        # half the sample tied at an atom of F at 0: the left limit F(0-) = 0
        # meets the empirical CDF before the tie, F(0) = 0.5 the one after it
        x = np.concatenate([np.zeros(1000), np.random.default_rng(3).uniform(0, 1, 1000)])

        def F(t):
            return 0.5 * (np.asarray(t) >= 0) + 0.5 * np.clip(t, 0, 1)

        assert bs.ks_distance(x, F) <= 0.05
        assert bs.ks_distance(x[::-1], F) == bs.ks_distance(x, F)

    def test_lone_samples_read_as_before_grouping(self):
        # without ties the distance is the usual max of i/n - F and F - (i-1)/n
        x = np.sort(np.random.default_rng(5).standard_normal(300))
        F = semicircle_cdf(x)
        n = len(x)
        usual = max(np.max(np.arange(1, n + 1) / n - F), np.max(F - np.arange(n) / n), 0.0)
        assert bs.ks_distance(x, semicircle_cdf) == usual

    def test_disjoint_supports(self):
        x = -np.abs(np.random.default_rng(1).standard_normal(100)) - 5.0
        assert bs.ks_distance(x, semicircle_cdf) >= 0.99

    def test_empty_rejected(self):
        with pytest.raises(errors.BadParameter):
            bs.ks_distance([], semicircle_cdf)

    @pytest.mark.parametrize("sample", [[np.nan], [0.1, np.inf], [-np.inf, 0.0]])
    def test_non_finite_rejected(self, sample):
        with pytest.raises(errors.BadParameter, match="finite"):
            bs.ks_distance(sample, semicircle_cdf)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 1000), n=st.integers(1, 200))
    def test_bounded_in_unit_interval(self, seed, n):
        x = np.random.default_rng(seed).standard_normal(n)
        d = bs.ks_distance(x, semicircle_cdf)
        assert 0.0 <= d <= 1.0

    def test_decreases_with_n(self, request):
        spec = bs.isi_covariance(2, 2)
        dens = bs.density_hh_star(spec, epsilon=1e-4)
        F = bs.cdf(dens)
        medians = []
        for N in (25, 50, 100):
            vals = []
            for pool in range(5):
                eig = np.concatenate([
                    bs.sample_block_gaussian(
                        spec, N, np.random.SeedSequence(entropy=8, spawn_key=(N, pool, r))
                    ).eigenvalues
                    for r in range(12)
                ])
                vals.append(bs.ks_distance(eig, F))
            medians.append(np.median(vals))
        assert medians[0] > medians[1] > medians[2]


class TestNc2Moments:
    def test_scalar_catalan(self, semicircle_eta):
        for m, want in ((0, 1), (2, 1), (4, 2), (6, 5), (8, 14)):
            _, tr = bs.nc2_moment(semicircle_eta, m)
            assert tr.real == pytest.approx(want, abs=1e-12)

    def test_odd_orders_vanish(self, semicircle_eta):
        M, tr = bs.nc2_moment(semicircle_eta, 5)
        assert np.abs(M).max() == 0.0 and tr == 0

    def test_order_cap(self, semicircle_eta):
        with pytest.raises(errors.OrderTooLarge):
            bs.nc2_moment(semicircle_eta, 18)

    @pytest.mark.parametrize("call", [
        lambda eta: bs.nc2_moment(eta, -2),
        lambda eta: bs.nc2_moment(bs.eta1_map(bs.isi_covariance(2, 2)), 2),
    ], ids=["negative-order", "map-not-square"])
    def test_outside_input_is_refused(self, semicircle_eta, call):
        with pytest.raises(errors.BadParameter):
            call(semicircle_eta)

    def test_m2_is_eta_of_identity(self):
        rng = np.random.default_rng(5)
        eta = bs.eta_map(random_selfadjoint_spec(3, rng))
        M, _ = bs.nc2_moment(eta, 2)
        assert np.allclose(M, bs.eta_apply(eta, np.eye(3)), atol=1e-14)

    def test_m4_matches_pairing_enumeration(self):
        # NC2(4) has exactly two pairings: nested and side-by-side
        rng = np.random.default_rng(6)
        eta = bs.eta_map(random_selfadjoint_spec(3, rng))
        I = np.eye(3)
        e = lambda D: bs.eta_apply(eta, D)
        want = e(e(I)) + e(I) @ e(I)
        M, _ = bs.nc2_moment(eta, 4)
        assert np.allclose(M, want, atol=1e-13)

    def test_m6_matches_pairing_enumeration(self):
        # the five non-crossing pairings of six points, nested per bracket
        rng = np.random.default_rng(7)
        eta = bs.eta_map(random_selfadjoint_spec(2, rng))
        I = np.eye(2)
        e = lambda D: bs.eta_apply(eta, D)
        want = (
            e(I) @ e(I) @ e(I)
            + e(I) @ e(e(I))
            + e(e(e(I)))
            + e(e(I)) @ e(I)
            + e(e(I) @ e(I))
        )
        M, _ = bs.nc2_moment(eta, 6)
        assert np.allclose(M, want, atol=1e-13)

    def test_weighted_trace(self):
        rng = np.random.default_rng(8)
        eta = bs.eta_map(random_selfadjoint_spec(2, rng))
        M, tr = bs.nc2_moment(eta, 4, trace_weights=(0.25, 0.75))
        assert tr == pytest.approx(0.25 * M[0, 0] + 0.75 * M[1, 1])


class TestMomentConsistencyWithSampling:
    def test_hh_star_gram_moment_vs_monte_carlo(self):
        rng = np.random.default_rng(momseed := 12)
        spec = random_hh_star_spec(2, 3, rng, scale=0.5)
        eta = bs.eta_map(bs.hermitize_covariance(spec))
        _, m2x = bs.nc2_moment(eta, 2)
        want_m1 = m2x.real * (spec.a + spec.b) / (2 * spec.a)
        vals = [
            bs.sample_block_gaussian(spec, 60, 1000 + r).eigenvalues.mean()
            for r in range(40)
        ]
        assert np.mean(vals) == pytest.approx(want_m1, rel=0.05)


def test_histogram_payload():
    rng = np.random.default_rng(2)
    h = bs.histogram(rng.standard_normal(500))
    assert set(h) == {"bin_edges", "counts"}
    assert len(h["bin_edges"]) == len(h["counts"]) + 1
    assert sum(h["counts"]) == 500


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_histogram_refuses_non_finite_values(bad):
    with pytest.raises(errors.BadParameter, match="finite"):
        bs.histogram([1.0, bad])


def test_histogram_of_an_atom_has_at_most_one_bin_per_sample():
    # HH* of a 5N x N channel: 4N of its 5N eigenvalues are 0, so the IQR is
    # roundoff and numpy's own Freedman-Diaconis count would be ~1e16 bins
    spec = bs.hh_star_covariance(5, 1, [(i, 1, i, 1, 1.0) for i in range(1, 6)])
    values = np.concatenate([bs.sample_block_gaussian(spec, 40, s).eigenvalues for s in range(5)])
    assert np.subtract(*np.percentile(values, [75, 25])) < 1e-12
    h = bs.histogram(values)
    assert sum(h["counts"]) == values.size
    assert len(h["counts"]) <= values.size


def test_histogram_bins_are_numpys_below_the_cap():
    values = np.random.default_rng(4).gamma(2.0, size=40_000)
    counts, edges = np.histogram(values, bins="fd")
    h = bs.histogram(values)
    assert h == {"bin_edges": edges.tolist(), "counts": counts.tolist()}
    assert len(counts) < values.size
