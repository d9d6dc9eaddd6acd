import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import blockspectra as bs
from blockspectra import covariance as cov
from blockspectra import errors
from blockspectra.covariance import CovarianceSpec

from conftest import random_hh_star_spec, random_selfadjoint_spec


class TestValidation:
    def test_scalar_spec_is_valid(self):
        spec = bs.validate_covariance(CovarianceSpec("selfadjoint", d=1, entries=((1, 1, 1, 1, 1.0),)))
        assert spec.validated
        assert spec.choi_min_eig == pytest.approx(1.0)

    def test_symmetry_closure_fills_conjugate_pair(self):
        # a lone transpose-coupling entry is symmetry-consistent but not PSD;
        # validation flags that and still returns the closed spec
        with pytest.warns(RuntimeWarning, match="positivity"):
            spec = bs.selfadjoint_covariance(2, [(1, 2, 1, 2, 1.0)])
        table = {e[:4]: e[4] for e in spec.entries}
        # Hermitian realizability pairs (1,2;1,2) with (2,1;2,1)
        assert table[(2, 1, 2, 1)] == pytest.approx(1.0)

    def test_closure_of_gue_coupling(self):
        spec = bs.selfadjoint_covariance(2, [(1, 2, 2, 1, 1.0)])
        table = {e[:4]: e[4] for e in spec.entries}
        assert table[(2, 1, 1, 2)] == pytest.approx(1.0)

    def test_conflicting_entries_rejected(self):
        with pytest.raises(errors.SymmetryViolation):
            bs.selfadjoint_covariance(2, [(1, 2, 1, 2, 1.0), (2, 1, 2, 1, 2.0)])

    def test_self_paired_entry_must_be_real(self):
        with pytest.raises(errors.SymmetryViolation):
            bs.selfadjoint_covariance(2, [(1, 2, 1, 2, 1.0j)])

    def test_complex_entries_without_realizable_choi_rejected(self):
        with pytest.raises(errors.SymmetryViolation):
            bs.selfadjoint_covariance(2, [(1, 1, 1, 2, 1.0j)])

    def test_index_out_of_range(self):
        with pytest.raises(errors.IndexOutOfRange):
            bs.selfadjoint_covariance(2, [(1, 3, 1, 1, 1.0)])

    def test_nonfinite_value(self):
        with pytest.raises(errors.BadParameter):
            bs.selfadjoint_covariance(1, [(1, 1, 1, 1, float("nan"))])

    def test_hh_star_values_must_be_real(self):
        with pytest.raises(errors.SymmetryViolation):
            bs.hh_star_covariance(1, 2, [(1, 1, 1, 2, 1.0j)])

    def test_isi_spec_all_unit_entries(self):
        spec = bs.isi_covariance(4, 4)
        assert spec.a == 4 and spec.b == 7 and spec.dim == 11
        vals = {e[4] for e in spec.entries}
        assert vals == {(1 + 0j)}
        assert len(spec.entries) == 4 * 4 * 4  # K^2 L sparse pattern

    def test_choi_deficit_warns_but_validates(self):
        with pytest.warns(RuntimeWarning, match="positivity"):
            spec = bs.selfadjoint_covariance(1, [(1, 1, 1, 1, -1.0)])
        assert spec.choi_min_eig < 0

    def test_weight_errors(self):
        with pytest.raises(errors.WeightError):
            bs.rectangular_covariance((0.3, 0.3), [(1, 1, 1, 1, 1.0)])
        with pytest.raises(errors.WeightError):
            bs.rectangular_covariance((1.2, -0.2), [(1, 1, 1, 1, 1.0)])

    def test_alpha_pattern_enforced(self):
        with pytest.raises(errors.PatternViolation):
            # sigma(1,1;1,2) needs alpha_1 = alpha_2
            bs.rectangular_covariance((1 / 3, 2 / 3), [(1, 1, 1, 2, 1.0)])


class TestEtaApply:
    def test_scalar(self):
        eta = bs.eta_map(bs.selfadjoint_covariance(1, [(1, 1, 1, 1, 1.0)]))
        assert np.allclose(bs.eta_apply(eta, [[2.0]]), [[2.0]], atol=1e-15)

    def test_gue_d2_identity(self):
        # sigma(i,j;k,l) = delta_il delta_jk
        entries = [(i, j, j, i, 1.0) for i in (1, 2) for j in (1, 2)]
        eta = bs.eta_map(bs.selfadjoint_covariance(2, entries))
        out = bs.eta_apply(eta, np.eye(2))
        assert np.allclose(out, np.eye(2), atol=1e-15)

    def test_dimension_mismatch(self):
        eta = bs.eta_map(bs.selfadjoint_covariance(2, [(1, 2, 2, 1, 1.0)]))
        with pytest.raises(errors.DimensionMismatch):
            bs.eta_apply(eta, np.eye(3))

    def test_isi_eta2_on_symmetric_diagonal(self, isi44):
        f1, f2 = 0.3 - 0.1j, 0.7 - 0.2j
        out = bs.eta2_apply(isi44, np.diag([f1, f2, f2, f1]))
        want = np.diag([f1, f1 + f2, f1 + 2 * f2, 2 * f1 + 2 * f2,
                        f1 + 2 * f2, f1 + f2, f1]) / 11.0
        assert np.allclose(out, want, atol=1e-14)

    def test_eta1_scalar(self):
        spec = bs.hh_star_covariance(1, 1, [(1, 1, 1, 1, 2.0)])
        assert np.allclose(bs.eta1_apply(spec, [[1.0]]), [[1.0]], atol=1e-15)

    def test_isi_eta1_diagonal_window(self, isi44):
        D = np.diag(np.arange(1.0, 8.0))
        out = bs.eta1_apply(isi44, D)
        for i in range(2):
            assert out[i, i] == pytest.approx(sum(D[j, j] for j in range(i, i + 4)) / 11.0)

    def test_wrong_kind(self, isi44):
        with pytest.raises(errors.WrongKind):
            bs.eta_map(isi44)
        spec = bs.selfadjoint_covariance(1, [(1, 1, 1, 1, 1.0)])
        with pytest.raises(errors.WrongKind):
            bs.eta1_apply(spec, [[1.0]])


def _isi_tau(K, L, i, k, j, l):
    """tau of the banded channel, straight from its defining rule."""
    if 1 <= i <= K and 1 <= j <= K and i <= k <= i + L - 1 and l == k + j - i:
        return 1.0
    return 0.0


class TestIsiBandFormulas:
    @pytest.mark.parametrize("K", range(1, 7))
    @pytest.mark.parametrize("L", range(1, 7))
    def test_eta1_eta2_match_band_formulas(self, K, L):
        spec = bs.isi_covariance(K, L)
        a, b = K, K + L - 1
        rng = np.random.default_rng(K * 10 + L)
        D_b = rng.standard_normal((b, b)) + 1j * rng.standard_normal((b, b))
        D_a = rng.standard_normal((a, a)) + 1j * rng.standard_normal((a, a))
        got1 = bs.eta1_apply(spec, D_b)
        got2 = bs.eta2_apply(spec, D_a)
        # independent index enumeration of the defining sums
        want1 = np.zeros((a, a), dtype=complex)
        want2 = np.zeros((b, b), dtype=complex)
        for i in range(1, a + 1):
            for j in range(1, a + 1):
                for k in range(1, b + 1):
                    for l in range(1, b + 1):
                        t = _isi_tau(K, L, i, k, j, l)
                        if t:
                            want1[i - 1, j - 1] += t * D_b[k - 1, l - 1]
                            want2[k - 1, l - 1] += t * D_a[i - 1, j - 1]
        want1 /= a + b
        want2 /= a + b
        assert np.allclose(got1, want1, atol=1e-13)
        assert np.allclose(got2, want2, atol=1e-13)
        # the band form of eta1: a length-L diagonal window
        for i in range(1, a + 1):
            for j in range(1, a + 1):
                s = sum(D_b[i - 1 + m, j - 1 + m] for m in range(L))
                assert got1[i - 1, j - 1] == pytest.approx(s / (2 * K + L - 1))
        # diagonal of eta2: the max/min window count
        for j in range(1, b + 1):
            s = sum(D_a[i - 1, i - 1] for i in range(max(1, j - L + 1), min(j, K) + 1))
            assert got2[j - 1, j - 1] == pytest.approx(s / (L + 2 * K - 1))


class TestIsiBuilder:
    def test_k1_l1_single_entry(self):
        spec = bs.isi_covariance(1, 1)
        assert spec.entries == ((1, 1, 1, 1, (1 + 0j)),)

    def test_k2_l2_two_tap_structure(self):
        spec = bs.isi_covariance(2, 2)
        table = {e[:4] for e in spec.entries}
        # [[A, B, 0], [0, A, B]]: tap at (i, i+t) pairs with (k, k+t)
        assert (1, 1, 1, 1) in table and (1, 2, 2, 3) in table
        assert (1, 1, 2, 2) in table and (2, 2, 1, 1) in table
        assert (1, 1, 2, 3) not in table

    def test_tap_variances(self):
        spec = bs.isi_covariance(2, 2, tap_var=[1.0, 0.5])
        table = {e[:4]: e[4] for e in spec.entries}
        assert table[(1, 2, 1, 2)] == pytest.approx(0.5)
        assert table[(1, 1, 1, 1)] == pytest.approx(1.0)

    def test_bad_parameters(self):
        with pytest.raises(errors.BadParameter):
            bs.isi_covariance(0, 1)
        with pytest.raises(errors.BadParameter):
            bs.isi_covariance(1, 1, tap_var=[1.0, 2.0])
        with pytest.raises(errors.BadParameter):
            bs.isi_covariance(1, 1, tap_var=[-1.0])


class TestHermitize:
    def test_scalar_coupling(self):
        spec = bs.hh_star_covariance(1, 1, [(1, 1, 1, 1, 0.7)])
        herm = bs.hermitize_covariance(spec)
        table = {e[:4]: e[4] for e in herm.entries}
        assert table == {(1, 2, 2, 1): 0.7 + 0j, (2, 1, 1, 2): 0.7 + 0j}

    def test_isi_maps_diagonal_to_diagonal(self, isi44):
        eta = bs.eta_map(bs.hermitize_covariance(isi44))
        rng = np.random.default_rng(0)
        D = np.diag(rng.standard_normal(11) + 1j * rng.standard_normal(11))
        out = bs.eta_apply(eta, D)
        assert np.allclose(out, np.diag(np.diagonal(out)), atol=1e-15)

    @pytest.mark.parametrize("a,b", [(1, 1), (2, 3), (4, 7), (3, 2)])
    def test_block_split_matches_eta1_eta2(self, a, b):
        rng = np.random.default_rng(a * 10 + b)
        spec = random_hh_star_spec(a, b, rng)
        eta = bs.eta_map(bs.hermitize_covariance(spec))
        for trial in range(25):
            D1 = rng.standard_normal((a, a)) + 1j * rng.standard_normal((a, a))
            D2 = rng.standard_normal((b, b)) + 1j * rng.standard_normal((b, b))
            D = np.zeros((a + b, a + b), dtype=complex)
            D[:a, :a] = D1
            D[a:, a:] = D2
            out = bs.eta_apply(eta, D)
            assert np.abs(out[:a, a:]).max() == 0.0
            assert np.abs(out[a:, :a]).max() == 0.0
            assert np.allclose(out[:a, :a], bs.eta1_apply(spec, D2), atol=1e-12)
            assert np.allclose(out[a:, a:], bs.eta2_apply(spec, D1), atol=1e-12)

    def test_wrong_kind(self):
        spec = bs.selfadjoint_covariance(1, [(1, 1, 1, 1, 1.0)])
        with pytest.raises(errors.WrongKind):
            bs.hermitize_covariance(spec)


def _assembled(spec):
    return cov._hermitized_map(bs.eta1_map(spec), bs.eta2_map(spec))


class TestHermitizedMap:
    """The map pair assembler against the hermitized spec's map."""

    @pytest.mark.parametrize("K", range(1, 9))
    def test_isi_equals_hermitized_spec_map(self, K):
        for L in range(1, 6):
            spec = bs.isi_covariance(K, L)
            want = bs.eta_map(bs.hermitize_covariance(spec)).tensor
            assert np.array_equal(_assembled(spec).tensor, want), (K, L)

    @settings(max_examples=25, deadline=None)
    @given(a=st.integers(1, 4), b=st.integers(1, 4), seed=st.integers(0, 2**16))
    def test_random_hh_star_agrees(self, a, b, seed):
        spec = random_hh_star_spec(a, b, np.random.default_rng(seed))
        want = bs.eta_map(bs.hermitize_covariance(spec)).tensor
        assert np.abs(_assembled(spec).tensor - want).max() <= 1e-15

    def test_mismatched_pair_rejected(self):
        spec = bs.isi_covariance(2, 2)
        with pytest.raises(errors.DimensionMismatch):
            cov._hermitized_map(bs.eta1_map(spec), bs.eta1_map(spec))

    def test_gram_density_skips_choi(self, isi44, monkeypatch):
        calls = []
        choi = cov._choi_min_eig
        monkeypatch.setattr(cov, "_choi_min_eig", lambda s: calls.append(s) or choi(s))
        bs.density_hh_star(isi44)
        assert calls == []

    def test_maps_are_not_kept_alive(self, isi44):
        ref = weakref.ref(bs.eta_map(bs.hermitize_covariance(isi44)))
        gc.collect()
        assert ref() is None


class TestEtaAlpha:
    def test_equal_weights_reduce_to_eta(self):
        rng = np.random.default_rng(1)
        for d in (2, 3):
            spec = random_selfadjoint_spec(d, rng)
            rect = bs.rectangular_covariance((1.0 / d,) * d, spec.entries)
            e1, e2 = bs.eta_map(spec), bs.eta_alpha_map(rect)
            assert np.abs(e1.tensor - e2.tensor).max() <= 1e-15
            D = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            assert np.allclose(bs.eta_apply(e1, D), bs.eta_alpha_apply(rect, D), atol=1e-15)

    def test_weighted_example(self):
        spec = bs.rectangular_covariance((1 / 3, 2 / 3), [(1, 2, 2, 1, 1.0)])
        out = bs.eta_alpha_apply(spec, np.diag([0.0, 5.0]))
        assert out[0, 0] == pytest.approx(2 / 3 * 5.0)

    def test_tr_alpha_of_identity(self):
        spec = bs.rectangular_covariance((1 / 3, 2 / 3), [(1, 1, 1, 1, 1.0)])
        assert bs.tr_alpha(spec, np.eye(2)) == pytest.approx(1.0)

    def test_pattern_violation_on_apply(self):
        spec = bs.rectangular_covariance((1 / 3, 2 / 3), [(1, 1, 1, 1, 1.0)])
        with pytest.raises(errors.PatternViolation):
            bs.eta_alpha_apply(spec, np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestEta2AgainstSampledGramForm:
    def test_eta2_matches_expected_h_star_d_h(self):
        """The index pairing inside eta2 is pinned by E[H* D H] itself.

        For the two-frame, two-tap channel and a non-symmetric D the two
        candidate pairings (D_ij vs the transposed D_ji) give different,
        disjointly supported outputs, so a modest Monte Carlo separates
        them decisively.
        """
        spec = bs.isi_covariance(2, 2)
        a, b, N, n_samp = 2, 3, 24, 800
        rng = np.random.default_rng(2718)
        D = np.zeros((a, a), dtype=complex)
        D[0, 1] = 1.0
        Dbig = np.kron(D, np.eye(N))
        acc = np.zeros((b, b), dtype=complex)
        for r in range(n_samp):
            smp = bs.sample_block_gaussian(spec, N, rng.integers(0, 2**63))
            H = smp.matrix[: a * N, a * N:]
            M = H.conj().T @ Dbig @ H
            for k in range(b):
                for l in range(b):
                    acc[k, l] += np.trace(M[k * N:(k + 1) * N, l * N:(l + 1) * N]) / N
        acc /= n_samp
        want = bs.eta2_apply(spec, D)
        transposed = want.T
        assert np.abs(acc - want).max() < 0.02
        # the transposed pairing is wrong by a full matrix unit here
        assert np.abs(acc - transposed).max() > 0.15


class TestMapInvariants:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), d=st.integers(1, 4))
    def test_hermiticity_preserving(self, seed, d):
        rng = np.random.default_rng(seed)
        eta = bs.eta_map(random_selfadjoint_spec(d, rng))
        A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        D = A + A.conj().T
        out = bs.eta_apply(eta, D)
        assert np.abs(out - out.conj().T).max() < 1e-12 * max(1.0, np.abs(out).max())

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), d=st.integers(1, 4))
    def test_positivity_preserving_when_choi_passes(self, seed, d):
        rng = np.random.default_rng(seed)
        spec = random_selfadjoint_spec(d, rng)
        assert spec.choi_min_eig >= -1e-10
        eta = bs.eta_map(spec)
        A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        D = A @ A.conj().T
        out = bs.eta_apply(eta, D)
        assert np.linalg.eigvalsh((out + out.conj().T) / 2).min() >= -1e-10

    def test_linearity(self):
        rng = np.random.default_rng(5)
        eta = bs.eta_map(random_selfadjoint_spec(3, rng))
        D1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        D2 = rng.standard_normal((3, 3))
        lhs = bs.eta_apply(eta, 2.0 * D1 + 3.0j * D2)
        rhs = 2.0 * bs.eta_apply(eta, D1) + 3.0j * bs.eta_apply(eta, D2)
        assert np.allclose(lhs, rhs, atol=1e-13)

    def test_choi_matrix_psd_for_realizable_specs(self):
        rng = np.random.default_rng(9)
        spec = random_selfadjoint_spec(3, rng)
        M = bs.choi_matrix(bs.eta_map(spec))
        assert np.abs(M - M.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(M).min() >= -1e-12
