import gc
import re
import weakref
from dataclasses import replace

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
        # sigma(i,i;k,k) and sigma(i,j;j,i) are their own conjugate partners
        for entry in [(1, 1, 2, 2, 1.0j), (1, 2, 2, 1, 1.0j)]:
            with pytest.raises(errors.SymmetryViolation):
                bs.selfadjoint_covariance(2, [entry])

    def test_complex_entries_without_realizable_choi_rejected(self):
        # sigma(k,l;i,j) = v and sigma(j,i;l,k) = sigma(l,k;j,i) = conj v
        with pytest.warns(RuntimeWarning, match="positivity"):
            spec = bs.selfadjoint_covariance(2, [(1, 1, 1, 2, 1.0j)])
        assert {e[:4]: e[4] for e in spec.entries} == {
            (1, 1, 1, 2): 1j, (1, 2, 1, 1): 1j, (1, 1, 2, 1): -1j, (2, 1, 1, 1): -1j}
        with pytest.raises(errors.SymmetryViolation):
            bs.selfadjoint_covariance(2, [(1, 1, 1, 2, 1.0j), (1, 2, 1, 1, -1.0j)])

    def test_index_out_of_range(self):
        with pytest.raises(errors.IndexOutOfRange):
            bs.selfadjoint_covariance(2, [(1, 3, 1, 1, 1.0)])

    @pytest.mark.parametrize("make, entry", [
        (lambda e: bs.selfadjoint_covariance(1, [e]), (1, 1, 1, 1)),
        (lambda e: bs.hh_star_covariance(1, 1, [e]), (1, 1, 1)),
        (lambda e: bs.selfadjoint_covariance(1, [e]), ("a", 1, 1, 1, 1.0)),
        (lambda e: bs.selfadjoint_covariance(2, [e]), (1.7, 1, 1, 1, 1.0)),
    ], ids=["short", "hh_star-short", "text-index", "float-index"])
    def test_malformed_entry_named(self, make, entry):
        with pytest.raises(errors.BadParameter, match=re.escape(repr(entry))):
            make(entry)

    @pytest.mark.parametrize("call", [
        lambda: CovarianceSpec("selfadjoint", d=1.5),
        lambda: CovarianceSpec("hh_star", a=1.5, b=1),
        lambda: CovarianceSpec("hh_star", a=1, b=2.0),
        lambda: bs.isi_covariance(1.5, 2),
        lambda: bs.isi_covariance(2, 2.5),
        lambda: bs.sample_block_gaussian(bs.isi_covariance(1, 1), 1.5, 0),
        lambda: bs.nc2_moment(bs.eta_map(bs.selfadjoint_covariance(1, [(1, 1, 1, 1, 1.0)])), 2.5),
        lambda: bs.moments_from_density(
            bs.SpectralDensity(xs=np.array([-1.0, 1.0]), ps=np.array([0.5, 0.5])), 1.5),
    ], ids=["d", "a", "b", "isi_K", "isi_L", "sample_N", "nc2_order", "density_order"])
    def test_non_integer_count_or_order(self, call):
        with pytest.raises(errors.BadParameter, match="must be an integer"):
            call()

    def test_nonfinite_value(self):
        with pytest.raises(errors.BadParameter):
            bs.selfadjoint_covariance(1, [(1, 1, 1, 1, float("nan"))])

    def test_hh_star_values_must_be_real(self):
        """A self-paired value tau(i,k;i,k) is a variance: it must be real."""
        with pytest.raises(errors.SymmetryViolation):
            bs.hh_star_covariance(1, 1, [(1, 1, 1, 1, 1 + 2j)])

    def test_hh_star_complex_entry_closes_to_its_conjugate(self):
        spec = bs.hh_star_covariance(1, 2, [(1, 1, 1, 1, 1.0), (1, 2, 1, 2, 1.0),
                                            (1, 1, 1, 2, 0.5j)])
        table = {e[:4]: e[4] for e in spec.entries}
        assert table[(1, 2, 1, 1)] == -0.5j
        assert spec.choi_min_eig == pytest.approx(0.5 / 3)

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

    @pytest.mark.parametrize("alpha", [(0.5,), (float("nan"),)])
    def test_single_block_weight_must_be_one(self, alpha):
        with pytest.raises(errors.WeightError, match="sum to 1"):
            bs.rectangular_covariance(alpha, [])

    @pytest.mark.parametrize("make", [
        lambda: CovarianceSpec("selfadjoint", d=1, alpha=(0.3, 0.2, 9.0),
                               entries=((1, 1, 1, 1, 1.0),)),
        lambda: CovarianceSpec("hh_star", a=1, b=1, alpha=(1.0,), entries=((1, 1, 1, 1, 1.0),)),
        lambda: replace(bs.rectangular_covariance((1.0,), [(1, 1, 1, 1, 1.0)]),
                        kind="selfadjoint"),
    ], ids=["selfadjoint", "hh_star", "replace-kind"])
    def test_alpha_only_on_rectangular_specs(self, make):
        with pytest.raises(errors.WeightError, match="rectangular"):
            make()

    def test_unweighted_kinds_carry_no_alpha(self):
        spec = bs.selfadjoint_covariance(1, [(1, 1, 1, 1, 1.0)])
        grown = replace(spec, d=2, entries=((2, 2, 2, 2, 1.0),))
        assert spec.alpha is None and grown.alpha is None
        assert bs.isi_covariance(2, 2).alpha is None

    def test_alpha_pattern_enforced(self):
        with pytest.raises(errors.PatternViolation):
            # sigma(1,1;1,2) needs alpha_1 = alpha_2
            bs.rectangular_covariance((1 / 3, 2 / 3), [(1, 1, 1, 2, 1.0)])

    def test_alpha_pattern_skips_zero_entries(self):
        # sigma(1,1;1,2) = 0 couples nothing, so unequal weights do not matter
        spec = bs.rectangular_covariance((1 / 3, 2 / 3), [(1, 1, 1, 1, 1.0), (1, 1, 1, 2, 0.0)])
        assert spec.alpha == (1 / 3, 2 / 3)

    def test_replace_checks_indices(self):
        with pytest.raises(errors.IndexOutOfRange):
            replace(bs.isi_covariance(2, 2), entries=((1, 9, 1, 1, 1.0),))

    def test_replace_closes_entries(self):
        base = bs.selfadjoint_covariance(1, [(1, 1, 1, 1, 1.0)])
        # (2,1;1,2) is implied by (1,2;2,1); without it eta(I) = diag(1, 0.5)
        spec = replace(base, d=2, entries=((1, 1, 1, 1, 1.0), (2, 2, 2, 2, 1.0),
                                           (1, 2, 2, 1, 1.0)))
        assert np.array_equal(bs.eta_apply(bs.eta_map(spec), np.eye(2)), np.eye(2))

    def test_replace_recomputes_choi_and_sampling_refuses(self):
        isi = bs.isi_covariance(2, 2)
        with pytest.warns(RuntimeWarning, match="positivity"):
            spec = replace(isi, entries=tuple((*e[:4], -e[4]) for e in isi.entries))
        assert spec.choi_min_eig < 0
        with pytest.raises(errors.NotPSD):
            bs.sample_block_gaussian(spec, 4, 0)


def _selfadjoint():
    return bs.selfadjoint_covariance(1, [(1, 1, 1, 1, 1.0)])


# outside input that the covariance layer refuses: (error, call)
REFUSALS = {
    "unknown-kind": (errors.WrongKind, lambda: CovarianceSpec("nope")),
    "hh-star-no-blocks": (errors.BadParameter, lambda: bs.hh_star_covariance(0, 1, [])),
    "selfadjoint-no-blocks": (errors.BadParameter, lambda: bs.selfadjoint_covariance(0, [])),
    "ragged-taps": (errors.BadParameter,
                    lambda: bs.isi_covariance(2, 2, tap_var=[[1.0], [1.0, 2.0]])),
    "rectangular-no-alpha": (errors.WeightError, lambda: CovarianceSpec("rectangular", d=2)),
    "eta-tensor-shape": (errors.DimensionMismatch, lambda: bs.EtaMap(np.zeros((2, 3, 2, 2)))),
    "choi-of-rectangular-map": (errors.DimensionMismatch,
                                lambda: bs.choi_matrix(bs.eta1_map(bs.isi_covariance(2, 2)))),
    "eta-alpha-of-selfadjoint": (errors.WrongKind, lambda: bs.eta_alpha_map(_selfadjoint())),
    "eta2-of-selfadjoint": (errors.WrongKind, lambda: bs.eta2_map(_selfadjoint())),
}


@pytest.mark.parametrize("error, call", REFUSALS.values(), ids=list(REFUSALS))
def test_outside_input_is_refused(error, call):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("call", [
    lambda: bs.selfadjoint_covariance(100, [(1, 1, 1, 1, 1.0)]),
    lambda: bs.isi_covariance(64, 4),
    lambda: bs.hh_star_covariance(40, 37, []),
    # the size is checked before the entries are read
    lambda: bs.selfadjoint_covariance(77, [("not", "an", "entry")]),
], ids=["selfadjoint-d100", "isi-k64", "hh-star-77", "before-entries"])
def test_spec_whose_dense_map_cannot_fit_is_refused(call):
    with pytest.raises(errors.BadParameter, match=r"block dimension \d+ needs a \d+-byte"):
        call()


def test_map_size_limit_lies_between_dimensions_76_and_77(monkeypatch):
    monkeypatch.setattr(cov, "_choi_min_eig", lambda spec: 0.0)  # it would build the map
    assert bs.selfadjoint_covariance(76, [(1, 1, 1, 1, 1.0)]).dim == 76
    with pytest.raises(errors.BadParameter, match="block dimension 77"):
        bs.selfadjoint_covariance(77, [(1, 1, 1, 1, 1.0)])


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
        out = bs.eta_apply(bs.eta2_map(isi44), np.diag([f1, f2, f2, f1]))
        want = np.diag([f1, f1 + f2, f1 + 2 * f2, 2 * f1 + 2 * f2,
                        f1 + 2 * f2, f1 + f2, f1]) / 11.0
        assert np.allclose(out, want, atol=1e-14)

    def test_eta1_scalar(self):
        spec = bs.hh_star_covariance(1, 1, [(1, 1, 1, 1, 2.0)])
        assert np.allclose(bs.eta_apply(bs.eta1_map(spec), [[1.0]]), [[1.0]], atol=1e-15)

    def test_isi_eta1_diagonal_window(self, isi44):
        D = np.diag(np.arange(1.0, 8.0))
        out = bs.eta_apply(bs.eta1_map(isi44), D)
        for i in range(2):
            assert out[i, i] == pytest.approx(sum(D[j, j] for j in range(i, i + 4)) / 11.0)

    def test_wrong_kind(self, isi44):
        with pytest.raises(errors.WrongKind):
            bs.eta_map(isi44)
        spec = bs.selfadjoint_covariance(1, [(1, 1, 1, 1, 1.0)])
        with pytest.raises(errors.WrongKind):
            bs.eta1_map(spec)


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
        got1 = bs.eta_apply(bs.eta1_map(spec), D_b)
        got2 = bs.eta_apply(bs.eta2_map(spec), D_a)
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
            assert np.allclose(out[:a, :a], bs.eta_apply(bs.eta1_map(spec), D2), atol=1e-12)
            assert np.allclose(out[a:, a:], bs.eta_apply(bs.eta2_map(spec), D1), atol=1e-12)

    def test_wrong_kind(self):
        spec = bs.selfadjoint_covariance(1, [(1, 1, 1, 1, 1.0)])
        with pytest.raises(errors.WrongKind):
            bs.hermitize_covariance(spec)


def _assembled(spec):
    return cov._law(spec).eta


class TestHermitizedMap:
    """The law's hermitized map against the hermitized spec's map."""

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

    @settings(max_examples=25, deadline=None)
    @given(a=st.integers(1, 4), b=st.integers(1, 4), seed=st.integers(0, 2**16))
    def test_random_complex_hh_star_agrees(self, a, b, seed):
        """The hermitized spec of a complex tau has conj tau on its b side, as eta2."""
        spec = random_hh_star_spec(a, b, np.random.default_rng(seed), complex_=True)
        want = bs.eta_map(bs.hermitize_covariance(spec)).tensor
        assert np.abs(_assembled(spec).tensor - want).max() <= 1e-15

    def test_gram_density_skips_choi(self, isi44, monkeypatch):
        calls = []
        choi = cov._choi_min_eig
        monkeypatch.setattr(cov, "_choi_min_eig", lambda s: calls.append(s) or choi(s))
        bs.density_hh_star(isi44)
        assert calls == []

    def test_maps_are_not_kept_alive(self, isi44):
        refs = [weakref.ref(bs.eta_map(bs.hermitize_covariance(isi44))),
                weakref.ref(cov._law(isi44).eta)]
        gc.collect()
        assert [ref() for ref in refs] == [None, None]


class TestEtaAlpha:
    def test_equal_weights_reduce_to_eta(self):
        rng = np.random.default_rng(1)
        for d in (2, 3):
            spec = random_selfadjoint_spec(d, rng)
            rect = bs.rectangular_covariance((1.0 / d,) * d, spec.entries)
            e1, e2 = bs.eta_map(spec), bs.eta_alpha_map(rect)
            assert np.abs(e1.tensor - e2.tensor).max() <= 1e-15
            D = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            assert np.allclose(bs.eta_apply(e1, D), bs.eta_apply(e2, D), atol=1e-15)

    def test_weighted_example(self):
        spec = bs.rectangular_covariance((1 / 3, 2 / 3), [(1, 2, 2, 1, 1.0)])
        out = bs.eta_apply(bs.eta_alpha_map(spec), np.diag([0.0, 5.0]))
        assert out[0, 0] == pytest.approx(2 / 3 * 5.0)


class TestEta2AgainstSampledGramForm:
    @staticmethod
    def _sampled_h_star_d_h(spec, D, N, n_samp, seed):
        """Monte Carlo mean of the normalized block traces of H* (D (x) I_N) H."""
        b = spec.b
        rng = np.random.default_rng(seed)
        Dbig = np.kron(D, np.eye(N))
        acc = np.zeros((b, b), dtype=complex)
        for r in range(n_samp):
            smp = bs.sample_block_gaussian(spec, N, rng.integers(0, 2**63))
            H = smp.matrix
            M = H.conj().T @ Dbig @ H
            for k in range(b):
                for l in range(b):
                    acc[k, l] += np.trace(M[k * N:(k + 1) * N, l * N:(l + 1) * N]) / N
        return acc / n_samp

    def test_eta2_matches_expected_h_star_d_h(self):
        """The index pairing inside eta2 is pinned by E[H* D H] itself.

        For the two-frame, two-tap channel and a non-symmetric D the two
        candidate pairings (D_ij vs the transposed D_ji) give different,
        disjointly supported outputs, so a modest Monte Carlo separates
        them decisively.
        """
        spec = bs.isi_covariance(2, 2)
        D = np.zeros((2, 2), dtype=complex)
        D[0, 1] = 1.0
        acc = self._sampled_h_star_d_h(spec, D, N=24, n_samp=800, seed=2718)
        want = bs.eta_apply(bs.eta2_map(spec), D)
        transposed = want.T
        assert np.abs(acc - want).max() < 0.02
        # the transposed pairing is wrong by a full matrix unit here
        assert np.abs(acc - transposed).max() > 0.15

    def test_eta2_pairs_with_conj_tau(self):
        """E[H* D H] pairs D_ij with conj tau(i,k;j,l), not with tau itself.

        The entry covariance tau(1,k;1,l) = [[1, 0.9i], [-0.9i, 1]] has large
        imaginary couplings, so the two pairings put +-0.3i on the
        off-diagonal of eta2(1) and a modest Monte Carlo tells them apart.
        """
        spec = bs.hh_star_covariance(1, 2, [(1, 1, 1, 1, 1.0), (1, 2, 1, 2, 1.0),
                                            (1, 1, 1, 2, 0.9j)])
        D = np.ones((1, 1), dtype=complex)
        acc = self._sampled_h_star_d_h(spec, D, N=24, n_samp=400, seed=1618)
        want = bs.eta_apply(bs.eta2_map(spec), D)
        assert want[0, 1] == pytest.approx(-0.3j)
        assert np.abs(acc - want).max() < 0.02
        # with D = 1, pairing with tau gives conj(want): off by 0.6 at (1, 2)
        assert np.abs(acc - want.conj()).max() > 0.5


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
