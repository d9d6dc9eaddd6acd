import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import blockspectra as bs
from blockspectra import covariance as cov, errors

from reference_laws import mp1_cauchy

TIGHT = bs.SolverConfig(tol=1e-12)


def _rand_real_psd(p, rng, scale=1.0):
    A = rng.standard_normal((p, p))
    return scale * (A @ A.T) / p


def _rand_herm_psd(p, rng, scale=1.0):
    A = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    return scale * (A @ A.conj().T) / (2 * p)


class TestFamilyValidation:
    def test_accepts_hermitian_psd(self):
        rng = np.random.default_rng(0)
        fam = bs.CorrelationFamily(
            psi=(_rand_herm_psd(3, rng), _rand_herm_psd(3, rng)),
            psi_hat=(_rand_herm_psd(4, rng), _rand_herm_psd(4, rng)),
        )
        assert bs.validate_family(fam) is fam
        assert fam.t == 2 and fam.p == 3 and fam.q == 4

    def test_rejects_non_hermitian(self):
        with pytest.raises(errors.BadParameter):
            bs.CorrelationFamily(
                psi=(np.array([[1.0, 1.0], [0.0, 1.0]]),), psi_hat=(np.eye(2),)
            )

    def test_rejects_indefinite(self):
        with pytest.raises(errors.BadParameter):
            bs.CorrelationFamily(psi=(np.diag([1.0, -0.5]),), psi_hat=(np.eye(2),))

    def test_rejects_term_mismatch(self):
        with pytest.raises(errors.BadParameter):
            bs.CorrelationFamily(psi=(np.eye(2), np.eye(2)), psi_hat=(np.eye(2),))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            bs.CorrelationFamily(psi=(np.eye(2), np.eye(3)), psi_hat=(np.eye(2), np.eye(2)))

    @pytest.mark.parametrize("side", ["psi", "psi_hat"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, side, bad):
        P = np.eye(2)
        P[0, 0] = bad
        sides = {"psi": (np.eye(2),), "psi_hat": (np.eye(2),), side: (P,)}
        with pytest.raises(errors.BadParameter, match=re.escape(f"{side}[0]")):
            bs.CorrelationFamily(**sides)

    def test_replace_revalidates(self):
        fam = bs.CorrelationFamily(psi=(np.eye(2),), psi_hat=(np.eye(2),))
        with pytest.raises(errors.BadParameter):
            replace(fam, psi=(np.diag([1.0, -0.5]),))


class TestBuildEta:
    def test_identity_correlation_gives_trace_maps(self):
        fam = bs.CorrelationFamily(psi=(np.eye(3),), psi_hat=(np.eye(3),))
        e1, e2 = bs.build_nonsep_eta(fam)
        rng = np.random.default_rng(1)
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.allclose(bs.eta_apply(e1, b), np.trace(b) / 3 * np.eye(3), atol=1e-14)
        assert np.allclose(bs.eta_apply(e2, b), np.trace(b) / 3 * np.eye(3), atol=1e-14)

    def test_separable_t1_formulas(self):
        rng = np.random.default_rng(2)
        Psi, PsiHat = _rand_herm_psd(2, rng), _rand_herm_psd(3, rng)
        fam = bs.CorrelationFamily(psi=(Psi,), psi_hat=(PsiHat,))
        e1, e2 = bs.build_nonsep_eta(fam)
        b1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.allclose(bs.eta_apply(e1, b1), PsiHat * np.trace(b1 @ Psi) / 2, atol=1e-13)
        assert np.allclose(bs.eta_apply(e2, b2), Psi * np.trace(b2 @ PsiHat) / 3, atol=1e-13)

    def test_diagonal_families_close_on_diagonals(self):
        rng = np.random.default_rng(3)
        fam = bs.CorrelationFamily(
            psi=(np.diag(rng.uniform(0.1, 1, 3)), np.diag(rng.uniform(0.1, 1, 3))),
            psi_hat=(np.diag(rng.uniform(0.1, 1, 3)), np.diag(rng.uniform(0.1, 1, 3))),
        )
        e1, _ = bs.build_nonsep_eta(fam)
        b = rng.standard_normal((3, 3))
        out = bs.eta_apply(e1, b)
        # direct summation oracle
        want = sum(
            Ph * np.trace(b @ Ps) / 3 for Ps, Ph in zip(fam.psi, fam.psi_hat)
        )
        assert np.allclose(out, want, atol=1e-13)
        assert np.abs(out - np.diag(np.diagonal(out))).max() == 0.0


class TestSolveFading:
    def test_identity_reduces_to_marchenko_pastur(self):
        fam = bs.CorrelationFamily(psi=(np.eye(2),), psi_hat=(np.eye(2),))
        sol = bs.solve_fading(fam, 5.0 + 0.0j, bs.SolverConfig(tol=1e-13))
        assert sol.converged
        assert sol.g == pytest.approx((5 - np.sqrt(5)) / 10, abs=1e-10)

    def test_mp_on_grid(self):
        fam = bs.CorrelationFamily(psi=(np.eye(3),), psi_hat=(np.eye(3),))
        for x in np.linspace(0.2, 6.0, 20):
            z = complex(x, 0.05)
            sol = bs.solve_fading(fam, z, TIGHT)
            assert abs(sol.g - complex(mp1_cauchy(z))) <= 1e-8

    def test_resolvent_normalization(self):
        rng = np.random.default_rng(4)
        fam = bs.CorrelationFamily(
            psi=(_rand_herm_psd(3, rng), _rand_herm_psd(3, rng)),
            psi_hat=(_rand_herm_psd(3, rng), _rand_herm_psd(3, rng)),
        )
        sol = bs.solve_fading(fam, 1e6j, TIGHT)
        assert np.linalg.norm(1e6j * sol.G1 - np.eye(3)) <= 1e-4

    def test_diagonal_families_keep_g1_diagonal(self):
        rng = np.random.default_rng(5)
        fam = bs.CorrelationFamily(
            psi=(np.diag(rng.uniform(0.2, 1, 3)), np.diag(rng.uniform(0.2, 1, 3))),
            psi_hat=(np.diag(rng.uniform(0.2, 1, 3)), np.diag(rng.uniform(0.2, 1, 3))),
        )
        sol = bs.solve_fading(fam, 1.0 + 0.1j, TIGHT)
        off = sol.G1 - np.diag(np.diagonal(sol.G1))
        assert np.abs(off).max() == 0.0

    def test_block_route_agreement_t2(self):
        rng = np.random.default_rng(6)
        fam = bs.CorrelationFamily(
            psi=(np.diag(rng.uniform(0.2, 1, 3)), np.diag(rng.uniform(0.2, 1, 3))),
            psi_hat=(np.diag(rng.uniform(0.2, 1, 3)), np.diag(rng.uniform(0.2, 1, 3))),
        )
        for z in (0.8 + 0.05j, 2.0 + 0.2j):
            direct = bs.solve_fading(fam, z, TIGHT)
            block = bs.solve_fading_block(fam, z, TIGHT)
            assert abs(direct.g - block.g) <= 1e-9
            assert np.abs(direct.G1 - block.G1).max() <= 1e-9

    def test_mixed_moment_independence(self):
        rng = np.random.default_rng(7)
        psis = (_rand_herm_psd(3, rng), _rand_herm_psd(3, rng))
        hats = (_rand_herm_psd(3, rng), _rand_herm_psd(3, rng))
        fam = bs.CorrelationFamily(psi=psis, psi_hat=hats)
        Q = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        fam_rot = bs.CorrelationFamily(
            psi=psis, psi_hat=tuple(Q @ H @ Q.conj().T for H in hats)
        )
        for z in (1.0 + 0.2j, 3.0 + 0.05j):
            g0 = bs.solve_fading(fam, z, TIGHT).g
            g1 = bs.solve_fading(fam_rot, z, TIGHT).g
            assert abs(g0 - g1) <= 1e-10

    def test_positivity(self):
        rng = np.random.default_rng(8)
        fam = bs.CorrelationFamily(
            psi=(_rand_herm_psd(4, rng),), psi_hat=(_rand_herm_psd(4, rng),)
        )
        from blockspectra.solver import max_im_eigenvalue

        for x in (0.1, 0.7, 2.0):
            sol = bs.solve_fading(fam, complex(x, 0.05), TIGHT)
            assert sol.converged
            assert max_im_eigenvalue(sol.G1) <= 1e-8

    def test_lower_half_plane_rejected(self):
        fam = bs.CorrelationFamily(psi=(np.eye(2),), psi_hat=(np.eye(2),))
        with pytest.raises(errors.BadParameter):
            bs.solve_fading(fam, 1 - 1j)


class TestHHStarCrossRoute:
    def test_t1_matches_hh_star_encoding_on_grid(self):
        # separable correlation encoded as a one-term family and as a block
        # spec with tau(i,k;j,l) = 2 Psi[i,j] PsiHat[l,k] must agree
        rng = np.random.default_rng(9)
        p = 3
        Psi, PsiHat = _rand_real_psd(p, rng), _rand_real_psd(p, rng)
        fam = bs.CorrelationFamily(psi=(Psi,), psi_hat=(PsiHat,))
        entries = []
        for i in range(p):
            for k in range(p):
                for j in range(p):
                    for l in range(p):
                        entries.append(
                            (i + 1, k + 1, j + 1, l + 1, 2.0 * Psi[i, j] * PsiHat[l, k])
                        )
        spec = bs.hh_star_covariance(p, p, entries)
        for x in np.linspace(0.3, 6.0, 20):
            z = complex(x, 0.1)
            g_fading = bs.solve_fading(fam, z, TIGHT).g
            g_block = bs.solve_hh_star(spec, z, TIGHT).g
            assert abs(g_fading - g_block) <= 1e-8


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), p=st.integers(1, 3), q=st.integers(1, 3),
       t=st.integers(1, 2))
def test_random_complex_family_spec_solves_as_the_family(seed, p, q, t):
    """A complex family's hh_star spec is realizable and has the family's law.

    ``solve_fading`` works on the p- and q-dimensional algebras directly, so
    it checks the spec's amplification to lcm(p, q) blocks and the conj tau
    pairing of its eta2.
    """
    rng = np.random.default_rng(seed)
    fam = bs.CorrelationFamily(
        psi=tuple(_rand_herm_psd(p, rng) for _ in range(t)),
        psi_hat=tuple(_rand_herm_psd(q, rng) for _ in range(t)),
    )
    assert fam.spec.choi_min_eig >= -1e-10
    for z in (0.3 + 0.05j, 1.0 + 0.2j, 2.5 + 0.5j):
        g_fading = bs.solve_fading(fam, z, TIGHT).g
        g_spec = bs.solve_hh_star(fam.spec, z, TIGHT).g
        assert abs(g_fading - g_spec) <= 1e-9


def test_lcm_copies_fold_into_one_stored_block_a_side():
    # p=2, q=3: the spec on lcm(p, q) = 6 blocks a side repeats each 2x2 Psi
    # block three times and each 3x3 PsiHat block twice; the engine stores one
    rng = np.random.default_rng(12)
    fam = bs.CorrelationFamily(psi=tuple(_rand_real_psd(2, rng) for _ in range(2)),
                               psi_hat=tuple(_rand_real_psd(3, rng) for _ in range(2)))
    pat = cov._law(fam.spec).eta.pattern
    assert (len(pat.flat), len(pat.eye)) == (30, 13)
    assert pat.groups == ((2, 1, slice(0, 4)), (3, 1, slice(4, 13)))
    for z in (0.4 + 0.05j, 1.5 + 0.1j, 4.0 + 0.3j):
        block = bs.solve_hh_star(fam.spec, z, TIGHT)
        ref = bs.solve_fading(fam, z, TIGHT)
        assert block.converged and ref.converged
        assert (block.G1 == np.kron(block.G1[::3, ::3], np.eye(3))).all()
        assert np.abs(block.G1[::3, ::3] - ref.G1).max() <= 1e-10
        assert abs(block.g - ref.g) <= 1e-10


class TestFadingDensity:
    def test_identity_family_density_is_mp(self):
        fam = bs.CorrelationFamily(psi=(np.eye(2),), psi_hat=(np.eye(2),))
        dens = bs.fading_density(fam, epsilon=2e-5)
        assert bs.mass(dens) == pytest.approx(1.0, abs=5e-3)
        from reference_laws import mp1_pdf

        mask = dens.xs >= 0.05
        assert np.abs(dens.ps[mask] - mp1_pdf(dens.xs[mask])).max() <= 2e-3
