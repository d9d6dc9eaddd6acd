import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

import blockspectra as bs
from blockspectra import covariance as cov
from blockspectra import errors
from blockspectra import solver as slv
from blockspectra import spectrum as spc

from conftest import (
    random_complex_selfadjoint_spec,
    random_hh_star_spec,
    random_selfadjoint_spec,
)
from reference_laws import (
    catalan,
    mp1_cauchy,
    mp1_cdf,
    mp1_pdf,
    semicircle_cauchy,
    semicircle_cdf,
    semicircle_pdf,
)

NEWTON = bs.SolverConfig(tol=1e-12, newton=True)


def _invert_closed_form(transform, xs, eps2, **kwargs):
    """Inversion fed with exact transform values (solver-independent)."""
    g1 = transform(np.asarray(xs) + 2j * eps2)
    g2 = transform(np.asarray(xs) + 1j * eps2)
    return bs.stieltjes_invert(xs, g1, g2, eps2, **kwargs)


class TestStieltjesInvert:
    def test_semicircle_density_at_zero(self):
        dens = _invert_closed_form(semicircle_cauchy, np.linspace(-0.5, 0.5, 11), 1e-4)
        mid = dens.ps[5]
        assert mid == pytest.approx(1 / np.pi, abs=1e-4)

    def test_mp_density_at_one(self):
        dens = _invert_closed_form(mp1_cauchy, np.linspace(0.5, 1.5, 21), 1e-4)
        assert dens.ps[10] == pytest.approx(np.sqrt(3) / (2 * np.pi), abs=1e-3)

    def test_zero_off_support(self):
        dens = _invert_closed_form(semicircle_cauchy, [9.0, 10.0, 11.0], 1e-4)
        assert dens.ps.max() <= 1e-6

    def test_unsorted_grid_rejected(self):
        with pytest.raises(errors.GridError):
            bs.stieltjes_invert([1.0, 0.5], [0j, 0j], [0j, 0j], 1e-4)

    def test_offset_ratio_enforced(self):
        # the wide offset is twice the narrow one by construction
        dens = bs.stieltjes_invert([0.0, 1.0], [0j, 0j], [0j, 0j], eps2=1e-4)
        assert dens.epsilon_used == (2e-4, 1e-4)

    def test_large_negative_excursion_warns(self):
        with pytest.warns(RuntimeWarning, match="clipped"):
            # Im > 0 forces p < 0
            dens = bs.stieltjes_invert([0.0, 1.0], [0j, 0j], [0.5j, 0.5j], 1e-4)
        assert dens.ps.min() >= 0.0
        assert dens.clip_excursion == pytest.approx(1 / np.pi)

    def test_density_validation(self):
        with pytest.raises(errors.GridError):
            bs.SpectralDensity(xs=np.array([0.0, 1.0]), ps=np.array([-1.0, 0.0]))
        with pytest.raises(errors.BadParameter):
            bs.SpectralDensity(xs=np.array([0.0, 1.0]), ps=np.array([0.0, 0.0]),
                               atom_at_zero=1.5)


@pytest.fixture
def no_solve(monkeypatch):
    """Make every grid solve fail, so a test sees whether inputs are refused first."""
    def solve(*args, **kwargs):
        raise AssertionError("solved before refusing the input")

    monkeypatch.setattr(slv, "_solve_continuation", solve)


@pytest.mark.parametrize("route", [
    "solve_grid", "solve_gram_grid", "density_from_eta", "density_gram",
])
@pytest.mark.parametrize("epsilon, xs", [
    (-1.0, None), (0.0, None), (np.nan, None), (np.inf, None),
    (1e-4, [np.nan]),
], ids=["negative", "zero", "nan", "inf", "nan-x"])
def test_bad_offset_or_grid_refused_before_solving(
    route, epsilon, xs, semicircle_eta, mp_spec, no_solve
):
    gram = cov._law(mp_spec).eta
    grid = np.linspace(0.1, 1.0, 5) if xs is None else xs
    call = {
        "solve_grid": lambda: bs.solve_grid(semicircle_eta, grid, epsilon),
        "solve_gram_grid": lambda: slv.solve_gram_grid(gram, 1, grid, epsilon),
        "density_from_eta": lambda: bs.density_from_eta(semicircle_eta, xs=xs, epsilon=epsilon),
        "density_gram": lambda: bs.density_gram(gram, 1, xs=xs, epsilon=epsilon),
    }[route]
    with pytest.raises(errors.BadParameter):
        call()


@pytest.mark.parametrize("route", ["density_from_eta", "density_gram"])
@pytest.mark.parametrize("kwargs, error", [
    (dict(xs=np.linspace(2.5, -2.5, 512)), errors.GridError),
    (dict(xs=[0.5]), errors.GridError),
    (dict(npoints=1), errors.GridError),
    (dict(npoints=0), errors.GridError),
    (dict(npoints=2.5), errors.BadParameter),
], ids=["decreasing", "one-point", "npoints-1", "npoints-0", "npoints-2.5"])
def test_grid_the_density_cannot_invert_refused_before_solving(
    route, kwargs, error, semicircle_eta, mp_spec, no_solve
):
    gram = cov._law(mp_spec).eta
    with pytest.raises(error):
        if route == "density_from_eta":
            bs.density_from_eta(semicircle_eta, **kwargs)
        else:
            bs.density_gram(gram, 1, **kwargs)


@pytest.mark.parametrize("law", ["selfadjoint", "gram"])
def test_density_reads_compressed_values(monkeypatch, law, isi44):
    # the transform is read off the pattern's diagonal: no (P, d, d) stack is expanded
    def refuse(pat, Gc):
        raise AssertionError(f"expanded {Gc.shape[:-1]} values to d x d")

    monkeypatch.setattr(cov.InvariantPattern, "expand", refuse)
    if law == "gram":
        dens = bs.density_hh_star(isi44)
    else:
        dens = bs.density_from_eta(bs.eta_map(random_selfadjoint_spec(3, np.random.default_rng(4))))
    assert abs(bs.mass(dens) - 1) <= spc.MASS_TOL


class TestCdf:
    def test_semicircle_median(self):
        xs = np.linspace(-2.2, 2.2, 801)
        dens = _invert_closed_form(semicircle_cauchy, xs, 1e-4)
        F = bs.cdf(dens)
        assert F(0.0) == pytest.approx(0.5, abs=1e-3)
        assert F(dens.xs[0]) == pytest.approx(0.0, abs=1e-6)
        assert F(-5.0) == 0.0

    def test_mp_total_mass_at_right_edge(self):
        # geometric clustering at 0 resolves the integrable 1/sqrt(x) edge
        eps = 5e-5
        xs = np.concatenate(([0.0], np.geomspace(eps / 4, 4.5, 2000)))
        dens = _invert_closed_form(mp1_cauchy, xs, eps)
        F = bs.cdf(dens)
        assert F(4.0) == pytest.approx(1.0, abs=5e-3)

    def test_monotone(self):
        xs = np.linspace(-2.2, 2.2, 201)
        dens = _invert_closed_form(semicircle_cauchy, xs, 1e-4)
        F = bs.cdf(dens)
        vals = F(np.linspace(-3, 3, 301))
        assert np.all(np.diff(vals) >= -1e-15)

    def test_atom_contributes_at_zero(self):
        dens = bs.SpectralDensity(
            xs=np.array([0.0, 1.0, 2.0]), ps=np.array([0.0, 0.5, 0.0]),
            atom_at_zero=0.5,
        )
        F = bs.cdf(dens)
        assert F(-0.1) == 0.0
        assert F(0.0) == pytest.approx(0.5)


def _narrow_spike(center=1.0, width=5e-3, n=2001):
    xs = np.linspace(center - 20 * width, center + 20 * width, n)
    ps = np.exp(-0.5 * ((xs - center) / width) ** 2) / (width * np.sqrt(2 * np.pi))
    return bs.SpectralDensity(xs=xs, ps=ps)


class TestCapacity:
    def test_point_mass_at_one(self):
        assert bs.capacity(_narrow_spike(), 1.0) == pytest.approx(1.0, abs=1e-4)

    def test_vanishes_with_snr(self):
        assert bs.capacity(_narrow_spike(), 1e-9) <= 1e-8

    def test_monotone_in_snr(self):
        xs = np.linspace(1e-3, 4.5, 801)
        dens = _invert_closed_form(mp1_cauchy, xs, 5e-5)
        snrs = np.geomspace(0.01, 100, 12)
        caps = [bs.capacity(dens, s) for s in snrs]
        assert np.all(np.diff(caps) > 0)

    def test_mp_capacity_matches_monte_carlo(self, mp_spec):
        dens = bs.density_hh_star(mp_spec, epsilon=2e-5)
        cap = bs.capacity(dens, 10.0)
        sample = bs.sample_block_gaussian(mp_spec, 2000, 123)
        mc = float(np.mean(np.log2(1 + 10.0 * np.clip(sample.eigenvalues, 0, None))))
        assert cap == pytest.approx(mc, rel=0.02)

    def test_negative_support_rejected(self):
        xs = np.linspace(-2.2, 2.2, 201)
        dens = _invert_closed_form(semicircle_cauchy, xs, 1e-4)
        with pytest.raises(errors.NegativeSupport):
            bs.capacity(dens, 1.0)

    def test_bad_snr(self):
        with pytest.raises(errors.BadParameter):
            bs.capacity(_narrow_spike(), 0.0)


class TestMoments:
    def test_mass_normalization(self):
        xs = np.linspace(-2.2, 2.2, 801)
        dens = _invert_closed_form(semicircle_cauchy, xs, 1e-4)
        assert bs.moments_from_density(dens, 0) == pytest.approx(1.0, abs=5e-3)

    def test_semicircle_catalan(self):
        xs = np.linspace(-2.3, 2.3, 2001)
        dens = _invert_closed_form(semicircle_cauchy, xs, 2e-5)
        assert bs.moments_from_density(dens, 2) == pytest.approx(1.0, abs=1e-2)
        assert bs.moments_from_density(dens, 6) == pytest.approx(5.0, abs=5e-2)

    def test_isi_first_moment(self, isi44, isi44_density):
        # tr of the Gram form: X^2 splits its spectrum between both Gram laws
        eta = bs.eta_map(bs.hermitize_covariance(isi44))
        _, m2x = bs.nc2_moment(eta, 2)
        a, b = isi44.a, isi44.b
        want = m2x.real * (a + b) / (2 * a)
        got = bs.moments_from_density(isi44_density, 1)
        assert want == pytest.approx(4 / 11)  # exact trace identity for unit taps
        assert got == pytest.approx(want, rel=1e-2)

    def test_atom_counts_in_mass_only(self):
        dens = bs.SpectralDensity(
            xs=np.array([0.0, 1.0, 2.0]), ps=np.array([0.0, 0.5, 0.0]),
            atom_at_zero=0.5,
        )
        assert bs.moments_from_density(dens, 0) == pytest.approx(1.0)
        assert bs.moments_from_density(dens, 1) == pytest.approx(0.5)


class TestPipelines:
    def test_semicircle_auto_support(self, semicircle_eta):
        dens = bs.density_from_eta(semicircle_eta)
        assert dens.xs[0] < -2.0 and dens.xs[-1] > 2.0
        assert bs.mass(dens) == pytest.approx(1.0, abs=5e-3)
        assert dens.ps[0] <= 1e-6 and dens.ps[-1] <= 1e-6

    def test_semicircle_matches_closed_form(self, semicircle_eta):
        xs = np.linspace(-2.2, 2.2, 512)
        dens = bs.density_from_eta(semicircle_eta, xs=xs, epsilon=2e-5)
        assert np.abs(dens.ps - semicircle_pdf(xs)).max() <= 1e-3

    def test_mp_density_and_cdf(self, mp_spec):
        dens = bs.density_hh_star(mp_spec, epsilon=2e-5)
        mask = dens.xs >= 0.05
        assert np.abs(dens.ps[mask] - mp1_pdf(dens.xs[mask])).max() <= 2e-3
        F = bs.cdf(dens)
        xs = np.linspace(0.2, 3.8, 50)
        assert np.abs(F(xs) - mp1_cdf(xs)).max() <= 5e-3

    def test_isi_density_mass(self, isi44_density):
        assert bs.mass(isi44_density) == pytest.approx(1.0, abs=5e-3)
        assert isi44_density.ps.min() >= 0.0

    def test_rectangular_weighted_density_mass(self):
        spec = bs.rectangular_covariance(
            (1 / 3, 2 / 3),
            [(1, 1, 1, 1, 1.0), (2, 2, 2, 2, 1.0), (1, 2, 2, 1, 1.0)],
        )
        dens = bs.density_from_eta(
            bs.eta_alpha_map(spec), trace_weights=spec.alpha, epsilon=5e-5
        )
        assert bs.mass(dens) == pytest.approx(1.0, abs=5e-3)

    @pytest.mark.parametrize("weights", [(1.0,), (0.2, 0.3, 0.5)])
    def test_trace_weights_must_match_dimension(self, weights):
        eta = bs.eta_map(bs.selfadjoint_covariance(2, [(1, 1, 1, 1, 1.0), (2, 2, 2, 2, 1.0)]))
        with pytest.raises(errors.BadParameter, match="trace_weights"):
            bs.density_from_eta(eta, trace_weights=weights)

    def test_mass_warning_on_truncated_grid(self, semicircle_eta):
        with pytest.warns(RuntimeWarning, match="mass"):
            bs.density_from_eta(semicircle_eta, xs=np.linspace(-1.0, 1.0, 64),
                                epsilon=1e-3)


    def test_gram_grid_increases_for_an_offset_past_its_span(self):
        # ISI K = L = 2 has hi = 2.88: a geometric part that started at
        # epsilon / 4 ran downward once epsilon > 4 hi, and the check
        # refused a grid the user never gave; now the mass check judges it
        spec = bs.isi_covariance(2, 2)
        with pytest.warns(RuntimeWarning, match="total mass"):
            dens = bs.density_hh_star(spec, epsilon=11.64)
        assert dens.xs[0] == 0.0 and (np.diff(dens.xs) > 0).all()
        assert dens.xs[-1] == pytest.approx(2.88, rel=1e-12)


class TestGridFromBound:
    @pytest.mark.parametrize("var", [1e-3, 1.0, 1e2])
    def test_semicircle_solved_once_on_scaled_grid(self, var, semicircle_eta, monkeypatch):
        unit = bs.density_from_eta(semicircle_eta)
        calls = []
        solve = slv._solve_continuation

        def counted(*args, **kwargs):
            calls.append(args[1])
            return solve(*args, **kwargs)

        monkeypatch.setattr(slv, "_solve_continuation", counted)
        eta = bs.eta_map(bs.selfadjoint_covariance(1, [(1, 1, 1, 1, var)]))
        dens = bs.density_from_eta(eta)
        assert len(calls) == 1
        np.testing.assert_allclose(dens.xs, np.sqrt(var) * unit.xs, rtol=1e-12)
        assert bs.mass(dens) == pytest.approx(1.0, abs=spc.MASS_TOL)

    def test_two_point_gram_grid_reaches_its_bound(self, monkeypatch):
        grids = []
        solve = slv._solve_continuation

        def recorded(*args, **kwargs):
            grids.append(args[1])
            return solve(*args, **kwargs)

        monkeypatch.setattr(slv, "_solve_continuation", recorded)
        spec = bs.isi_covariance(2, 2)
        with pytest.warns(RuntimeWarning, match="mass"):
            dens = bs.density_hh_star(spec, npoints=2)
        (xs,) = grids
        hi = 1.8 * slv._edge_estimate(cov._hh_star_law(spec).eta) ** 2
        assert list(xs) == [0.0, hi] == list(dens.xs)


@settings(max_examples=20, deadline=None)
@given(gram=st.booleans(), a=st.integers(1, 3), b=st.integers(1, 3),
       seed=st.integers(0, 2**16))
def test_even_moments_within_grid_bound(gram, a, b, seed):
    # the 2k-th moment of a positive map is at most Catalan(k) ||eta(I)||^k,
    # so the law lies in [-e, e] with e = 2 ||eta(I)||^(1/2), inside the grid
    rng = np.random.default_rng(seed)
    if gram:
        spec = random_hh_star_spec(a, b, rng)
        eta, weights, _ = cov._law(spec)
    else:
        eta = bs.eta_map(random_selfadjoint_spec(a, rng))
        weights = None
    half_edge = slv._edge_estimate(eta) / 2
    for k in range(1, 9):
        _, tr = bs.nc2_moment(eta, 2 * k, trace_weights=weights)
        assert tr.real <= catalan(k) * half_edge ** (2 * k) * (1 + 1e-12)


@settings(max_examples=15, deadline=None)
@given(d=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_random_complex_selfadjoint_law(d, seed):
    # complex sigma, closed under sigma(k,l;i,j) = sigma(i,j;k,l) and
    # sigma(j,i;l,k) = conj sigma(i,j;k,l), is accepted and solves to a law
    spec = random_complex_selfadjoint_spec(d, np.random.default_rng(seed))
    assert spec.choi_min_eig >= -1e-10
    eta = bs.eta_map(spec)
    dens = bs.density_from_eta(eta)
    sols = bs.solve_grid(eta, dens.xs, dens.epsilon_used[1])
    assert max(slv.max_im_eigenvalue(s.G) for s in sols) <= 1e-8
    assert bs.mass(dens) == pytest.approx(1.0, abs=5e-3)
    for k in (2, 4):
        _, tr = bs.nc2_moment(eta, k)
        assert bs.moments_from_density(dens, k) == pytest.approx(tr.real, rel=1e-2)


class TestGramSide:
    @pytest.mark.parametrize("side", [0, 2, 1.5])
    def test_side_must_split_the_blocks(self, mp_spec, side):
        eta = cov._law(mp_spec).eta
        with pytest.raises(errors.BadParameter, match="side"):
            bs.density_gram(eta, side)

    @pytest.mark.parametrize("side", [0, 2, 6, -1, 2.5, True])
    def test_grid_side_must_split_the_blocks(self, mp_spec, side, no_solve):
        eta = cov._law(mp_spec).eta
        with pytest.raises(errors.BadParameter, match="side"):
            slv.solve_gram_grid(eta, side, np.linspace(0.0, 1.0, 5), 1e-2)


class TestHStarH:
    def test_atom_and_rescaling(self):
        spec = bs.isi_covariance(2, 3)  # a=2, b=4
        hh = bs.density_hh_star(spec, epsilon=1e-4)
        hsh = bs.density_h_star_h(spec, epsilon=1e-4)
        assert hsh.atom_at_zero == pytest.approx(0.5)
        assert np.allclose(hsh.ps, 0.5 * hh.ps)
        assert bs.mass(hsh) == pytest.approx(1.0, abs=5e-3)

    def test_cdf_agreement_with_direct_cogram_inversion(self):
        # independent route: invert tr_b(G2) directly on a grid straddling 0
        # (the offset smears the atom symmetrically around it); the result
        # must reproduce the analytic-atom construction away from zero
        spec = bs.isi_covariance(2, 3)
        hsh = bs.density_h_star_h(spec, epsilon=1e-4)
        eps2 = 1e-4
        pos = np.geomspace(eps2 / 8, hsh.xs[-1], 400)
        xs = np.concatenate((-pos[pos <= 1.0][::-1], [0.0], pos))
        cfg = NEWTON
        sols1 = bs.solve_hh_star_grid(spec, xs, 2 * eps2, cfg)
        sols2 = bs.solve_hh_star_grid(spec, xs, eps2, cfg)
        b = spec.b
        g1 = [np.trace(s.G2) / b for s in sols1]
        g2 = [np.trace(s.G2) / b for s in sols2]
        direct = bs.stieltjes_invert(xs, g1, g2, eps2)
        F_direct = bs.cdf(direct)
        F_analytic = bs.cdf(hsh)
        probe = np.linspace(0.1, hsh.xs[-1], 60)
        assert np.abs(F_direct(probe) - F_analytic(probe)).max() <= 5e-3

    def test_a_greater_b_rejected(self):
        spec = bs.hh_star_covariance(2, 1, [(1, 1, 1, 1, 1.0), (2, 1, 2, 1, 1.0)])
        with pytest.raises(errors.BadParameter):
            bs.density_h_star_h(spec)


class TestMomentOracleConsistency:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_random_d3_specs(self, seed):
        rng = np.random.default_rng(seed)
        spec = random_selfadjoint_spec(3, rng)
        eta = bs.eta_map(spec)
        dens = bs.density_from_eta(eta, epsilon=5e-5, config=NEWTON)
        for k in (2, 4, 6, 8):
            _, tr = bs.nc2_moment(eta, k)
            got = bs.moments_from_density(dens, k)
            assert got == pytest.approx(tr.real, rel=1e-2)

    def test_semicircle_catalan_chain(self, semicircle_eta):
        dens = bs.density_from_eta(semicircle_eta, epsilon=2e-5, config=NEWTON)
        for k in (2, 4, 6, 8):
            got = bs.moments_from_density(dens, k)
            assert got == pytest.approx(catalan(k // 2), rel=1e-2)
