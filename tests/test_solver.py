import numpy as np
import pytest

import blockspectra as bs
from blockspectra import errors
from blockspectra.solver import max_im_eigenvalue

from conftest import random_selfadjoint_spec
from reference_laws import mp1_cauchy, semicircle_cauchy

TIGHT = bs.SolverConfig(tol=1e-12)
NEWTON = bs.SolverConfig(tol=1e-12, newton=True)


class TestConfig:
    def test_defaults(self):
        cfg = bs.SolverConfig()
        assert cfg.tol == 1e-10 and cfg.max_iter == 10_000
        assert cfg.newton is False

    @pytest.mark.parametrize(
        "kwargs",
        [dict(tol=0.0), dict(tol=-1e-3), dict(tol=float("nan")), dict(max_iter=0)],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(errors.BadParameter):
            bs.SolverConfig(**kwargs)


class TestFixedPoint:
    def test_semicircle_at_i(self, semicircle_eta):
        sol = bs.solve_fixed_point(semicircle_eta, 1j, TIGHT)
        assert sol.converged
        assert sol.G[0, 0] == pytest.approx((1 - np.sqrt(5)) / 2 * 1j, abs=1e-10)

    def test_resolvent_normalization_far_out(self):
        rng = np.random.default_rng(2)
        for d in (1, 3):
            eta = bs.eta_map(random_selfadjoint_spec(d, rng))
            for R in (1e3, 1e6):
                sol = bs.solve_fixed_point(eta, 1j * R, TIGHT)
                assert np.linalg.norm(1j * R * sol.G - np.eye(d)) <= 1e-4

    def test_real_axis_outside_support(self, semicircle_eta):
        sol = bs.solve_fixed_point(semicircle_eta, 3.0 + 0.0j, TIGHT)
        assert sol.converged
        assert abs(sol.G[0, 0].imag) <= 1e-8
        assert sol.G[0, 0].real == pytest.approx((3 - np.sqrt(5)) / 2, abs=1e-10)

    def test_lower_half_plane_rejected(self, semicircle_eta):
        with pytest.raises(errors.BadParameter):
            bs.solve_fixed_point(semicircle_eta, 1 - 1j)

    def test_warm_start_projection(self, semicircle_eta):
        # a warm start with the wrong imaginary sign still lands on the
        # physical branch
        sol = bs.solve_fixed_point(
            semicircle_eta, 1j, TIGHT, warm_start=np.array([[0.5 + 0.9j]])
        )
        assert sol.converged
        assert sol.G[0, 0] == pytest.approx(-0.6180339887j, abs=1e-9)

    def test_unconverged_returns_best_iterate(self, semicircle_eta):
        sol = bs.solve_fixed_point(
            semicircle_eta, 0.1 + 1e-6j, bs.SolverConfig(tol=1e-12, max_iter=5)
        )
        assert not sol.converged
        assert sol.iterations == 5
        assert np.isfinite(sol.residual)

    def test_singular_resolvent(self):
        with pytest.warns(RuntimeWarning, match="positivity"):
            spec = bs.selfadjoint_covariance(1, [(1, 1, 1, 1, -1.0)])
        eta = bs.eta_map(spec)
        with pytest.raises(errors.SingularResolvent):
            bs.solve_fixed_point(eta, 1j, TIGHT)

    def test_rectangular_map_rejected(self, isi44):
        with pytest.raises(errors.DimensionMismatch):
            bs.solve_fixed_point(bs.eta1_map(isi44), 1j)


class TestNewtonRefine:
    def test_converges_from_nearby_start(self, semicircle_eta):
        sol = bs.newton_refine(semicircle_eta, 1j, np.array([[-0.6j]]), TIGHT)
        assert sol.converged and sol.iterations <= 5
        assert sol.G[0, 0] == pytest.approx(-0.61803398875j, abs=1e-10)

    def test_exact_start_returns_immediately(self, semicircle_eta):
        g = complex(semicircle_cauchy(1j))
        sol = bs.newton_refine(semicircle_eta, 1j, np.array([[g]]), TIGHT)
        assert sol.converged and sol.iterations <= 1
        assert sol.residual <= TIGHT.tol

    def test_agrees_with_fixed_point_on_isi(self, isi44):
        z = 2 + 0.01j
        herm = bs.hermitize_covariance(isi44)
        eta = bs.eta_map(herm)
        # plain (unscaled) equation at this z for the hermitized map
        fp = bs.solve_fixed_point(eta, z, bs.SolverConfig(tol=1e-11))
        rough = bs.solve_fixed_point(eta, z, bs.SolverConfig(tol=1e-3))
        nt = bs.newton_refine(eta, z, rough.G, bs.SolverConfig(tol=1e-11))
        assert fp.converged and nt.converged
        assert np.abs(fp.G - nt.G).max() <= 1e-9

    def test_fixed_point_newton_agreement_random_specs(self):
        rng = np.random.default_rng(77)
        for trial in range(50):
            d = int(rng.integers(1, 7))
            eta = bs.eta_map(random_selfadjoint_spec(d, rng))
            z = complex(rng.uniform(-3, 3), rng.uniform(0.1, 2.0))
            fp = bs.solve_fixed_point(eta, z, bs.SolverConfig(tol=1e-11))
            rough = bs.solve_fixed_point(eta, z, bs.SolverConfig(tol=1e-4))
            nt = bs.newton_refine(eta, z, rough.G, bs.SolverConfig(tol=1e-11))
            assert fp.converged and nt.converged
            assert np.abs(fp.G - nt.G).max() <= 1e-8
            assert max_im_eigenvalue(fp.G) <= 1e-8


class TestGrid:
    def test_density_normalization_at_zero(self, semicircle_eta):
        sols = bs.solve_grid(semicircle_eta, [0.0], 1e-4, NEWTON)
        assert sols[0].G[0, 0].imag == pytest.approx(-1.0, abs=1e-3)

    def test_far_outside_support(self, semicircle_eta):
        xs = [10.0, 11.0, 12.0]
        sols = bs.solve_grid(semicircle_eta, xs, 1e-3, TIGHT)
        for x, s in zip(xs, sols):
            # leading deviation from the bare resolvent is m2/x^3 = 1e-3 at x=10
            assert abs(s.G[0, 0] - 1.0 / (x + 1e-3j)) <= 1.1e-3
            assert s.G[0, 0] == pytest.approx(complex(semicircle_cauchy(x + 1e-3j)), abs=1e-10)

    def test_continuation_matches_closed_form_single_points_and_order(self, semicircle_eta):
        xs = np.linspace(-2.5, 2.5, 200)
        fwd = bs.solve_grid(semicircle_eta, xs, 1e-3, NEWTON)
        rev = bs.solve_grid(semicircle_eta, xs[::-1], 1e-3, NEWTON)
        g_fwd = np.array([s.G[0, 0] for s in fwd])
        g_rev = np.array([s.G[0, 0] for s in rev])[::-1]
        assert np.abs(g_fwd - g_rev).max() <= 1e-9
        assert np.abs(g_fwd - semicircle_cauchy(xs + 1e-3j)).max() <= 1e-9
        for x, g in zip(xs[::8], g_fwd[::8]):
            point = bs.solve_fixed_point(semicircle_eta, complex(x, 1e-3), NEWTON)
            assert abs(point.G[0, 0] - g) <= 1e-9

    def test_epsilon_floor(self, semicircle_eta):
        with pytest.raises(errors.BadParameter):
            bs.solve_grid(semicircle_eta, [0.0], 1e-9)

    def test_unsorted_grid_rejected(self, semicircle_eta):
        with pytest.raises(errors.BadParameter):
            bs.solve_grid(semicircle_eta, [0.0, 2.0, 1.0], 1e-3)

    def test_no_convergence_raises_with_index(self, semicircle_eta):
        cfg = bs.SolverConfig(tol=1e-12, max_iter=3)
        with pytest.raises(errors.NoConvergence, match=r"\[0"):
            bs.solve_grid(semicircle_eta, [0.0, 0.5], 1e-4, cfg)

    def test_no_convergence_names_x_residual_and_im_margin(self, semicircle_eta):
        cfg = bs.SolverConfig(tol=1e-12, max_iter=3)
        xs = np.linspace(-1.0, 1.0, 7)
        with pytest.raises(errors.NoConvergence) as info:
            bs.solve_grid(semicircle_eta, xs[::-1], 1e-4, cfg)
        msg = str(info.value)
        assert msg.startswith("grid points [0, 1, 2, 3, 4, 5, 6] did not converge")
        # details for the first five failing points only, in grid order
        assert msg.count("residual=") == 5 and msg.count("max eig Im G=") == 5
        assert "x=1 " in msg and "x=-0.333333 " in msg and "x=-1 " not in msg
        with pytest.raises(errors.NoConvergence, match=r"\[0, 1, 2\].*x=0 residual="):
            bs.density_from_eta(semicircle_eta, xs=[0.0, 0.5, 1.0], config=cfg)

    def test_positivity_along_grid(self, semicircle_eta):
        sols = bs.solve_grid(semicircle_eta, np.linspace(-3, 3, 50), 1e-4, NEWTON)
        for s in sols:
            assert max_im_eigenvalue(s.G) <= 1e-8


class TestHHStar:
    def test_marchenko_pastur_point(self, mp_spec):
        sol = bs.solve_hh_star(mp_spec, 5.0 + 0.0j, bs.SolverConfig(tol=1e-13))
        assert sol.converged
        assert sol.g == pytest.approx((5 - np.sqrt(5)) / 10, abs=1e-10)
        assert max(sol.split_residuals) <= 1e-12

    def test_mp_matches_closed_form_on_points(self, mp_spec):
        for x in (0.5, 1.0, 2.5, 3.9):
            z = x + 0.05j
            sol = bs.solve_hh_star(mp_spec, z, TIGHT)
            assert sol.g == pytest.approx(complex(mp1_cauchy(z)), abs=1e-10)

    def test_isi_diagonal_structure_and_printed_system(self, isi44):
        z = 2 + 0.01j
        sol = bs.solve_hh_star(isi44, z, TIGHT)
        f = np.diagonal(sol.G1)
        assert np.abs(sol.G1 - np.diag(f)).max() <= 1e-10
        assert abs(f[0] - f[3]) <= 1e-10 and abs(f[1] - f[2]) <= 1e-10
        f1, f2 = f[0], f[1]
        lhs1 = 1 / f1 + 1 / (11 - f1) + 1 / (11 - f1 - f2) \
            + 1 / (11 - f1 - 2 * f2) + 1 / (11 - 2 * f1 - 2 * f2)
        lhs2 = 1 / f2 + 1 / (11 - f1 - f2) + 2 / (11 - f1 - 2 * f2) \
            + 1 / (11 - 2 * f1 - 2 * f2)
        assert abs(z - lhs1) <= 1e-8 and abs(z - lhs2) <= 1e-8

    def test_corner_blocks_exactly_zero(self, isi44):
        # the hermitized map annihilates corners, so every iterate keeps
        # them at exact floating-point zero
        from blockspectra import solver as slv

        eta = bs.eta_map(bs.hermitize_covariance(isi44))
        zs = np.array([1.5 + 0.05j])
        G = eta.pattern.expand(slv._solve_points(eta, zs, zs.copy(), NEWTON).G)
        a = isi44.a
        assert np.abs(G[0][:a, a:]).max() == 0.0
        assert np.abs(G[0][a:, :a]).max() == 0.0

    def test_direct_route_agrees_with_hermitized(self, isi44):
        for z in (0.5 + 0.05j, 1.2 + 0.02j, 2.5 + 0.1j):
            h = bs.solve_hh_star(isi44, z, TIGHT)
            d = bs.solve_hh_star_direct(isi44, z, TIGHT)
            assert d.converged
            assert np.abs(h.G1 - d.G).max() <= 1e-9

    @pytest.mark.parametrize("K", [2, 3, 4, 5])
    def test_isi_frame_symmetry(self, K):
        spec = bs.isi_covariance(K, 3)
        sol = bs.solve_hh_star(spec, 1.0 + 0.05j, TIGHT)
        f = np.diagonal(sol.G1)
        for j in range(K):
            assert abs(f[j] - f[K - 1 - j]) <= 1e-10

    def test_grid_solutions_converged(self, isi44):
        xs = np.linspace(0.05, 2.5, 40)
        sols = bs.solve_hh_star_grid(isi44, xs, 1e-3, NEWTON)
        for s in sols:
            assert s.converged
            assert max(s.split_residuals) <= 5e-12
            assert max_im_eigenvalue(s.G1) <= 1e-8


class TestRectangularReduction:
    def test_equal_alpha_solution_matches_square(self):
        rng = np.random.default_rng(4)
        spec = random_selfadjoint_spec(3, rng)
        rect = bs.rectangular_covariance((1 / 3, 1 / 3, 1 / 3), spec.entries)
        e_sq, e_al = bs.eta_map(spec), bs.eta_alpha_map(rect)
        for z in (1j, 0.7 + 0.3j, -1.1 + 0.05j):
            s1 = bs.solve_fixed_point(e_sq, z, TIGHT)
            s2 = bs.solve_fixed_point(e_al, z, TIGHT)
            assert np.abs(s1.G - s2.G).max() <= 1e-12


class TestMomentCheck:
    def test_semicircle_moments(self, semicircle_eta):
        m = bs.moment_check(semicircle_eta)
        assert m.m0 == pytest.approx(1.0, abs=1e-6)
        assert m.m2 == pytest.approx(1.0, abs=1e-3)
        assert m.m4 == pytest.approx(2.0, abs=1e-3)

    def test_isi_second_moment_matches_recursion(self, isi44):
        eta = bs.eta_map(bs.hermitize_covariance(isi44))
        m = bs.moment_check(eta)
        _, m2 = bs.nc2_moment(eta, 2)
        assert m.m0 == pytest.approx(1.0, abs=1e-6)
        assert m.m2 == pytest.approx(m2.real, abs=1e-3)

    def test_small_radii_refused(self, semicircle_eta):
        with pytest.raises(errors.IllConditioned):
            bs.moment_check(semicircle_eta, radii=[3.0, 3.5, 4.0])
