from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import blockspectra as bs
from blockspectra import cli
from blockspectra import covariance as cov
from blockspectra import errors
from blockspectra import solver as slv
from blockspectra.solver import max_im_eigenvalue, solve_gram_grid

from conftest import random_hh_star_spec, random_nonsep_family, random_selfadjoint_spec
from reference_laws import mp1_cauchy, semicircle_cauchy

TIGHT = bs.SolverConfig(tol=1e-12)
NEWTON = bs.SolverConfig(tol=1e-12, newton=True)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestConfig:
    def test_defaults(self):
        cfg = bs.SolverConfig()
        assert cfg.tol == 1e-10
        assert cfg.newton is True

    @pytest.mark.parametrize(
        "kwargs",
        [dict(tol=0.0), dict(tol=-1e-3), dict(tol=float("nan")), dict(newton=1),
         dict(tol=float("inf")), dict(newton=False)],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(errors.BadParameter):
            bs.SolverConfig(**kwargs)


def _semicircle():
    return bs.eta_map(bs.selfadjoint_covariance(1, [(1, 1, 1, 1, 1.0)]))


@pytest.mark.parametrize("call", [
    lambda: bs.SolverConfig(tol="1e-10"),
    lambda: bs.capacity(bs.SpectralDensity(xs=np.array([0.0, 1.0]), ps=np.ones(2)), np.nan),
    lambda: bs.capacity(bs.SpectralDensity(xs=np.array([0.0, 1.0]), ps=np.ones(2)), np.inf),
    lambda: bs.CorrelationFamily(psi=(np.zeros((0, 0)),), psi_hat=(np.zeros((0, 0)),)),
    lambda: bs.nc2_moment(bs.eta_map(bs.selfadjoint_covariance(1, [(1, 1, 1, 1, 1.0)])), 2,
                          trace_weights=[1, 2]),
    lambda: bs.density_from_eta(_semicircle(), trace_weights=[np.nan]),
    lambda: bs.density_from_eta(_semicircle(), trace_weights=[-1.0]),
    lambda: bs.density_from_eta(_semicircle(), trace_weights=[2.0]),
    lambda: bs.nc2_moment(_semicircle(), 2, trace_weights=[np.nan]),
    lambda: bs.nc2_moment(_semicircle(), 2, trace_weights=[-1.0]),
    lambda: bs.nc2_moment(_semicircle(), 2, trace_weights=[2.0]),
    lambda: bs.solve_fixed_point(_semicircle(), [1j, 2j]),
    lambda: bs.solve_grid(_semicircle(), [], 1e-3),
    lambda: bs.solve_grid(_semicircle(), [[0.0, 1.0]], 1e-3),
], ids=["tol-text", "snr-nan", "snr-inf",
        "empty-family", "trace-weights-shape", "density-weights-nan",
        "density-weights-negative", "density-weights-sum-2", "moment-weights-nan",
        "moment-weights-negative", "moment-weights-sum-2", "z-array", "xs-empty", "xs-2d"])
def test_bad_argument_is_bad_parameter(call):
    with pytest.raises(errors.BadParameter):
        call()


@pytest.mark.parametrize("call", [
    lambda eta: bs.density_from_eta(eta, epsilon="1e-3"),
    lambda eta: bs.capacity(bs.SpectralDensity(xs=[0.0, 1.0], ps=[1.0, 1.0]), "1"),
    lambda eta: bs.solve_grid(eta, [0.0, 1.0], "1e-3"),
    lambda eta: bs.SpectralDensity(xs=[0, 1], ps=[0, 0], atom_at_zero="0.5"),
    lambda eta: bs.isi_covariance(2, 2, tap_var=["a", 1]),
    lambda eta: bs.isi_covariance(2, 2, tap_var=["1", 1]),
    lambda eta: bs.rectangular_covariance(("a", 0.5), []),
    lambda eta: bs.rectangular_covariance(("0.5", 0.5), []),
], ids=["density-epsilon", "capacity-snr", "grid-epsilon", "atom", "tap-word",
        "tap-numeral", "alpha-word", "alpha-numeral"])
def test_real_argument_of_wrong_type_is_bad_parameter(semicircle_eta, call):
    # text is refused, even text that float() would read as a number
    with pytest.raises(errors.BadParameter, match="must be a real number"):
        call(semicircle_eta)


def _unit_density():
    return bs.SpectralDensity(xs=[0.0, 1.0], ps=[1.0, 1.0])


@pytest.mark.parametrize("name, call", [
    ("tap_var", lambda eta: bs.isi_covariance(2, 2, tap_var=5)),
    ("alpha", lambda eta: bs.rectangular_covariance(0.5, [])),
    ("eps2", lambda eta: bs.stieltjes_invert([0, 1], [0j, 0j], [0j, 0j], "x")),
    ("ps", lambda eta: bs.SpectralDensity(xs=[0, 1], ps=["a", "b"])),
    ("G0", lambda eta: bs.newton_refine(eta, 1j, "ab")),
    ("z", lambda eta: bs.solve_fixed_point(eta, "x")),
    ("xs", lambda eta: bs.solve_grid(eta, ["a", "b"], 1e-3)),
    ("trace_weights", lambda eta: bs.density_from_eta(eta, trace_weights=["a"])),
    ("trace_weights", lambda eta: bs.nc2_moment(eta, 2, trace_weights=["a"])),
    ("eigenvalues", lambda eta: bs.ks_distance(["a"], bs.cdf(_unit_density()))),
    ("x", lambda eta: bs.cdf(_unit_density())("a")),
    ("D", lambda eta: bs.eta_apply(eta, "a")),
    ("eta tensor", lambda eta: bs.EtaMap("abc")),
    ("psi", lambda eta: bs.CorrelationFamily(psi=(["a"],), psi_hat=(np.eye(1),))),
    ("seed", lambda eta: bs.sample_block_gaussian(bs.isi_covariance(2, 2), 2, "x")),
], ids=["tap-var-scalar", "alpha-scalar", "eps2-text", "density-text", "G0-text",
        "z-text", "grid-text", "density-weights", "moment-weights", "ks-text", "cdf-text",
        "eta-apply-text", "eta-map-text", "family-text", "seed-text"])
def test_array_or_complex_argument_of_wrong_type_is_bad_parameter(semicircle_eta, name, call):
    with pytest.raises(errors.BadParameter, match=name):
        call(semicircle_eta)


@pytest.mark.parametrize("name, call", [
    ("tol", lambda: bs.SolverConfig(tol=True)),
    ("K", lambda: bs.isi_covariance(True, True)),
    ("N", lambda: bs.sample_block_gaussian(bs.isi_covariance(2, 2), True, 0)),
    ("snr", lambda: bs.capacity(_unit_density(), True)),
], ids=["tol", "isi-K-L", "sample-N", "capacity-snr"])
def test_boolean_is_not_a_count_or_real(name, call):
    with pytest.raises(errors.BadParameter, match=name):
        call()


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

    def test_far_point_takes_few_iterations(self, semicircle_eta):
        # the tangent predictor carries each level to the next, and levels
        # that only feed a prediction stop at PREDICTION_TOL (48 iterations
        # with fixed-point sweeps on every level and a x4 ladder, 19 with
        # intermediate levels solved to 1e-7)
        sol = bs.solve_fixed_point(semicircle_eta, 3.0 + 0.0j, TIGHT)
        assert sol.converged and sol.iterations <= 14

    def test_lower_half_plane_rejected(self, semicircle_eta):
        for z in (1 - 1j, complex(np.nan, 1.0), complex(0.0, np.inf)):
            with pytest.raises(errors.BadParameter):
                bs.solve_fixed_point(semicircle_eta, z)

    def test_unconverged_returns_best_iterate(self, semicircle_eta, stalled):
        with stalled():
            sol = bs.solve_fixed_point(semicircle_eta, 0.1 + 1e-6j, TIGHT)
        assert not sol.converged
        assert np.isfinite(sol.residual)

    @pytest.mark.parametrize("x", [0.0, 1.9])
    def test_default_config_converges_near_the_axis(self, semicircle_eta, x):
        # the continuation ladder with Newton on each level; the fixed-point
        # map alone needs thousands of sweeps this close to the support
        z = complex(x, 1e-3)
        sol = bs.solve_fixed_point(semicircle_eta, z)
        assert sol.converged and sol.iterations < 200
        assert abs(sol.G[0, 0] - semicircle_cauchy(z)) <= 1e-10

    def test_singular_resolvent(self):
        with pytest.warns(RuntimeWarning, match="positivity"):
            spec = bs.selfadjoint_covariance(1, [(1, 1, 1, 1, -1.0)])
        eta = bs.eta_map(spec)
        with pytest.raises(errors.SingularResolvent):
            bs.solve_fixed_point(eta, 1j, TIGHT)

    @pytest.mark.parametrize("call", [
        lambda eta: bs.solve_fixed_point(eta, 1j),
        lambda eta: bs.newton_refine(eta, 1j, -1j * np.eye(eta.dim_in)),
        lambda eta: bs.solve_grid(eta, np.linspace(-1.0, 1.0, 5), 1e-2),
        lambda eta: solve_gram_grid(eta, 1, np.linspace(0.0, 1.0, 5), 1e-2),
        lambda eta: bs.moment_check(eta),
    ], ids=["solve_fixed_point", "newton_refine", "solve_grid", "solve_gram_grid",
            "moment_check"])
    def test_rectangular_map_rejected(self, isi44, call):
        with pytest.raises(errors.DimensionMismatch):
            call(bs.eta1_map(isi44))


class TestNewtonRefine:
    def test_singular_jacobian(self, semicircle_eta):
        # at z = 0 and G = 0 the linearization z dG - eta(dG) G - eta(G) dG is zero
        with pytest.raises(errors.SingularJacobian):
            bs.newton_refine(semicircle_eta, 0, [[0]])

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
        # the hermitized map's own selfadjoint equation at this z
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


def test_newton_batch_falls_back_to_each_point_when_one_jacobian_is_singular(semicircle_eta):
    # at z = 0 from G = 0 the semicircle Jacobian z - 2 G is exactly zero, so the
    # batched solve fails; the other point must still converge on its own
    G, res, its, stuck = slv._newton_batch(
        semicircle_eta.pattern, np.array([0j, 1j]), np.array([[0j], [-0.5j]]), 1e-12, 60,
    )
    assert stuck.tolist() == [True, False]
    assert its[0] == 0 and G[0, 0] == 0
    assert G[1, 0] == pytest.approx(semicircle_cauchy(1j), abs=1e-12)
    assert res[1] <= 1e-12


def test_non_finite_matrix_fails_the_im_check():
    # eigvalsh reads NaN as 0, which would put the matrix on the physical branch
    assert np.isnan(max_im_eigenvalue(np.array([[np.nan, 0], [0, -1j]])))
    assert np.isnan(max_im_eigenvalue(np.array([[-1j, np.inf], [0, -1j]])))
    assert max_im_eigenvalue(np.array([[-1j, 0], [0, -2j]])) == -1.0


@pytest.mark.parametrize("s", [1, 2])
def test_non_finite_block_fails_the_block_im_check(s):
    # 1x1 and 2x2 blocks are read in closed form, which carries a NaN or an
    # infinite Im G through; a point with any non-finite entry also fails on
    # its residual, which every caller checks with it
    pat = cov.Side(slice(0, 2 * s * s), ((s, 2, slice(0, 2 * s * s)),))
    G = np.tile(-1j * np.eye(s).ravel(), (3, 2))
    G[1, 0], G[2, -1] = complex(0, np.nan), complex(0, np.inf)
    got = slv._block_im_max(pat, G)
    assert got[0] == -1.0 and np.isnan(got[1]) and got[2] == np.inf
    assert not (got <= slv.IM_EIG_TOL)[1:].any()


def test_newton_batch_falls_back_to_each_point_on_a_bipartite_law():
    # hermitized ISI: at w = 0 from G = 0 each side's block w - eta(G) is
    # zero, and so is the whole Jacobian; the other point must still step
    eta = cov._law(bs.isi_covariance(2, 2)).eta
    pat, w = eta.pattern, np.sqrt(1.5 + 0.1j)
    assert pat.sides is not None
    exact = pat.compress(bs.solve_fixed_point(eta, w, TIGHT).G)
    G0 = np.array([np.zeros_like(exact), exact * (1 + 1e-3)])
    G, res, its, stuck = slv._newton_batch(pat, np.array([0j, w]), G0, 1e-12, 60)
    assert stuck.tolist() == [True, False]
    assert its[0] == 0 and (G[0] == 0).all()
    assert its[1] >= 1 and res[1] <= 1e-12
    assert np.abs(G[1] - exact).max() <= 1e-10


def _whole_batch_sweeps(pat, zs, G, target, limit):
    """Reference: every sweep steps the whole batch and keeps the moving rows by a mask."""
    EG = slv._eta_batch(pat, G)
    res, iters, moving = pat.norm(slv._residual(pat, zs, G, EG)), np.zeros(len(G), int), []
    for _ in range(limit):
        active = res > target
        if not active.any():
            break
        G = np.where(active[:, None], slv._block_inv(pat, zs[:, None] * pat.eye - EG), G)
        EG = slv._eta_batch(pat, G)
        res = pat.norm(slv._residual(pat, zs, G, EG))
        iters[active] += 1
        moving.append(int(active.sum()))
    return G, res, iters, moving


def _whole_batch_newton(pat, zs, G, target, limit):
    """Reference: each backtracking round re-evaluates every active point with its own factor."""
    G, P = G.copy(), len(G)
    EG = slv._eta_batch(pat, G)
    R = slv._residual(pat, zs, G, EG)
    res, iters, stuck = pat.norm(R), np.zeros(P, int), np.zeros(P, bool)
    for _ in range(limit):
        ii = np.flatnonzero((res > target) & ~stuck)
        if not ii.size:
            break
        Gi, zi = G[ii], zs[ii]
        step = slv._newton_step(pat, zi, Gi, EG[ii], -R[ii])
        factor, improved = np.ones(len(ii)), np.zeros(len(ii), bool)
        for _bt in range(9):
            pending = ~improved
            if not pending.any():
                break
            trial = Gi + factor[:, None] * step
            EGt = slv._eta_batch(pat, trial)
            Rt = slv._residual(pat, zi, trial, EGt)
            rtrial = pat.norm(Rt)
            good = pending & (rtrial < res[ii])
            at = ii[good]
            G[at], EG[at], R[at], res[at] = trial[good], EGt[good], Rt[good], rtrial[good]
            improved |= good
            factor[pending] /= 2
        stuck[ii[~improved]] = True
        iters[ii[improved]] += 1
    return G, res, iters, stuck


def test_sweeps_step_only_the_points_above_their_target(monkeypatch):
    # far points reach the loose target in a few sweeps, points near the
    # support take many; a point at its target is neither stepped nor re-evaluated
    pat = cov._law(bs.isi_covariance(4, 4)).eta.pattern
    ws = np.sqrt(np.concatenate([np.linspace(0.2, 3.0, 6), [20.0, 60.0, 200.0, 900.0]]) + 0.05j)
    G0 = np.tile(-1j * pat.eye, (len(ws), 1))
    want = _whole_batch_sweeps(pat, ws, G0, slv.PREDICTION_TOL, slv.SWEEPS)
    block_inv, residual, inverted, evaluated = slv._block_inv, slv._residual, [], []

    def recorded_inv(pat, A):
        inverted.append(len(A))
        return block_inv(pat, A)

    def recorded_residual(pat, zs, G, EG):
        evaluated.append(len(zs))
        return residual(pat, zs, G, EG)

    monkeypatch.setattr(slv, "_block_inv", recorded_inv)
    monkeypatch.setattr(slv, "_residual", recorded_residual)
    G, res, iters = slv._fixed_point_batch(pat, ws, G0.copy(), slv.PREDICTION_TOL, slv.SWEEPS)
    assert inverted == want[3] and evaluated == [len(ws)] + want[3]
    assert inverted[0] == len(ws) and inverted[-1] < len(ws) / 2
    assert np.array_equal(G, want[0]) and np.array_equal(res, want[1])
    assert np.array_equal(iters, want[2])


def test_backtracking_rounds_evaluate_only_the_pending_points(monkeypatch):
    # one point's step is four times too long, so it alone backtracks
    eta = cov._law(bs.isi_covariance(2, 2)).eta
    pat, xs = eta.pattern, np.linspace(0.5, 3.0, 6)
    ws = np.sqrt(xs + 0.1j)
    exact = np.array([pat.compress(bs.solve_fixed_point(eta, w, TIGHT).G[None])[0] for w in ws])
    G0 = exact * (1 + 1e-2)
    newton_step, residual, evaluated = slv._newton_step, slv._residual, []

    def long_step(pat, ws_, G, EG, rhs):
        x = newton_step(pat, ws_, G, EG, rhs)
        x[ws_ == ws[2]] *= 4
        return x

    def recorded_residual(pat, zs, G, EG):
        evaluated.append(len(zs))
        return residual(pat, zs, G, EG)

    monkeypatch.setattr(slv, "_newton_step", long_step)
    want = _whole_batch_newton(pat, ws, G0, 1e-12, 60)
    monkeypatch.setattr(slv, "_residual", recorded_residual)
    G, res, iters, stuck = slv._newton_batch(pat, ws, G0, 1e-12, 60)
    assert evaluated[:3] == [len(ws), len(ws), 1]
    assert not stuck.any() and (res <= 1e-12).all()
    for got, ref in zip((G, res, iters, stuck), want):
        assert np.array_equal(got, ref)


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

    @pytest.mark.parametrize("eps", [1e-9, 1e-12])
    def test_tiny_offsets_match_the_closed_form(self, semicircle_eta, eps):
        # any positive offset is solved as given; the points stay off the edges +-2
        xs = np.concatenate([np.linspace(-3.0, -2.5, 3), np.linspace(-1.9, 1.9, 20),
                             np.linspace(2.5, 3.0, 3)])
        z = xs + 1j * eps
        exact = 2.0 / (z + np.sqrt(z - 2.0) * np.sqrt(z + 2.0))
        sols = bs.solve_grid(semicircle_eta, xs, eps, NEWTON)
        assert all(s.converged for s in sols)
        assert np.abs(np.array([s.G[0, 0] for s in sols]) - exact).max() <= 1e-12

    @pytest.mark.parametrize("eps", [0.0, -1.0, np.inf, np.nan])
    def test_offset_must_be_finite_and_positive(self, semicircle_eta, eps):
        with pytest.raises(errors.BadParameter):
            bs.solve_grid(semicircle_eta, [0.0], eps)

    def test_unsorted_grid_rejected(self, semicircle_eta):
        with pytest.raises(errors.BadParameter):
            bs.solve_grid(semicircle_eta, [0.0, 2.0, 1.0], 1e-3)

    def test_no_convergence_raises_with_index(self, semicircle_eta, stalled):
        with stalled(), pytest.raises(errors.NoConvergence, match=r"\[0"):
            bs.solve_grid(semicircle_eta, [0.0, 0.5], 1e-4, TIGHT)

    def test_no_convergence_names_x_residual_and_im_margin(self, semicircle_eta, stalled):
        xs = np.linspace(-1.0, 1.0, 7)
        with stalled(), pytest.raises(errors.NoConvergence) as info:
            bs.solve_grid(semicircle_eta, xs[::-1], 1e-4, TIGHT)
        msg = str(info.value)
        assert msg.startswith("grid points [0, 1, 2, 3, 4, 5, 6] did not converge")
        # details for the first five failing points only, in grid order
        assert msg.count("residual=") == 5 and msg.count("max eig Im G=") == 5
        assert "x=1 " in msg and "x=-0.333333 " in msg and "x=-1 " not in msg
        with stalled(), pytest.raises(errors.NoConvergence, match=r"\[0, 1, 2\].*x=0 residual="):
            bs.density_from_eta(semicircle_eta, xs=[0.0, 0.5, 1.0], config=TIGHT)

    def test_positivity_along_grid(self, semicircle_eta):
        sols = bs.solve_grid(semicircle_eta, np.linspace(-3, 3, 50), 1e-4, NEWTON)
        for s in sols:
            assert max_im_eigenvalue(s.G) <= 1e-8


def test_isi_grid_takes_at_most_28_iterations_a_point(isi44):
    # 512 points on [0, 3] at eps = 1e-4, default config (79 at most with
    # fixed-point sweeps on every level and a x4 ladder, 40 with
    # intermediate levels solved to 1e-7)
    sols = bs.solve_hh_star_grid(isi44, np.linspace(0.0, 3.0, 512), 1e-4)
    assert all(s.converged for s in sols)
    assert max(s.iterations for s in sols) <= 28


def test_loose_levels_converge_at_the_isi_lower_edge(isi44):
    # the levels above eps = 1e-4 stop at PREDICTION_TOL, the first one's
    # sweeps too; the points within 1e-3 of the lower edge (0.0167237)
    # must still reach tol on the physical branch
    xs = np.linspace(0.0167237 - 1e-3, 0.0167237 + 1e-3, 64)
    sols = bs.solve_hh_star_grid(isi44, xs, 1e-4, TIGHT)
    for s in sols:
        assert s.converged and s.residual <= TIGHT.tol
        assert max(max_im_eigenvalue(s.G1), max_im_eigenvalue(s.G2)) <= 1e-8
        direct = bs.solve_hh_star_direct(isi44, s.z, TIGHT)
        assert direct.converged and direct.iterations <= 5000
        assert abs(np.trace(direct.G) / isi44.a - s.g) <= 1e-9


@pytest.mark.parametrize("config", ["nonsep_t2", "semicircle"])
def test_loose_levels_take_no_second_sweeps(monkeypatch, tmp_path, config):
    # a level that only feeds a prediction holds Im H to its own tolerance,
    # not to IM_EIG_TOL, so no point of a shipped density restarts through
    # the sweeps: they run once, on the first level's 512 points
    sweeps, calls = slv._fixed_point_batch, []

    def logged(pat, zs, *args):
        calls.append(len(zs))
        return sweeps(pat, zs, *args)

    monkeypatch.setattr(slv, "_fixed_point_batch", logged)
    cli.run("density", cli.parse_config(CONFIGS / f"{config}.json"), out_dir=tmp_path)
    assert calls == [512]


def test_bipartite_newton_never_forms_the_full_jacobian(monkeypatch):
    # the singular batch of the test above, then a Gram grid: every step and
    # fallback goes through the complement on the smaller side
    jacobian = slv._jacobian

    def guarded(pat, zs, G, EG):
        assert pat.sides is None, "formed the full Jacobian of a bipartite pattern"
        return jacobian(pat, zs, G, EG)

    monkeypatch.setattr(slv, "_jacobian", guarded)
    eta = cov._law(bs.isi_covariance(2, 2)).eta
    pat, w = eta.pattern, np.sqrt(1.5 + 0.1j)
    exact = pat.compress(bs.solve_fixed_point(eta, w, TIGHT).G)
    G0 = np.array([np.zeros_like(exact), exact * (1 + 1e-3)])
    _, res, _, stuck = slv._newton_batch(pat, np.array([0j, w]), G0, 1e-12, 60)
    assert stuck.tolist() == [True, False] and res[1] <= 1e-12
    sols = bs.solve_hh_star_grid(bs.isi_covariance(3, 2), np.linspace(0.0, 4.0, 9), 1e-3, TIGHT)
    assert all(s.converged for s in sols)


@pytest.mark.parametrize("config, scalar_sides", [("isi_k4_l4", True), ("nonsep_t2", False)])
def test_each_newton_step_inverts_the_resolvent_once(monkeypatch, tmp_path, config, scalar_sides):
    # the sweeps and Newton's eliminated sides share one blockwise inverse of
    # w - eta(G), formed over the whole pattern and never over a Side
    block_inv, newton_step = slv._block_inv, slv._newton_step
    inverses, per_step, patterns = [0], [], []

    def counted_inv(pat, A):
        assert isinstance(pat, cov.InvariantPattern), "inverted a side on its own"
        inverses[0] += 1
        return block_inv(pat, A)

    def counted_step(pat, *args):
        before = inverses[0]
        out = newton_step(pat, *args)
        per_step.append(inverses[0] - before)
        patterns.append(pat)
        return out

    monkeypatch.setattr(slv, "_block_inv", counted_inv)
    monkeypatch.setattr(slv, "_newton_step", counted_step)
    cli.run("density", cli.parse_config(CONFIGS / f"{config}.json"), out_dir=tmp_path)
    assert per_step and set(per_step) == {1}
    assert all(p.sides is not None for p in patterns)
    assert {p.coupling_product is not None for p in patterns} == {scalar_sides}


LADDER_LAWS = {
    "semicircle": lambda: (cov._map_law(_semicircle()), np.linspace(-2.5, 2.5, 41)),
    "isi44-gram": lambda: (cov._law(bs.isi_covariance(4, 4)), np.linspace(0.0, 3.0, 41)),
}


@pytest.mark.parametrize("name", LADDER_LAWS)
def test_singular_tangent_falls_back_to_the_level_before(monkeypatch, name):
    law, xs = LADDER_LAWS[name]()
    (ref,) = slv._solve_converged(law, xs, (1e-3,), TIGHT)
    newton_step, tangents = slv._newton_step, []

    def singular_tangent(pat, ws, G, EG, rhs):
        if np.array_equal(rhs, -G):  # the tangent system J t = -G
            tangents.append(len(ws))
            raise np.linalg.LinAlgError("Singular matrix")
        return newton_step(pat, ws, G, EG, rhs)

    monkeypatch.setattr(slv, "_newton_step", singular_tangent)
    (out,) = slv._solve_converged(law, xs, (1e-3,), TIGHT)
    assert tangents == [len(xs)] * 3  # one per warm level
    assert out.converged.all()
    assert np.abs(out.G - ref.G).max() <= 1e-10


@pytest.mark.parametrize("name", LADDER_LAWS)
def test_stalled_newton_falls_back_to_the_sweeps(monkeypatch, name):
    law, xs = LADDER_LAWS[name]()
    (ref,) = slv._solve_converged(law, xs, (1e-3,), TIGHT)
    newton, sweeps = slv._newton_batch, slv._fixed_point_batch
    calls = []

    def logged_sweeps(pat, zs, G, target, budget):
        calls.append("sweeps")
        return sweeps(pat, zs, G, target, budget)

    def stalls_first(pat, zs, G, target, budget):
        if calls and calls[-1] == "sweeps":
            calls.append("newton")
            return newton(pat, zs, G, target, budget)
        calls.append("stall")  # Newton first on a warm level: no point moves
        P = len(G)
        res = np.linalg.norm(slv._residual(pat, zs, G, slv._eta_batch(pat, G)), axis=1)
        return G.copy(), res, np.zeros(P, int), np.ones(P, bool)

    monkeypatch.setattr(slv, "_fixed_point_batch", logged_sweeps)
    monkeypatch.setattr(slv, "_newton_batch", stalls_first)
    (out,) = slv._solve_converged(law, xs, (1e-3,), TIGHT)
    assert calls == ["sweeps", "newton"] + ["stall", "sweeps", "newton"] * 3
    assert out.converged.all()
    assert np.abs(out.G - ref.G).max() <= 1e-10


def test_gram_ladder_starts_and_restarts_from_g(monkeypatch):
    # every law's first level sweeps from G = -i*I, and a retry on a later
    # level sweeps from the level before's G as it is, not rescaled by w
    law, xs = LADDER_LAWS["isi44-gram"]()
    pat, P = law.eta.pattern, len(xs)
    newton, sweeps = slv._newton_batch, slv._fixed_point_batch
    starts, solved = [], []

    def logged_sweeps(pat, zs, G, target, budget):
        starts.append(G.copy())
        return sweeps(pat, zs, G, target, budget)

    def stalls_second(pat, zs, G, target, budget):
        if len(solved) == 1:  # Newton first on the second level: no point moves
            solved.append(None)
            return G.copy(), np.full(len(G), np.inf), np.zeros(len(G), int), np.ones(len(G), bool)
        out = newton(pat, zs, G, target, budget)
        solved.append(out[0].copy())
        return out

    monkeypatch.setattr(slv, "_fixed_point_batch", logged_sweeps)
    monkeypatch.setattr(slv, "_newton_batch", stalls_second)
    (out,) = slv._solve_converged(law, xs, (1e-3,), TIGHT)
    assert out.converged.all() and len(starts) == 2
    assert np.array_equal(starts[0], np.tile(-1j * pat.eye, (P, 1)))
    assert np.array_equal(starts[1], solved[0])


def test_a_level_without_retries_judges_once(monkeypatch):
    # the verdict after Newton stands when no point retries: one Im check a level
    config = cli.parse_config(CONFIGS / "isi_k4_l4.json")
    tangent, im_max, sweeps = slv._tangent_start, slv._block_im_max, slv._fixed_point_batch
    counts = {"tangents": 0, "checks": 0, "sweeps": 0}

    def counted(name, fn):
        def run(*args):
            counts[name] += 1
            return fn(*args)
        return run

    monkeypatch.setattr(slv, "_tangent_start", counted("tangents", tangent))
    monkeypatch.setattr(slv, "_block_im_max", counted("checks", im_max))
    monkeypatch.setattr(slv, "_fixed_point_batch", counted("sweeps", sweeps))
    cli._solve_density(config, cov._law(config.built))
    assert counts["sweeps"] == 1 and counts["tangents"] > 0  # the first level's only
    assert counts["checks"] == counts["tangents"] + 1


@pytest.mark.parametrize("config", ["semicircle", "selfadjoint_complex_d2", "isi_k4_l4", "nonsep_t2"])
def test_each_newton_step_solves_one_linear_system(monkeypatch, tmp_path, config):
    # the full linearization and a bipartite complement go through one solver
    solve, newton_step = slv._solve_linear, slv._newton_step
    solves, per_step = [0], []

    def counted_solve(S, y):
        solves[0] += 1
        return solve(S, y)

    def counted_step(*args):
        before = solves[0]
        out = newton_step(*args)
        per_step.append(solves[0] - before)
        return out

    monkeypatch.setattr(slv, "_solve_linear", counted_solve)
    monkeypatch.setattr(slv, "_newton_step", counted_step)
    cli.run("density", cli.parse_config(CONFIGS / f"{config}.json"), out_dir=tmp_path)
    assert per_step and set(per_step) == {1}


def test_isi_k5_density_makes_no_stacked_solve(monkeypatch):
    # its complement is 3x3, solved in closed form: LAPACK is never called
    def refused(*args, **kwargs):
        raise AssertionError("np.linalg.solve was called")

    config = cli.parse_config('{"model": "isi", "K": 5, "L": 4, "grid": {"points": 512, '
                              '"epsilon": 0.0001}, "solver": {"tol": 1e-12}}')
    law = cov._law(config.built)
    assert law.eta.pattern.sides[0].span.stop == 3
    monkeypatch.setattr(np.linalg, "solve", refused)
    density = cli._solve_density(config, law)
    assert abs(bs.mass(density) - 1.0) <= 5e-3


def test_each_prediction_counts_one_iteration(monkeypatch, semicircle_eta):
    tangent, newton, sweeps = slv._tangent_start, slv._newton_batch, slv._fixed_point_batch
    counts = {"tangents": 0, "steps": 0}

    def counted_tangent(pat, w0, G0, w1):
        counts["tangents"] += len(w0)
        return tangent(pat, w0, G0, w1)

    def counted(kernel, k):
        def run(*args):
            out = kernel(*args)
            counts["steps"] += int(out[k].sum())
            return out
        return run

    monkeypatch.setattr(slv, "_tangent_start", counted_tangent)
    monkeypatch.setattr(slv, "_newton_batch", counted(newton, 2))
    monkeypatch.setattr(slv, "_fixed_point_batch", counted(sweeps, 2))
    sol = bs.solve_fixed_point(semicircle_eta, 3.0 + 0.0j, TIGHT)
    assert sol.converged and counts["tangents"] == 6  # one per level after the first
    assert sol.iterations == counts["steps"] + counts["tangents"]


def _random_family_eta(p):
    """The hermitized map of a random complex nonsep family, t = 2, p = q."""
    return bs.hermitized_eta(random_nonsep_family(p, np.random.default_rng(1)))


BUDGET_LAWS = {  # each law's builder and its pattern's m and m_A (None: no sides)
    "nonsep-p12": (lambda: _random_family_eta(12), 288, 144),
    "nonsep-p16": (lambda: _random_family_eta(16), 512, 256),
    "dense-d10": (lambda: bs.eta_map(random_selfadjoint_spec(10, np.random.default_rng(0))),
                  100, None),
    "isi-k32": (lambda: cov._law(bs.isi_covariance(32, 4)).eta, 34, 16),
    "nonsep-p24": (lambda: _random_family_eta(24), 1152, 576),
}


@pytest.mark.parametrize("name, P, admitted", [
    ("nonsep-p12", 512, True),   # 170 MB
    ("nonsep-p16", 512, True),   # exactly 2**29 B
    ("nonsep-p16", 513, False),
    ("dense-d10", 512, True),    # 82 MB
    ("isi-k32", 512, True),
    ("nonsep-p24", 512, False),  # 2.7 GB
])
def test_newton_budget_rule(name, P, admitted):
    # the rule alone, on each pattern as built: nothing is solved
    build, m, mA = BUDGET_LAWS[name]
    pat = build().pattern
    assert len(pat.eye) == m and (pat.sides and pat.sides[0].span.stop) == mA
    if admitted:
        slv._check_newton_budget(pat, P)
    else:
        with pytest.raises(errors.BadParameter, match=rf"P = {P} points on m = {m} .*m_A = {mA}"):
            slv._check_newton_budget(pat, P)


def test_newton_budget_refuses_before_any_newton_step(monkeypatch):
    spec = random_hh_star_spec(2, 3, np.random.default_rng(5))
    eta = bs.eta_map(bs.hermitize_covariance(spec))

    def refused(*args):
        raise AssertionError("a Newton step ran")

    monkeypatch.setattr(slv, "_newton_step", refused)
    monkeypatch.setattr(cov, "MAX_MAP_BYTES", 1000)
    with pytest.raises(errors.BadParameter, match="Newton step at P = 64 points"):
        solve_gram_grid(eta, spec.a, np.linspace(0.1, 2.0, 64), 1e-3)


@pytest.mark.parametrize("name", ["isi33", "complex2x3"])
def test_gram_grid_returns_the_hh_star_grid(name):
    spec = (bs.isi_covariance(3, 3) if name == "isi33"
            else random_hh_star_spec(2, 3, np.random.default_rng(5), complex_=True))
    xs = np.linspace(0.05, 1.8 * slv._edge_estimate(cov._law(spec).eta) ** 2, 24)
    sols, g = solve_gram_grid(cov._law(spec).eta, spec.a, xs, 1e-3)
    ref = bs.solve_hh_star_grid(spec, xs, 1e-3)
    assert all(s.converged for s in sols)
    for s, r in zip(sols, ref):
        assert np.array_equal(s.G[:spec.a, :spec.a], r.G1)
    assert np.array_equal(g, [r.g for r in ref])
    # the map of the hermitized spec, assembled the other way, gives the same transform
    _, g_sa = solve_gram_grid(bs.eta_map(bs.hermitize_covariance(spec)), spec.a, xs, 1e-3)
    assert np.abs(g_sa - g).max() <= 1e-13


class TestHHStar:
    def test_marchenko_pastur_point(self, mp_spec):
        sol = bs.solve_hh_star(mp_spec, 5.0 + 0.0j, bs.SolverConfig(tol=1e-13))
        assert sol.converged
        assert sol.g == pytest.approx((5 - np.sqrt(5)) / 10, abs=1e-10)
        assert max(sol.split_residuals) <= 1e-12

    def test_mp_matches_closed_form_on_points(self, mp_spec):
        # w = sqrt(z) is imaginary for z < 0, next to 0 for z = 1e-6 i, and
        # real inside the support for z = 0.5
        for z in (0.5 + 0.05j, 1.0 + 0.05j, 2.5 + 0.05j, 3.9 + 0.05j, -2.0, -0.01, 1e-6j, 0.5):
            sol = bs.solve_hh_star(mp_spec, z, TIGHT)
            assert sol.converged
            assert sol.g == pytest.approx(complex(mp1_cauchy(z)), abs=1e-10)

    def test_gram_pole_at_zero_is_refused(self, mp_spec, stalled):
        # H(z) = G(sqrt z)/sqrt z has a pole at z = 0: refused before any level runs
        with stalled():
            with pytest.raises(errors.BadParameter):
                bs.solve_hh_star(mp_spec, 0.0)
        with pytest.raises(errors.BadParameter):
            bs.solve_hh_star(mp_spec, 0.0)

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

        law = cov._gram_law(bs.eta_map(bs.hermitize_covariance(isi44)), isi44.a)
        out = slv._solve_point(law, 1.5 + 0.05j, NEWTON)
        G, a = law.eta.pattern.expand(out.G[0]), isi44.a
        assert out.converged[0]
        assert np.abs(G[:a, a:]).max() == 0.0
        assert np.abs(G[a:, :a]).max() == 0.0

    def test_direct_route_agrees_with_hermitized(self, isi44):
        for z in (0.5 + 0.05j, 1.2 + 0.02j, 2.5 + 0.1j):
            h = bs.solve_hh_star(isi44, z, TIGHT)
            d = bs.solve_hh_star_direct(isi44, z, TIGHT)
            assert d.converged
            assert np.abs(h.G1 - d.G).max() <= 1e-9

    @pytest.mark.parametrize("route", [
        lambda s: bs.solve_hh_star(s, 1j), lambda s: bs.solve_hh_star_grid(s, [0.5, 1.0], 1e-2),
        lambda s: bs.density_hh_star(s),
    ], ids=["solve_hh_star", "solve_hh_star_grid", "density_hh_star"])
    def test_gram_routes_refuse_other_kinds(self, route):
        with pytest.raises(errors.WrongKind):
            route(bs.selfadjoint_covariance(1, [(1, 1, 1, 1, 1.0)]))

    @settings(max_examples=30, deadline=None)
    @given(a=st.integers(1, 3), b=st.integers(1, 3), complex_=st.booleans(),
           seed=st.integers(0, 2**16))
    @example(a=1, b=1, complex_=False, seed=4769)  # edge 36.5: the offset is 2.7e-4 edge
    @example(a=1, b=1, complex_=False, seed=755)  # edge 38.4
    def test_random_spec_routes_agree(self, a, b, complex_, seed):
        # the hermitized route and the eliminated one-sided equation solve
        # the same Gram law, inside, at and past the support edge 4 ||eta1(I)||
        spec = random_hh_star_spec(a, b, np.random.default_rng(seed), complex_=complex_)
        edge = 4 * np.linalg.norm(bs.eta_apply(bs.eta1_map(spec), np.eye(b)), 2)
        for x in (0.1 * edge, 0.5 * edge, 1.2 * edge):
            h = bs.solve_hh_star(spec, x + 1e-2j, TIGHT)
            d = bs.solve_hh_star_direct(spec, x + 1e-2j, TIGHT)
            assert h.converged and d.converged
            assert np.abs(h.G1 - d.G).max() <= 1e-9
            assert max(h.split_residuals) <= 1e-11

    @settings(max_examples=30, deadline=None)
    @given(a=st.integers(1, 3), b=st.integers(1, 3), complex_=st.booleans(),
           seed=st.integers(0, 2**16))
    @example(a=1, b=1, complex_=False, seed=7)  # e = 3.0e-6: the gap reaches 2.2e-8
    def test_gram_law_is_the_hermitized_law_at_sqrt_z(self, a, b, complex_, seed):
        # X = [[0, H], [H*, 0]] has X^2 = diag(HH*, H*H), so H(z) = G(w)/w at
        # w = sqrt(z), with G the hermitized map's selfadjoint solution: off
        # the axis, on the positive real axis below and past the edge bound
        # e (w real), and on the negative real axis (w imaginary). H scales
        # like 1/e under tau -> s tau, so the gap is bounded as min(e, 1) |H - G/w|
        spec = random_hh_star_spec(a, b, np.random.default_rng(seed), complex_=complex_)
        eta = bs.eta_map(bs.hermitize_covariance(spec))
        edge = 4 * np.linalg.norm(bs.eta_apply(bs.eta1_map(spec), np.eye(b)), 2)
        for z in ((0.5 + 0.05j) * edge, 0.5 * edge, 1.5 * edge, -0.3 * edge):
            w = np.sqrt(complex(z))
            h = bs.solve_hh_star(spec, z, TIGHT)
            g = bs.solve_fixed_point(eta, w, TIGHT)
            assert h.converged and g.converged
            assert min(edge, 1.0) * np.abs(h.G1 - g.G[:a, :a] / w).max() <= 1e-9

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


@settings(max_examples=20, deadline=None)
@given(x=st.floats(0.1, 2.5))
def test_level_caps_bound_every_route(semicircle_eta, mp_spec, x):
    # each level takes at most one prediction, SWEEPS sweeps and two Newton
    # runs; tol=1e-300 is a residual the solver cannot always reach
    per_level = 1 + slv.SWEEPS + 2 * slv.NEWTON_STEPS
    tangent, ladder = slv._tangent_start, slv._solve_continuation
    runs = []

    def counted_tangent(*args):
        runs[-1]["levels"] += 1
        return tangent(*args)

    def recorded(*args):
        runs.append({"levels": 1})
        batches = ladder(*args)
        runs[-1]["iters"] = max(b.iters.max() for b in batches)
        return batches

    z = complex(x, 1e-3)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(slv, "_tangent_start", counted_tangent)
        m.setattr(slv, "_solve_continuation", recorded)
        for cfg in (bs.SolverConfig(), bs.SolverConfig(tol=1e-300)):
            bs.solve_fixed_point(semicircle_eta, z, cfg)
            bs.solve_hh_star(mp_spec, z, cfg)
            for xs in (np.linspace(-2.5, 2.5, 21), np.linspace(3.0, 5.0, 5)):
                try:
                    bs.solve_grid(semicircle_eta, xs, 1e-3, cfg)
                except errors.NoConvergence:
                    pass
    assert len(runs) == 8
    for run in runs:
        assert run["iters"] <= run["levels"] * per_level


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
        # radii 8e..128e: the fit's own truncation is -3.9e-8 and m4 reads
        # -4.7e-7 (radii 4e..64e truncate at -3.3e-6)
        assert abs(m.m4 - 2.0) <= 2e-6

    def test_isi_second_moment_matches_recursion(self, isi44):
        eta = bs.eta_map(bs.hermitize_covariance(isi44))
        m = bs.moment_check(eta)
        _, m2 = bs.nc2_moment(eta, 2)
        assert m.m0 == pytest.approx(1.0, abs=1e-6)
        assert m.m2 == pytest.approx(m2.real, abs=1e-3)

    def test_unconverged_probe_raises(self, semicircle_eta, stalled):
        with stalled(), pytest.raises(errors.NoConvergence, match="moment probe"):
            bs.moment_check(semicircle_eta)
