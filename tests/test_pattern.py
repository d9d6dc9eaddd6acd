"""Invariant sparsity pattern of a covariance map and the solves that use it."""

import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import blockspectra as bs
from blockspectra import cli, covariance as cov, nonsep as ns, solver as slv

from conftest import random_hh_star_spec, random_selfadjoint_spec

TIGHT = bs.SolverConfig(tol=1e-12)
NEWTON = bs.SolverConfig(tol=1e-12, newton=True)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _mask(pattern):
    S = np.zeros((pattern.d, pattern.d), dtype=bool)
    for block in pattern.blocks:
        S[np.ix_(block, block)] = True
    return S


def _assert_closed(eta):
    S = _mask(eta.pattern)
    assert S.diagonal().all()
    assert (S == S.T).all()
    assert not (((S.astype(int) @ S.astype(int)) > 0) & ~S).any()
    # eta of any matrix supported on S is supported on S
    reach = np.einsum("ijkl,kl->ij", np.abs(eta.tensor), S.astype(float)) > 0
    assert not (reach & ~S).any()
    assert len(eta.pattern.flat) == S.sum()


def _hermitized(spec):
    return bs.eta_map(bs.hermitize_covariance(spec))


@settings(max_examples=15, deadline=None)
@given(d=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_selfadjoint_pattern_closed(d, seed):
    _assert_closed(bs.eta_map(random_selfadjoint_spec(d, np.random.default_rng(seed))))


@settings(max_examples=15, deadline=None)
@given(a=st.integers(1, 3), b=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_hh_star_pattern_within_its_two_blocks(a, b, seed):
    eta = _hermitized(random_hh_star_spec(a, b, np.random.default_rng(seed)))
    _assert_closed(eta)
    for block in eta.pattern.blocks:
        assert max(block) < a or min(block) >= a


@settings(max_examples=20, deadline=None)
@given(K=st.integers(1, 8), L=st.integers(1, 5))
def test_isi_pattern_is_the_diagonal(K, L):
    eta = _hermitized(bs.isi_covariance(K, L))
    _assert_closed(eta)
    assert eta.pattern.blocks == tuple((i,) for i in range(2 * K + L - 1))
    assert len(eta.pattern.flat) == 2 * K + L - 1


def test_isi_pattern_survives_roundoff():
    eta = _hermitized(bs.isi_covariance(3, 2))
    noise = np.random.default_rng(5).standard_normal(eta.tensor.shape)
    noisy = bs.EtaMap(eta.tensor + 1e-17 * noise)
    assert noisy.pattern.blocks == tuple((i,) for i in range(7))
    assert len(noisy.pattern.flat) == 7


def test_zero_map_pattern_is_the_diagonal():
    assert bs.EtaMap(np.zeros((3, 3, 3, 3))).pattern.blocks == ((0,), (1,), (2,))


def test_nonsep_t2_pattern():
    config = cli.parse_config(CONFIGS / "nonsep_t2.json")
    family = ns.CorrelationFamily(psi=tuple(np.array(m) for m in config.psi),
                                  psi_hat=tuple(np.array(m) for m in config.psi_hat))
    eta = ns.hermitized_eta(family)
    _assert_closed(eta)
    assert eta.pattern.blocks == ((0,), (1,), (2, 3))
    assert len(eta.pattern.flat) == 6


def test_rectangular_map_has_no_pattern(isi44):
    with pytest.raises(bs.errors.DimensionMismatch):
        bs.eta1_map(isi44).pattern


def _dense_fixed_point(eta, z, iters=4000):
    """Reference: the undamped iteration on full d x d matrices."""
    d = eta.dim_out
    G = -1j * np.eye(d)
    for _ in range(iters):
        G = np.linalg.inv(z * np.eye(d) - bs.eta_apply(eta, G))
    return G


@settings(max_examples=10, deadline=None)
@given(K=st.integers(1, 4), L=st.integers(1, 3),
       x=st.floats(0.1, 3.0))
def test_solution_has_exact_zeros_off_pattern(K, L, x):
    eta = _hermitized(bs.isi_covariance(K, L))
    z = complex(x, 0.5)
    sol = bs.solve_fixed_point(eta, z, TIGHT)
    assert sol.converged
    off = ~_mask(eta.pattern)
    assert (sol.G[off] == 0).all()
    assert np.abs(sol.G - _dense_fixed_point(eta, z)).max() <= 1e-10


@settings(max_examples=10, deadline=None)
@given(a=st.integers(1, 3), b=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_hh_star_solution_zero_off_pattern(a, b, seed):
    spec = random_hh_star_spec(a, b, np.random.default_rng(seed))
    eta = _hermitized(spec)
    sol = bs.solve_hh_star(spec, 1.0 + 0.2j, NEWTON)
    assert sol.converged
    H = np.zeros((a + b, a + b), dtype=complex)
    H[:a, :a], H[a:, a:] = sol.G1, sol.G2
    assert (H[~_mask(eta.pattern)] == 0).all()


def test_warm_start_is_pinched_onto_pattern(isi44):
    eta = _hermitized(isi44)
    d = eta.dim_out
    rng = np.random.default_rng(5)
    W = -1j * np.eye(d) + 0.1 * rng.standard_normal((d, d))
    sol = bs.solve_fixed_point(eta, 1.0 + 0.1j, TIGHT)
    assert sol.converged
    assert (sol.G[~np.eye(d, dtype=bool)] == 0).all()
    # a start with entries off the diagonal pattern is pinched onto it
    nt = bs.newton_refine(eta, 1.0 + 0.1j, sol.G + 1e-4 * W, TIGHT)
    assert nt.converged and np.abs(nt.G - sol.G).max() <= 1e-10


def _rotated_hh_star(spec, seed):
    """Covariance of U H V^T for seeded orthogonal U (a x a), V (b x b)."""
    a, b = spec.a, spec.b
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((a, a)))[0]
    V = np.linalg.qr(rng.standard_normal((b, b)))[0]
    T = np.zeros((a * b, a * b))
    for (i, k, j, l, v) in spec.entries:
        T[(i - 1) * b + k - 1, (j - 1) * b + l - 1] = v.real
    W = np.kron(U, V)
    R = W @ T @ W.T
    entries = [
        (i + 1, k + 1, j + 1, l + 1, R[i * b + k, j * b + l])
        for i in range(a) for k in range(b) for j in range(a) for l in range(b)
    ]
    return bs.hh_star_covariance(a, b, entries)


def test_basis_rotation_dense_blocks_same_law():
    spec = bs.isi_covariance(3, 2)
    rotated = _rotated_hh_star(spec, seed=11)
    # the rotation fills both diagonal blocks: the engine runs on 3x3 and
    # 4x4 blocks instead of the 7 scalars of the unrotated spec
    assert _hermitized(spec).pattern.blocks == tuple((i,) for i in range(7))
    assert _hermitized(rotated).pattern.blocks == ((0, 1, 2), (3, 4, 5, 6))
    xs = np.linspace(0.2, 6.0, 25)
    eps = 1e-2
    g_diag = [s.g for s in bs.solve_hh_star_grid(spec, xs, eps, NEWTON)]
    g_rot = [s.g for s in bs.solve_hh_star_grid(rotated, xs, eps, NEWTON)]
    assert np.abs(np.subtract(g_diag, g_rot)).max() <= 1e-10
    for x, g in zip(xs, g_diag):
        direct = bs.solve_hh_star_direct(spec, complex(x, eps), TIGHT)
        assert direct.converged
        assert abs(np.trace(direct.G) / spec.a - g) <= 1e-10


# --- the bipartition of a Gram law's pattern and the Newton step on it ----

def _law_of(config):
    return cov._law(cli.parse_config(CONFIGS / f"{config}.json").built)


def _assert_sides(pat, blocks_a, blocks_b):
    """The sides hold the stored entries of the named blocks, and the map only crosses them."""
    A, B = pat.sides
    owners = [block for block in pat.blocks for _ in range(len(block) ** 2)]
    assert {owners[i] for i in A.index} == set(blocks_a)
    assert {owners[i] for i in B.index} == set(blocks_b)
    assert sorted(np.concatenate([A.index, B.index])) == list(range(len(pat.flat)))
    for side, other in ((A, B), (B, A)):
        assert (pat.tensor[np.ix_(side.index, side.index)] == 0).all()
        assert (side.coupling == pat.tensor[np.ix_(side.index, other.index)]).all()
        assert sum(s * s * n for s, n, _ in side.groups) == len(side.index)


@settings(max_examples=15, deadline=None)
@given(K=st.integers(1, 6), L=st.integers(1, 4))
def test_isi_sides_are_the_two_frames(K, L):
    pat = cov._law(bs.isi_covariance(K, L)).eta.pattern
    _assert_sides(pat, [(i,) for i in range(K)], [(i,) for i in range(K, 2 * K + L - 1)])
    A, B = pat.sides
    assert A.index.tolist() == list(range(K))
    assert B.index.tolist() == list(range(K, 2 * K + L - 1))
    assert A.groups == ((1, K, slice(0, K)),)
    assert B.groups == ((1, K + L - 1, slice(0, K + L - 1)),)
    # both sides scalar: the complement's product Q[k, (i, j)] = T_AB[i, k] T_BA[k, j]
    assert (pat.coupling_product == np.einsum("ik,kj->kij", A.coupling, B.coupling)).all()


def test_nonsep_t2_sides_are_two_scalars_and_a_block():
    pat = _law_of("nonsep_t2").eta.pattern
    _assert_sides(pat, [(0,), (1,)], [(2, 3)])
    A, B = pat.sides
    assert A.groups == ((1, 2, slice(0, 2)),) and B.groups == ((2, 1, slice(0, 4)),)
    assert pat.coupling_product is None


def test_rotated_isi_sides_are_its_two_dense_blocks():
    pat = _hermitized(_rotated_hh_star(bs.isi_covariance(3, 2), seed=11)).pattern
    _assert_sides(pat, [(0, 1, 2)], [(3, 4, 5, 6)])
    A, B = pat.sides
    assert A.groups == ((3, 1, slice(0, 9)),) and B.groups == ((4, 1, slice(0, 16)),)
    assert pat.coupling_product is None


@pytest.mark.parametrize("config", ["semicircle", "selfadjoint_complex_d2"])
def test_selfadjoint_laws_have_no_sides(config):
    assert _law_of(config).eta.pattern.sides is None


def test_uncoupled_map_has_no_sides():
    assert bs.EtaMap(np.zeros((3, 3, 3, 3))).pattern.sides is None


def _assert_step_is_the_full_solve(law, seed):
    """The eliminating step equals the full m x m solve at random points and iterates."""
    pat = law.eta.pattern
    assert pat.sides is not None
    rng = np.random.default_rng(seed)
    P, m = 6, len(pat.flat)
    ws = np.sqrt(rng.uniform(-1.0, 6.0, P) + 1j * rng.uniform(1e-3, 1.0, P))
    G = -1j * pat.eye + 0.3 * (rng.standard_normal((P, m)) + 1j * rng.standard_normal((P, m)))
    EG = slv._eta_batch(pat, G)
    R = slv._residual(pat, ws, G, EG)
    full = np.linalg.solve(slv._jacobian(pat, ws, G, EG), -R[:, :, None])[..., 0]
    step = slv._newton_step(pat, ws, G, EG, -R)
    assert np.abs(step - full).max() <= 1e-12 * np.abs(full).max()


@settings(max_examples=25, deadline=None)
@given(a=st.integers(1, 3), b=st.integers(1, 3), complex_=st.booleans(),
       seed=st.integers(0, 2**16))
def test_newton_step_eliminates_one_side_of_random_gram_laws(a, b, complex_, seed):
    spec = random_hh_star_spec(a, b, np.random.default_rng(seed), complex_=complex_)
    _assert_step_is_the_full_solve(cov._law(spec), seed)


@settings(max_examples=25, deadline=None)
@given(K=st.integers(1, 6), L=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_newton_step_on_scalar_sides_is_the_full_solve(K, L, seed):
    taps = np.random.default_rng(seed).uniform(0.05, 3.0, L)
    law = cov._law(bs.isi_covariance(K, L, taps))
    assert law.eta.pattern.coupling_product is not None
    _assert_step_is_the_full_solve(law, seed)


def test_newton_step_eliminates_one_side_of_block_laws():
    _assert_step_is_the_full_solve(_law_of("nonsep_t2"), 3)
    _assert_step_is_the_full_solve(cov._law(_rotated_hh_star(bs.isi_covariance(3, 2), 11)), 4)
    _assert_step_is_the_full_solve(cov._law(bs.isi_covariance(4, 4)), 5)


def test_block_helpers_match_dense_algebra():
    pat = _law_of("nonsep_t2").eta.pattern  # 1x1 and 2x2 groups
    rng = np.random.default_rng(8)
    A, B = (rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6)) for _ in range(2))
    dense = pat.expand(A) @ pat.expand(B)
    assert np.abs(pat.expand(slv._block_matmul(pat, A, B)) - dense).max() <= 1e-15
    assert slv._block_im_max(pat, A).tolist() == pytest.approx(
        [slv.max_im_eigenvalue(M) for M in pat.expand(A)], abs=1e-15)


@pytest.mark.parametrize("n", [1, 3])
def test_2x2_blocks_in_closed_form_match_numpy(n):
    # a stack of n 2x2 blocks a point, stored row by row as the pattern stores them
    pat = cov.Side(np.arange(4 * n), ((2, n, slice(0, 4 * n)),), None)
    rng = np.random.default_rng(22 + n)
    A, B = (rng.standard_normal((64, 4 * n)) + 1j * rng.standard_normal((64, 4 * n))
            for _ in range(2))
    blocks_a, blocks_b = A.reshape(64, n, 2, 2), B.reshape(64, n, 2, 2)
    for got, want in [
        (slv._block_inv(pat, A), np.linalg.inv(blocks_a)),
        (slv._block_matmul(pat, A, B), blocks_a @ blocks_b),
    ]:
        assert np.abs(got - want.reshape(64, 4 * n)).max() <= 1e-13 * np.abs(want).max()
    A[5, -4:] = [1.0, 2.0, 3.0, 6.0]  # the last block of point 5 has determinant 0
    with pytest.raises(np.linalg.LinAlgError):
        slv._block_inv(pat, A)


@pytest.mark.parametrize("n", [1, 3])
def test_2x2_im_check_in_closed_form_matches_eigvalsh(n):
    pat = cov.Side(np.arange(4 * n), ((2, n, slice(0, 4 * n)),), None)
    rng = np.random.default_rng(40 + n)
    G = rng.standard_normal((256, 4 * n)) + 1j * rng.standard_normal((256, 4 * n))
    G[:8, 1::4] = G[:8, 2::4].conj()  # q = 0 at 8 points: Im G is diagonal there
    want = np.linalg.eigvalsh(slv.imaginary_part(G.reshape(256, n, 2, 2))).max(axis=(1, 2))
    # both round at a few ulp of the eigenvalue, so the bound is relative to it
    assert (np.abs(slv._block_im_max(pat, G) - want) <= 1e-15 * np.maximum(np.abs(want), 1)).all()


@pytest.mark.parametrize("m", [1, 2])
def test_small_complements_match_numpy(m):
    rng = np.random.default_rng(50 + m)
    S = rng.standard_normal((64, m, m)) + 1j * rng.standard_normal((64, m, m))
    y = rng.standard_normal((64, m)) + 1j * rng.standard_normal((64, m))
    want = np.linalg.solve(S, y[:, :, None])[..., 0]
    assert np.abs(slv._solve_complement(S, y) - want).max() <= 1e-13 * np.abs(want).max()
    S[7] = [[0.0]] if m == 1 else [[1.0, 2.0], [2.0, 4.0]]  # singular at point 7
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # raised before any division by zero
        with pytest.raises(np.linalg.LinAlgError):
            slv._solve_complement(S, y)
