"""Invariant sparsity pattern of a covariance map and the solves that use it."""

import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import blockspectra as bs
from blockspectra import cli, covariance as cov, nonsep as ns, solver as slv

from conftest import random_hh_star_spec, random_nonsep_spec, random_selfadjoint_spec

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
    """The sides hold the named blocks, A first, and the map only crosses them."""
    A, B = (side.span for side in pat.sides)
    owners = [members for members in pat.classes for _ in range(len(members[0]) ** 2)]
    assert {block for members in owners[A] for block in members} == set(blocks_a)
    assert {block for members in owners[B] for block in members} == set(blocks_b)
    assert (A.start, A.stop, B.stop) == (0, B.start, len(pat.eye))
    for side in pat.sides:
        X = side.span
        assert (pat.tensor[X, X] == 0).all()
        assert sum(s * s * n for s, n, _ in side.groups) == X.stop - X.start


@settings(max_examples=15, deadline=None)
@given(K=st.integers(1, 6), L=st.integers(2, 4), seed=st.integers(0, 2**16))
def test_isi_sides_are_the_two_frames(K, L, seed):
    # taps that are not palindromic: no frame mirrors another, so nothing folds
    taps = np.random.default_rng(seed).uniform(0.05, 3.0, L)
    pat = cov._law(bs.isi_covariance(K, L, taps)).eta.pattern
    _assert_sides(pat, [(i,) for i in range(K)], [(i,) for i in range(K, 2 * K + L - 1)])
    assert len(pat.eye) == len(pat.flat) == 2 * K + L - 1 and (pat.counts == 1).all()
    A, B = pat.sides
    assert A.span == slice(0, K)
    assert B.span == slice(K, 2 * K + L - 1)
    assert A.groups == ((1, K, slice(0, K)),)
    assert B.groups == ((1, K + L - 1, slice(0, K + L - 1)),)
    # both sides scalar: the complement's product Q[k, (i, j)] = T_AB[i, k] T_BA[k, j]
    T_AB, T_BA = pat.tensor[A.span, B.span], pat.tensor[B.span, A.span]
    assert (pat.coupling_product == np.einsum("ik,kj->kij", T_AB, T_BA)).all()


def _mirror_pairs(first, n):
    """Classes of blocks first..first+n-1 folded onto their mirror images."""
    return tuple(tuple((first + i,) for i in sorted({j, n - 1 - j})) for j in range((n + 1) // 2))


@settings(max_examples=15, deadline=None)
@given(L=st.integers(2, 4), extra=st.integers(0, 4))
def test_isi_frames_fold_in_mirror_pairs(L, extra):
    # unit taps are palindromic: each frame of a side is stored once with its mirror image
    K = L - 1 + extra
    pat = cov._law(bs.isi_covariance(K, L)).eta.pattern
    assert pat.classes == _mirror_pairs(0, K) + _mirror_pairs(K, K + L - 1)
    _assert_sides(pat, [(i,) for i in range(K)], [(i,) for i in range(K, 2 * K + L - 1)])
    mA, m = (K + 1) // 2, (K + 1) // 2 + (K + L) // 2
    A, B = pat.sides
    assert A.span == slice(0, mA) and B.span == slice(mA, m)
    assert A.groups == ((1, mA, slice(0, mA)),) and B.groups == ((1, m - mA, slice(0, m - mA)),)
    assert pat.counts.tolist() == [len(members) for members in pat.classes]
    assert len(pat.flat) == 2 * K + L - 1 and pat.coupling_product is not None
    # a stored value stands for every member: in the expanded matrix and in its norm
    values = np.random.default_rng(K * L).standard_normal((3, m)) * (1 - 2j)
    dense = pat.expand(values)
    assert (pat.compress(dense) == values).all()
    assert (dense.diagonal(axis1=1, axis2=2) == values[:, pat.diagonal]).all()
    assert pat.norm(values) == pytest.approx(np.linalg.norm(dense, axis=(1, 2)), rel=1e-15)


@settings(max_examples=15, deadline=None)
@given(K=st.integers(2, 6), L=st.integers(2, 5), seed=st.integers(0, 2**16))
def test_folded_isi_grid_solves_the_unreduced_equation(K, L, seed):
    half = np.random.default_rng(seed).uniform(0.05, 3.0, (L + 1) // 2)
    taps = np.concatenate([half, half[:L // 2][::-1]])  # palindromic: the frames fold
    eta = cov._law(bs.isi_covariance(K, L, taps)).eta
    assert len(eta.pattern.eye) < len(eta.pattern.flat)
    xs = slv._edge_estimate(eta) * np.linspace(0.1, 1.2, 12)
    for s in bs.solve_grid(eta, xs, 1e-3, bs.SolverConfig(tol=1e-13)):
        # the residual on the full d x d matrices, through the unreduced map
        R = s.z * s.G - np.eye(eta.dim_in) - bs.eta_apply(eta, s.G) @ s.G
        assert np.linalg.norm(R) <= 1e-12
        assert slv.max_im_eigenvalue(s.G) <= slv.IM_EIG_TOL


def _real_p2_q3_family():
    rng = np.random.default_rng(12)
    psd = [rng.standard_normal((n, n)) for n in (2, 2, 3, 3)]
    psd = [A @ A.T / len(A) for A in psd]
    return bs.CorrelationFamily(psi=tuple(psd[:2]), psi_hat=tuple(psd[2:])).spec


@pytest.mark.parametrize("spec", [lambda: bs.isi_covariance(5, 4), _real_p2_q3_family],
                         ids=["isi-k5-l4", "nonsep-p2-q3"])
def test_ladder_g_is_the_weighted_diagonal_of_the_expanded_solution(spec):
    # both laws fold, and their stored trace weights (ISI: 1/5 and 2/5) are not
    # powers of two: g sums one weight per stored value, in another order than
    # the expanded diagonal, and must agree with it to rounding
    law = cov._law(spec())
    pat = law.eta.pattern
    assert len(pat.eye) < len(pat.flat)
    xs = slv._edge_estimate(law.eta) ** 2 * np.linspace(0.0, 1.2, 25)
    for batch in slv._solve_continuation(law, xs, (1e-2, 1e-4), TIGHT):
        assert batch.converged.all()
        want = pat.expand(batch.G).diagonal(axis1=1, axis2=2) @ law.weights
        assert (np.abs(batch.g - want) <= 1e-15 * np.abs(want)).all()


def test_isi_frames_fold_beyond_mirror_pairs_when_taps_outnumber_frames():
    # K=2, L=4: the middle output frames 1-3 each see both input frames through
    # the same taps, so they fold into one class
    pat = cov._law(bs.isi_covariance(2, 4)).eta.pattern
    assert pat.classes == (((0,), (1,)), ((2,), (6,)), ((3,), (4,), (5,)))
    assert pat.counts.tolist() == [2, 2, 3]


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


def _small_side_with_the_large_block(w=(1.0,) * 5):
    """hh_star with a=2, b=5, tau(i,k;j,k) = v_i v_j w_k: side a is one 2x2 block, side b five 1x1.

    Equal w_k make side b's blocks identical: they fold into one stored value.
    """
    v = (1.0, 0.5)
    return bs.hh_star_covariance(2, 5, [(i + 1, k + 1, j + 1, k + 1, v[i] * v[j] * w[k])
                                        for i in range(2) for j in range(2) for k in range(5)])


def test_smaller_side_is_stored_first_even_with_the_larger_blocks():
    # ordered by block size alone, side b's five 1x1 blocks would come first;
    # distinct w_k keep them apart, so side b stores five values to side a's four
    pat = cov._law(_small_side_with_the_large_block((1.0, 1.5, 2.0, 2.5, 3.0))).eta.pattern
    _assert_sides(pat, [(0, 1)], [(i,) for i in range(2, 7)])
    A, B = pat.sides
    assert A.span == slice(0, 4) and B.span == slice(4, 9)
    assert pat.groups == ((2, 1, slice(0, 4)), (1, 5, slice(4, 9)))
    assert A.groups == ((2, 1, slice(0, 4)),) and B.groups == ((1, 5, slice(0, 5)),)
    assert pat.coupling_product is None


def test_smaller_side_first_keeps_the_solution():
    spec = _small_side_with_the_large_block()
    law = cov._law(spec)
    # side b folds into one stored value, which makes it the smaller side
    _assert_sides(law.eta.pattern, [(i,) for i in range(2, 7)], [(0, 1)])
    assert law.eta.pattern.counts.tolist() == [5, 1, 1, 1, 1]
    _assert_step_is_the_full_solve(law, 6)
    sol = bs.solve_hh_star(spec, 1 + 0.1j, TIGHT)
    assert sol.converged and sol.residual <= 1e-12
    # G1 as solved with side b stored first, and by the eliminated equation
    before = np.array([[0.6958171360663482 - 1.6414030575838534j,
                        -0.14714093691732086 - 0.7711965782968774j],
                       [-0.1471409369173208 - 0.7711965782968774j,
                        0.9165285414423295 - 0.4846081901385376j]])
    assert np.abs(sol.G1 - before).max() <= 1e-12
    direct = bs.solve_hh_star_direct(spec, 1 + 0.1j, bs.SolverConfig(tol=1e-14))
    assert direct.converged and np.abs(sol.G1 - direct.G).max() <= 1e-12


@settings(max_examples=30, deadline=None)
@given(a=st.integers(1, 4), b=st.integers(1, 4), complex_=st.booleans(),
       seed=st.integers(0, 2**16))
def test_gram_layout_stores_side_a_first(a, b, complex_, seed):
    spec = random_hh_star_spec(a, b, np.random.default_rng(seed), complex_=complex_)
    pat = cov._law(spec).eta.pattern
    A, B = (side.span for side in pat.sides)
    m = len(pat.eye)
    assert (A.start, A.stop, B.stop) == (0, B.start, m) and A.stop <= m - A.stop
    assert (pat.tensor[A, A] == 0).all() and (pat.tensor[B, B] == 0).all()
    # no block straddles m_A: the stored blocks' ends step onto it
    ends = np.cumsum([len(members[0]) ** 2 for members in pat.classes])
    assert A.stop in ends
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m))
    assert (pat.compress(pat.expand(values)) == values).all()
    dense = pat.expand(values)
    assert (pat.expand(pat.compress(dense)) == dense).all()
    assert (pat.expand(pat.eye) == np.eye(pat.d)).all()
    assert (values[:, pat.diagonal] == dense.diagonal(axis1=1, axis2=2)).all()


def _assert_step_is_the_full_solve(law, seed):
    """The eliminating step equals the full m x m solve at random points and iterates."""
    pat = law.eta.pattern
    assert pat.sides is not None
    rng = np.random.default_rng(seed)
    P, m = 6, len(pat.eye)
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
    _assert_step_is_the_full_solve(cov._law(bs.isi_covariance(5, 4)), 7)  # 3x3 complement
    law = cov._law(random_nonsep_spec(4, np.random.default_rng(1)))
    assert law.eta.pattern.sides[0].span.stop == 16  # a 16x16 complement, solved by LAPACK
    _assert_step_is_the_full_solve(law, 7)


def test_block_helpers_match_dense_algebra():
    pat = _law_of("nonsep_t2").eta.pattern  # 1x1 and 2x2 groups
    rng = np.random.default_rng(8)
    A, B = (rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6)) for _ in range(2))
    dense = pat.expand(A) @ pat.expand(B)
    assert np.abs(pat.expand(slv._block_matmul(pat, A, B)) - dense).max() <= 1e-15
    want = np.array([slv.max_im_eigenvalue(M) for M in pat.expand(A)])
    # both round at a few ulp of the eigenvalue (at most 4.5 over 3000 seeds),
    # so the bound is relative to it
    bound = 8 * np.finfo(float).eps * np.maximum(np.abs(want), 1)
    assert (np.abs(slv._block_im_max(pat, A) - want) <= bound).all()


@pytest.mark.parametrize("n", [1, 3])
def test_2x2_blocks_in_closed_form_match_numpy(n):
    # a stack of n 2x2 blocks a point, stored row by row as the pattern stores them
    pat = cov.Side(slice(0, 4 * n), ((2, n, slice(0, 4 * n)),))
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
    pat = cov.Side(slice(0, 4 * n), ((2, n, slice(0, 4 * n)),))
    rng = np.random.default_rng(40 + n)
    G = rng.standard_normal((256, 4 * n)) + 1j * rng.standard_normal((256, 4 * n))
    G[:8, 1::4] = G[:8, 2::4].conj()  # q = 0 at 8 points: Im G is diagonal there
    want = np.linalg.eigvalsh(slv.imaginary_part(G.reshape(256, n, 2, 2))).max(axis=(1, 2))
    # both round at a few ulp of the eigenvalue, so the bound is relative to it
    assert (np.abs(slv._block_im_max(pat, G) - want) <= 1e-15 * np.maximum(np.abs(want), 1)).all()


SINGULAR = {1: [[0.0]], 2: [[1.0, 2.0], [2.0, 4.0]],
            3: [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]}


@pytest.mark.parametrize("m", [1, 2, 3])
def test_small_complements_match_numpy(m):
    rng = np.random.default_rng(50 + m)
    S = rng.standard_normal((64, m, m)) + 1j * rng.standard_normal((64, m, m))
    y = rng.standard_normal((64, m)) + 1j * rng.standard_normal((64, m))
    want = np.linalg.solve(S, y[:, :, None])[..., 0]
    assert np.abs(slv._solve_linear(S, y) - want).max() <= 1e-13 * np.abs(want).max()
    S[7] = SINGULAR[m]  # determinant exactly 0 at point 7
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # raised before any division by zero
        with pytest.raises(np.linalg.LinAlgError):
            slv._solve_linear(S, y)


def test_3x3_closed_form_keeps_a_small_residual_when_ill_conditioned():
    # condition number 1e10: the adjugate is not backward stable, but its
    # relative residual stays near 1e-11 (LAPACK's LU reads about 1e-16)
    rng = np.random.default_rng(54)
    U, V = (np.linalg.qr(rng.standard_normal((64, 3, 3)) + 1j * rng.standard_normal((64, 3, 3)))[0]
            for _ in range(2))
    S = (U * [1.0, 1e-5, 1e-10]) @ V.conj().transpose(0, 2, 1)
    y = rng.standard_normal((64, 3)) + 1j * rng.standard_normal((64, 3))
    x = slv._solve_linear(S, y)
    residual = np.linalg.norm((S @ x[:, :, None])[..., 0] - y, axis=1)
    assert (residual <= 1e-10 * np.linalg.norm(S, 2, axis=(1, 2)) * np.linalg.norm(x, axis=1)).all()
