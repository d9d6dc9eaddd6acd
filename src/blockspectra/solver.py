"""Solvers for the matrix-valued Cauchy-transform fixed-point equations.

Central equation, for z in the (closed) upper half plane:

    z G(z) = I + eta(G(z)) G(z)

whose unique solution with negative-semidefinite imaginary part is the
matrix-valued Cauchy transform of the operator-valued semicircular law
with covariance map eta. The iteration map G -> (z*id - eta(G))^{-1}
converges to it from any start with negative imaginary part; Newton
refines quadratically near the solution.

Every solve runs in the invariant pattern of eta (``EtaMap.pattern``): the
smallest set of diagonal blocks, after a permutation, that contains the
identity and is closed under eta, products and inverses. The solution and
every iterate live there (Helton, Rashidi Far and Speicher, IMRN 2007), so
the batched engine stores G as its m values on the pattern, inverts block
by block and solves an m x m Newton system: m = d for the diagonal pattern
of ISI channels, m = d^2 for a dense map.

The Gram (HH*) variant solves the substituted equation for the hermitized
map, z H(z) = I + z eta(H(z)) H(z); it has the same structure with eta
scaled by z, so one engine serves both. The hermitized map is assembled
from the spec's pair (eta1, eta2) once per call (``cov._hermitized_map``).

One damped loop (``_damped_loop``) holds the damping policy for every
iteration: the engine's fixed-point sweeps and the eliminated one-sided
equation z G = I + outer((I - inner(G))^{-1}) G behind the cross-check
routes ``solve_hh_star_direct`` and ``nonsep.solve_fading``. Each passes
its own step and residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import covariance as cov
from .errors import (
    BadParameter,
    DimensionMismatch,
    IllConditioned,
    NoConvergence,
    SingularJacobian,
    SingularResolvent,
)

IM_EIG_TOL = 1e-8          # Im G must be negative semidefinite up to this
DAMPING_FLOOR = 1.0 / 64.0
DAMPING_RESET_STREAK = 10
NEWTON_HANDOFF = 1e-6      # fixed-point target before Newton takes over
MIN_GRID_EPSILON = 1e-8    # smaller offsets are rejected; extrapolate instead


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls shared by all solvers."""

    tol: float = 1e-10
    max_iter: int = 10_000
    newton: bool = False

    def __post_init__(self):
        if not self.tol > 0:
            raise BadParameter("tol must be positive")
        if self.max_iter < 1:
            raise BadParameter("max_iter must be >= 1")


DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True, eq=False)
class CauchySolution:
    """One solved point z with its matrix-valued transform G(z)."""

    z: complex
    G: np.ndarray
    residual: float
    iterations: int
    converged: bool


@dataclass(frozen=True, eq=False)
class HHStarSolution:
    """Solved Gram-law point: blocks of H(z), scalar transform, diagnostics."""

    z: complex
    G1: np.ndarray
    G2: np.ndarray
    g: complex
    residual: float
    split_residuals: tuple[float, float]
    iterations: int
    converged: bool


def imaginary_part(G) -> np.ndarray:
    """Hermitian imaginary part (G - G*) / 2i."""
    G = np.asarray(G, dtype=complex)
    return (G - G.conj().swapaxes(-1, -2)) / 2j


def max_im_eigenvalue(G) -> float:
    """Largest eigenvalue of the imaginary part; <= 0 selects the physical branch."""
    return float(np.linalg.eigvalsh(imaginary_part(G)).max())


def _project_negative_imaginary(G):
    """Clip the imaginary part to strictly negative eigenvalues."""
    G = np.asarray(G, dtype=complex)
    A = (G + G.conj().T) / 2
    B = imaginary_part(G)
    w, U = np.linalg.eigh(B)
    w = np.minimum(w, -1e-12)
    return A + 1j * (U * w) @ U.conj().T


# ---------------------------------------------------------------------------
# batched engine: equation z G = I + s * eta(G) G over a batch of points,
# with s = 1 for the plain equation and s = z for the Gram (H) equation.
# G is stored as its values on the map's invariant pattern, shape (P, m);
# blockwise work runs as one batched call per block size.
# ---------------------------------------------------------------------------

class _Batch(NamedTuple):
    G: np.ndarray          # compressed (P, m), or expanded (P, d, d) by callers
    res: np.ndarray
    iters: np.ndarray
    converged: np.ndarray
    im_max: np.ndarray     # largest eigenvalue of Im G per point


def _block_matmul(pat, A, B):
    """Blockwise product of two compressed batches."""
    out = np.empty_like(B)
    for s, n, sl in pat.groups:
        blocks = A[:, sl].reshape(len(A), n, s, s) @ B[:, sl].reshape(len(B), n, s, s)
        out[:, sl] = blocks.reshape(len(B), n * s * s)
    return out


def _block_inv(pat, A):
    """Blockwise inverse of a compressed batch; 1x1 blocks are reciprocals."""
    out = np.empty_like(A)
    for s, n, sl in pat.groups:
        if s == 1:
            if not A[:, sl].all():
                raise np.linalg.LinAlgError("Singular matrix")
            out[:, sl] = 1.0 / A[:, sl]
        else:
            blocks = A[:, sl].reshape(len(A), n, s, s)
            out[:, sl] = np.linalg.inv(blocks).reshape(len(A), n * s * s)
    return out


def _block_im_max(pat, G):
    """Per point, the largest eigenvalue of Im G over all blocks."""
    out = np.full(len(G), -np.inf)
    with np.errstate(all="ignore"):
        for s, n, sl in pat.groups:
            im = imaginary_part(G[:, sl].reshape(len(G), n, s, s))
            out = np.maximum(out, np.linalg.eigvalsh(im).max(axis=(1, 2)))
    return out


def _eta_batch(pat, G):
    return G @ pat.tensor.T


def _residual_batch(pat, zs, scale, G, EG=None):
    if EG is None:
        EG = _eta_batch(pat, G)
    R = zs[:, None] * G - pat.eye - scale[:, None] * _block_matmul(pat, EG, G)
    return np.linalg.norm(R, axis=1)


def _damped_loop(G, residual, step, target, budget):
    """Damped iteration G <- G + theta (step(G) - G) over a batch of points.

    ``residual(G)`` returns the per-point residuals and a value that
    ``step(G, aux)`` reuses to form the undamped map. Per point, theta
    starts at 1, halves on a worse residual down to DAMPING_FLOOR and
    returns to 1 after DAMPING_RESET_STREAK better steps; points whose
    residual reaches ``target`` stop moving.
    """
    P = len(G)
    shape = (P,) + (1,) * (G.ndim - 1)
    theta = np.ones(P)
    streak = np.zeros(P, dtype=int)
    res, aux = residual(G)
    iters = np.zeros(P, dtype=int)
    for _ in range(budget):
        active = res > target
        if not active.any():
            break
        try:
            F = step(G, aux)
        except np.linalg.LinAlgError as exc:
            raise SingularResolvent(
                "z*id - eta(G) not invertible at an iterate; "
                "check the covariance map or move z away from the real axis"
            ) from exc
        Gn = np.where(active.reshape(shape), G + theta.reshape(shape) * (F - G), G)
        resn, auxn = residual(Gn)
        worse = active & (resn > res)
        theta[worse] = np.maximum(theta[worse] / 2, DAMPING_FLOOR)
        streak[worse] = 0
        better = active & ~worse
        streak[better] += 1
        refresh = streak >= DAMPING_RESET_STREAK
        theta[refresh] = 1.0
        streak[refresh] = 0
        iters[active] += 1
        G, res, aux = Gn, resn, auxn
    return G, res, iters


def _fixed_point_batch(pat, zs, scale, G, target, budget):
    """The damped loop on the pattern: step G -> (z I - s eta(G))^{-1}."""

    def residual(G):
        EG = _eta_batch(pat, G)
        return _residual_batch(pat, zs, scale, G, EG), EG

    def step(G, EG):
        return _block_inv(pat, zs[:, None] * pat.eye - scale[:, None] * EG)

    return _damped_loop(G, residual, step, target, budget)


def _jacobian(pat, zs, scale, G, EG):
    """Linearization on the pattern: column c is z E_c - s (eta(E_c) G + eta(G) E_c).

    E_c is the pattern's c-th basis matrix; the result has shape (P, m, m).
    """
    P, m = G.shape
    lin = np.empty((P, m, m), dtype=complex)
    for s, n, sl in pat.groups:
        # eta(E_c) G: sum_t eta(E_c)[i, t] G[t, j], one matmul per block
        T = pat.tensor[sl].reshape(n, s, s, m).transpose(0, 2, 1, 3)  # [block, t, i, c]
        Gt = G[:, sl].reshape(P, n, s, s).transpose(0, 1, 3, 2)        # [p, block, j, t]
        prod = (Gt @ T.reshape(n, s, s * m)).reshape(P, n, s, s, m)    # [p, block, j, i, c]
        lin[:, sl] = prod.transpose(0, 1, 3, 2, 4).reshape(P, n * s * s, m)
        # eta(G) E_c for c = (k, j): entry (i, j) of the same block gains eta(G)[i, k]
        base = sl.start + s * s * np.arange(n)[:, None, None, None]
        i, j, k = np.indices((s, s, s))
        lin[:, base + i * s + j, base + k * s + j] += EG[:, base + i * s + k]
    J = -scale[:, None, None] * lin
    J[:, np.arange(m), np.arange(m)] += zs[:, None]
    return J


def _newton_batch(pat, zs, scale, G, config, target, budget=60):
    """Newton on the m x m linearization in the pattern's coordinates.

    Each step solves one m x m system per point (m = d for a diagonal
    pattern, d^2 for a dense map; see :func:`_jacobian`), with per-point
    backtracking.
    """
    G = G.copy()
    P, m = G.shape
    res = _residual_batch(pat, zs, scale, G)
    iters = np.zeros(P, dtype=int)
    stuck = np.zeros(P, dtype=bool)
    for _ in range(budget):
        active = (res > target) & ~stuck
        if not active.any():
            break
        ii = np.flatnonzero(active)
        Gi, zi, si = G[ii], zs[ii], scale[ii]
        EG = _eta_batch(pat, Gi)
        Ri = zi[:, None] * Gi - pat.eye - si[:, None] * _block_matmul(pat, EG, Gi)
        J = _jacobian(pat, zi, si, Gi, EG)
        rhs = -Ri[:, :, None]
        try:
            step = np.linalg.solve(J, rhs)[..., 0]
        except np.linalg.LinAlgError:
            step = np.zeros((len(ii), m), dtype=complex)
            for k in range(len(ii)):
                try:
                    step[k] = np.linalg.solve(J[k], rhs[k])[:, 0]
                except np.linalg.LinAlgError:
                    stuck[ii[k]] = True
        factor = np.ones(len(ii))
        improved = np.zeros(len(ii), dtype=bool)
        Gbest = Gi.copy()
        for _bt in range(9):
            pending = ~improved
            if not pending.any():
                break
            trial = Gi + factor[:, None] * step
            rtrial = _residual_batch(pat, zi, si, trial)
            good = pending & (rtrial < res[ii])
            Gbest[good] = trial[good]
            res[ii[good]] = rtrial[good]
            improved |= good
            factor[pending] /= 2
        stuck[ii[~improved]] = True
        G[ii] = Gbest
        iters[ii[improved]] += 1
    return G, res, iters, stuck


def _epsilon_ladder(epsilon, span, factor=2.0):
    e0 = max(epsilon, span / 8.0, 1e-3)
    levels = []
    e = e0
    while e > epsilon * (1 + 1e-9):
        levels.append(e)
        e /= factor
    levels.append(epsilon)
    return levels


def _solve_points(eta, zs, scale, config, G0=None, fp_budget=None, tol=None):
    """Solve a batch at fixed z values from a compressed start (default -i*I).

    Returns a compressed :class:`_Batch`.
    """
    pat = eta.pattern
    tol = config.tol if tol is None else tol
    if G0 is None:
        G0 = np.tile(-1j * pat.eye, (len(zs), 1))
    target = max(tol, NEWTON_HANDOFF) if config.newton else tol
    budget = fp_budget if fp_budget is not None else config.max_iter
    G, res, fits = _fixed_point_batch(pat, zs, scale, G0, target, budget)
    nits = np.zeros(len(zs), dtype=int)
    if config.newton:
        G, res, nits, _ = _newton_batch(pat, zs, scale, G, config, tol)
    im_max = _block_im_max(pat, G)
    return _Batch(G, res, fits + nits, (res <= tol) & (im_max <= IM_EIG_TOL), im_max)


def _solve_continuation(eta, xs, epsilon, config, scale_is_z, record=()):
    """Solve a grid by stepping the offset down from a safe start.

    ``record`` lists extra offsets on the ladder whose solved batches the
    caller also wants (e.g. 2*epsilon for Richardson extrapolation).
    Returns one batch per recorded offset, then the batch at ``epsilon``
    (whose ``iters`` count the whole ladder), each with G expanded to
    (P, d, d).
    """
    pat = eta.pattern
    xs = np.asarray(xs, dtype=float)
    P = len(xs)
    span = float(xs.max() - xs.min()) if P > 1 else 1.0
    span = max(span, 1.0)
    G = np.tile(-1j * pat.eye, (P, 1))
    total = np.zeros(P, dtype=int)
    factor = 4.0 if config.newton else 2.0
    levels = sorted(
        set(_epsilon_ladder(epsilon, span, factor)) | set(record), reverse=True
    )
    snapshots = {}
    for lev, eps in enumerate(levels):
        zs = xs + 1j * eps
        scale = zs if scale_is_z else np.ones(P, dtype=complex)
        last = lev == len(levels) - 1
        wanted = last or eps in record
        if config.newton:
            fp_budget = 40 if lev == 0 else 6
            # intermediate levels only feed warm starts; full accuracy is
            # needed only where results are consumed
            tol = config.tol if wanted else max(config.tol, 1e-7)
        else:
            fp_budget = config.max_iter if last else min(config.max_iter, 120)
            tol = config.tol
        fp_budget = min(fp_budget, config.max_iter)
        out = _solve_points(eta, zs, scale, config, G0=G, fp_budget=fp_budget, tol=tol)
        G = out.G
        total += out.iters
        if eps in record:
            snapshots[eps] = out
    batches = [snapshots[e] for e in record] + [out._replace(iters=total)]
    return [b._replace(G=pat.expand(b.G)) for b in batches]


def _require_converged(xs, *batches):
    """Raise NoConvergence naming the grid points that any batch failed.

    The message lists every failing index, then x, the residual and the
    largest eigenvalue of Im G (which must stay <= IM_EIG_TOL) of the first
    five, worst over the batches.
    """
    bad = np.flatnonzero(~np.logical_and.reduce([b.converged for b in batches]))
    if not bad.size:
        return
    res = np.max([b.res for b in batches], axis=0)
    im_max = np.max([b.im_max for b in batches], axis=0)
    detail = "; ".join(
        f"x={xs[i]:.6g} residual={res[i]:.3g} max eig Im G={im_max[i]:.3g}"
        for i in bad[:5]
    )
    raise NoConvergence(f"grid points {bad.tolist()} did not converge: {detail}")


# ---------------------------------------------------------------------------
# public solvers
# ---------------------------------------------------------------------------

def _require_square(eta):
    if eta.dim_in != eta.dim_out:
        raise DimensionMismatch("the fixed-point equation needs a square map")


def _require_upper_half(z):
    if complex(z).imag < 0:
        raise BadParameter(f"z must lie in the closed upper half plane, got {z}")


def solve_fixed_point(eta, z, config=None, warm_start=None) -> CauchySolution:
    """Solve z G = I + eta(G) G at one point by damped iteration.

    Starts from -i*I, or from ``warm_start`` projected to negative imaginary
    part and pinched onto the map's invariant pattern (its entries off the
    pattern dropped); pinching keeps Im G < 0, as it compresses Im G to
    diagonal blocks. If ``config.newton`` is set, Newton refines once the
    fixed-point residual reaches 1e-6. The best iterate is returned even on
    iteration-budget exhaustion, with ``converged=False``.
    """
    config = config or DEFAULT_CONFIG
    _require_square(eta)
    _require_upper_half(z)
    d = eta.dim_out
    G0 = None
    if warm_start is not None:
        W = np.asarray(warm_start, dtype=complex)
        if W.shape != (d, d):
            raise DimensionMismatch(f"warm start must be {d}x{d}")
        G0 = eta.pattern.compress(_project_negative_imaginary(W)[None])
    zs = np.array([complex(z)])
    out = _solve_points(eta, zs, np.ones(1, dtype=complex), config, G0=G0)
    return CauchySolution(complex(z), eta.pattern.expand(out.G)[0], float(out.res[0]),
                          int(out.iters[0]), bool(out.converged[0]))


def newton_refine(eta, z, G0, config=None) -> CauchySolution:
    """Newton refinement of an approximate solution G0.

    G0 is pinched onto the map's invariant pattern first (its entries off
    the pattern dropped; pinching keeps Im G < 0), where the solution lives.
    Each step then solves the m x m linearization on the pattern's m entries
    z*dG - eta(dG) G - eta(G) dG = -(z G - I - eta(G) G). Quadratic
    convergence when started in the basin (residual below ~1e-2).
    """
    config = config or DEFAULT_CONFIG
    _require_square(eta)
    _require_upper_half(z)
    d = eta.dim_out
    G0 = np.asarray(G0, dtype=complex)
    if G0.shape != (d, d):
        raise DimensionMismatch(f"G0 must be {d}x{d}")
    pat = eta.pattern
    zs = np.array([complex(z)])
    budget = min(config.max_iter, 60)
    G, res, its, stuck = _newton_batch(
        pat, zs, np.ones(1, dtype=complex), pat.compress(G0[None]), config,
        config.tol, budget=budget,
    )
    if stuck[0] and res[0] > max(config.tol, NEWTON_HANDOFF):
        raise SingularJacobian(
            "Newton made no progress (singular or stalled linearization); "
            "fall back to solve_fixed_point"
        )
    converged = res[0] <= config.tol and _block_im_max(pat, G)[0] <= IM_EIG_TOL
    return CauchySolution(complex(z), pat.expand(G)[0], float(res[0]), int(its[0]),
                          bool(converged))


def _check_grid(xs, epsilon):
    """A nonempty monotone 1-d grid, and an offset at or above the floor."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or len(xs) == 0:
        raise BadParameter("xs must be a nonempty 1-d array")
    diffs = np.diff(xs)
    if len(xs) > 1 and not ((diffs >= 0).all() or (diffs <= 0).all()):
        raise BadParameter("xs must be monotone")
    if epsilon < MIN_GRID_EPSILON:
        raise BadParameter(f"epsilon {epsilon} below the {MIN_GRID_EPSILON} floor")
    return xs


def solve_grid(eta, xs, epsilon, config=None):
    """Solve along z = x + i*epsilon for every x in a monotone grid.

    All points are solved simultaneously, walking the imaginary offset down
    from a safe level so each level warm starts the next. Offsets below 1e-8
    are rejected; recover the real-axis limit by extrapolation instead.

    Raises NoConvergence naming the failing grid indices, with x, residual
    and Im-margin of the first few, if any point misses the residual target
    or the negative-imaginary-part invariant.
    """
    config = config or DEFAULT_CONFIG
    _require_square(eta)
    xs = _check_grid(xs, epsilon)
    (out,) = _solve_continuation(eta, xs, float(epsilon), config, scale_is_z=False)
    _require_converged(xs, out)
    return [
        CauchySolution(complex(x, epsilon), G, float(r), int(k), True)
        for x, G, r, k in zip(xs, out.G, out.res, out.iters)
    ]


def _hh_star_solution(eta1, eta2, z, H, res, its, converged) -> HHStarSolution:
    a, b = eta1.dim_out, eta2.dim_out
    G1, G2 = H[:a, :a], H[a:, a:]
    g = complex(np.trace(G1) / a)
    r1 = float(
        np.linalg.norm(z * G1 - np.eye(a) - z * cov.eta_apply(eta1, G2) @ G1)
    )
    r2 = float(
        np.linalg.norm(z * G2 - np.eye(b) - z * cov.eta_apply(eta2, G1) @ G2)
    )
    return HHStarSolution(
        z=complex(z),
        G1=G1,
        G2=G2,
        g=g,
        residual=float(res),
        split_residuals=(r1, r2),
        iterations=int(its),
        converged=bool(converged),
    )


def _solve_gram_point(eta, z, config):
    """z H = I + z eta(H) H at one point from -i*I: (H, residual, iterations, converged)."""
    config = config or DEFAULT_CONFIG
    _require_upper_half(z)
    zs = np.array([complex(z)])
    out = _solve_points(eta, zs, zs.copy(), config)
    return (eta.pattern.expand(out.G)[0], float(out.res[0]), int(out.iters[0]),
            bool(out.converged[0]))


def solve_hh_star(spec, z, config=None) -> HHStarSolution:
    """Solve the Gram-law equations of an hh_star spec at one point.

    Works on the hermitized map via z H = I + z eta(H) H, whose solution is
    block diagonal H = diag(G1, G2); the corners stay exactly zero along the
    iteration because the hermitized map annihilates them. Returns the blocks,
    the scalar transform g = tr_a(G1), and the residuals of the two split
    equations z G1 = I + z eta1(G2) G1 and z G2 = I + z eta2(G1) G2.
    """
    eta1, eta2 = cov.eta1_map(spec), cov.eta2_map(spec)
    H, res, its, converged = _solve_gram_point(cov._hermitized_map(eta1, eta2), z, config)
    return _hh_star_solution(eta1, eta2, complex(z), H, res, its, converged)


def solve_hh_star_grid(spec, xs, epsilon, config=None):
    """Gram-law solutions along z = x + i*epsilon, solved by continuation."""
    eta1, eta2 = cov.eta1_map(spec), cov.eta2_map(spec)
    sols, _ = solve_gram_grid(cov._hermitized_map(eta1, eta2), spec.a, xs, epsilon, config)
    return [
        _hh_star_solution(eta1, eta2, s.z, s.G, s.residual, s.iterations, True)
        for s in sols
    ]


def solve_gram_grid(eta, side, xs, epsilon, config=None):
    """Gram-law grid for an arbitrary hermitized map.

    Solves z H = I + z eta(H) H and returns (solutions, g) where g[k] is the
    normalized trace of the leading ``side`` x ``side`` block at grid point k.
    """
    config = config or DEFAULT_CONFIG
    _require_square(eta)
    xs = _check_grid(xs, epsilon)
    (out,) = _solve_continuation(eta, xs, float(epsilon), config, scale_is_z=True)
    _require_converged(xs, out)
    sols = [
        CauchySolution(complex(x, epsilon), G, float(r), int(k), True)
        for x, G, r, k in zip(xs, out.G, out.res, out.iters)
    ]
    g = np.trace(out.G[:, :side, :side], axis1=1, axis2=2) / side
    return sols, g


def _solve_eliminated(outer, inner, z, config):
    """Solve the eliminated equation z G = I + outer((I - inner(G))^{-1}) G at z.

    Runs the damped loop from -i*I with the step
    G -> (z I - outer((I - inner(G))^{-1}))^{-1}; each step costs one inverse
    on each side. The Gram route passes (eta1, eta2), the fading route
    (eta2, eta1). Returns (G, residual, iterations, converged).
    """
    eye_out, eye_in = np.eye(outer.dim_out), np.eye(inner.dim_out)

    def residual(G):
        W = cov.eta_apply(outer, np.linalg.inv(eye_in - cov.eta_apply(inner, G[0])))
        return np.array([np.linalg.norm(z * G[0] - eye_out - W @ G[0])]), W

    def step(G, W):
        return np.linalg.inv(z * eye_out - W)[None]

    G, res, its = _damped_loop(
        (-1j * eye_out)[None], residual, step, config.tol, config.max_iter
    )
    converged = res[0] <= config.tol and max_im_eigenvalue(G[0]) <= IM_EIG_TOL
    return G[0], float(res[0]), int(its[0]), bool(converged)


def solve_hh_star_direct(spec, z, config=None) -> CauchySolution:
    """Verification route: solve the eliminated equation for G1 directly.

    Iterates G1 -> (z I_a - eta1((I_b - eta2(G1))^{-1}))^{-1} through the
    engine's damped loop. Kept as an independent cross-check of the
    hermitized route; both must agree.
    """
    config = config or DEFAULT_CONFIG
    _require_upper_half(z)
    G1, res, its, converged = _solve_eliminated(
        cov.eta1_map(spec), cov.eta2_map(spec), z, config
    )
    return CauchySolution(complex(z), G1, res, its, converged)


@dataclass(frozen=True)
class MomentEstimates:
    """Normalized-trace moments extracted from large-|z| evaluations."""

    m0: float
    m2: float
    m4: float


def moment_check(eta, radii=None, config=None) -> MomentEstimates:
    """Extract m0, m2, m4 from the Laurent tail of G along the imaginary axis.

    Fits Re tr_d(z G(i R)) as a polynomial in 1/R^2 over several radii; the
    expansion G(z) = I/z + M2/z^3 + M4/z^5 + ... has no odd terms. Radii must
    sit well outside the spectral support or the extraction is refused.
    """
    config = config or DEFAULT_CONFIG
    _require_square(eta)
    d = eta.dim_out
    m2_map = cov.eta_apply(eta, np.eye(d))
    lam = float(np.linalg.eigvalsh((m2_map + m2_map.conj().T) / 2).max())
    edge = 2.0 * np.sqrt(max(lam, 1e-12))
    if radii is None:
        base = max(edge, 1.0)
        radii = base * np.array([4.0, 8.0, 16.0, 32.0, 64.0])
    radii = np.asarray(radii, dtype=float)
    if len(radii) < 3:
        raise BadParameter("need at least three radii")
    if radii.min() < 2.0 * edge:
        raise IllConditioned(
            f"smallest radius {radii.min():.3g} is inside 2x the support "
            f"estimate {edge:.3g}; moment extraction would be unstable"
        )
    tight = SolverConfig(
        tol=min(config.tol, 1e-12), max_iter=config.max_iter, newton=config.newton
    )
    w = []
    for R in radii:
        sol = solve_fixed_point(eta, 1j * R, tight)
        if not sol.converged:
            raise NoConvergence(f"moment probe at z = {1j * R} did not converge")
        w.append(float((1j * R * np.trace(sol.G) / d).real))
    u = 1.0 / radii**2
    V = np.vander(u, N=len(radii), increasing=True)
    coeff = np.linalg.solve(V, np.asarray(w))
    return MomentEstimates(m0=float(coeff[0]), m2=float(-coeff[1]), m4=float(coeff[2]))
