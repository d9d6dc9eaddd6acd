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
the batched engine stores G as its m values on the pattern, in the
pattern's layout, and inverts block by block, 1x1 and 2x2 blocks in closed
form. Identical blocks are stored once, so the engine solves the quotient
map (m = 6, not 11, for ISI K = L = 4; m = d^2 for a dense map); residual
norms weight each stored value by the entries it stands for. Internal
routes pass the compressed batch on, and each public route that returns
d x d matrices expands it once; a density and ``moment_check`` read the
transform off the stored diagonal. A Gram law's map is bipartite: it
sends side a of the pattern only into side b and back (``pattern.sides``),
and the smaller side is stored first, so each side is a slice. There Newton
eliminates the larger side, whose block of the Jacobian is blockwise
w - eta(G), and solves the m_A x m_A complement on the smaller one; any
other map solves the full m x m system. Each Newton step forms that
blockwise inverse, the fixed-point map's resolvent, once over the whole
pattern, and each side reads its slice. When both sides are all 1x1 (ISI
and every diagonal Gram law), the complement comes from one product with
the pattern's coupling product. A 1x1, 2x2 or 3x3 system, full or
complement, is solved in closed form, and so is the Im G check of a 2x2
block; a system of 4x4 and up goes to ``np.linalg.solve``. At the small
sizes a stacked LAPACK call costs more in dispatch than its arithmetic.

Every solve, one point or a grid, of any law, starts from G = -i*I and walks
the imaginary offset down a continuation ladder (``_solve_continuation``),
each offset a factor LADDER_RATIO below the one before. The first level runs
sweeps of the fixed-point map, which globalize, then Newton. Each later level
is a predictor-corrector step (Allgower and Georg, Introduction to Numerical
Continuation Methods, SIAM 2003): a tangent step from the level before, then
Newton; the sweeps run again only where Newton fails, from the level
before's G. The sweeps always stop at the loose tolerance, the larger of the
residual target and PREDICTION_TOL, and hand over to Newton. A level whose
offset the caller did not ask for only feeds the next prediction, so it
stops at the loose tolerance too, and its Im H check is held to it as well.
Only ``newton_refine`` starts from a caller's approximation.

A Gram (HH*) law is read off its hermitization X = [[0, H], [H*, 0]]: as
X^2 = diag(HH*, H*H), H(z) = G(w)/w at w = sqrt(z), where G solves the
central equation for the hermitized map (its residual w G - I - eta(G) G is
z H - I - z eta(H) H). The ladder carries G and reads H only where a level
is judged; z = 0, the pole of H, is refused. A ``cov.Law`` carries the Gram
flag, and ``cov._law`` builds a spec's law once per call.

One loop (``_sweep_loop``) runs every fixed-point iteration, each step
replacing G by the caller's map, with no damping. The engine's sweeps pass
the plain map G -> (z I - eta(G))^{-1}. The eliminated one-sided equation
z G = I + outer((I - inner(G))^{-1}) G behind the cross-check routes
``solve_hh_star_direct`` and ``nonsep.solve_fading`` passes the averaged
map G -> (G + (z I - W)^{-1}) / 2, with W = outer((I - inner(G))^{-1}):
its plain map contracts too slowly near the real axis.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import covariance as cov
from .errors import (
    BadParameter,
    DimensionMismatch,
    NoConvergence,
    SingularJacobian,
    SingularResolvent,
)

IM_EIG_TOL = 1e-8          # Im G must be negative semidefinite up to this
SWEEPS = 40                # fixed-point sweeps a ladder level runs at most
NEWTON_STEPS = 60          # steps of one Newton run: a ladder level's, or newton_refine's
ELIMINATED_SWEEPS = 10_000  # averaged sweeps of the eliminated cross-check equation
PREDICTION_TOL = 1e-3      # residual target of a level that only feeds a prediction
LADDER_RATIO = 16.0        # each continuation level's offset over the next one's
MIN_GRID_EPSILON = 1e-8    # the ladder's last level above a real z (an offset of 0)


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls shared by all solvers: the residual target ``tol``.

    ``newton`` accepts only True: every solve refines with Newton.
    """

    tol: float = 1e-10
    newton: bool = True

    def __post_init__(self):
        if not 0 < cov._real(self.tol, "tol") < float("inf"):
            raise BadParameter(f"tol must be a positive finite number, got {self.tol!r}")
        if self.newton is not True:
            raise BadParameter("newton must be True: every solve refines with Newton")


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
    """Largest eigenvalue of Im G (<= 0 on the physical branch); NaN if G is not finite."""
    G = np.asarray(G, dtype=complex)  # eigvalsh would read a NaN as 0
    return float(np.linalg.eigvalsh(imaginary_part(G)).max()) if np.isfinite(G).all() else np.nan


# ---------------------------------------------------------------------------
# batched engine: equation z G = I + eta(G) G over a batch of points.
# G is stored as its values on the map's invariant pattern, shape (P, m);
# blockwise work runs as one batched call per block size.
# ---------------------------------------------------------------------------

class _Batch(NamedTuple):
    G: np.ndarray          # compressed (P, m)
    g: np.ndarray          # the law's transform, tr(G) read with its trace weights
    res: np.ndarray
    iters: np.ndarray
    converged: np.ndarray
    im_max: np.ndarray     # largest eigenvalue of Im G per point


def _block_matmul(pat, A, B):
    """Blockwise product of two compressed batches, in closed form for 1x1 and 2x2 blocks.

    A 2x2 block's product is written out, which is several times faster
    than a stacked matmul of tiny blocks.
    """
    out = np.empty_like(B)
    for s, n, sl in pat.groups:
        if s == 1:
            np.multiply(A[:, sl], B[:, sl], out=out[:, sl])
        elif s == 2:
            a, b, c, d = A[:, sl].reshape(len(A), n, 4).transpose(2, 0, 1)
            e, f, g, h = B[:, sl].reshape(len(B), n, 4).transpose(2, 0, 1)
            blocks = np.stack([a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h], axis=2)
            out[:, sl] = blocks.reshape(len(B), n * 4)
        else:
            blocks = A[:, sl].reshape(len(A), n, s, s) @ B[:, sl].reshape(len(B), n, s, s)
            out[:, sl] = blocks.reshape(len(B), n * s * s)
    return out


def _pivots(det):
    """``det``, or LinAlgError before any division by it if an entry is 0."""
    if not det.all():
        raise np.linalg.LinAlgError("Singular matrix")
    return det


def _block_inv(pat, A):
    """Blockwise inverse of a compressed batch: 1x1 blocks are reciprocals, 2x2 cofactors.

    A 2x2 block [[a, b], [c, d]] inverts to [[d, -b], [-c, a]] / (a d - b c).
    A zero pivot of a 1x1 block or a zero determinant of a 2x2 block raises
    LinAlgError, as ``np.linalg.inv`` does for a singular larger block.
    """
    out = np.empty_like(A)
    for s, n, sl in pat.groups:
        if s == 1:
            out[:, sl] = 1.0 / _pivots(A[:, sl])
        elif s == 2:
            a, b, c, d = A[:, sl].reshape(len(A), n, 4).transpose(2, 0, 1)
            r = 1.0 / _pivots(a * d - b * c)
            out[:, sl] = np.stack([d * r, -b * r, -c * r, a * r], axis=2).reshape(len(A), n * 4)
        else:
            blocks = A[:, sl].reshape(len(A), n, s, s)
            out[:, sl] = np.linalg.inv(blocks).reshape(len(A), n * s * s)
    return out


def _block_im_max(pat, G):
    """Per point, the largest eigenvalue of Im G over all blocks.

    A 1x1 block's is Im G; a 2x2 block [[a, b], [c, d]]'s is (p + r)/2 +
    sqrt(((p - r)/2)^2 + |q|^2) with p = Im a, r = Im d, q = (b - c*)/2i.
    """
    out = np.full(len(G), -np.inf)
    with np.errstate(all="ignore"):
        for s, n, sl in pat.groups:
            if s == 1:
                top = np.ascontiguousarray(G[:, sl].imag.T).max(axis=0)
            elif s == 2:
                a, b, c, d = G[:, sl].reshape(len(G), n, 4).transpose(2, 0, 1)
                top = ((a.imag + d.imag) / 2
                       + np.hypot((a.imag - d.imag) / 2, np.abs(b - c.conj()) / 2)).max(axis=1)
            else:
                im = imaginary_part(G[:, sl].reshape(len(G), n, s, s))
                top = np.linalg.eigvalsh(im).max(axis=(1, 2))
            out = np.maximum(out, top)
    return out


def _eta_batch(pat, G):
    return G @ pat.tensor.T


def _residual(pat, zs, G, EG):
    """Residual z G - I - eta(G) G per point, on the pattern."""
    return zs[:, None] * G - pat.eye - _block_matmul(pat, EG, G)


def _sweep_loop(G, residual, step, target, limit):
    """Fixed-point iteration G <- step(G) over a batch of points.

    ``residual(G)`` returns the per-point residuals and a value that
    ``step(G, aux)`` reuses to form the map; points whose residual reaches
    ``target`` stop moving, and the loop stops after ``limit`` steps.
    """
    shape = (len(G),) + (1,) * (G.ndim - 1)
    res, aux = residual(G)
    iters = np.zeros(len(G), dtype=int)
    for _ in range(limit):
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
        G = np.where(active.reshape(shape), F, G)
        res, aux = residual(G)
        iters[active] += 1
    return G, res, iters


def _fixed_point_batch(pat, zs, G, target, limit):
    """The sweep loop on the pattern with the plain map G -> (z I - eta(G))^{-1}."""

    def residual(G):
        EG = _eta_batch(pat, G)
        return pat.norm(_residual(pat, zs, G, EG)), EG

    def step(G, EG):
        return _block_inv(pat, zs[:, None] * pat.eye - EG)

    return _sweep_loop(G, residual, step, target, limit)


def _jacobian(pat, zs, G, EG):
    """Linearization on the pattern: column c is z E_c - eta(E_c) G - eta(G) E_c.

    E_c is the pattern's c-th basis matrix; the result has shape (P, m, m).
    Newton forms it only on a pattern without sides (:func:`_newton_step`).
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
    np.negative(lin, out=lin)
    lin[:, np.arange(m), np.arange(m)] += zs[:, None]
    return lin


def _coupled_side(pat, side, other, W, G, rhs):
    """One side X of a bipartite pattern: K = D^{-1} eta(.) G and y = D^{-1} rhs on X.

    D multiplies each block of X on the left by w - eta(G), and ``W`` is
    D^{-1}, the side's slice of the step's resolvent; column c of K is
    D^{-1} (eta(E_c) G) for the c-th stored entry of the other side.
    """
    X, coupling = side.span, pat.tensor[side.span, other.span]
    # point-major copies of the side: einsum then loops fastest over the points
    P, G, rhs = len(G), np.asfortranarray(G[:, X]), np.asfortranarray(rhs[:, X])
    K, y = np.empty((P, *coupling.shape), dtype=complex), np.empty_like(W)
    for s, n, sl in side.groups:
        if s == 1:
            np.multiply((W[:, sl] * G[:, sl])[:, :, None], coupling[sl], out=K[:, sl])
            np.multiply(W[:, sl], rhs[:, sl], out=y[:, sl])
            continue
        # eta(E_c) G and rhs side by side as columns, then one blockwise W
        T = coupling[sl].reshape(n, s, s, -1)
        M = np.concatenate(
            [np.einsum("nitc,pntj->pnijc", T, G[:, sl].reshape(P, n, s, s)),
             rhs[:, sl].reshape(P, n, s, s, 1)], axis=4)
        WM = np.einsum("pniu,pnujc->pnijc", W[:, sl].reshape(P, n, s, s), M)
        K[:, sl] = WM[..., :-1].reshape(P, n * s * s, -1)
        y[:, sl] = WM[..., -1].reshape(P, n * s * s)
    return K, y


def _solve_linear(S, y):
    """x solving each Newton system S x = y; LinAlgError if some S is singular.

    A 1x1, 2x2 or 3x3 system is solved in closed form, as its adjugate
    times y over its determinant; 4x4 and larger go to ``np.linalg.solve``.
    """
    n = y.shape[1]
    if n == 1:
        return y / _pivots(S[:, 0])
    if n > 3:
        return np.linalg.solve(S, y[:, :, None])[..., 0]
    if n == 2:
        (a, b), (c, d) = S.transpose(1, 2, 0)
        r = 1.0 / _pivots(a * d - b * c)
        return np.stack([(d * y[:, 0] - b * y[:, 1]) * r, (a * y[:, 1] - c * y[:, 0]) * r], axis=1)
    (a, b, c), (d, e, f), (g, h, i) = S.transpose(1, 2, 0)
    A, B, C = e * i - f * h, f * g - d * i, d * h - e * g  # cofactors of the first row
    r = 1.0 / _pivots(a * A + b * B + c * C)
    y0, y1, y2 = y.T
    return np.stack([(A * y0 + (c * h - b * i) * y1 + (b * f - c * e) * y2) * r,
                     (B * y0 + (a * i - c * g) * y1 + (c * d - a * f) * y2) * r,
                     (C * y0 + (b * g - a * h) * y1 + (a * e - b * d) * y2) * r], axis=1)


def _newton_step(pat, ws, G, EG, rhs):
    """The Newton step: x solving J x = rhs, J the linearization of :func:`_jacobian`.

    On a bipartite pattern (``pat.sides``: the smaller side A stored as
    [0, m_A), the larger side B after it) B is eliminated: J = [[D_A, L_AB],
    [L_BA, D_B]], D_X multiplying each block of side X on the left by
    w - eta(G) and L_XY x = -eta(x) G on X, read off the tensor's slice
    T_XY. Each D_X^{-1} is side X's slice of the blockwise inverse of
    w - eta(G) over the whole pattern, the fixed-point map's resolvent,
    formed once a step. With K_X = -D_X^{-1} L_XY and y_X = D_X^{-1} rhs_X,
    x_A solves the m_A x m_A complement (I - K_A K_B) x_A = y_A + K_A y_B and
    x_B = y_B + K_B x_A. When both sides are all 1x1, K_X = diag(u_X) T_XY
    with u_X = D_X^{-1} G_X, so I - K_A K_B = I - u_A * (u_B Q) from the
    pattern's coupling product Q, and neither K is formed. Any other
    pattern solves the full m x m system. Raises LinAlgError when a D_X or
    the system is singular at some point.
    """
    if pat.sides is None:
        return _solve_linear(_jacobian(pat, ws, G, EG), rhs)
    A, B = pat.sides
    Q, P, mA, T = pat.coupling_product, len(G), A.span.stop, pat.tensor
    W = _block_inv(pat, ws[:, None] * pat.eye - EG)
    WA, WB = W[:, :mA], W[:, mA:]
    if Q is None:
        KA, yA = _coupled_side(pat, A, B, WA, G, rhs)
        KB, yB = _coupled_side(pat, B, A, WB, G, rhs)
        S = -(KA @ KB)
        b = yA + (KA @ yB[:, :, None])[..., 0]
    else:
        uA, uB, yB = WA * G[:, :mA], WB * G[:, mA:], WB * rhs[:, mA:]
        S = (uB @ Q.reshape(len(Q), -1)).reshape(P, mA, mA)
        S *= -uA[:, :, None]
        b = WA * rhs[:, :mA] + uA * (yB @ T[:mA, mA:].T)
    S[:, np.arange(mA), np.arange(mA)] += 1
    xA = _solve_linear(S, b)
    x = np.empty_like(G)
    x[:, :mA] = xA
    x[:, mA:] = yB + ((KB @ xA[:, :, None])[..., 0] if Q is None else uB * (xA @ T[mA:, :mA].T))
    return x


def _newton_batch(pat, zs, G, target, limit):
    """Newton on the linearization in the pattern's coordinates.

    Each step solves one linear system per point (:func:`_newton_step`).
    Where the batch's step fails on a singular matrix, every point takes
    the same step on its own, and a point whose step is singular stops.
    Steps backtrack per point. A point takes at most ``limit`` steps.
    """
    G = G.copy()
    P, m = G.shape
    EG = _eta_batch(pat, G)
    R = _residual(pat, zs, G, EG)  # kept for the accepted iterate: the next step's rhs
    res = pat.norm(R)
    iters = np.zeros(P, dtype=int)
    stuck = np.zeros(P, dtype=bool)
    for _ in range(limit):
        active = (res > target) & ~stuck
        if not active.any():
            break
        ii = np.flatnonzero(active)
        # every point active: Gi and EGi are G and EG, not copies. Backtracking
        # writes a row of G only as that point leaves `pending`, and reads only
        # pending rows of Gi, so the aliasing changes no value.
        Gi, zi, EGi, rhs = (G, zs, EG, -R) if len(ii) == P else (G[ii], zs[ii], EG[ii], -R[ii])
        try:
            step = _newton_step(pat, zi, Gi, EGi, rhs)
        except np.linalg.LinAlgError:
            step = np.zeros((len(ii), m), dtype=complex)
            for k in range(len(ii)):
                try:
                    step[k] = _newton_step(pat, *(v[k:k + 1] for v in (zi, Gi, EGi, rhs)))[0]
                except np.linalg.LinAlgError:
                    stuck[ii[k]] = True
        factor = np.ones(len(ii))
        improved = np.zeros(len(ii), dtype=bool)
        for _bt in range(9):
            pending = ~improved
            if not pending.any():
                break
            trial = Gi + factor[:, None] * step
            EGt = _eta_batch(pat, trial)
            Rt = _residual(pat, zi, trial, EGt)
            rtrial = pat.norm(Rt)
            good = pending & (rtrial < res[ii])
            at = ii[good]
            G[at], EG[at], R[at], res[at] = trial[good], EGt[good], Rt[good], rtrial[good]
            improved |= good
            factor[pending] /= 2
        stuck[ii[~improved]] = True
        iters[ii[improved]] += 1
    return G, res, iters, stuck


def _tangent_start(pat, w0, G0, w1):
    """The predictor: G0 + (w1 - w0) dG/dw, from the solution G0 at w0 to w1.

    Differentiating w G - I - eta(G) G = 0 in w gives J dG/dw = -G, J the
    linearization at (w0, G0), so the tangent is one :func:`_newton_step`.
    Where that system is singular the whole batch starts from G0 itself.
    """
    try:
        t = _newton_step(pat, w0, G0, _eta_batch(pat, G0), -G0)
    except np.linalg.LinAlgError:
        return G0
    return G0 + (w1 - w0)[:, None] * t


def _check_newton_budget(pat, P):
    """BadParameter if a Newton step at P points would form an array above cov.MAX_MAP_BYTES.

    The largest array a step forms is the (P, m, m) Jacobian on a pattern
    without sides, else a side's (P, m_A, m_B) coupling block; the system
    it solves has m, or m_A, unknowns.
    """
    m = len(pat.eye)
    mA = m if pat.sides is None else pat.sides[0].span.stop
    size = 16 * P * mA * (m if pat.sides is None else m - mA)
    if size > cov.MAX_MAP_BYTES:
        raise BadParameter(f"a Newton step at P = {P} points on m = {m} stored values "
                           f"(m_A = {mA} unknowns) forms a {size}-byte array, above the "
                           f"{cov.MAX_MAP_BYTES}-byte limit")


def _solve_continuation(law, xs, offsets, config):
    """Solve a law's batch along z = x + i*eps at each of ``offsets``, largest first.

    The offset walks down by factors of LADDER_RATIO from max(span, 1) / 8
    (or the last offset, if larger) through every offset, down to the last
    one however small; only a last offset of 0 (a real z) stops the walk at
    MIN_GRID_EPSILON before its final level. Each level solves
    w G = I + eta(G) G at w = z, or w = sqrt(z) for a Gram law, and hands
    the next level only its G.
    The loose tolerance is the larger of ``config.tol`` and PREDICTION_TOL.
    A level at one of ``offsets`` is held to ``config.tol`` for its
    residual and IM_EIG_TOL for the largest eigenvalue of Im H (H = G/w
    for a Gram law, G otherwise); a level in between only feeds the next
    prediction and is held to the loose tolerance for both. The first
    level runs up to SWEEPS fixed-point sweeps of the plain map from
    G = -i*I toward the loose tolerance, then up to NEWTON_STEPS Newton
    steps. Each later level predicts along the tangent from the level
    before (:func:`_tangent_start`) and runs Newton from there. A point
    that Newton leaves stuck or unconverged restarts from the level
    before's G through the first level's sweeps and Newton. A prediction
    counts as one iteration.

    Returns one batch per offset: G compressed to (P, m), g the law's
    transform read off its diagonal with the trace weights, and ``iters``
    counting the ladder down to that offset. A batch whose Newton step
    would pass the byte budget is refused before the first level
    (:func:`_check_newton_budget`).
    """
    config = config or DEFAULT_CONFIG
    pat = law.eta.pattern
    xs = np.asarray(xs, dtype=float)
    P = len(xs)
    _check_newton_budget(pat, P)
    G_prev = np.tile(-1j * pat.eye, (P, 1))
    levels, loose = set(offsets), max(config.tol, PREDICTION_TOL)
    e = max(offsets[-1], max(float(np.ptp(xs)), 1.0) / 8.0)
    while e > (offsets[-1] or MIN_GRID_EPSILON) * (1 + 1e-9):
        levels.add(e)
        e /= LADDER_RATIO
    levels = sorted(levels, reverse=True)
    total = np.zeros(P, dtype=int)
    trace = np.bincount(pat.diagonal, law.weights, len(pat.eye))
    snapshots = []  # the wanted levels, in the order of offsets

    def verdict(G, ws, res, tol, im_tol):
        H = G / ws[:, None] if law.gram else G
        im_max = _block_im_max(pat, H)
        return H, (res <= tol) & (im_max <= im_tol), im_max

    for lev, eps in enumerate(levels):
        zs = xs + 1j * eps
        ws = np.sqrt(zs) if law.gram else zs
        wanted = eps in offsets
        # a level that is not wanted only feeds the next level's prediction
        tol, im_tol = (config.tol, IM_EIG_TOL) if wanted else (loose, loose)
        if lev == 0:
            G, res, retry = G_prev.copy(), np.full(P, np.inf), np.arange(P)
        else:
            G = _tangent_start(pat, w_prev, G_prev, ws)
            G, res, nits, _ = _newton_batch(pat, ws, G, tol, NEWTON_STEPS)
            total += 1 + nits
            H, converged, im_max = verdict(G, ws, res, tol, im_tol)
            retry = np.flatnonzero(~converged)
        if retry.size:
            Gr, res[retry], fits = _fixed_point_batch(pat, ws[retry], G_prev[retry], loose, SWEEPS)
            G[retry], res[retry], nits, _ = _newton_batch(pat, ws[retry], Gr, tol, NEWTON_STEPS)
            total[retry] += fits + nits
            H, converged, im_max = verdict(G, ws, res, tol, im_tol)
        G_prev, w_prev = G, ws
        if wanted:
            snapshots.append(_Batch(H, H @ trace, res, total.copy(), converged, im_max))
    return snapshots


def _solve_point(law, z, config):
    """One point through the ladder: its batch of one, still compressed; a Gram law refuses 0."""
    z = _upper_half(z)
    if law.gram and z == 0:
        raise BadParameter("z = 0 is a pole of a Gram law's transform G(sqrt z)/sqrt z")
    return _solve_continuation(law, [z.real], (z.imag,), config)[0]


def _solutions(law, zs, out) -> list[CauchySolution]:
    """A batch's public solutions at the points ``zs``: the one place the ladder's G expands."""
    return [CauchySolution(complex(z), G, float(r), int(k), bool(c)) for z, G, r, k, c
            in zip(zs, law.eta.pattern.expand(out.G), out.res, out.iters, out.converged)]


def _solve_converged(law, xs, offsets, config):
    """The ladder's batches at ``offsets``, or NoConvergence naming the points any failed.

    The message lists every failing index, then x, the residual and the
    largest eigenvalue of Im G (which must stay <= IM_EIG_TOL) of the first
    five, worst over the batches.
    """
    batches = _solve_continuation(law, xs, offsets, config)
    bad = np.flatnonzero(~np.logical_and.reduce([b.converged for b in batches]))
    if bad.size:
        res = np.max([b.res for b in batches], axis=0)
        im_max = np.max([b.im_max for b in batches], axis=0)
        detail = "; ".join(
            f"x={xs[i]:.6g} residual={res[i]:.3g} max eig Im G={im_max[i]:.3g}"
            for i in bad[:5]
        )
        raise NoConvergence(f"grid points {bad.tolist()} did not converge: {detail}")
    return batches


# ---------------------------------------------------------------------------
# public solvers
# ---------------------------------------------------------------------------

def _upper_half(z) -> complex:
    """z as a complex number of the closed upper half plane, or BadParameter."""
    z = cov._numbers(z, "z", complex)
    if z.ndim:
        raise BadParameter(f"z must be one point, got an array of shape {z.shape}")
    z = complex(z)
    if not (cmath.isfinite(z) and z.imag >= 0):
        raise BadParameter(f"z must be a finite point of the closed upper half plane, got {z}")
    return z


def solve_fixed_point(eta, z, config=None) -> CauchySolution:
    """Solve z G = I + eta(G) G at one point by continuation.

    Starts from -i*I and walks the imaginary offset down to Im z as a grid
    solve does (see :func:`_solve_continuation`). To
    polish an approximate solution instead, use :func:`newton_refine`. The
    best iterate is returned, with ``converged=False``, when the ladder's
    caps run out before the residual target.
    """
    law = cov._map_law(eta)
    return _solutions(law, [_upper_half(z)], _solve_point(law, z, config))[0]


def newton_refine(eta, z, G0, config=None) -> CauchySolution:
    """Newton refinement of an approximate solution G0.

    G0 is pinched onto the map's invariant pattern first (its entries off
    the pattern dropped; pinching keeps Im G < 0), where the solution lives.
    Each step then solves the linearization on the pattern's m entries
    z*dG - eta(dG) G - eta(G) dG = -(z G - I - eta(G) G), on a bipartite
    map through its complement on the smaller side. Quadratic convergence
    when started in the basin (residual below ~1e-2), in NEWTON_STEPS steps at most.
    Raises SingularJacobian when Newton sticks above max(tol, PREDICTION_TOL).
    """
    config = config or DEFAULT_CONFIG
    z = _upper_half(z)
    d = eta.dim_out
    G0 = cov._numbers(G0, "G0", complex)
    if G0.shape != (d, d):
        raise DimensionMismatch(f"G0 must be {d}x{d}")
    pat = eta.pattern
    zs = np.array([z])
    G, res, its, stuck = _newton_batch(
        pat, zs, pat.compress(G0[None]), config.tol, NEWTON_STEPS)
    if stuck[0] and res[0] > max(config.tol, PREDICTION_TOL):
        raise SingularJacobian(
            "Newton made no progress (singular or stalled linearization); "
            "fall back to solve_fixed_point"
        )
    converged = res[0] <= config.tol and _block_im_max(pat, G)[0] <= IM_EIG_TOL
    return CauchySolution(z, pat.expand(G)[0], float(res[0]), int(its[0]),
                          bool(converged))


def _check_grid(xs):
    """A nonempty finite monotone 1-d grid, or BadParameter."""
    xs = cov._numbers(xs, "xs")
    if xs.ndim != 1 or len(xs) == 0:
        raise BadParameter("xs must be a nonempty 1-d array")
    if not np.isfinite(xs).all():
        raise BadParameter("xs must be finite")
    diffs = np.diff(xs)
    if len(xs) > 1 and not ((diffs >= 0).all() or (diffs <= 0).all()):
        raise BadParameter("xs must be monotone")
    return xs


def solve_grid(eta, xs, epsilon, config=None):
    """Solve along z = x + i*epsilon for every x in a monotone grid.

    All points are solved simultaneously, walking the imaginary offset down
    from a safe level so each level warm starts the next. ``epsilon`` may be
    any finite positive offset, as a density's may; zero, negative and
    non-finite offsets, and non-finite grid points, are rejected.

    Raises NoConvergence naming the failing grid indices, with x, residual
    and Im-margin of the first few, if any point misses the residual target
    or the negative-imaginary-part invariant.
    """
    law = cov._map_law(eta)
    return _solutions(law, *_solve_law_grid(law, xs, epsilon, config))


def _solve_law_grid(law, xs, epsilon, config):
    """A law's grid solve: (the points z = x + i*epsilon, their converged batch)."""
    xs = _check_grid(xs)
    if not 0 < cov._real(epsilon, "epsilon") < np.inf:
        raise BadParameter(f"epsilon must be finite and positive, got {epsilon}")
    (out,) = _solve_converged(law, xs, (float(epsilon),), config)
    return np.array([complex(x, epsilon) for x in xs]), out


def _hh_star_solutions(law, a, zs, out) -> list[HHStarSolution]:
    """Each H split into its blocks; a split residual weighs each value by its entries there."""
    pat, zs = law.eta.pattern, np.asarray(zs)
    R = _residual(pat, zs, out.G, zs[:, None] * _eta_batch(pat, out.G))  # z H - I - z eta(H) H
    in_a = np.add.reduceat(pat.flat < a * pat.d, np.cumsum(pat.counts) - pat.counts)
    r1, r2 = (np.sqrt(np.abs(R) ** 2 @ n) for n in (in_a, pat.counts - in_a))
    return [HHStarSolution(s.z, s.G[:a, :a], s.G[a:, a:], complex(g), s.residual,
                           (float(x), float(y)), s.iterations, s.converged)
            for s, g, x, y in zip(_solutions(law, zs, out), out.g, r1, r2)]


def solve_hh_star(spec, z, config=None) -> HHStarSolution:
    """Solve the Gram-law equations of an hh_star spec at one point.

    Works on the hermitized map, H(z) = G(sqrt z)/sqrt z, whose solution is
    block diagonal H = diag(G1, G2); the corners stay exactly zero along the
    iteration because the hermitized map annihilates them. Returns the blocks,
    the scalar transform g = tr_a(G1), and the residuals of the two split
    equations z G1 = I + z eta1(G2) G1 and z G2 = I + z eta2(G1) G2. z = 0,
    the pole of H, raises BadParameter.
    """
    law = cov._hh_star_law(spec)
    return _hh_star_solutions(law, spec.a, [_upper_half(z)], _solve_point(law, z, config))[0]


def solve_hh_star_grid(spec, xs, epsilon, config=None):
    """Gram-law solutions along z = x + i*epsilon, solved by continuation."""
    law = cov._hh_star_law(spec)
    return _hh_star_solutions(law, spec.a, *_solve_law_grid(law, xs, epsilon, config))


def solve_gram_grid(eta, side, xs, epsilon, config=None):
    """Gram-law grid for an arbitrary hermitized map.

    Solves for H(z) = G(sqrt z)/sqrt z and returns (solutions, g) where g[k] is the
    normalized trace of the leading ``side`` x ``side`` block at grid point k;
    ``side`` must lie in 1..d-1.
    """
    law = cov._gram_law(eta, side)
    zs, out = _solve_law_grid(law, xs, epsilon, config)
    return _solutions(law, zs, out), out.g


def _solve_eliminated(outer, inner, z, config):
    """Solve the eliminated equation z G = I + outer((I - inner(G))^{-1}) G at z.

    Runs at most ELIMINATED_SWEEPS steps of the sweep loop from -i*I with
    the averaged step G -> (G + (z I - outer((I - inner(G))^{-1}))^{-1}) / 2;
    each step costs one inverse on each side. The Gram route passes
    (eta1, eta2), the fading route (eta2, eta1). Returns (G, residual,
    iterations, converged).
    """
    eye_out, eye_in = np.eye(outer.dim_out), np.eye(inner.dim_out)

    def residual(G):
        W = cov.eta_apply(outer, np.linalg.inv(eye_in - cov.eta_apply(inner, G[0])))
        return np.array([np.linalg.norm(z * G[0] - eye_out - W @ G[0])]), W

    def step(G, W):
        return (G + np.linalg.inv(z * eye_out - W)) / 2

    G, res, its = _sweep_loop(
        (-1j * eye_out)[None], residual, step, config.tol, ELIMINATED_SWEEPS
    )
    converged = res[0] <= config.tol and max_im_eigenvalue(G[0]) <= IM_EIG_TOL
    return G[0], float(res[0]), int(its[0]), bool(converged)


def solve_hh_star_direct(spec, z, config=None) -> CauchySolution:
    """Verification route: solve the eliminated equation for G1 directly.

    Iterates the average of G1 and (z I_a - eta1((I_b - eta2(G1))^{-1}))^{-1}
    through the engine's sweep loop. Kept as an independent cross-check of the
    hermitized route; both must agree.
    """
    config = config or DEFAULT_CONFIG
    z = _upper_half(z)
    G1, res, its, converged = _solve_eliminated(
        cov.eta1_map(spec), cov.eta2_map(spec), z, config
    )
    return CauchySolution(z, G1, res, its, converged)


def _edge_estimate(eta) -> float:
    """Support edge estimate 2 sqrt(||eta(I)||) of the law of a square map.

    The largest eigenvalue of eta(I)'s Hermitian part is used at any scale;
    1e-12 stands in only where it is not positive, as for the zero map.
    """
    pat = eta.pattern
    iE = 1j * (pat.eye @ pat.tensor.T)  # Im(i eta(I)), read per block, is its Hermitian part
    lam = max(max_im_eigenvalue(iE[sl].reshape(n, s, s)) for s, n, sl in pat.groups)
    return 2.0 * np.sqrt(lam if lam > 0 else 1e-12)


@dataclass(frozen=True)
class MomentEstimates:
    """Normalized-trace moments extracted from large-|z| evaluations."""

    m0: float
    m2: float
    m4: float


def moment_check(eta, config=None) -> MomentEstimates:
    """Extract m0, m2, m4 from the Laurent tail of G along the imaginary axis.

    Fits Re tr_d(z G(i R)) as a polynomial in 1/R^2 over the radii
    R = e * (8, 16, 32, 64, 128), with e the support edge estimate
    2 ||eta(I)||^(1/2): all lie at least 8e out, well outside the support,
    and scale with the law.
    Each radius is one ``_solve_point`` ladder of its own. The
    expansion G(z) = I/z + M2/z^3 + M4/z^5 + ... has no odd terms.
    """
    config = config or DEFAULT_CONFIG
    law = cov._map_law(eta)
    radii = _edge_estimate(eta) * np.array([8.0, 16.0, 32.0, 64.0, 128.0])
    tight = replace(config, tol=min(config.tol, 1e-12))
    w = []
    for R in radii:  # cold: a warm walk through the radii moves m4 by ~3e-9
        out = _solve_point(law, 1j * R, tight)
        if not out.converged[0]:
            raise NoConvergence(f"moment probe at z = {1j * R} did not converge")
        w.append(float((1j * R * out.g[0]).real))
    coeff = np.linalg.solve(np.vander(1.0 / radii**2, increasing=True), np.asarray(w))
    return MomentEstimates(m0=float(coeff[0]), m2=float(-coeff[1]), m4=float(coeff[2]))
