"""Covariance structures of Gaussian block ensembles and their linear maps.

A :class:`CovarianceSpec` stores the entry-covariance function of a block
ensemble sparsely, as coordinate entries over 1-based block indices:

* ``selfadjoint`` -- sigma(i,j;k,l) on d block indices, with the Hermitian
  symmetry sigma(i,j;k,l) = conj(sigma(k,l;i,j)).
* ``hh_star`` -- tau(i,k;j,l), real, with tau(i,k;j,l) = tau(j,l;i,k);
  i, j run over the a row blocks and k, l over the b column blocks.
* ``rectangular`` -- sigma on d blocks of asymptotic relative sizes alpha_i,
  nonzero only where alpha_i = alpha_l and alpha_j = alpha_k.

Validation closes the entry list under the symmetries implied by a
realizable Hermitian ensemble and reports the minimum eigenvalue of the
Choi matrix of the induced covariance map (positivity-preservation check;
a deficit is flagged with a warning, not an error, so exploratory specs
still run).

The covariance maps themselves are materialized as :class:`EtaMap`
coefficient tensors:

* eta(D)_ij       = (1/d) sum_kl sigma(i,k;l,j) D_kl           (selfadjoint)
* eta1(D)_ij      = (1/(a+b)) sum_kl tau(i,k;j,l) D_kl          (b -> a side)
* eta2(D)_kl      = (1/(a+b)) sum_ij tau(i,k;j,l) D_ij          (a -> b side)
* eta_alpha(D)_ij = sum_kl sigma(i,k;l,j) alpha_k D_kl          (weighted)

Maps are not cached: a tensor lives as long as its caller keeps it. Every
Gram law solves on the block map :func:`_hermitized_map` assembles from
its pair of maps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (
    BadParameter,
    DimensionMismatch,
    IndexOutOfRange,
    PatternViolation,
    SymmetryViolation,
    WeightError,
    WrongKind,
)

KINDS = ("selfadjoint", "hh_star", "rectangular")

SYMMETRY_TOL = 1e-12
CHOI_FLAG_EIG = -1e-10

Entry = tuple[int, int, int, int, complex]


@dataclass(frozen=True)
class CovarianceSpec:
    """Sparse covariance function of a Gaussian block ensemble.

    Entries are ``(i, j, k, l, value)`` with 1-based indices meaning
    sigma(i,j;k,l) for the selfadjoint/rectangular kinds and tau(i,k;j,l)
    (slot order ``(i, k, j, l)``) for the hh_star kind. Instances are
    immutable; share freely across threads.
    """

    kind: str
    d: int = 0
    a: int = 0
    b: int = 0
    alpha: tuple[float, ...] | None = None
    entries: tuple[Entry, ...] = ()
    validated: bool = False
    choi_min_eig: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise WrongKind(f"unknown covariance kind {self.kind!r}")
        norm = tuple(
            (int(i), int(j), int(k), int(l), complex(v))
            for (i, j, k, l, v) in self.entries
        )
        object.__setattr__(self, "entries", norm)
        if self.kind == "hh_star":
            if self.a < 1 or self.b < 1:
                raise BadParameter("hh_star spec needs block counts a >= 1, b >= 1")
        else:
            if self.d < 1:
                raise BadParameter(f"{self.kind} spec needs block count d >= 1")
            if self.alpha is None:
                object.__setattr__(self, "alpha", (1.0 / self.d,) * self.d)
            else:
                object.__setattr__(self, "alpha", tuple(float(x) for x in self.alpha))

    @property
    def dim(self) -> int:
        """Block dimension of the selfadjoint form (a+b for hh_star)."""
        return self.a + self.b if self.kind == "hh_star" else self.d


def selfadjoint_covariance(d, entries) -> CovarianceSpec:
    """Validated selfadjoint spec from sparse sigma entries."""
    return validate_covariance(CovarianceSpec("selfadjoint", d=d, entries=tuple(entries)))


def hh_star_covariance(a, b, entries) -> CovarianceSpec:
    """Validated hh_star spec from sparse tau entries."""
    return validate_covariance(CovarianceSpec("hh_star", a=a, b=b, entries=tuple(entries)))


def rectangular_covariance(alpha, entries) -> CovarianceSpec:
    """Validated rectangular spec; block count is len(alpha)."""
    alpha = tuple(float(x) for x in alpha)
    return validate_covariance(
        CovarianceSpec("rectangular", d=len(alpha), alpha=alpha, entries=tuple(entries))
    )


def _check_indices(spec: CovarianceSpec):
    if spec.kind == "hh_star":
        ranges = (spec.a, spec.b, spec.a, spec.b)
    else:
        ranges = (spec.d,) * 4
    for ent in spec.entries:
        for idx, hi in zip(ent[:4], ranges):
            if not 1 <= idx <= hi:
                raise IndexOutOfRange(f"index {idx} outside 1..{hi} in entry {ent}")
        v = ent[4]
        if not (np.isfinite(v.real) and np.isfinite(v.imag)):
            raise BadParameter(f"non-finite covariance value in entry {ent}")


def _close_table(spec: CovarianceSpec) -> dict[tuple[int, int, int, int], complex]:
    """Fill symmetry-implied entries; reject stored conflicts beyond tolerance.

    selfadjoint/rectangular sigma is closed under both symmetries a Hermitian
    ensemble forces: sigma(i,j;k,l) = conj sigma(k,l;i,j) (stated) and
    sigma(i,j;k,l) = conj sigma(j,i;l,k) (from X = X*). hh_star tau is real
    and closed under tau(i,k;j,l) = tau(j,l;i,k).
    """
    scale = max([1.0] + [abs(e[4]) for e in spec.entries])
    tol = SYMMETRY_TOL * scale
    table: dict[tuple[int, int, int, int], complex] = {}

    def put(idx, val):
        old = table.get(idx)
        if old is None:
            table[idx] = val
        elif abs(old - val) > tol:
            raise SymmetryViolation(
                f"conflicting values for entry {idx}: {old} vs {val}"
            )

    for (i, j, k, l, v) in spec.entries:
        if spec.kind == "hh_star":
            if abs(v.imag) > tol:
                raise SymmetryViolation(f"hh_star covariance must be real, got {v}")
            put((i, j, k, l), complex(v.real))
            put((k, l, i, j), complex(v.real))
        else:
            put((i, j, k, l), v)
            put((k, l, i, j), v.conjugate())
            put((j, i, l, k), v.conjugate())
            put((l, k, j, i), v)
    return table


def _check_alpha(spec: CovarianceSpec):
    alpha = spec.alpha
    if alpha is None or len(alpha) != spec.d:
        raise WeightError(f"alpha must have {spec.d} entries")
    if any(not 0.0 < x < 1.0 for x in alpha) and spec.d > 1:
        raise WeightError("alpha entries must lie in (0, 1)")
    if spec.d == 1 and abs(alpha[0] - 1.0) > 1e-9:
        raise WeightError("single-block alpha must be 1")
    if abs(sum(alpha) - 1.0) > 1e-9:
        raise WeightError(f"alpha must sum to 1, got {sum(alpha)}")


def _check_alpha_pattern(spec: CovarianceSpec, table):
    alpha = spec.alpha
    for (i, j, k, l), v in table.items():
        if v == 0:
            continue
        if alpha[i - 1] != alpha[l - 1] or alpha[j - 1] != alpha[k - 1]:
            raise PatternViolation(
                f"sigma({i},{j};{k},{l}) nonzero but weights are incompatible"
            )


def _sigma_array(spec: CovarianceSpec) -> np.ndarray:
    """Dense sigma(i,j;k,l) as a (d,d,d,d) array, 0-based axes."""
    d = spec.d
    S = np.zeros((d, d, d, d), dtype=complex)
    for (i, j, k, l, v) in spec.entries:
        S[i - 1, j - 1, k - 1, l - 1] = v
    return S


def _tau_array(spec: CovarianceSpec) -> np.ndarray:
    """Dense tau(i,k;j,l) as an (a,b,a,b) array, 0-based axes."""
    T = np.zeros((spec.a, spec.b, spec.a, spec.b))
    for (i, k, j, l, v) in spec.entries:
        T[i - 1, k - 1, j - 1, l - 1] = v.real
    return T


@dataclass(frozen=True, eq=False)
class EtaMap:
    """Linear map on block-index matrices, stored as a 4-index tensor.

    ``tensor`` has shape (dim_out, dim_out, dim_in, dim_in) and acts as
    output[i,j] = sum_kl tensor[i,j,k,l] * input[k,l].
    """

    tensor: np.ndarray

    def __post_init__(self):
        t = np.ascontiguousarray(np.asarray(self.tensor, dtype=complex))
        if t.ndim != 4 or t.shape[0] != t.shape[1] or t.shape[2] != t.shape[3]:
            raise DimensionMismatch(f"eta tensor has invalid shape {t.shape}")
        t.setflags(write=False)
        object.__setattr__(self, "tensor", t)

    @property
    def dim_out(self) -> int:
        return self.tensor.shape[0]

    @property
    def dim_in(self) -> int:
        return self.tensor.shape[2]

    @cached_property
    def pattern(self) -> InvariantPattern:
        """Invariant block pattern of a square map, computed on first use."""
        if self.dim_in != self.dim_out:
            raise DimensionMismatch("the invariant pattern needs a square map")
        return InvariantPattern(self.tensor)

    def __call__(self, D):
        return eta_apply(self, D)


class InvariantPattern:
    """Smallest block-diagonal sparsity pattern a square map keeps invariant.

    Starting from the diagonal, supp(eta(S)), supp(S S) and S^T are added
    until nothing changes. The result is an equivalence relation on the d
    indices, i.e. diagonal blocks after a permutation (one block of size d
    for a dense map, d blocks of size 1 for ISI). It contains the identity
    and is closed under eta, products and inverses, so every fixed-point
    and Newton iterate of z G = I + s eta(G) G stays on it.

    Values on the pattern are stored flat ("compressed"), blocks grouped by
    size: ``groups`` lists (s, n, slice) for the n blocks of size s, each
    stored row-major in its slice. ``flat`` holds the i*d+j position of
    every stored entry, ``eye`` the identity and ``tensor`` the m x m
    restriction of the map to the m stored entries.
    """

    def __init__(self, tensor):
        d = tensor.shape[0]
        reach = (tensor != 0).reshape(d * d, d * d)
        S = np.eye(d, dtype=bool)
        while True:
            grown = S | reach[:, S.ravel()].any(axis=1).reshape(d, d)
            grown |= grown.T
            grown |= grown @ grown
            if (grown == S).all():
                break
            S = grown
        blocks = sorted({tuple(np.flatnonzero(row).tolist()) for row in S},
                        key=lambda b: (len(b), b))
        self.d = d
        self.blocks = tuple(blocks)
        groups, flat = [], []
        for s in sorted({len(b) for b in blocks}):
            members = [b for b in blocks if len(b) == s]
            groups.append((s, len(members), slice(len(flat), len(flat) + len(members) * s * s)))
            flat += [i * d + j for b in members for i in b for j in b]
        self.groups = tuple(groups)
        self.flat = np.array(flat)
        self.eye = (self.flat // d == self.flat % d).astype(float)
        self.tensor = tensor.reshape(d * d, d * d)[np.ix_(self.flat, self.flat)]

    def compress(self, G) -> np.ndarray:
        """Pinch (..., d, d) matrices onto the pattern: their stored entries."""
        G = np.asarray(G, dtype=complex)
        return G.reshape(*G.shape[:-2], self.d * self.d)[..., self.flat]

    def expand(self, Gc) -> np.ndarray:
        """Compressed values back to (..., d, d), exact zeros off the pattern."""
        out = np.zeros((*Gc.shape[:-1], self.d * self.d), dtype=complex)
        out[..., self.flat] = Gc
        return out.reshape(*Gc.shape[:-1], self.d, self.d)


def eta_apply(eta: EtaMap, D) -> np.ndarray:
    """Evaluate the covariance map on one matrix."""
    D = np.asarray(D, dtype=complex)
    if D.shape != (eta.dim_in, eta.dim_in):
        raise DimensionMismatch(
            f"expected a {eta.dim_in}x{eta.dim_in} matrix, got {D.shape}"
        )
    return np.einsum("ijkl,kl->ij", eta.tensor, D)


def choi_matrix(eta: EtaMap) -> np.ndarray:
    """Choi matrix of the map; PSD iff the map is completely positive."""
    if eta.dim_in != eta.dim_out:
        raise DimensionMismatch("Choi matrix requires a square map")
    d = eta.dim_in
    return np.ascontiguousarray(
        eta.tensor.transpose(2, 0, 3, 1).reshape(d * d, d * d)
    )


def eta_map(spec: CovarianceSpec) -> EtaMap:
    """Covariance map of a selfadjoint spec: eta(D)_ij = (1/d) sum sigma(i,k;l,j) D_kl."""
    if spec.kind != "selfadjoint":
        raise WrongKind(f"eta_map needs a selfadjoint spec, got {spec.kind}")
    spec = validate_covariance(spec) if not spec.validated else spec
    S = _sigma_array(spec)
    return EtaMap(np.einsum("iklj->ijkl", S) / spec.d)


def eta_alpha_map(spec: CovarianceSpec) -> EtaMap:
    """Weighted covariance map: eta_alpha(D)_ij = sum sigma(i,k;l,j) alpha_k D_kl."""
    if spec.kind != "rectangular":
        raise WrongKind(f"eta_alpha_map needs a rectangular spec, got {spec.kind}")
    spec = validate_covariance(spec) if not spec.validated else spec
    S = _sigma_array(spec)
    return EtaMap(np.einsum("iklj,k->ijkl", S, np.asarray(spec.alpha)))


def eta1_map(spec: CovarianceSpec) -> EtaMap:
    """eta1: M_b -> M_a, eta1(D)_ij = (1/(a+b)) sum_kl tau(i,k;j,l) D_kl."""
    if spec.kind != "hh_star":
        raise WrongKind(f"eta1_map needs an hh_star spec, got {spec.kind}")
    spec = validate_covariance(spec) if not spec.validated else spec
    T = _tau_array(spec)
    return EtaMap(np.einsum("ikjl->ijkl", T) / (spec.a + spec.b))


def eta2_map(spec: CovarianceSpec) -> EtaMap:
    """eta2: M_a -> M_b, eta2(D)_kl = (1/(a+b)) sum_ij tau(i,k;j,l) D_ij.

    The pairing with D_ij (not D_ji) is the one induced by the entry
    covariance: it is what E[H* D H] evaluates to, and the only choice under
    which hermitization yields a symmetric sigma. On the diagonal (and on
    complex-symmetric D, which is all the coupled fixed-point equations ever
    produce) the transposed pairing coincides with it.
    """
    if spec.kind != "hh_star":
        raise WrongKind(f"eta2_map needs an hh_star spec, got {spec.kind}")
    spec = validate_covariance(spec) if not spec.validated else spec
    T = _tau_array(spec)
    return EtaMap(np.einsum("ikjl->klij", T) / (spec.a + spec.b))


def _hermitized_map(outer: EtaMap, inner: EtaMap) -> EtaMap:
    """Block map of the hermitization [[0, H], [H*, 0]] from a Gram map pair.

    ``outer: M_m -> M_n`` and ``inner: M_n -> M_m`` (argument order as in
    ``solver._solve_eliminated``) act on (n+m)-indexed matrices as
    [[D1, D3], [D4, D2]] -> [[outer(D2), 0], [0, inner(D1)]]: the corners
    are annihilated, so block-diagonal iterates stay block-diagonal.
    """
    n, m = outer.dim_out, outer.dim_in
    if (inner.dim_out, inner.dim_in) != (m, n):
        raise DimensionMismatch(
            f"inner map must take M_{n} to M_{m}, got M_{inner.dim_in} to M_{inner.dim_out}"
        )
    T = np.zeros((n + m,) * 4, dtype=complex)
    T[:n, :n, n:, n:] = outer.tensor
    T[n:, n:, :n, :n] = inner.tensor
    return EtaMap(T)


def eta1_apply(spec: CovarianceSpec, D) -> np.ndarray:
    """Apply eta1 of an hh_star spec to a b x b matrix."""
    return eta_apply(eta1_map(spec), D)


def eta2_apply(spec: CovarianceSpec, D) -> np.ndarray:
    """Apply eta2 of an hh_star spec to an a x a matrix."""
    return eta_apply(eta2_map(spec), D)


def eta_alpha_apply(spec: CovarianceSpec, D) -> np.ndarray:
    """Apply the weighted map to a matrix in M_alpha.

    Raises PatternViolation if D has support where alpha_i != alpha_j.
    """
    if spec.kind != "rectangular":
        raise WrongKind(f"eta_alpha_apply needs a rectangular spec, got {spec.kind}")
    D = np.asarray(D, dtype=complex)
    if D.shape != (spec.d, spec.d):
        raise DimensionMismatch(f"expected {spec.d}x{spec.d}, got {D.shape}")
    alpha = spec.alpha
    scale = max(1.0, float(np.abs(D).max()))
    for i in range(spec.d):
        for j in range(spec.d):
            if alpha[i] != alpha[j] and abs(D[i, j]) > 1e-12 * scale:
                raise PatternViolation(
                    f"D[{i + 1},{j + 1}] nonzero outside the alpha pattern"
                )
    return eta_apply(eta_alpha_map(spec), D)


def tr_alpha(spec: CovarianceSpec, D) -> complex:
    """Weighted trace sum_i alpha_i D_ii (uniform weights unless rectangular)."""
    D = np.asarray(D, dtype=complex)
    dim = spec.dim
    if D.shape != (dim, dim):
        raise DimensionMismatch(f"expected {dim}x{dim}, got {D.shape}")
    if spec.alpha is None:
        return complex(np.trace(D) / dim)
    return complex(np.dot(np.asarray(spec.alpha), np.diagonal(D)))


def _choi_min_eig(spec: CovarianceSpec) -> float:
    if spec.kind == "selfadjoint":
        M = choi_matrix(eta_map(replace(spec, validated=True)))
    elif spec.kind == "rectangular":
        M = choi_matrix(eta_alpha_map(replace(spec, validated=True)))
    else:
        # entry covariance of the H blocks; PSD iff the hermitized Choi is
        T = _tau_array(spec)
        M = T.reshape(spec.a * spec.b, spec.a * spec.b) / (spec.a + spec.b)
    H = 0.5 * (M + M.conj().T)
    if np.abs(M - H).max() > 1e-10 * max(1.0, np.abs(M).max()):
        raise SymmetryViolation("covariance map has a non-Hermitian Choi matrix")
    return float(np.linalg.eigvalsh(H).min())


def validate_covariance(spec: CovarianceSpec) -> CovarianceSpec:
    """Validate a spec: ranges, symmetry closure, weights, positivity flag.

    Returns a new spec with all symmetry-implied entries filled in and
    ``choi_min_eig`` set to the minimum eigenvalue of the Choi matrix of the
    induced map. A value below -1e-10 is flagged with a RuntimeWarning (the
    map is then not positivity-preserving and the spec cannot be sampled),
    but validation does not fail on it.
    """
    _check_indices(spec)
    if spec.kind == "rectangular":
        _check_alpha(spec)
    table = _close_table(spec)
    if spec.kind == "rectangular":
        _check_alpha_pattern(spec, table)
    closed = tuple(
        (i, j, k, l, v) for (i, j, k, l), v in sorted(table.items())
    )
    out = replace(spec, entries=closed, validated=True)
    min_eig = _choi_min_eig(out)
    if min_eig < CHOI_FLAG_EIG:
        warnings.warn(
            f"covariance map is not positivity-preserving "
            f"(Choi min eigenvalue {min_eig:.3e}); solving may still work, "
            f"sampling will not",
            RuntimeWarning,
            stacklevel=2,
        )
    return replace(out, choi_min_eig=min_eig)


def hermitize_covariance(spec: CovarianceSpec) -> CovarianceSpec:
    """Selfadjoint spec of the hermitization X = [[0, H], [H*, 0]].

    The induced eta on d = a + b blocks splits as
    [[D1, D3], [D4, D2]] -> [[eta1(D2), 0], [0, eta2(D1)]]: the corners are
    annihilated, so block-diagonal iterates stay block-diagonal. Solvers
    assemble this map from eta1 and eta2 instead (:func:`_hermitized_map`).
    """
    if spec.kind != "hh_star":
        raise WrongKind(f"hermitize_covariance needs an hh_star spec, got {spec.kind}")
    spec = validate_covariance(spec) if not spec.validated else spec
    a = spec.a
    sigma: list[Entry] = []
    for (i, k, j, l, v) in spec.entries:  # tau(i,k;j,l)
        sigma.append((i, a + k, a + l, j, v))
        sigma.append((a + k, i, j, a + l, v))
    return validate_covariance(
        CovarianceSpec("selfadjoint", d=spec.a + spec.b, entries=tuple(sigma))
    )


def isi_covariance(K: int, L: int, tap_var=None) -> CovarianceSpec:
    """hh_star spec of the banded block-Toeplitz channel with K frames, L taps.

    tau(i, j; k, j+k-i) = tap_var[j-i+1] for 1 <= i,k <= K, i <= j <= i+L-1,
    zero elsewhere; a = K, b = K + L - 1. Unit tap variances by default.
    """
    if K < 1 or L < 1:
        raise BadParameter("K and L must be >= 1")
    if tap_var is None:
        tap_var = [1.0] * L
    tap_var = [float(t) for t in tap_var]
    if len(tap_var) != L:
        raise BadParameter(f"tap_var must have L={L} entries")
    if any(t <= 0 for t in tap_var):
        raise BadParameter("tap variances must be positive")
    entries = []
    for i in range(1, K + 1):
        for k in range(1, K + 1):
            for t in range(L):
                entries.append((i, i + t, k, k + t, tap_var[t]))
    return validate_covariance(
        CovarianceSpec("hh_star", a=K, b=K + L - 1, entries=tuple(entries))
    )
