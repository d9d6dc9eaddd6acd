"""Covariance structures of Gaussian block ensembles and their linear maps.

A :class:`CovarianceSpec` stores the entry-covariance function of a block
ensemble sparsely, as coordinate entries over 1-based block indices:

* ``selfadjoint`` -- complex sigma(i,j;k,l) = n E[a^(ij)_rp a^(kl)_pr] over the
  d x d blocks a^(ij) of an n x n Hermitian X, so sigma(k,l;i,j) = sigma(i,j;k,l)
  and sigma(j,i;l,k) = sigma(l,k;j,i) = conj sigma(i,j;k,l).
* ``rectangular`` -- selfadjoint sigma weighted by the blocks' relative sizes
  alpha_i (1/d each for selfadjoint), nonzero only where alpha_i = alpha_l and
  alpha_j = alpha_k.
* ``hh_star`` -- complex tau(i,k;j,l) = (a+b) N E[h^(ik)_rs conj h^(jl)_rs]
  over the N x N blocks h^(ik) of an aN x bN channel H, so
  tau(j,l;i,k) = conj tau(i,k;j,l); i, j run over the a row blocks and
  k, l over the b column blocks.

A spec is validated when it is made, by its constructor (and so also by
``dataclasses.replace``): indices are range-checked, the entry list is
closed under the symmetries implied by a realizable Hermitian ensemble,
weights are checked, and ``choi_min_eig`` is set to the minimum eigenvalue
of the Choi matrix of the induced covariance map (positivity-preservation
check; a deficit is flagged with a warning, not an error, so exploratory
specs still run). Every spec in existence is therefore a valid one.

The covariance maps themselves are materialized as :class:`EtaMap`
coefficient tensors:

* eta_alpha(D)_ij = sum_kl sigma(i,k;l,j) alpha_k D_kl    (alpha_k = 1/d: selfadjoint)
* eta1(D)_ij      = (1/(a+b)) sum_kl tau(i,k;j,l) D_kl    (b -> a side)
* eta2(D)_kl      = (1/(a+b)) sum_ij conj tau(i,k;j,l) D_ij    (a -> b side)

Maps are not cached: a tensor lives as long as its caller keeps it.
:func:`_law` turns a spec into the :class:`Law` it is solved with: an
hh_star spec gives the Gram law of HH*, on the map of its hermitization
assembled from eta1 and eta2; any other spec gives its weighted map.
"""

from __future__ import annotations

import numbers
import operator
import reprlib
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

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
# a map entry counts toward the invariant pattern above this share of the largest
PATTERN_RTOL = 1e-14

Entry = tuple[int, int, int, int, complex]


@dataclass(frozen=True)
class CovarianceSpec:
    """Sparse covariance function of a Gaussian block ensemble.

    Entries are ``(i, j, k, l, value)`` with 1-based indices meaning
    sigma(i,j;k,l) for the selfadjoint/rectangular kinds and tau(i,k;j,l)
    (slot order ``(i, k, j, l)``) for the hh_star kind. ``alpha``, the
    block weights, is given for the rectangular kind only. The constructor
    validates and closes the entries (see the module docstring) and sets
    ``choi_min_eig``. Instances are immutable; share freely across threads.
    """

    kind: str
    d: int = 0
    a: int = 0
    b: int = 0
    alpha: tuple[float, ...] | None = None
    entries: tuple[Entry, ...] = ()
    choi_min_eig: float = field(init=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise WrongKind(f"unknown covariance kind {self.kind!r}")
        object.__setattr__(self, "entries", tuple(_entry(e) for e in self.entries))
        if self.kind == "hh_star":
            object.__setattr__(self, "a", _count(self.a, "block count a"))
            object.__setattr__(self, "b", _count(self.b, "block count b"))
            if self.a < 1 or self.b < 1:
                raise BadParameter("hh_star spec needs block counts a >= 1, b >= 1")
        else:
            object.__setattr__(self, "d", _count(self.d, "block count d"))
            if self.d < 1:
                raise BadParameter(f"{self.kind} spec needs block count d >= 1")
        _check_indices(self)
        if self.kind == "rectangular":
            _check_alpha(self)
        elif self.alpha is not None:
            raise WeightError(f"alpha weighs rectangular blocks; a {self.kind} spec takes none")
        table = _close_table(self)
        if self.kind == "rectangular":
            _check_alpha_pattern(self, table)
        closed = tuple((i, j, k, l, v) for (i, j, k, l), v in sorted(table.items()))
        object.__setattr__(self, "entries", closed)
        min_eig = _choi_min_eig(self)
        if min_eig < CHOI_FLAG_EIG:
            warnings.warn(
                f"covariance map is not positivity-preserving "
                f"(Choi min eigenvalue {min_eig:.3e}); solving may still work, "
                f"sampling will not",
                RuntimeWarning,
                stacklevel=3,
            )
        object.__setattr__(self, "choi_min_eig", min_eig)

    @property
    def dim(self) -> int:
        """Block dimension of the selfadjoint form (a+b for hh_star)."""
        return self.a + self.b if self.kind == "hh_star" else self.d


def selfadjoint_covariance(d, entries) -> CovarianceSpec:
    """Selfadjoint spec from sparse sigma entries."""
    return CovarianceSpec("selfadjoint", d=d, entries=tuple(entries))


def hh_star_covariance(a, b, entries) -> CovarianceSpec:
    """hh_star spec from sparse tau entries."""
    return CovarianceSpec("hh_star", a=a, b=b, entries=tuple(entries))


def rectangular_covariance(alpha, entries) -> CovarianceSpec:
    """Rectangular spec; block count is len(alpha)."""
    alpha = _numbers(alpha, "alpha")
    if alpha.ndim != 1:
        raise BadParameter(f"alpha must be a sequence of block weights, got {alpha}")
    return CovarianceSpec("rectangular", d=len(alpha), alpha=tuple(alpha), entries=tuple(entries))


def _count(value, what) -> int:
    """An integer count or order as an int, or BadParameter naming it."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise BadParameter(f"{what} must be an integer, got {value!r}")


def _real(value, what) -> float:
    """A real number as a float, or BadParameter naming it."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise BadParameter(f"{what} must be a real number, got {value!r}")
    return float(value)


def _numbers(value, what, dtype=float) -> np.ndarray:
    """Real (``dtype=complex``: complex) numbers as an array, or BadParameter naming them.

    Text, booleans, objects and ragged sequences are refused, even text
    that float() would read as a number.
    """
    try:
        arr = np.asarray(value)
    except ValueError:
        arr = np.asarray(None)
    if arr.dtype.kind not in ("iufc" if dtype is complex else "iuf"):
        kind = "complex" if dtype is complex else "real"
        raise BadParameter(
            f"{what} must be a {kind} number or an array of them, got {reprlib.repr(value)}"
        )
    return arr.astype(dtype, copy=False)


def _trace_weights(weights, d) -> np.ndarray:
    """Weights of a trace over d blocks (None: 1/d each), or BadParameter."""
    if weights is None:
        return np.full(d, 1.0 / d)
    w = _numbers(weights, "trace_weights")
    if w.shape != (d,) or not ((w >= 0).all() and abs(w.sum() - 1.0) <= 1e-9):
        raise BadParameter(f"trace_weights must be {d} nonnegative numbers summing to 1, got {w}")
    return w


def _block_weights(spec: CovarianceSpec) -> np.ndarray:
    """Relative block sizes of a selfadjoint (1/d each) or rectangular (alpha) spec."""
    return _trace_weights(spec.alpha, spec.d)


def _entry(ent) -> Entry:
    """One entry as (i, j, k, l, complex value), or BadParameter naming it."""
    try:
        if len(ent) == 5:
            return (*(operator.index(x) for x in ent[:4]), complex(ent[4]))
    except (TypeError, ValueError):
        pass
    raise BadParameter(f"entry {ent!r} must be (i, j, k, l, value) with integer indices")


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
    ensemble forces: sigma(k,l;i,j) = sigma(i,j;k,l) (factors exchanged) and
    sigma(j,i;l,k) = conj sigma(i,j;k,l) (from X = X*). hh_star tau is
    closed under tau(j,l;i,k) = conj tau(i,k;j,l), the Hermitian symmetry of
    the entry covariance of H.
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
            put((i, j, k, l), v)
            put((k, l, i, j), v.conjugate())
        else:
            put((i, j, k, l), v)
            put((k, l, i, j), v)
            put((j, i, l, k), v.conjugate())
            put((l, k, j, i), v.conjugate())
    return table


def _check_alpha(spec: CovarianceSpec):
    """Store a rectangular spec's weights as floats: d of them in (0, 1), summing to 1."""
    if spec.alpha is None:
        raise WeightError("a rectangular spec needs block weights alpha")
    alpha = tuple(_real(x, "alpha entry") for x in spec.alpha)
    object.__setattr__(spec, "alpha", alpha)
    if any(not 0.0 < x < 1.0 for x in alpha) and spec.d > 1:
        raise WeightError("alpha entries must lie in (0, 1)")
    try:
        _trace_weights(alpha, spec.d)
    except BadParameter as exc:
        raise WeightError(f"alpha must be {spec.d} weights that sum to 1, got {alpha}") from exc


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
    """Dense tau(i,k;j,l) as an (a,b,a,b) array, 0-based axes; real for a real spec."""
    T = np.zeros((spec.a, spec.b, spec.a, spec.b), dtype=complex)
    for (i, k, j, l, v) in spec.entries:
        T[i - 1, k - 1, j - 1, l - 1] = v
    return T if T.imag.any() else T.real.copy()


@dataclass(frozen=True, eq=False)
class EtaMap:
    """Linear map on block-index matrices, stored as a 4-index tensor.

    ``tensor`` has shape (dim_out, dim_out, dim_in, dim_in) and acts as
    output[i,j] = sum_kl tensor[i,j,k,l] * input[k,l].
    """

    tensor: np.ndarray

    def __post_init__(self):
        t = np.ascontiguousarray(_numbers(self.tensor, "eta tensor", complex))
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


class Side(NamedTuple):
    """One side of a bipartite pattern.

    ``index`` holds the side's stored entries (positions in the compressed
    values), block by block, so ``groups`` lists (s, n, slice) for its n
    blocks of size s as :class:`InvariantPattern` does, the slices indexing
    ``index``. ``coupling`` is the restricted tensor's rows on this side and
    columns on the other: the part of the map that writes this side.
    """

    index: np.ndarray
    groups: tuple
    coupling: np.ndarray


class InvariantPattern:
    """Smallest block-diagonal sparsity pattern a square map keeps invariant.

    Starting from the diagonal, supp(eta(S)), supp(S S) and S^T are added
    until nothing changes. A map entry counts as nonzero when its modulus
    exceeds ``PATTERN_RTOL`` (1e-14) times the largest modulus, so roundoff
    does not merge blocks; the zero map keeps the diagonal. The result is an
    equivalence relation on the d indices, i.e. diagonal blocks after a
    permutation (one block of size d for a dense map, d blocks of size 1 for
    ISI). It contains the identity and is closed under eta, products and
    inverses, so every fixed-point and Newton iterate of z G = I + s eta(G) G
    stays on it.

    Values on the pattern are stored flat ("compressed"), blocks grouped by
    size: ``groups`` lists (s, n, slice) for the n blocks of size s, each
    stored row-major in its slice. ``flat`` holds the i*d+j position of
    every stored entry, ``eye`` the identity and ``tensor`` the m x m
    restriction of the map to the m stored entries.

    ``sides`` is the map's bipartition, or None. When the restricted tensor
    couples each block only to blocks of the other colour of a 2-colouring,
    its entries counted as for the blocks (a Gram law's hermitized map
    sends side a into side b and back), it
    holds one :class:`Side` per colour, the smaller first. It is None when
    the tensor couples a block to its own side, or couples no blocks at all.
    """

    def __init__(self, tensor):
        d = tensor.shape[0]
        mag = np.abs(tensor)
        reach = (mag > PATTERN_RTOL * mag.max(initial=0.0)).reshape(d * d, d * d)
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
        self.sides = self._bipartition(reach[np.ix_(self.flat, self.flat)])

    @cached_property
    def coupling_product(self):
        """Q[k, i, j] = T_AB[i, k] T_BA[k, j], m_B x m_A x m_A, when both sides are all 1x1.

        A is the smaller side and T_AB its ``coupling``. A Gram law's Newton
        step on such sides forms its Schur complement from Q alone. None on
        any other pattern; computed on first use.
        """
        if self.sides is None or any(side.groups[-1][0] > 1 for side in self.sides):
            return None
        A, B = self.sides
        return A.coupling.T[:, :, None] * B.coupling[:, None, :]

    def _bipartition(self, reach):
        """The two Sides of a 2-colouring of the blocks under ``reach``, or None."""
        sizes = [len(b) ** 2 for b in self.blocks]  # stored in this order
        owner = np.repeat(np.arange(len(sizes)), sizes)
        adj = np.zeros((len(sizes),) * 2, dtype=bool)
        rows, cols = np.nonzero(reach)
        adj[owner[rows], owner[cols]] = True
        adj |= adj.T
        colour = np.full(len(sizes), -1)
        for start in range(len(sizes)):
            if colour[start] >= 0:
                continue
            colour[start], todo = 0, [start]
            while todo:
                p = todo.pop()
                for q in np.flatnonzero(adj[p]):
                    if colour[q] == colour[p]:
                        return None
                    if colour[q] < 0:
                        colour[q] = 1 - colour[p]
                        todo.append(q)
        sides = sorted((np.flatnonzero(colour[owner] == c) for c in (0, 1)), key=len)
        if not sides[0].size:
            return None
        return tuple(self._side(index, other) for index, other in zip(sides, sides[::-1]))

    def _side(self, index, other) -> Side:
        groups, start = [], 0
        for s, _, sl in self.groups:
            n = int(np.count_nonzero((index >= sl.start) & (index < sl.stop))) // (s * s)
            if n:
                groups.append((s, n, slice(start, start + n * s * s)))
                start += n * s * s
        return Side(index, tuple(groups), self.tensor[np.ix_(index, other)])

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
    D = _numbers(D, "D", complex)
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
    return _weighted_map(spec)


def eta_alpha_map(spec: CovarianceSpec) -> EtaMap:
    """Weighted covariance map: eta_alpha(D)_ij = sum sigma(i,k;l,j) alpha_k D_kl."""
    if spec.kind != "rectangular":
        raise WrongKind(f"eta_alpha_map needs a rectangular spec, got {spec.kind}")
    return _weighted_map(spec)


def _weighted_map(spec: CovarianceSpec) -> EtaMap:
    """sum_kl sigma(i,k;l,j) w_k D_kl, w the block weights of a selfadjoint or rectangular spec."""
    return EtaMap(np.einsum("iklj,k->ijkl", _sigma_array(spec), _block_weights(spec)))


def eta1_map(spec: CovarianceSpec) -> EtaMap:
    """eta1: M_b -> M_a, eta1(D)_ij = (1/(a+b)) sum_kl tau(i,k;j,l) D_kl."""
    if spec.kind != "hh_star":
        raise WrongKind(f"eta1_map needs an hh_star spec, got {spec.kind}")
    T = _tau_array(spec)
    return EtaMap(np.einsum("ikjl->ijkl", T) / (spec.a + spec.b))


def eta2_map(spec: CovarianceSpec) -> EtaMap:
    """eta2: M_a -> M_b, eta2(D)_kl = (1/(a+b)) sum_ij conj tau(i,k;j,l) D_ij.

    This is what E[H* D H] evaluates to: (H* D H)_kl sums conj h_ik D_ij h_jl,
    and E[conj h_ik h_jl] is conj tau(i,k;j,l). Pairing with tau itself, or
    with the transposed D_ji, gives a different map once tau is complex or
    D is not complex-symmetric.
    """
    if spec.kind != "hh_star":
        raise WrongKind(f"eta2_map needs an hh_star spec, got {spec.kind}")
    T = _tau_array(spec)
    return EtaMap(np.einsum("ikjl->klij", T.conj()) / (spec.a + spec.b))


class Law(NamedTuple):
    """What a law is solved with.

    ``eta`` is the square map, ``weights`` the trace weights that read G,
    and ``gram`` whether it is a Gram law, read as H(z) = G(sqrt z)/sqrt z.
    """

    eta: EtaMap
    weights: np.ndarray
    gram: bool


def _map_law(eta: EtaMap, weights=None) -> Law:
    """The selfadjoint law of a square map, read with ``weights`` (None: 1/d each)."""
    return Law(eta, _trace_weights(weights, eta.dim_in), False)


def _gram_law(eta: EtaMap, side) -> Law:
    """The Gram law of a hermitized map on d blocks, read on the leading 1 <= side < d."""
    side, d = _count(side, "side"), eta.dim_in
    if not 1 <= side < d:
        raise BadParameter(f"side must lie in 1..{d - 1}, got {side}")
    return Law(eta, np.where(np.arange(d) < side, 1.0 / side, 0.0), True)


def _law(spec: CovarianceSpec) -> Law:
    """The law of a spec's ensemble; an hh_star spec gives the Gram law of HH*.

    Its map is that of the hermitization [[0, H], [H*, 0]] on a + b blocks:
    [[D1, D3], [D4, D2]] -> [[eta1(D2), 0], [0, eta2(D1)]]. The corners are
    annihilated, so block-diagonal iterates stay block-diagonal. Any other
    spec gives its weighted map, read with its block weights.
    """
    if spec.kind != "hh_star":
        return _map_law(_weighted_map(spec), _block_weights(spec))
    a = spec.a
    T = np.zeros((spec.dim,) * 4, dtype=complex)
    T[:a, :a, a:, a:] = eta1_map(spec).tensor
    T[a:, a:, :a, :a] = eta2_map(spec).tensor
    return _gram_law(EtaMap(T), a)


def _hh_star_law(spec: CovarianceSpec) -> Law:
    """The Gram law of an hh_star spec; WrongKind for any other spec."""
    if spec.kind != "hh_star":
        raise WrongKind(f"the law of HH* needs an hh_star spec, got {spec.kind}")
    return _law(spec)


def _choi_min_eig(spec: CovarianceSpec) -> float:
    if spec.kind == "hh_star":
        # entry covariance of the H blocks; PSD iff the hermitized Choi is
        T = _tau_array(spec)
        M = T.reshape(spec.a * spec.b, spec.a * spec.b) / (spec.a + spec.b)
    else:
        M = choi_matrix(_weighted_map(spec))
    H = 0.5 * (M + M.conj().T)
    if np.abs(M - H).max() > 1e-10 * max(1.0, np.abs(M).max()):
        raise SymmetryViolation("covariance map has a non-Hermitian Choi matrix")
    return float(np.linalg.eigvalsh(H).min())


def validate_covariance(spec: CovarianceSpec) -> CovarianceSpec:
    """Return ``spec``: a spec is validated and closed when it is constructed.

    Kept as a public step for callers that validate explicitly; every
    :class:`CovarianceSpec` has already passed the range, symmetry-closure
    and weight checks and carries ``choi_min_eig``.
    """
    return spec


def hermitize_covariance(spec: CovarianceSpec) -> CovarianceSpec:
    """Selfadjoint spec of the hermitization X = [[0, H], [H*, 0]].

    The induced eta on d = a + b blocks splits as
    [[D1, D3], [D4, D2]] -> [[eta1(D2), 0], [0, eta2(D1)]]: the corners are
    annihilated, so block-diagonal iterates stay block-diagonal. Solvers
    assemble this map from eta1 and eta2 instead (:func:`_law`).
    """
    if spec.kind != "hh_star":
        raise WrongKind(f"hermitize_covariance needs an hh_star spec, got {spec.kind}")
    # sigma(i,a+k;a+l,j) = tau(i,k;j,l); the closure adds sigma(a+k,i;j,a+l) = conj tau
    a = spec.a
    sigma = tuple((i, a + k, a + l, j, v) for (i, k, j, l, v) in spec.entries)
    return CovarianceSpec("selfadjoint", d=spec.a + spec.b, entries=sigma)


def isi_covariance(K: int, L: int, tap_var=None) -> CovarianceSpec:
    """hh_star spec of the banded block-Toeplitz channel with K frames, L taps.

    tau(i, j; k, j+k-i) = tap_var[j-i+1] for 1 <= i,k <= K, i <= j <= i+L-1,
    zero elsewhere; a = K, b = K + L - 1. Unit tap variances by default.
    """
    K, L = _count(K, "K"), _count(L, "L")
    if K < 1 or L < 1:
        raise BadParameter("K and L must be >= 1")
    tap_var = np.ones(L) if tap_var is None else _numbers(tap_var, "tap_var")
    if tap_var.shape != (L,):
        raise BadParameter(f"tap_var must have L={L} entries")
    if any(t <= 0 for t in tap_var):
        raise BadParameter("tap variances must be positive")
    entries = []
    for i in range(1, K + 1):
        for k in range(1, K + 1):
            for t in range(L):
                entries.append((i, i + t, k, k + t, tap_var[t]))
    return CovarianceSpec("hh_star", a=K, b=K + L - 1, entries=tuple(entries))
