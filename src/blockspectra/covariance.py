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
``dataclasses.replace``): a spec whose dense map would take more than
``MAX_MAP_BYTES`` is refused before anything is built, indices are
range-checked, the entry list is closed under the symmetries implied by a
realizable Hermitian ensemble, weights are checked, and ``choi_min_eig`` is
set to the minimum eigenvalue of the Choi matrix of the induced covariance
map (positivity-preservation check; a deficit is flagged with a warning,
not an error, so exploratory specs still run). Every spec in existence is
therefore a valid one.

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

import itertools
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

# Both floors are shares of the largest magnitude of what they judge, with
# no absolute level, so a law and its rescaled image are judged alike.
# a difference below this share counts as symmetric
SYMMETRY_TOL = 1e-12
# an eigenvalue above this share counts as nonnegative
PSD_FLOOR = -1e-10
# a map entry counts toward the invariant pattern above this share of the largest
PATTERN_RTOL = 1e-14
# largest dense covariance map a spec may need: dim^4 complex entries of 16 bytes
MAX_MAP_BYTES = 2**29

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
        if self.kind == "hh_star":
            object.__setattr__(self, "a", _count(self.a, "block count a"))
            object.__setattr__(self, "b", _count(self.b, "block count b"))
            if self.a < 1 or self.b < 1:
                raise BadParameter("hh_star spec needs block counts a >= 1, b >= 1")
        else:
            object.__setattr__(self, "d", _count(self.d, "block count d"))
            if self.d < 1:
                raise BadParameter(f"{self.kind} spec needs block count d >= 1")
        _check_map_size(self.dim)
        object.__setattr__(self, "entries", tuple(_entry(e) for e in self.entries))
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
        if min_eig < PSD_FLOOR * _scale(self):
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


def _check_map_size(dim):
    """BadParameter if the dense map of a spec on ``dim`` blocks would pass MAX_MAP_BYTES."""
    if 16 * dim**4 > MAX_MAP_BYTES:
        raise BadParameter(f"block dimension {dim} needs a {16 * dim**4}-byte "
                           f"covariance map, above the {MAX_MAP_BYTES}-byte limit")


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
    tol = SYMMETRY_TOL * _scale(spec)
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


def _scale(spec: CovarianceSpec) -> float:
    """The largest entry magnitude, which the symmetry and positivity floors are relative to."""
    return max((abs(e[4]) for e in spec.entries), default=0.0)


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
    """One side of a bipartite pattern: the contiguous ``span`` of stored entries it holds.

    ``groups`` lists (s, n, slice) for its n blocks of size s as
    :class:`InvariantPattern` does, the slices indexing the span's values.
    """

    span: slice
    groups: tuple


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

    ``sides`` is the map's bipartition, or None. When the map couples each
    block only to blocks of the other colour of a 2-colouring (a Gram law's
    hermitized map sends side a into side b and back), it holds one
    :class:`Side` per colour, the one with fewer stored values (A) first;
    it is None when the map couples a block to its own side, or no blocks.

    Identical blocks are stored once, as the classes of the coarsest
    equitable partition (``classes``): blocks of one side and size share a
    class when their couplings summed over each class agree, entry by entry
    in block order, to ``PATTERN_RTOL`` of the largest map entry. The map
    keeps matrices that are equal across each class, so the solution is
    one, and the engine solves the quotient (ISI frames fold in mirror pairs).

    Values are stored flat ("compressed"), class after class in the order
    (side, size, indices of the first member), so side A is the range
    [0, m_A), each class row-major as its first member's block. ``groups``
    lists (s, n, slice) for each run of n classes of size s; ``counts`` the
    number of entries each of the m stored values stands for, and ``flat``
    their i*d+j positions, grouped by stored value; ``diagonal`` the stored
    index of entry (i, i); ``eye`` the identity; ``tensor`` the m x m
    quotient map: the first member's rows, the columns summed over each class.
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
        T, colour = tensor.reshape(d * d, d * d), _colouring(blocks, reach, S)
        side = np.ones(len(blocks), dtype=int) if colour is None else colour  # 0: side A
        pos = [[i * d + j for i in b for j in b] for b in blocks]
        classes = _equitable(pos, side, T, PATTERN_RTOL * mag.max(initial=0.0))
        sizes = np.array([len(blocks[c[0]]) for c in classes])
        on_b = side[[c[0] for c in classes]]
        if (sizes**2)[on_b == 1].sum() < (sizes**2)[on_b == 0].sum():
            side, on_b = 1 - side, 1 - on_b  # also when no block is coupled: then A is empty
        order = np.argsort(on_b, kind="stable")
        classes, sizes, nA = [classes[k] for k in order], sizes[order].tolist(), np.sum(on_b == 0)
        self.d, self.blocks = d, tuple(blocks[n] for n in np.argsort(side, kind="stable"))
        self.classes = tuple(tuple(blocks[n] for n in c) for c in classes)
        self.groups = _runs(sizes)
        self.flat = np.concatenate([np.array([pos[n] for n in c]).T.ravel() for c in classes])
        self.counts = np.repeat([len(c) for c in classes], np.square(sizes))
        starts = np.cumsum(self.counts) - self.counts
        stored = np.repeat(np.arange(len(starts)), self.counts)
        self.diagonal = stored[np.nonzero(self.flat == (d + 1) * np.arange(d)[:, None])[1]]
        first = self.flat[starts]
        self.eye = (first // d == first % d).astype(float)
        self.tensor = np.add.reduceat(T[np.ix_(first, self.flat)], starts, axis=1)
        mA = sum(s * s for s in sizes[:nA])
        self.sides = (Side(slice(0, mA), _runs(sizes[:nA])),
                      Side(slice(mA, len(first)), _runs(sizes[nA:]))) if nA else None

    @cached_property
    def coupling_product(self):
        """Q[k, i, j] = T_AB[i, k] T_BA[k, j], m_B x m_A x m_A, when both sides are all 1x1.

        T_AB = tensor[A, B] is the part of the map that writes side A. A Gram
        law's Newton step on such sides forms its Schur complement from Q
        alone. None on any other pattern; computed on first use.
        """
        if self.sides is None or any(side.groups[-1][0] > 1 for side in self.sides):
            return None
        A, B = (side.span for side in self.sides)
        return self.tensor[A, B].T[:, :, None] * self.tensor[B, A][:, None, :]

    def compress(self, G) -> np.ndarray:
        """Pinch (..., d, d) matrices onto the pattern: the mean of each stored value's entries."""
        G = np.asarray(G, dtype=complex)
        entries = G.reshape(*G.shape[:-2], self.d * self.d)[..., self.flat]
        return np.add.reduceat(entries, np.cumsum(self.counts) - self.counts, axis=-1) / self.counts

    def expand(self, Gc) -> np.ndarray:
        """Compressed values back to (..., d, d), exact zeros off the pattern."""
        out = np.zeros((*Gc.shape[:-1], self.d * self.d), dtype=complex)
        out[..., self.flat] = np.repeat(Gc, self.counts, axis=-1)
        return out.reshape(*Gc.shape[:-1], self.d, self.d)

    def norm(self, R) -> np.ndarray:
        """Per row, the Frobenius norm of the d x d matrix that the compressed row stands for."""
        return np.sqrt(np.abs(R) ** 2 @ self.counts)


def _equitable(pos, side, T, tol):
    """The coarsest equitable partition of the blocks (``pos``: their i*d+j entries).

    Blocks start in one class per ``side`` label and size. A class splits
    until its members' couplings ``T`` summed over each class agree to
    ``tol``: each block joins the first of its class that it agrees with.
    Returns arrays of block numbers, in the order of their first members.
    """
    R = T[np.ix_(*2 * [np.concatenate(pos)])]
    entries = np.array([len(p) for p in pos])
    starts = np.cumsum(entries) - entries
    owner = np.repeat(np.arange(len(pos)), entries)
    within = np.arange(entries.sum()) - starts[owner]
    kinds = {}
    label = np.array([kinds.setdefault((k, len(p)), len(kinds)) for k, p in zip(side, pos)])
    count, width = len(kinds), entries.max()
    while count < len(pos):
        keys = label[owner] * width + within
        order = np.argsort(keys, kind="stable")
        cuts = np.flatnonzero(np.diff(keys[order], prepend=-1))
        summed = np.add.reduceat(R[:, order], cuts, axis=1)  # one column per class and position
        new, split = np.empty_like(label), 0
        for k in range(count):
            members = np.flatnonzero(label == k)
            rows = starts[members][:, None] + np.arange(entries[members[0]])
            sig = summed[rows].reshape(len(members), -1)
            while members.size:
                same = np.abs(sig - sig[0]).max(axis=1) <= tol
                new[members[same]], split = split, split + 1
                members, sig = members[~same], sig[~same]
        if split == count:
            break
        label, count = new, split
    return sorted((np.flatnonzero(label == k) for k in range(count)), key=lambda c: c[0])


def _colouring(blocks, reach, S):
    """A 2-colouring (0 or 1 per block) of the blocks of the pattern S under ``reach``, or None.

    ``reach`` holds the map's links between i*d+j entries; None when a
    block is linked to its own colour. Block 0's colour is 0.
    """
    d, on = len(S), np.flatnonzero(S)
    owner = np.array(sorted((i, n) for n, b in enumerate(blocks) for i in b))[:, 1]
    rows, cols = np.nonzero(reach[:, on])  # columns on S: rows are on S too
    adj = np.zeros((len(blocks),) * 2, dtype=bool)
    adj[owner[rows // d], owner[on[cols] // d]] = True
    adj |= adj.T
    colour, todo = np.full(len(blocks), -1), []
    for start in range(len(blocks)):
        if colour[start] < 0:
            colour[start], todo = 0, [start]
        while todo:
            p = todo.pop()
            if (colour[adj[p]] == colour[p]).any():
                return None
            fresh = np.flatnonzero(adj[p] & (colour < 0))
            colour[fresh] = 1 - colour[p]
            todo += fresh.tolist()
    return colour


def _runs(sizes):
    """(s, n, slice) for each maximal run of n blocks of size s, stored in this order."""
    runs = [(s, len(list(run))) for s, run in itertools.groupby(sizes)]
    ends = list(itertools.accumulate((n * s * s for s, n in runs), initial=0))
    return tuple((s, n, slice(a, b)) for (s, n), a, b in zip(runs, ends, ends[1:]))


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

    Any other spec gives its weighted map, read with its block weights.
    """
    if spec.kind != "hh_star":
        return _map_law(_weighted_map(spec), _block_weights(spec))
    return _hermitized_law(eta1_map(spec), eta2_map(spec))


def _hermitized_law(eta1: EtaMap, eta2: EtaMap) -> Law:
    """The Gram law of the pair eta1: M_b -> M_a and eta2: M_a -> M_b, read on side a.

    Its map is the hermitization's on a + b blocks, [[D1, D3], [D4, D2]] ->
    [[eta1(D2), 0], [0, eta2(D1)]]: block-diagonal iterates stay block-diagonal.
    """
    a = eta1.dim_out
    T = np.zeros((a + eta1.dim_in,) * 4, dtype=complex)
    T[:a, :a, a:, a:] = eta1.tensor
    T[a:, a:, :a, :a] = eta2.tensor
    return _gram_law(EtaMap(T), a)


def _hh_star_law(spec: CovarianceSpec) -> Law:
    """The Gram law of an hh_star spec; WrongKind for any other spec."""
    if spec.kind != "hh_star":
        raise WrongKind(f"the law of HH* needs an hh_star spec, got {spec.kind}")
    return _law(spec)


def _choi_min_eig(spec: CovarianceSpec) -> float:
    """Least eigenvalue of the Choi matrix, which the closed entries make exactly Hermitian."""
    if spec.kind == "hh_star":
        # entry covariance of the H blocks; PSD iff the hermitized Choi is
        T = _tau_array(spec)
        M = T.reshape(spec.a * spec.b, spec.a * spec.b) / (spec.a + spec.b)
    else:
        # choi_matrix(_weighted_map(spec)), formed in one pass
        d = spec.d
        M = np.einsum("iklj,k->kilj", _sigma_array(spec), _block_weights(spec)).reshape(d * d, d * d)
    return float(np.linalg.eigvalsh(M).min())


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
