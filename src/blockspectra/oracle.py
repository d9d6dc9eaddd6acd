"""Finite-size Monte Carlo oracle and combinatorial moment recursion.

Independent verification surfaces for the asymptotic solvers: seeded
sampling of the exact Gaussian block ensembles, empirical spectra, KS
distances against solved laws, and the moment recursion of an
operator-valued semicircular element,

    M_m = sum_{j+k=m-2} eta(M_j) M_k,    M_0 = I,  odd moments zero,

which enumerates non-crossing pairings without solving any equation. It
runs on the map's invariant pattern, with the engine's blockwise product;
the tests keep the dense recursion on the d^4 tensor as the independent check.

Every ensemble is drawn by one function, :func:`_draw_blocks`: a block
matrix whose N x N blocks mix iid circular normals with a factor of the
entry covariance. The factor spans the covariance's rank only: an
eigenvalue within -PSD_FLOOR of the largest magnitude is roundoff and
mixes nothing (ISI K = L = 4 mixes 4 of its 28 components). The Gram
channel H is that draw Y; the selfadjoint X is
(Y + Y*)/sqrt(2), its Hermitian part scaled to keep the entry variances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import covariance as cov
from . import solver as slv
from .errors import BadParameter, NotPSD, OrderTooLarge

MAX_MOMENT_ORDER = 16


@dataclass(frozen=True, eq=False)
class EnsembleSample:
    """One seeded realization of a block ensemble.

    ``matrix`` is the Hermitian X for selfadjoint and rectangular specs and
    the aN x bN channel H for hh_star specs (the hermitization is never
    built); ``eigenvalues`` are the ascending eigenvalues of the form under
    study (X itself, or the Gram matrix HH*). Both are read-only. Same
    seed, same spec, same N: bit-identical sample.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        for name in ("matrix", "eigenvalues"):
            arr = np.ascontiguousarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _entry_factor(C, what):
    """Factor a Hermitian PSD entry covariance as Phi Phi*, over its rank only.

    An eigenvalue within -PSD_FLOOR of the largest magnitude is roundoff:
    its column of Phi is exactly zero, so a draw mixes only the rank's
    eigencomponents.
    """
    H = 0.5 * (C + C.conj().T)
    w, U = np.linalg.eigh(H)
    top = float(np.abs(w).max(initial=0.0))
    if w.min(initial=0.0) < cov.PSD_FLOOR * top * 10:
        raise NotPSD(
            f"{what} entry covariance has eigenvalue {w.min():.3e}; "
            "sampling needs a genuinely PSD joint covariance"
        )
    return U * np.sqrt(np.where(w > -cov.PSD_FLOOR * top, w, 0.0))


def _check_draw(spec, N):
    """Refuse a draw of ``spec`` at size N that the sampler cannot make.

    NotPSD below sampling-grade positivity; BadParameter when mixing the
    entries, a couple of complex arrays of shape (block pairs, n^2) with n
    the largest block size, needs over 8 GB.
    """
    if spec.choi_min_eig < cov.PSD_FLOOR * cov._scale(spec):
        raise NotPSD(
            f"spec fails sampling-grade positivity (Choi min eig "
            f"{spec.choi_min_eig:.3e})"
        )
    if spec.kind == "hh_star":
        pairs, n = spec.a * spec.b, N
    else:
        pairs, n = spec.d**2, max(_block_sizes(spec, N))
    need = 2 * 16 * pairs * n * n
    if need > 8e9:
        raise BadParameter(
            f"realization needs ~{need / 1e9:.1f} GB of scratch "
            f"(scales with (block count)^2 N^2); reduce N or pool more, "
            f"smaller realizations"
        )


def _block_sizes(spec, N):
    """Block sizes of a selfadjoint or rectangular draw at size N.

    Equal weights get equal sizes, or cross-covariances between transpose
    partners would not line up.
    """
    return [max(1, round(w * (spec.d * N))) for w in cov._block_weights(spec)]


def _draw_blocks(C, rows, cols, N, rng, what):
    """A (rows N) x (cols N) block Gaussian matrix Y and its mask of nonzero blocks.

    Block (i,k) holds circular complex Gaussian entries, iid over the N x N
    positions, with E[Y_(i,k) conj Y_(j,l)] = C[(i,k),(j,l)] at each position
    and E[Y^2] = 0. The normals are drawn for every block, real parts then
    imaginary parts, so a seed names the same realization whatever C's zero
    pattern. A block with zero variance C[(i,k),(i,k)] has a zero row in the
    PSD C, so it is zero in law: it is stored as an exact zero, and only the
    eigencomponents with nonzero weight on the other blocks are mixed.
    """
    Phi = _entry_factor(C, what)
    re = rng.standard_normal((rows * cols, N * N))
    im = rng.standard_normal((rows * cols, N * N))
    live = np.diagonal(C).real.reshape(rows, cols) > 0
    P = Phi[live.ravel()]
    used = P.any(axis=0)
    P = P[:, used] / np.sqrt(2.0)
    Y = np.zeros((rows * N, cols * N), dtype=complex)
    blocks = Y.reshape(rows, N, cols, N).swapaxes(1, 2)
    if np.iscomplexobj(P):
        blocks[live] = (P @ (re[used] + 1j * im[used])).reshape(-1, N, N)
    else:
        # a real factor splits the complex mix into two real products
        blocks.real[live] = (P @ re[used]).reshape(-1, N, N)
        blocks.imag[live] = (P @ im[used]).reshape(-1, N, N)
    return Y, live


def _sample_hermitian(spec, N, rng):
    """Selfadjoint/rectangular sampler: X = (Y + Y*)/sqrt(2), exactly Hermitian.

    Y is the block draw with entry covariance C[(i,j),(k,l)] = sigma(i,j;l,k)/n,
    n the size of X, so E[X_(i,j),rs conj X_(k,l),rs] is
    (C[(i,j),(k,l)] + conj C[(j,i),(l,k)])/2 = C[(i,j),(k,l)]: every spec is
    closed under sigma(i,j;k,l) = conj sigma(j,i;l,k). A rectangular spec's
    blocks are cut, before the sum, from m x m blocks, m the largest size.
    """
    d = spec.d
    sizes = _block_sizes(spec, N)
    n, m = sum(sizes), max(sizes)
    C = np.einsum("ijlk->ijkl", cov._sigma_array(spec)).reshape(d * d, d * d) / n
    Y, _ = _draw_blocks(C, d, d, m, rng, spec.kind)
    if n < d * m:
        keep = np.concatenate([i * m + np.arange(s) for i, s in enumerate(sizes)])
        Y = Y[np.ix_(keep, keep)]
    return (Y + Y.conj().T) / np.sqrt(2.0)


def _gram_lower(H, live, N):
    """Lower block triangle of HH*, from the nonzero blocks of H only.

    Block (i,j), i >= j, is H[i, S] H[j, S]* over the column blocks S from
    the first to the last that is nonzero in both block rows (a block between
    them is zero in one row and adds exact zeros); the upper block triangle
    stays zero, so read the result with ``UPLO="L"``.
    """
    a = live.shape[0]
    G = np.zeros((a * N, a * N), dtype=complex)
    for j in range(a):
        Hj = H[j * N:(j + 1) * N].conj()
        for i in range(j, a):
            ks = np.flatnonzero(live[i] & live[j])
            if ks.size:
                cols = slice(ks[0] * N, (ks[-1] + 1) * N)
                G[i * N:(i + 1) * N, j * N:(j + 1) * N] = (
                    H[i * N:(i + 1) * N, cols] @ Hj[:, cols].T
                )
    return G


def sample_block_gaussian(spec, N, seed) -> EnsembleSample:
    """Draw one realization of the Gaussian block ensemble of a spec.

    Entries are jointly Gaussian with exactly the spec's covariance: one
    eigenfactorization of the entry covariance mixes iid standard normals,
    reused across all matrix positions (:func:`_draw_blocks`). For hh_star
    specs the draw is the channel H, its zero-variance blocks exact zeros,
    and the Gram matrix HH* is formed from its lower block triangle over
    H's nonzero blocks. For selfadjoint and rectangular specs X is
    (Y + Y*)/sqrt(2) from the draw Y, so X = X* holds exactly. ``seed`` is
    a non-negative integer or a numpy ``SeedSequence``.
    """
    N = cov._count(N, "N")
    if N < 1:
        raise BadParameter("N must be >= 1")
    if not isinstance(seed, np.random.SeedSequence) and cov._count(seed, "seed") < 0:
        raise BadParameter(f"seed must be >= 0, got {seed}")
    _check_draw(spec, N)
    rng = np.random.default_rng(seed)
    if spec.kind == "hh_star":
        a, b = spec.a, spec.b
        C = cov._tau_array(spec).reshape(a * b, a * b) / ((a + b) * N)
        M, live = _draw_blocks(C, a, b, N, rng, "hh_star")
        eig = np.linalg.eigvalsh(_gram_lower(M, live, N), UPLO="L")
    else:
        M = _sample_hermitian(spec, N, rng)
        eig = np.linalg.eigvalsh(M)
    return EnsembleSample(M, eig)


def empirical_spectrum(sample: EnsembleSample) -> np.ndarray:
    """Ascending eigenvalues of the sample's own Hermitian form.

    That form is X for a selfadjoint or rectangular sample and the Gram
    matrix H H* for an hh_star sample (whose covariance normalization
    already carries the 1/((a+b)N), so no further rescaling applies).
    Returns the sample's own read-only ``eigenvalues`` array.
    """
    return sample.eigenvalues


def ks_distance(eigenvalues, theoretical_cdf) -> float:
    """Kolmogorov-Smirnov distance of a sample against a CDF callable.

    At each distinct sample x, F(x) meets the empirical CDF after x's step
    and F(x-) the one before it: F at the float below x where samples tie
    (as at an atom of F), else F(x).
    """
    e = cov._numbers(eigenvalues, "eigenvalues")
    n = e.size
    if n == 0:
        raise BadParameter("need a nonempty eigenvalue list")
    if not np.isfinite(e).all():
        raise BadParameter("eigenvalues must be finite")
    x, ties = np.unique(e, return_counts=True)
    after = np.cumsum(ties)
    F = np.asarray(theoretical_cdf(x), dtype=float)
    left = np.where(ties > 1, np.asarray(theoretical_cdf(np.nextafter(x, -np.inf)), dtype=float), F)
    return float(max(np.max(after / n - F), np.max(left - (after - ties) / n), 0.0))


def nc2_moment(eta, m: int, trace_weights=None):
    """Matrix moment of the operator-valued semicircular element of eta.

    Exact via the recursion M_m = sum_{j+k=m-2} eta(M_j) M_k, which resums
    the non-crossing-pairing expansion of the mixed moments. It runs on the
    stored values of the map's invariant pattern (``EtaMap.pattern``) and
    expands only M_m. Returns the matrix and its trace weighted by
    ``trace_weights`` (as in ``density_from_eta``). Odd orders are zero;
    orders above 16 are refused.
    """
    m = cov._count(m, "moment order")
    if m < 0:
        raise BadParameter("moment order must be >= 0")
    if m > MAX_MOMENT_ORDER:
        raise OrderTooLarge(f"moment order {m} exceeds {MAX_MOMENT_ORDER}")
    if eta.dim_in != eta.dim_out:
        raise BadParameter("nc2_moment needs a square covariance map")
    w, pat = cov._trace_weights(trace_weights, eta.dim_in), eta.pattern
    M = np.array([pat.eye], dtype=complex)  # M_0, M_2, ... compressed, one per row
    for _ in range(m // 2):
        terms = slv._block_matmul(pat, slv._eta_batch(pat, M), M[::-1])
        M = np.vstack([M, terms.sum(axis=0, keepdims=True)])
    out = M[-1] if m % 2 == 0 else np.zeros_like(M[0])
    return pat.expand(out), complex(np.dot(w, out[pat.diagonal]))


def histogram(values):
    """Histogram payload with Freedman-Diaconis bins, for artifacts.

    The bin count is numpy's, ceil(ptp / width) with width 2 IQR n^(-1/3)
    (1 when the width is 0), capped at the n samples: an atom that fills
    the interquartile range shrinks the width to roundoff.
    """
    values = cov._numbers(values, "values")
    if not np.isfinite(values).all():
        raise BadParameter("values must be finite")
    n, width = values.size, 0.0
    if n:
        width = 2.0 * np.subtract(*np.percentile(values, [75, 25])) * n ** (-1.0 / 3.0)
    bins = int(min(np.ceil(np.ptp(values) / width), n)) if width else 1
    counts, edges = np.histogram(values, bins=bins)
    return {"bin_edges": edges.tolist(), "counts": counts.tolist()}
