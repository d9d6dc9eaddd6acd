"""Finite-size Monte Carlo oracle and combinatorial moment recursion.

Independent verification surfaces for the asymptotic solvers: seeded
sampling of the exact Gaussian block ensembles, empirical spectra, KS
distances against solved laws, and the moment recursion of an
operator-valued semicircular element,

    M_m = sum_{j+k=m-2} eta(M_j) M_k,    M_0 = I,  odd moments zero,

which enumerates non-crossing pairings without ever touching the solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import covariance as cov
from .errors import BadParameter, NotPSD, OrderTooLarge, WrongKind

SAMPLING_EIG_FLOOR = -1e-10
MAX_MOMENT_ORDER = 16


@dataclass(frozen=True, eq=False)
class EnsembleSample:
    """One seeded realization of a block ensemble.

    ``matrix`` is the Hermitian X for selfadjoint and rectangular specs and
    the aN x bN channel H for hh_star specs (the hermitization is never
    built); ``eigenvalues`` are the ascending eigenvalues of the form under
    study (X itself, or the Gram matrix HH*). Same seed, same spec, same N:
    bit-identical sample.
    """

    seed: int
    N: int
    kind: str
    matrix: np.ndarray
    eigenvalues: np.ndarray
    a: int = 0
    b: int = 0
    block_sizes: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        for name in ("matrix", "eigenvalues"):
            arr = np.ascontiguousarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _entry_factor(C, what):
    """Factor a Hermitian PSD entry covariance as Phi Phi*."""
    H = 0.5 * (C + C.conj().T)
    w, U = np.linalg.eigh(H)
    scale = max(1.0, float(w.max(initial=0.0)))
    if w.min(initial=0.0) < SAMPLING_EIG_FLOOR * scale * 10:
        raise NotPSD(
            f"{what} entry covariance has eigenvalue {w.min():.3e}; "
            "sampling needs a genuinely PSD joint covariance"
        )
    return U * np.sqrt(np.clip(w, 0.0, None))


def _standard_complex(rng, shape):
    """Circular standard complex normals: two real N(0, 1/2) components."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _require_sampling_grade(spec):
    if spec.choi_min_eig < SAMPLING_EIG_FLOOR:
        raise NotPSD(
            f"spec fails sampling-grade positivity (Choi min eig "
            f"{spec.choi_min_eig:.3e})"
        )


def _guard_memory(pairs, nmax):
    # entry mixing materializes a couple of complex arrays of shape (pairs, nmax^2)
    need = 2 * 16 * pairs * nmax * nmax
    if need > 8e9:
        raise BadParameter(
            f"realization needs ~{need / 1e9:.1f} GB of scratch "
            f"(scales with (block count)^2 N^2); reduce N or pool more, "
            f"smaller realizations"
        )


def _block_sizes(spec, N):
    if spec.kind != "rectangular":
        return (N,) * spec.dim
    # equal weights must get equal integer sizes or cross-covariances
    # between transpose-partner blocks would not line up
    target = spec.d * N
    sizes = []
    for w in spec.alpha:
        sizes.append(max(1, round(w * target)))
    return tuple(sizes)


def _sample_hermitian(spec, N, rng):
    """Selfadjoint/rectangular sampler; exact Hermitian constraint."""
    d = spec.dim
    sizes = _block_sizes(spec, N)
    _guard_memory(d * d, max(sizes))
    n = sum(sizes)
    offs = np.concatenate(([0], np.cumsum(sizes)))
    S = cov._sigma_array(spec)
    # E[v_(ij) conj(v_(kl))] = sigma(i,j;l,k)/n for the free (r<p) positions
    C = np.einsum("ijlk->ijkl", S).reshape(d * d, d * d) / n
    Phi = _entry_factor(C, spec.kind)
    m = max(sizes)
    W = _standard_complex(rng, (d * d, m * m))
    V = (Phi @ W).reshape(d, d, m, m)
    Wd = _standard_complex(rng, (d * d, m))
    Vd = (Phi @ Wd).reshape(d, d, m)
    # diagonal positions carry the Hermitian constraint u_(ij) = conj(u_(ji))
    Ud = (Vd + np.conj(np.swapaxes(Vd, 0, 1))) / np.sqrt(2.0)
    X = np.zeros((n, n), dtype=complex)
    for i in range(d):
        si = sizes[i]
        for j in range(d):
            sj = sizes[j]
            upper = np.triu(V[i, j][:si, :sj], 1)
            lower = np.tril(np.conj(V[j, i][:sj, :si]).T, -1)
            block = upper + lower
            r = np.arange(min(si, sj))
            block[r, r] = Ud[i, j][: len(r)]
            X[offs[i]:offs[i] + si, offs[j]:offs[j] + sj] = block
    return X, sizes


def _sample_hh_star(spec, N, rng):
    """hh_star sampler: the channel H and its (a, b) mask of nonzero blocks.

    Circular complex Gaussian blocks, E[h^2] = 0 in law. The normals are
    drawn for every block, real parts then imaginary parts, so a seed names
    the same realization whatever the spec's zero pattern. A block (i,k)
    with tau(i,k;i,k) = 0 has a zero row in the PSD entry covariance, so it
    is zero in law: it is stored as an exact zero, and only the
    eigencomponents with nonzero weight on the other blocks are mixed. The
    mask lets :func:`_gram_lower` form HH* from its lower block triangle
    over the nonzero blocks.
    """
    a, b = spec.a, spec.b
    _guard_memory(a * b, N)
    T = cov._tau_array(spec)
    C = T.reshape(a * b, a * b) / ((a + b) * N)
    Phi = _entry_factor(C, "hh_star")
    re = rng.standard_normal((a * b, N * N))
    im = rng.standard_normal((a * b, N * N))
    live = np.diagonal(C).reshape(a, b) > 0
    P = Phi[live.ravel()]
    used = P.any(axis=0)
    # tau is real, so the complex mix splits into two real products
    P = P[:, used] / np.sqrt(2.0)
    H = np.zeros((a * N, b * N), dtype=complex)
    blocks = H.reshape(a, N, b, N).swapaxes(1, 2)
    blocks.real[live] = (P @ re[used]).reshape(-1, N, N)
    blocks.imag[live] = (P @ im[used]).reshape(-1, N, N)
    return H, live


def _block_columns(ks, N):
    """Columns of the column blocks ``ks``: a slice when they are contiguous."""
    if ks[-1] - ks[0] + 1 == ks.size:
        return slice(ks[0] * N, (ks[-1] + 1) * N)
    return (ks[:, None] * N + np.arange(N)).ravel()


def _gram_lower(H, live, N):
    """Lower block triangle of HH*, from the nonzero blocks of H only.

    Block (i,j), i >= j, is H[i, S] H[j, S]* over the column blocks S that
    are nonzero in both block rows; the upper block triangle stays zero, so
    read the result with ``UPLO="L"``.
    """
    a = live.shape[0]
    G = np.zeros((a * N, a * N), dtype=complex)
    for j in range(a):
        Hj = H[j * N:(j + 1) * N].conj()
        for i in range(j, a):
            ks = np.flatnonzero(live[i] & live[j])
            if ks.size:
                cols = _block_columns(ks, N)
                G[i * N:(i + 1) * N, j * N:(j + 1) * N] = (
                    H[i * N:(i + 1) * N, cols] @ Hj[:, cols].T
                )
    return G


def sample_block_gaussian(spec, N, seed) -> EnsembleSample:
    """Draw one realization of the Gaussian block ensemble of a spec.

    Entries are jointly Gaussian with exactly the spec's covariance: one
    eigenfactorization of the d^2 x d^2 entry covariance mixes iid standard
    complex normals, reused across all matrix positions. The selfadjoint
    constraint X = X* holds exactly by construction. For hh_star specs,
    blocks of H with zero variance are exact zeros and the Gram matrix HH*
    is formed from its lower block triangle, over H's nonzero blocks only;
    the normals are drawn as for a dense H, so a seed names the same
    realization as the dense product did, up to roundoff. ``seed`` is a
    non-negative integer or a numpy ``SeedSequence``.
    """
    _require_sampling_grade(spec)
    N = cov._count(N, "N")
    if N < 1:
        raise BadParameter("N must be >= 1")
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise BadParameter(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    if spec.kind == "hh_star":
        M, live = _sample_hh_star(spec, N, rng)
        eig = np.linalg.eigvalsh(_gram_lower(M, live, N), UPLO="L")
        sizes = (N,) * (spec.a + spec.b)
    else:
        M, sizes = _sample_hermitian(spec, N, rng)
        eig = np.linalg.eigvalsh(M)
    return EnsembleSample(
        seed=seed, N=N, kind=spec.kind, matrix=M, eigenvalues=eig,
        a=spec.a, b=spec.b, block_sizes=tuple(sizes),
    )


def empirical_spectrum(sample: EnsembleSample, form="x") -> np.ndarray:
    """Ascending eigenvalues of the sample's own Hermitian form.

    ``form="x"`` names the selfadjoint X of a selfadjoint or rectangular
    sample; ``"hh_star"`` names the Gram matrix H H* of an hh_star sample
    (whose covariance normalization already carries the 1/((a+b)N), so no
    further rescaling applies). The other form raises :class:`WrongKind`:
    an hh_star sample holds H, not its hermitization. Returns the sample's
    own read-only ``eigenvalues`` array.
    """
    if form not in ("x", "hh_star"):
        raise BadParameter(f"unknown spectral form {form!r}")
    if (form == "hh_star") != (sample.kind == "hh_star"):
        raise WrongKind(f"sample of kind {sample.kind} has no {form} form")
    return sample.eigenvalues


def ks_distance(eigenvalues, theoretical_cdf) -> float:
    """Kolmogorov-Smirnov distance of a sample against a CDF callable."""
    e = np.sort(np.asarray(eigenvalues, dtype=float))
    n = e.size
    if n == 0:
        raise BadParameter("need a nonempty eigenvalue list")
    if not np.isfinite(e).all():
        raise BadParameter("eigenvalues must be finite")
    F = np.asarray(theoretical_cdf(e), dtype=float)
    up = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    return float(max(np.max(up - F), np.max(F - lo), 0.0))


def nc2_moment(eta, m: int, trace_weights=None):
    """Matrix moment of the operator-valued semicircular element of eta.

    Exact via the recursion M_m = sum_{j+k=m-2} eta(M_j) M_k, which resums
    the non-crossing-pairing expansion of the mixed moments. Returns the
    matrix and its normalized (or weighted) trace. Odd orders are zero;
    orders above 16 are refused.
    """
    m = cov._count(m, "moment order")
    if m < 0:
        raise BadParameter("moment order must be >= 0")
    if m > MAX_MOMENT_ORDER:
        raise OrderTooLarge(f"moment order {m} exceeds {MAX_MOMENT_ORDER}")
    if eta.dim_in != eta.dim_out:
        raise BadParameter("nc2_moment needs a square covariance map")
    d = eta.dim_in
    M = [np.eye(d, dtype=complex), np.zeros((d, d), dtype=complex)]
    for order in range(2, m + 1):
        acc = np.zeros((d, d), dtype=complex)
        for j in range(order - 1):
            acc += cov.eta_apply(eta, M[j]) @ M[order - 2 - j]
        M.append(acc)
    out = M[m]
    if trace_weights is None:
        tr = complex(np.trace(out) / d)
    else:
        tr = complex(np.dot(np.asarray(trace_weights), np.diagonal(out)))
    return out, tr


def histogram(values, bins="fd"):
    """Histogram payload (Freedman-Diaconis bins by default) for artifacts."""
    counts, edges = np.histogram(np.asarray(values, dtype=float), bins=bins)
    return {"bin_edges": edges.tolist(), "counts": counts.tolist()}
