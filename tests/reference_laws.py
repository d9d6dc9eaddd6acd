"""Closed-form reference laws used as independent test oracles.

These are textbook formulas evaluated directly (stable branch choices for
z in the upper half plane); they never touch the package's solvers. The
dense moment recursion and edge estimate read only a map's d^4 tensor, so
they check the package's versions, which read the invariant pattern.
"""

import numpy as np


def semicircle_cauchy(z):
    """G(z) = (z - sqrt(z-2)sqrt(z+2)) / 2 for the radius-2 semicircle law."""
    z = np.asarray(z, dtype=complex)
    return (z - np.sqrt(z - 2.0) * np.sqrt(z + 2.0)) / 2.0


def semicircle_pdf(x):
    x = np.asarray(x, dtype=float)
    return np.sqrt(np.clip(4.0 - x**2, 0.0, None)) / (2.0 * np.pi)


def semicircle_cdf(x):
    x = np.clip(np.asarray(x, dtype=float), -2.0, 2.0)
    return 0.5 + x * np.sqrt(4.0 - x**2) / (4.0 * np.pi) + np.arcsin(x / 2.0) / np.pi


def mp1_cauchy(z):
    """G(z) of the Marchenko-Pastur law with ratio 1 (support [0, 4])."""
    z = np.asarray(z, dtype=complex)
    return (z - np.sqrt(z) * np.sqrt(z - 4.0)) / (2.0 * z)


def mp1_pdf(x):
    x = np.asarray(x, dtype=float)
    inside = (x > 0) & (x < 4)
    out = np.zeros_like(x)
    xs = np.where(inside, x, 1.0)
    out = np.where(inside, np.sqrt(np.clip((4.0 - xs) * xs, 0.0, None)) / (2.0 * np.pi * xs), 0.0)
    return out


def mp1_cdf(x):
    # substitute t = 4 sin^2(theta/2): dF = (1 + cos theta) dtheta / pi
    x = np.clip(np.asarray(x, dtype=float), 0.0, 4.0)
    theta = 2.0 * np.arcsin(np.sqrt(x) / 2.0)
    return (theta + np.sin(theta)) / np.pi


def catalan(n):
    """Catalan numbers 1, 1, 2, 5, 14, ... (moments of the semicircle)."""
    c = 1
    for i in range(n):
        c = c * 2 * (2 * i + 1) // (i + 2)
    return c


def _dense_eta(eta, D):
    """eta(D)_ij = sum_kl tensor[i,j,k,l] D_kl on the dense tensor."""
    return np.einsum("ijkl,kl->ij", eta.tensor, D)


def dense_nc2_moment(eta, m, weights):
    """M_m of the recursion M_m = sum_{j+k=m-2} eta(M_j) M_k on d x d matrices, and its trace.

    The trace is read with ``weights``, one per block.
    """
    d = eta.tensor.shape[0]
    M = [np.eye(d, dtype=complex), np.zeros((d, d), dtype=complex)]
    for order in range(2, m + 1):
        acc = np.zeros((d, d), dtype=complex)
        for j in range(order - 1):
            acc += _dense_eta(eta, M[j]) @ M[order - 2 - j]
        M.append(acc)
    return M[m], complex(np.dot(weights, np.diagonal(M[m])))


def dense_edge_estimate(eta):
    """2 sqrt(lam), lam the largest eigenvalue of the Hermitian part of eta(I), on d x d matrices.

    1e-12 stands in for lam only where lam is not positive.
    """
    m2 = _dense_eta(eta, np.eye(eta.tensor.shape[0]))
    lam = float(np.linalg.eigvalsh((m2 + m2.conj().T) / 2).max())
    return 2.0 * np.sqrt(lam if lam > 0 else 1e-12)
