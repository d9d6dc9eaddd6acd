import contextlib
import time

import numpy as np
import pytest

import blockspectra as bs
from blockspectra import solver as slv

# wall time of expensive session fixtures, for tests with runtime budgets
FIXTURE_SECONDS: dict[str, float] = {}


def random_selfadjoint_spec(d, rng, scale=1.0):
    """Random valid selfadjoint spec: realizable, Choi-PSD by construction.

    Builds a random PSD entry covariance symmetrized under the Hermitian
    constraint involution (i,j) -> (j,i), then reads sigma off it.
    """
    B = rng.standard_normal((d * d, d * d)) / d
    C0 = B @ B.T
    P = _swap(d)
    return _spec_from_entry_covariance(d, 0.5 * (C0 + P @ C0 @ P) * scale)


def random_complex_selfadjoint_spec(d, rng):
    """Random valid selfadjoint spec with complex sigma, Choi-PSD by construction.

    A random complex PSD entry covariance C0 is averaged with P conj(C0) P,
    its image under X -> X* (P swaps (i,j) and (j,i)), so that
    sigma(j,i;l,k) = conj sigma(i,j;k,l); sigma is read off the average.
    """
    B = (rng.standard_normal((d * d, d * d))
         + 1j * rng.standard_normal((d * d, d * d))) / (d * np.sqrt(2))
    C0 = B @ B.conj().T
    P = _swap(d)
    return _spec_from_entry_covariance(d, 0.5 * (C0 + P @ C0.conj() @ P))


def _swap(d):
    """Permutation matrix of (i,j) -> (j,i) on row-major index pairs."""
    P = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            P[i * d + j, j * d + i] = 1.0
    return P


def _spec_from_entry_covariance(d, C):
    """Selfadjoint spec with sigma(i,j;l,k) = C[(i,j),(k,l)]."""
    entries = []
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    v = C[i * d + j, k * d + l]  # sigma(i,j;l,k)
                    entries.append((i + 1, j + 1, l + 1, k + 1, v))
    return bs.selfadjoint_covariance(d, entries)


def random_hh_star_spec(a, b, rng, scale=1.0, complex_=False):
    """Random valid hh_star spec: tau is a random real (or complex) PSD Hermitian matrix."""
    B = rng.standard_normal((a * b, a * b)) / np.sqrt(a * b)
    if complex_:
        B = B + 1j * rng.standard_normal((a * b, a * b)) / np.sqrt(a * b)
    T = (B @ B.conj().T) * scale
    entries = []
    for i in range(a):
        for k in range(b):
            for j in range(a):
                for l in range(b):
                    entries.append((i + 1, k + 1, j + 1, l + 1, T[i * b + k, j * b + l]))
    return bs.hh_star_covariance(a, b, entries)


def random_nonsep_family(p, rng):
    """A random complex nonsep family, t = 2, p = q."""

    def herm():
        A = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
        return A @ A.conj().T / (2 * p)

    return bs.CorrelationFamily(psi=(herm(), herm()), psi_hat=(herm(), herm()))


@pytest.fixture(scope="session")
def semicircle_eta():
    return bs.eta_map(bs.selfadjoint_covariance(1, [(1, 1, 1, 1, 1.0)]))


@pytest.fixture(scope="session")
def mp_spec():
    """a = b = 1, tau = 2: iid entries of variance 1/N, Marchenko-Pastur(1)."""
    return bs.hh_star_covariance(1, 1, [(1, 1, 1, 1, 2.0)])


@pytest.fixture(scope="session")
def isi44():
    return bs.isi_covariance(4, 4)


@pytest.fixture(scope="session")
def isi44_density(isi44):
    t0 = time.perf_counter()
    dens = bs.density_hh_star(
        isi44, epsilon=1e-4, config=bs.SolverConfig(tol=1e-12, newton=True)
    )
    FIXTURE_SECONDS["isi44_density"] = time.perf_counter() - t0
    return dens


@pytest.fixture(scope="session")
def isi44_grid_solutions(isi44, isi44_density):
    return bs.solve_hh_star_grid(
        isi44, isi44_density.xs, 1e-4, bs.SolverConfig(tol=1e-12, newton=True)
    )


def _residual_norms(pat, zs, G):
    return np.linalg.norm(slv._residual(pat, zs, G, slv._eta_batch(pat, G)), axis=1)


def _stalled_newton(pat, zs, G, target, limit):
    P = len(G)
    return G.copy(), _residual_norms(pat, zs, G), np.zeros(P, int), np.ones(P, bool)


def _stalled_sweeps(pat, zs, G, target, limit):
    return G.copy(), _residual_norms(pat, zs, G), np.zeros(len(G), int)


@pytest.fixture
def stalled(monkeypatch):
    """A context in which Newton and the fixed-point sweeps return their input unchanged.

    Inside it every ladder level keeps its start, so a solve ends with a
    finite, unconverged iterate and reaches the solver's failure paths.
    """
    @contextlib.contextmanager
    def stall():
        with monkeypatch.context() as m:
            m.setattr(slv, "_newton_batch", _stalled_newton)
            m.setattr(slv, "_fixed_point_batch", _stalled_sweeps)
            yield
    return stall
