"""Non-separable correlated fading over finite matrix representations.

The entry correlation E[h_pj conj(h_qk)] = sum_s Psi_s[jk] PsiHat_s[pq]
with a fixed number of terms t generalizes separable (Kronecker, t = 1)
correlation. The limiting Gram law of the square channel is driven by the
pair of maps

    eta1(b) = sum_s PsiHat_s * phi(b Psi_s)      (Psi side -> PsiHat side)
    eta2(b) = sum_s Psi_s * phi(b PsiHat_s)      (PsiHat side -> Psi side)

with phi a normalized trace, through the fixed-point equation

    z G1 = id + eta2((id - eta1(G1))^{-1}) G1,       G(z) = phi(G1).

We realize (B, phi) concretely as p x p / q x q matrix algebras with the
normalized trace; the representation dimensions are user parameters. G1
stays in the algebra generated by the Psi family, and the solution depends
only on the separate joint distributions of the two families, never on
mixed moments.

Every route solves the pair that :func:`build_nonsep_eta` builds on the
p- and q-dimensional algebras: the engine as the corners of a Gram law on
p + q blocks (:func:`hermitized_eta`), and the independent cross-check
:func:`solve_fading` by the eliminated Gram routine with the maps swapped.
Only sampling reads the lcm(p, q)-block hh_star spec (``CorrelationFamily.spec``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import covariance as cov
from . import solver as slv
from . import spectrum as spc
from .errors import BadParameter, DimensionMismatch


@dataclass(frozen=True, eq=False)
class CorrelationFamily:
    """t Hermitian PSD correlation matrices per side, with trace states.

    The constructor (and so also ``dataclasses.replace``) checks the term
    count, shapes, finiteness, Hermiticity, positive semidefiniteness and
    the size of the law's map on p + q blocks, raising BadParameter or
    DimensionMismatch: every family in existence is valid.
    """

    psi: tuple[np.ndarray, ...]
    psi_hat: tuple[np.ndarray, ...]

    def __post_init__(self):
        psi, psi_hat = (
            tuple(np.ascontiguousarray(cov._numbers(m, name, complex)) for m in mats)
            for name, mats in (("psi", self.psi), ("psi_hat", self.psi_hat))
        )
        for m in psi + psi_hat:
            m.setflags(write=False)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "psi_hat", psi_hat)
        if not psi or len(psi_hat) != len(psi):
            raise BadParameter("need t >= 1 terms with matching psi/psi_hat counts")
        for name, mats in (("psi", psi), ("psi_hat", psi_hat)):
            if mats[0].size == 0:
                raise BadParameter(f"{name}[0] is empty")
            dim = mats[0].shape[0]
            for s, m in enumerate(mats):
                if m.ndim != 2 or m.shape != (dim, dim):
                    raise DimensionMismatch(f"{name}[{s}] must be {dim}x{dim}")
                if not np.isfinite(m).all():
                    raise BadParameter(f"{name}[{s}] has a non-finite entry")
                scale = float(np.abs(m).max())
                if np.abs(m - m.conj().T).max() > cov.SYMMETRY_TOL * scale:
                    raise BadParameter(f"{name}[{s}] is not Hermitian")
                if float(np.linalg.eigvalsh((m + m.conj().T) / 2).min()) < cov.PSD_FLOOR * scale:
                    raise BadParameter(f"{name}[{s}] is not positive semidefinite")
        cov._check_map_size(self.p + self.q)

    @property
    def t(self) -> int:
        return len(self.psi)

    @property
    def p(self) -> int:
        return self.psi[0].shape[0]

    @property
    def q(self) -> int:
        return self.psi_hat[0].shape[0]

    @cached_property
    def spec(self) -> cov.CovarianceSpec:
        """The channel's hh_star spec on n = lcm(p, q) blocks a side, built on first use.

        Only sampling reads it. tau(i,k;j,l) = 2 sum_s Psi_s[i,j] PsiHat_s[l,k],
        with Psi_s (x) I_{n/p} and I_{n/q} (x) PsiHat_s: identical copies of
        each family, which leave its law unchanged. The nonzero entries with
        (i,k) <= (j,l) are given; the spec's closure adds their conjugate
        partners. A spec too large for its 2 n blocks is refused first.
        """
        n = math.lcm(self.p, self.q)
        cov._check_map_size(2 * n)
        T = 2 * sum(
            np.einsum("ij,lk->ikjl", np.kron(P, np.eye(n // self.p)),
                      np.kron(np.eye(n // self.q), H))
            for P, H in zip(self.psi, self.psi_hat)
        ).reshape(n * n, n * n)
        return cov.hh_star_covariance(n, n, [
            (r // n + 1, r % n + 1, c // n + 1, c % n + 1, T[r, c])
            for r in range(n * n) for c in range(r, n * n) if T[r, c]
        ])


def validate_family(family: CorrelationFamily) -> CorrelationFamily:
    """Return ``family``: a family is checked when it is constructed.

    Kept as a public step for callers that validate explicitly; every
    :class:`CorrelationFamily` has already passed the term-count, shape,
    finiteness, Hermiticity and positive-semidefiniteness checks.
    """
    return family


def build_nonsep_eta(family: CorrelationFamily):
    """Materialize (eta1, eta2) as coefficient tensors.

    eta1 maps the p-side into the q-side, eta2 the other way; phi is the
    normalized trace of the respective representation.
    """
    p, q = family.p, family.q
    T1 = np.zeros((q, q, p, p), dtype=complex)
    T2 = np.zeros((p, p, q, q), dtype=complex)
    for Psi, PsiHat in zip(family.psi, family.psi_hat):
        # phi(b Psi) = (1/p) sum_ij b_ij Psi_ji
        T1 += np.einsum("uv,ji->uvij", PsiHat, Psi) / p
        T2 += np.einsum("uv,lk->uvkl", Psi, PsiHat) / q
    return cov.EtaMap(T1), cov.EtaMap(T2)


def _law(family: CorrelationFamily) -> cov.Law:
    """The family's Gram law: eta2 and eta1 as corners of a map on p + q blocks, read on side p."""
    e1, e2 = build_nonsep_eta(family)
    return cov._hermitized_law(e2, e1)


def hermitized_eta(family: CorrelationFamily) -> cov.EtaMap:
    """Covariance map of the hermitization of the channel, on p + q blocks."""
    return _law(family).eta


@dataclass(frozen=True, eq=False)
class FadingSolution:
    """Solved fading point: G1 in the Psi algebra and g = phi(G1)."""

    z: complex
    G1: np.ndarray
    g: complex
    residual: float
    iterations: int
    converged: bool


def solve_fading(family: CorrelationFamily, z, config=None) -> FadingSolution:
    """Solve the non-separable fading equation at one upper-half-plane point.

    Iterates G1 -> (G1 + (z id - eta2((id - eta1(G1))^{-1}))^{-1}) / 2 from
    -i*id through the solver's sweep loop (the eliminated Gram equation with
    the maps swapped); each iterate costs one q x q and one p x p inverse. The
    converged G1 has negative-semidefinite imaginary part.
    """
    config = config or slv.DEFAULT_CONFIG
    z = slv._upper_half(z)
    e1, e2 = build_nonsep_eta(family)
    G1, res, its, converged = slv._solve_eliminated(e2, e1, z, config)
    return FadingSolution(z, G1, complex(np.trace(G1) / family.p), res, its, converged)


def solve_fading_block(family: CorrelationFamily, z, config=None) -> FadingSolution:
    """Cross-check route: solve the family's law on the engine instead.

    Solves the map on p + q blocks as :func:`solver.solve_hh_star` does;
    G1 = H[:p, :p] must agree with :func:`solve_fading`'s eliminated sweeps.
    """
    law, z = _law(family), slv._upper_half(z)
    sol = slv._hh_star_solutions(law, family.p, [z], slv._solve_point(law, z, config))[0]
    return FadingSolution(sol.z, sol.G1, sol.g, sol.residual, sol.iterations, sol.converged)


def fading_density(family: CorrelationFamily, **kwargs) -> spc.SpectralDensity:
    """Gram-law density of the fading channel, on the map of :func:`hermitized_eta`."""
    return spc.density_gram(hermitized_eta(family), family.p, **kwargs)
