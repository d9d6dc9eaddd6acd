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

This is the eliminated Gram equation of ``solver.solve_hh_star_direct``
with the two maps swapped, so :func:`solve_fading` runs the solver's
eliminated routine and owns no iteration loop; the density and the
:func:`solve_fading_block` cross-check go through the hermitized map
that ``covariance._hermitized_map`` assembles from the pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import covariance as cov
from . import solver as slv
from . import spectrum as spc
from .errors import BadParameter, DimensionMismatch

HERMITICITY_TOL = 1e-12
PSD_FLOOR = -1e-10


@dataclass(frozen=True, eq=False)
class CorrelationFamily:
    """t Hermitian PSD correlation matrices per side, with trace states.

    The constructor (and so also ``dataclasses.replace``) checks the term
    count, shapes, finiteness, Hermiticity and positive semidefiniteness,
    raising BadParameter or DimensionMismatch: every family in existence is
    valid.
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
                scale = max(1.0, float(np.abs(m).max()))
                if np.abs(m - m.conj().T).max() > HERMITICITY_TOL * scale:
                    raise BadParameter(f"{name}[{s}] is not Hermitian")
                if float(np.linalg.eigvalsh((m + m.conj().T) / 2).min()) < PSD_FLOOR * scale:
                    raise BadParameter(f"{name}[{s}] is not positive semidefinite")

    @property
    def t(self) -> int:
        return len(self.psi)

    @property
    def p(self) -> int:
        return self.psi[0].shape[0]

    @property
    def q(self) -> int:
        return self.psi_hat[0].shape[0]


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


def hermitized_eta(family: CorrelationFamily) -> cov.EtaMap:
    """Block map on (p+q)-indexed matrices: diag(d1, d2) -> diag(eta2(d2), eta1(d1)).

    This is the covariance map of the hermitization of the fading channel;
    corners are annihilated, so the Gram-law engine applies unchanged.
    """
    e1, e2 = build_nonsep_eta(family)
    return cov._hermitized_map(e2, e1)


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

    Iterates G1 -> (z id - eta2((id - eta1(G1))^{-1}))^{-1} from -i*id through
    the solver's damped loop (the eliminated Gram equation with the maps
    swapped); each iterate costs one q x q and one p x p inverse. The
    converged G1 has negative-semidefinite imaginary part.
    """
    config = config or slv.DEFAULT_CONFIG
    z = slv._upper_half(z)
    e1, e2 = build_nonsep_eta(family)
    G1, res, its, converged = slv._solve_eliminated(e2, e1, z, config)
    return FadingSolution(z, G1, complex(np.trace(G1) / family.p), res, its, converged)


def solve_fading_block(family: CorrelationFamily, z, config=None) -> FadingSolution:
    """Cross-check route: solve the hermitized two-block equation instead.

    Solves z H = id + z eta(H) H over p+q blocks with the split map and reads
    G1 off the leading block. Must agree with :func:`solve_fading`.
    """
    H, res, its, converged = slv._solve_point(hermitized_eta(family), z, config, True)
    G1 = H[:family.p, :family.p]
    return FadingSolution(complex(z), G1, complex(np.trace(G1) / family.p), res, its,
                          converged)


def fading_density(family: CorrelationFamily, **kwargs) -> spc.SpectralDensity:
    """Gram-law density of the fading channel via the hermitized route."""
    return spc.density_gram(hermitized_eta(family), family.p, **kwargs)
