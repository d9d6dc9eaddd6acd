"""Spectral densities, CDFs, moments and capacity from Cauchy transforms.

Densities are recovered by Stieltjes inversion with a two-offset Richardson
step: with epsilon_1 = 2 epsilon_2,

    p(x) = -(1/pi) Im[ 2 G(x + i eps_2) - G(x + i eps_1) ]

which cancels the first-order offset bias without driving the solver onto
the real axis. Point masses at zero (Gram laws of rectangular H) are never
recovered by inversion; they are attached analytically from the block
counts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import covariance as cov
from . import solver as slv
from .errors import BadParameter, GridError, NegativeSupport

MASS_TOL = 5e-3
CLIP_WARN = 1e-3
BOUNDARY_DENSITY = 1e-6
DEFAULT_POINTS = 512


@dataclass(frozen=True, eq=False)
class SpectralDensity:
    """Sampled density: sorted grid xs, values ps >= 0, optional atom at 0.

    ``clip_excursion`` records how far below zero the raw inversion dipped
    before clipping; anything beyond 1e-3 points at an unconverged
    transform and is flagged by the producers.
    """

    xs: np.ndarray
    ps: np.ndarray
    atom_at_zero: float = 0.0
    epsilon_used: tuple[float, float] = (float("nan"), float("nan"))
    clip_excursion: float = 0.0

    def __post_init__(self):
        xs = np.ascontiguousarray(np.asarray(self.xs, dtype=float))
        ps = np.ascontiguousarray(np.asarray(self.ps, dtype=float))
        if xs.ndim != 1 or xs.shape != ps.shape or len(xs) < 2:
            raise GridError("xs and ps must be matching 1-d arrays of length >= 2")
        if np.any(np.diff(xs) <= 0):
            raise GridError("xs must be strictly increasing")
        if ps.min() < -1e-8:
            raise GridError(f"density has a negative sample {ps.min():.3e}")
        if not 0.0 <= self.atom_at_zero <= 1.0:
            raise BadParameter("atom_at_zero must lie in [0, 1]")
        xs.setflags(write=False)
        ps.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ps", np.clip(ps, 0.0, None))


def stieltjes_invert(g_values, epsilons=None, atom_at_zero=0.0) -> SpectralDensity:
    """Invert scalar Cauchy-transform samples to a density.

    ``g_values`` is a sequence of triples (x, G(x + i eps1), G(x + i eps2))
    with eps1 = 2*eps2, already traced to scalars. Negative excursions beyond
    1e-3 before clipping indicate solver failure and are reported as a
    warning with diagnostics.
    """
    triples = list(g_values)
    if not triples:
        raise GridError("empty inversion input")
    xs = np.array([float(t[0]) for t in triples])
    g1 = np.array([complex(t[1]) for t in triples])
    g2 = np.array([complex(t[2]) for t in triples])
    if np.any(np.diff(xs) <= 0):
        raise GridError("inversion grid must be strictly increasing")
    if epsilons is not None:
        e1, e2 = (float(epsilons[0]), float(epsilons[1]))
        if abs(e1 - 2 * e2) > 1e-9 * max(e1, e2):
            raise BadParameter(f"offsets must satisfy eps1 = 2*eps2, got {epsilons}")
    else:
        e1, e2 = float("nan"), float("nan")
    raw = -(2.0 * g2 - g1).imag / np.pi
    worst = float(raw.min())
    if worst < -CLIP_WARN:
        warnings.warn(
            f"density clipped from {worst:.3e} at x = {xs[int(raw.argmin())]:.6g}; "
            f"negative excursions this large indicate an unconverged transform",
            RuntimeWarning,
            stacklevel=2,
        )
    return SpectralDensity(
        xs=xs,
        ps=np.clip(raw, 0.0, None),
        atom_at_zero=float(atom_at_zero),
        epsilon_used=(e1, e2),
        clip_excursion=max(0.0, -worst),
    )


def mass(density: SpectralDensity) -> float:
    """Trapezoid mass of the sampled part plus the atom."""
    return float(np.trapezoid(density.ps, density.xs)) + density.atom_at_zero


def check_mass(density: SpectralDensity, where="density") -> float:
    """Warn (with diagnostics) if total mass strays from 1 by more than 5e-3."""
    m = mass(density)
    if abs(m - 1.0) > MASS_TOL:
        warnings.warn(
            f"{where}: total mass {m:.6f} outside 1 +/- {MASS_TOL}; "
            f"grid [{density.xs[0]:.4g}, {density.xs[-1]:.4g}] may not cover "
            f"the support, or the solver failed",
            RuntimeWarning,
            stacklevel=2,
        )
    return m


def cdf(density: SpectralDensity):
    """Tabulated CDF as a vectorized callable F(x)."""
    xs, ps = density.xs, density.ps
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (ps[1:] + ps[:-1]) * np.diff(xs))))
    atom = density.atom_at_zero

    def F(x):
        x = np.asarray(x, dtype=float)
        base = np.interp(x, xs, cum, left=0.0, right=float(cum[-1]))
        out = base + atom * (x >= 0.0)
        return float(out) if out.ndim == 0 else out

    return F


def capacity(density: SpectralDensity, snr: float) -> float:
    """Bits per dimension: integral of log2(1 + snr*x) against the law.

    The support must lie in [0, inf); the atom at zero contributes nothing.
    """
    if snr <= 0:
        raise BadParameter("snr must be positive")
    xs, ps = density.xs, density.ps
    neg = xs < 0
    if neg.any():
        neg_mass = float(np.trapezoid(np.where(neg, ps, 0.0), xs))
        if neg_mass > 1e-6:
            raise NegativeSupport(
                f"density carries mass {neg_mass:.3e} on the negative axis"
            )
    integrand = np.log2(1.0 + snr * np.clip(xs, 0.0, None)) * ps
    return float(np.trapezoid(integrand, xs))


def moments_from_density(density: SpectralDensity, k: int) -> float:
    """k-th moment by trapezoid quadrature, atom included."""
    if k < 0:
        raise BadParameter("moment order must be >= 0")
    val = float(np.trapezoid(density.xs**k * density.ps, density.xs))
    if k == 0:
        val += density.atom_at_zero
    return val


# ---------------------------------------------------------------------------
# density pipelines
# ---------------------------------------------------------------------------

_PIPELINE_CONFIG = slv.SolverConfig(newton=True)


def _edge_estimate(eta) -> float:
    m2 = cov.eta_apply(eta, np.eye(eta.dim_in))
    lam = float(np.linalg.eigvalsh((m2 + m2.conj().T) / 2).max())
    return 2.0 * np.sqrt(max(lam, 1e-12))


def _gram_grid(hi, npoints, eps):
    """Geometric grid on [0, hi]: resolves integrable 1/sqrt(x) edges at 0."""
    lo = max(eps / 4.0, hi * 1e-7)
    return np.concatenate(([0.0], np.geomspace(lo, hi, npoints - 1)))


def density_from_eta(
    eta,
    xs=None,
    npoints=DEFAULT_POINTS,
    epsilon=None,
    config=None,
    trace_weights=None,
) -> SpectralDensity:
    """Density of the selfadjoint law with covariance map eta.

    The support is auto-detected (and expanded until the boundary density
    falls below 1e-6) unless an explicit grid is given. ``epsilon`` is the
    smaller inversion offset eps_2; it defaults to 1e-3 times the grid span.
    ``trace_weights`` switches the scalar transform from tr_d to a weighted
    trace (rectangular laws).
    """
    config = config or _PIPELINE_CONFIG
    if xs is not None:
        xs = np.asarray(xs, dtype=float)
        return _invert_selfadjoint(eta, xs, epsilon, config, trace_weights)
    edge = _edge_estimate(eta)
    lo, hi = -1.35 * edge, 1.35 * edge
    for _ in range(8):
        grid = np.linspace(lo, hi, npoints)
        dens = _invert_selfadjoint(eta, grid, epsilon, config, trace_weights)
        grow_lo = dens.ps[0] > BOUNDARY_DENSITY
        grow_hi = dens.ps[-1] > BOUNDARY_DENSITY
        if not (grow_lo or grow_hi):
            return dens
        span = hi - lo
        if grow_lo:
            lo -= 0.25 * span
        if grow_hi:
            hi += 0.25 * span
    return dens


def _invert_selfadjoint(eta, xs, epsilon, config, trace_weights):
    eps2 = epsilon if epsilon is not None else 1e-3 * float(xs[-1] - xs[0])
    eps2 = max(eps2, slv.MIN_GRID_EPSILON)
    g1 = _pair_traces(eta, xs, eps2, config, scale_is_z=False,
                      trace_weights=trace_weights)
    dens = stieltjes_invert(zip(xs, *g1), epsilons=(2 * eps2, eps2))
    check_mass(dens)
    return dens


def _pair_traces(eta, xs, eps2, config, scale_is_z, side=None, trace_weights=None):
    """Scalar transforms at offsets (2*eps2, eps2); raises on non-convergence."""
    eps2 = float(eps2)
    wide, narrow = slv._solve_continuation(
        eta, xs, eps2, config, scale_is_z, record=(2 * eps2,)
    )
    slv._require_converged(xs, wide, narrow)

    def scalarize(G):
        if side is not None:
            return np.trace(G[:, :side, :side], axis1=1, axis2=2) / side
        if trace_weights is not None:
            w = np.asarray(trace_weights, dtype=float)
            return np.einsum("i,pii->p", w, G)
        return np.trace(G, axis1=1, axis2=2) / G.shape[-1]

    return scalarize(wide.G), scalarize(narrow.G)


def density_gram(
    eta,
    side,
    xs=None,
    npoints=DEFAULT_POINTS,
    epsilon=None,
    config=None,
) -> SpectralDensity:
    """Gram (HH*-type) density for a hermitized covariance map.

    ``eta`` acts on (a+b)-indexed matrices and must annihilate the corner
    blocks; ``side`` is the number of leading blocks whose normalized trace
    gives the scalar transform. The grid lives on [0, hi] and clusters
    geometrically near 0. The default offset is tighter than the
    selfadjoint one (1e-5 of the span): Gram laws often carry a 1/sqrt(x)
    hard edge at zero whose smearing leaks mass below the axis at rate
    sqrt(epsilon).
    """
    config = config or _PIPELINE_CONFIG
    if xs is not None:
        xs = np.asarray(xs, dtype=float)
        return _invert_gram(eta, side, xs, epsilon, config)
    hi = 1.8 * _edge_estimate(eta) ** 2
    dens = None
    for _ in range(8):
        eps2 = epsilon if epsilon is not None else 1e-5 * hi
        grid = _gram_grid(hi, npoints, eps2)
        dens = _invert_gram(eta, side, grid, epsilon, config)
        if dens.ps[-1] <= BOUNDARY_DENSITY:
            return dens
        hi *= 1.3
    return dens


def _invert_gram(eta, side, xs, epsilon, config):
    eps2 = epsilon if epsilon is not None else 1e-5 * float(xs[-1] - xs[0])
    eps2 = max(eps2, slv.MIN_GRID_EPSILON)
    g1, g2 = _pair_traces(eta, xs, eps2, config, scale_is_z=True, side=side)
    dens = stieltjes_invert(zip(xs, g1, g2), epsilons=(2 * eps2, eps2))
    check_mass(dens)
    return dens


def density_hh_star(spec, **kwargs) -> SpectralDensity:
    """HH*-law density of an hh_star covariance spec."""
    eta = cov._hermitized_map(cov.eta1_map(spec), cov.eta2_map(spec))
    return density_gram(eta, spec.a, **kwargs)


def density_h_star_h(spec, **kwargs) -> SpectralDensity:
    """H*H-law density: the HH* law rescaled plus an analytic atom at zero.

    For a <= b the spectra relate by b mu_{H*H} = a mu_{HH*} + (b-a) delta_0,
    so the atom (b-a)/b is attached exactly instead of being smeared by
    inversion. For a > b swap the roles of H and H*.
    """
    if spec.a > spec.b:
        raise BadParameter(
            "H*H with a > b: relabel the spec so that a <= b (transpose H)"
        )
    base = density_hh_star(spec, **kwargs)
    ratio = spec.a / spec.b
    return SpectralDensity(
        xs=base.xs,
        ps=base.ps * ratio,
        atom_at_zero=(spec.b - spec.a) / spec.b,
        epsilon_used=base.epsilon_used,
        clip_excursion=base.clip_excursion * ratio,
    )
