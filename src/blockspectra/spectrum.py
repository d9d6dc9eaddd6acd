"""Spectral densities, CDFs, moments and capacity from Cauchy transforms.

Densities are recovered by Stieltjes inversion with a two-offset Richardson
step: with epsilon_1 = 2 epsilon_2,

    p(x) = -(1/pi) Im[ 2 G(x + i eps_2) - G(x + i eps_1) ]

which cancels the first-order offset bias without driving the solver onto
the real axis. Only ``density_h_star_h`` attaches a point mass at zero,
(b - a)/b from the block counts; ``density_hh_star`` and ``density_gram``
with a > b leave HH*'s atom to the inversion, which smears it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import covariance as cov
from . import solver as slv
from .errors import BadParameter, GridError, NegativeSupport

MASS_TOL = 5e-3
CLIP_WARN = 1e-3     # an inverted density may dip below zero by this share of its peak
NEGATIVE_TOL = 1e-8  # a density built from samples may dip by this share of its peak
DEFAULT_POINTS = 512


def _dips_too_far(ps, excursion, share=CLIP_WARN) -> bool:
    """Whether a dip of ``excursion`` below zero passes ``share`` of the density's largest value.

    The rule reads no absolute level, so a law and its rescaled image are
    judged alike; clipping ``ps`` at zero does not change its verdict.
    """
    return excursion > share * float(ps.max())


@dataclass(frozen=True, eq=False)
class SpectralDensity:
    """Sampled density: sorted grid xs, values ps >= 0, optional atom at 0.

    ``clip_excursion`` records how far below zero the raw inversion dipped
    before clipping; a dip beyond CLIP_WARN of the density's largest value
    (:func:`_dips_too_far`) points at an unconverged transform and is
    flagged by the producers.
    """

    xs: np.ndarray
    ps: np.ndarray
    atom_at_zero: float = 0.0
    epsilon_used: tuple[float, float] = (float("nan"), float("nan"))
    clip_excursion: float = 0.0

    def __post_init__(self):
        xs = np.ascontiguousarray(cov._numbers(self.xs, "xs"))
        ps = np.ascontiguousarray(cov._numbers(self.ps, "ps"))
        if xs.ndim != 1 or xs.shape != ps.shape or len(xs) < 2:
            raise GridError("xs and ps must be matching 1-d arrays of length >= 2")
        if np.any(np.diff(xs) <= 0):
            raise GridError("xs must be strictly increasing")
        if _dips_too_far(ps, -ps.min(), NEGATIVE_TOL):
            raise GridError(f"density has a negative sample {ps.min():.3e}")
        atom = cov._real(self.atom_at_zero, "atom_at_zero")
        if not 0.0 <= atom <= 1.0:
            raise BadParameter("atom_at_zero must lie in [0, 1]")
        xs.setflags(write=False)
        ps.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ps", np.clip(ps, 0.0, None))
        object.__setattr__(self, "atom_at_zero", atom)


def stieltjes_invert(xs, g_wide, g_narrow, eps2) -> SpectralDensity:
    """Invert scalar Cauchy-transform samples on a grid to a density.

    ``g_wide`` and ``g_narrow`` hold the traced transform at x + 2i eps2
    and x + i eps2 for every x in the strictly increasing ``xs``; ``eps2``
    is recorded in ``epsilon_used``. A negative excursion before clipping
    beyond CLIP_WARN of the density's largest value (:func:`_dips_too_far`)
    indicates solver failure and is reported as a warning with diagnostics.
    """
    xs = cov._numbers(xs, "xs")
    wide = cov._numbers(g_wide, "g_wide", complex)
    narrow = cov._numbers(g_narrow, "g_narrow", complex)
    raw = -(2.0 * narrow - wide).imag / np.pi
    worst = float(np.min(raw, initial=0.0))
    if _dips_too_far(raw, -worst):
        warnings.warn(
            f"density clipped from {worst:.3e} at x = {xs[int(raw.argmin())]:.6g}; "
            f"negative excursions this large indicate an unconverged transform",
            RuntimeWarning,
            stacklevel=2,
        )
    eps2 = cov._real(eps2, "eps2")
    return SpectralDensity(
        xs=xs,
        ps=np.clip(raw, 0.0, None),
        epsilon_used=(2 * eps2, eps2),
        clip_excursion=max(0.0, -worst),
    )


def _pieces(density: SpectralDensity, f) -> np.ndarray:
    """Trapezoid pieces of the integral of f p, one per grid interval."""
    y = f(density.xs) * density.ps
    return 0.5 * (y[1:] + y[:-1]) * np.diff(density.xs)


def _integral(density: SpectralDensity, f) -> float:
    """Integral of f against the law: the trapezoid rule, plus f(0) times the atom."""
    return float(np.sum(_pieces(density, f))) + float(f(0.0)) * density.atom_at_zero


def mass(density: SpectralDensity) -> float:
    """Trapezoid mass of the sampled part plus the atom."""
    return _integral(density, np.ones_like)


def check_mass(density: SpectralDensity) -> float:
    """Warn (with diagnostics) if total mass strays from 1 by more than 5e-3."""
    m = mass(density)
    if abs(m - 1.0) > MASS_TOL:
        warnings.warn(
            f"density: total mass {m:.6f} outside 1 +/- {MASS_TOL}; "
            f"grid [{density.xs[0]:.4g}, {density.xs[-1]:.4g}] may not cover "
            f"the support, or the solver failed",
            RuntimeWarning,
            stacklevel=2,
        )
    return m


def cdf(density: SpectralDensity):
    """Tabulated CDF as a vectorized callable F(x)."""
    xs, atom = density.xs, density.atom_at_zero
    cum = np.concatenate(([0.0], np.cumsum(_pieces(density, np.ones_like))))

    def F(x):
        x = cov._numbers(x, "x")
        out = np.interp(x, xs, cum, left=0.0, right=float(cum[-1])) + atom * (x >= 0.0)
        return float(out) if out.ndim == 0 else out

    return F


def capacity(density: SpectralDensity, snr: float) -> float:
    """Bits per dimension: integral of log2(1 + snr*x) against the law.

    The support must lie in [0, inf); the atom at zero contributes nothing.
    """
    if not 0 < cov._real(snr, "snr") < np.inf:
        raise BadParameter(f"snr must be positive and finite, got {snr}")
    neg_mass = _integral(density, lambda x: x < 0)
    if neg_mass > 1e-6:
        raise NegativeSupport(f"density carries mass {neg_mass:.3e} on the negative axis")
    return _integral(density, lambda x: np.log2(1.0 + snr * np.clip(x, 0.0, None)))


def moments_from_density(density: SpectralDensity, k: int) -> float:
    """k-th moment by trapezoid quadrature, atom included."""
    k = cov._count(k, "moment order")
    if k < 0:
        raise BadParameter("moment order must be >= 0")
    return _integral(density, lambda x: x**k)


# ---------------------------------------------------------------------------
# density pipelines
# ---------------------------------------------------------------------------

def _points(npoints) -> int:
    """The point count of a default grid: an integer of at least 2."""
    npoints = cov._count(npoints, "npoints")
    if npoints < 2:
        raise GridError(f"npoints must be >= 2, got {npoints}")
    return npoints


def _gram_grid(hi, npoints, eps):
    """Geometric grid on [0, hi]: resolves integrable 1/sqrt(x) edges at 0."""
    # start at a quarter of the offset, at most hi / 4: increasing for any offset
    lo = max(min(eps, hi) / 4.0, hi * 1e-7)
    # the geometric part ends at hi, also as one point (where geomspace gives [lo])
    return np.concatenate(([0.0], np.geomspace(lo, hi, _points(npoints) - 1)[:-1], [hi]))


def density_from_eta(eta, xs=None, npoints=DEFAULT_POINTS, epsilon=None, config=None,
                     trace_weights=None) -> SpectralDensity:
    """Density of the selfadjoint law with covariance map eta.

    Without an explicit grid, ``xs`` spans [-1.35 e, 1.35 e] with
    e = 2 ||eta(I)||^(1/2): for a positive map the 2k-th moment is at most
    Catalan(k) ||eta(I)||^k, so the law lies in [-e, e] and one solve covers
    it. ``epsilon`` is the smaller inversion offset eps_2; it defaults to
    1e-3 times the grid span, and an explicit one must be finite and
    positive; it is used as given, at any scale. ``trace_weights``, d
    nonnegative numbers summing to 1 (1/d each by default), weigh the blocks
    in the scalar transform; the ``moments`` command reads the recursion with them.
    """
    return _density(cov._map_law(eta, trace_weights), xs, npoints, epsilon, config)


def density_gram(eta, side, xs=None, npoints=DEFAULT_POINTS, epsilon=None,
                 config=None) -> SpectralDensity:
    """Gram (HH*-type) density for a hermitized covariance map.

    ``eta`` acts on (a+b)-indexed matrices and must annihilate the corner
    blocks; ``side`` is the number of leading blocks whose normalized trace
    gives the scalar transform (and the ``moments`` command's recursion).
    Without an explicit grid, ``xs`` spans [0, 1.8 e^2], which covers the
    law (see :func:`density_from_eta` for the bound e), and clusters
    geometrically near 0. The default offset is tighter than the
    selfadjoint one (1e-5 of the span): Gram laws often carry a 1/sqrt(x)
    hard edge at zero whose smearing leaks mass below the axis at rate
    sqrt(epsilon).
    """
    return _density(cov._gram_law(eta, side), xs, npoints, epsilon, config)


def _density(law, xs, npoints, epsilon, config) -> SpectralDensity:
    """Solve a law at offsets (2*eps2, eps2), read G off with its weights, invert.

    The default grid and offset are the selfadjoint or Gram ones above; eps2
    is ``epsilon`` or the default share of the grid's span, as it is: no
    floor, so a law solves at its own scale. The offset and grid are checked
    before anything is solved.
    """
    if epsilon is not None and not 0 < cov._real(epsilon, "epsilon") < np.inf:
        raise BadParameter(f"epsilon must be finite and positive, got {epsilon}")
    span_share = 1e-5 if law.gram else 1e-3
    if xs is None:
        edge = slv._edge_estimate(law.eta)
        if law.gram:
            hi = 1.8 * edge**2
            xs = _gram_grid(hi, npoints, epsilon if epsilon is not None else span_share * hi)
        else:
            xs = np.linspace(-1.35 * edge, 1.35 * edge, _points(npoints))
    xs = slv._check_grid(xs)
    if len(xs) < 2 or (np.diff(xs) <= 0).any():
        raise GridError("xs must be strictly increasing, with at least two points")
    eps2 = float(epsilon) if epsilon is not None else span_share * float(xs[-1] - xs[0])
    wide, narrow = slv._solve_converged(law, xs, (2 * eps2, eps2), config)
    dens = stieltjes_invert(xs, wide.g, narrow.g, eps2)
    check_mass(dens)
    return dens


def density_hh_star(spec, **kwargs) -> SpectralDensity:
    """HH*-law density of an hh_star covariance spec."""
    return density_gram(cov._hh_star_law(spec).eta, spec.a, **kwargs)


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
