"""Every law solves at its own scale.

Scaling a spec's entries by s scales a selfadjoint law by sqrt(s) and a
Gram law by s: the transform maps as H(z) -> H(z/s)/s. The default density
of the scaled law must be the unit law's image, on the image grid, with
the same mass. No solver threshold may read an absolute level for that to
hold, from s = 4^-12 to 4^12.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

import blockspectra as bs
from blockspectra import cli, covariance as cov, spectrum as spc

from conftest import (
    random_complex_selfadjoint_spec,
    random_hh_star_spec,
    random_selfadjoint_spec,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

LAWS = {
    "real_selfadjoint_d3": lambda: random_selfadjoint_spec(3, np.random.default_rng(1)),
    "complex_selfadjoint_d2": lambda: random_complex_selfadjoint_spec(2, np.random.default_rng(2)),
    "hh_star_2x3": lambda: random_hh_star_spec(2, 3, np.random.default_rng(3)),
    "complex_hh_star_2x3": lambda: random_hh_star_spec(2, 3, np.random.default_rng(4),
                                                       complex_=True),
    "isi_k4_l4": lambda: bs.isi_covariance(4, 4),
    "isi_k2_l2": lambda: bs.isi_covariance(2, 2),
    "nonsep_t2": lambda: cli.parse_config(CONFIGS / "nonsep_t2.json").built.spec,
}


def _default_density(spec):
    return spc._density(cov._law(spec), None, spc.DEFAULT_POINTS, None, None)


@pytest.mark.parametrize("name", LAWS)
def test_density_is_the_rescaled_unit_density(name):
    spec = LAWS[name]()
    unit = _default_density(spec)
    for j in (-12, -6, 6, 12):
        s = 4.0**j
        grow = s if spec.kind == "hh_star" else 2.0**j  # how far x moves
        scaled = dataclasses.replace(spec, entries=tuple((*e[:4], e[4] * s) for e in spec.entries))
        dens = _default_density(scaled)
        assert np.abs(dens.xs / grow - unit.xs).max() <= 1e-14 * np.abs(unit.xs).max(), j
        assert np.abs(dens.ps * grow - unit.ps).max() <= 1e-9 * unit.ps.max(), j
        assert abs(spc.mass(dens) - spc.mass(unit)) <= 1e-10, j
