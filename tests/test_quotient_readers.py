"""The readers of a built law read its invariant pattern, never the dense tensor.

``nc2_moment``, the support edge estimate and the hh_star split residuals
run on the pattern's quotient. The dense recursion and edge formula in
``reference_laws`` are their independent check, on seeded laws of every
model, folded classes included.
"""

from pathlib import Path

import numpy as np
import pytest

import blockspectra as bs
from blockspectra import cli, covariance as cov, solver as slv, spectrum as spc

from conftest import (
    _spec_from_entry_covariance,
    _swap,
    random_complex_selfadjoint_spec,
    random_hh_star_spec,
    random_selfadjoint_spec,
)
from reference_laws import dense_edge_estimate, dense_nc2_moment

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
TIGHT = bs.SolverConfig(tol=1e-12)


def _rectangular_spec(alpha, rng):
    """Random rectangular spec on the weights' pattern, Choi-PSD by construction.

    A random PSD entry covariance, symmetrized under (i,j) -> (j,i), keeps
    only the couplings of (i,j) and (k,l) with alpha_i = alpha_k and
    alpha_j = alpha_l (a block-diagonal restriction, so still PSD); sigma is
    read off it.
    """
    d = len(alpha)
    B = rng.standard_normal((d * d, d * d)) / d
    C = B @ B.T
    C = 0.5 * (C + _swap(d) @ C @ _swap(d))
    label = np.array([[(alpha[i], alpha[j]) for j in range(d)] for i in range(d)]).reshape(d * d, 2)
    C *= (label[:, None, :] == label[None, :, :]).all(axis=2)
    return bs.rectangular_covariance(alpha, _spec_from_entry_covariance(d, C).entries)


def _herm_psd(p, rng):
    A = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    return A @ A.conj().T / (2 * p)


def _family_spec(rng):
    """A complex p=2, q=3 family: its lcm(p, q) = 6 copies fold into classes."""
    return bs.CorrelationFamily(psi=(_herm_psd(2, rng), _herm_psd(2, rng)),
                                psi_hat=(_herm_psd(3, rng), _herm_psd(3, rng))).spec


SPECS = {
    "selfadjoint-real-d4": lambda rng: random_selfadjoint_spec(4, rng),
    "selfadjoint-real-d5": lambda rng: random_selfadjoint_spec(5, rng),
    "selfadjoint-complex-d3": lambda rng: random_complex_selfadjoint_spec(3, rng),
    "rectangular": lambda rng: _rectangular_spec((0.25, 0.25, 0.5), rng),
    "hh-star-real-2x3": lambda rng: random_hh_star_spec(2, 3, rng),
    "hh-star-complex-3x2": lambda rng: random_hh_star_spec(3, 2, rng, complex_=True),
    "isi-palindromic": lambda rng: bs.isi_covariance(3, 3, tap_var=(1.0, 0.5, 1.0)),
    "isi-seeded": lambda rng: bs.isi_covariance(3, 3, tap_var=rng.uniform(0.2, 1.0, 3)),
    "nonsep-p2-q3": _family_spec,
}
FOLDED = {"isi-palindromic", "nonsep-p2-q3"}


def _law(name):
    return cov._law(SPECS[name](np.random.default_rng(sorted(SPECS).index(name) + 31)))


@pytest.mark.parametrize("name", SPECS)
def test_nc2_moment_matches_the_dense_recursion(name):
    law = _law(name)
    pat = law.eta.pattern
    assert (len(pat.classes) < len(pat.blocks)) == (name in FOLDED)
    for m in range(17):
        M, tr = bs.nc2_moment(law.eta, m, trace_weights=law.weights)
        M_ref, tr_ref = dense_nc2_moment(law.eta, m, law.weights)
        assert np.abs(M - M_ref).max() <= 1e-13 * np.abs(M_ref).max(), m
        assert abs(tr - tr_ref) <= 1e-13 * abs(tr_ref), m


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_edge_estimate_is_the_dense_formula_on_shipped_configs(path):
    # every default grid hangs on this value, bit for bit
    parsed = cli.parse_config(path)
    law = cli._MODELS[parsed.model].law(parsed.built)
    assert slv._edge_estimate(law.eta) == dense_edge_estimate(law.eta)


@pytest.mark.parametrize("name", SPECS)
def test_edge_estimate_matches_the_dense_formula(name):
    eta = _law(name).eta
    assert slv._edge_estimate(eta) == pytest.approx(dense_edge_estimate(eta), rel=1e-14, abs=0)


def _unreadable(eta):
    """Blank the dense tensor of a map whose pattern is built: any later read gives NaN."""
    eta.pattern  # built from the tensor while it is still readable
    object.__setattr__(eta, "tensor", np.broadcast_to(complex("nan"), eta.tensor.shape))


def _readings(law):
    """What the readers of a built law return: its default-grid density and moments 2-8."""
    if law.gram:
        dens = spc.density_gram(law.eta, int(np.count_nonzero(law.weights)))
    else:
        dens = spc.density_from_eta(law.eta, trace_weights=law.weights)
    return dens, [bs.nc2_moment(law.eta, m, trace_weights=law.weights) for m in range(2, 9)]


@pytest.mark.parametrize("config", ["isi_k4_l4", "selfadjoint_complex_d2"])
def test_nothing_reads_the_dense_tensor_after_the_build(config):
    built = cli.parse_config(CONFIGS / f"{config}.json").built
    dens, moments = _readings(cov._law(built))
    law = cov._law(built)
    _unreadable(law.eta)
    dens_nan, moments_nan = _readings(law)
    assert np.array_equal(dens.xs, dens_nan.xs) and np.array_equal(dens.ps, dens_nan.ps)
    for (M, tr), (M_nan, tr_nan) in zip(moments, moments_nan):
        assert np.array_equal(M, M_nan) and tr == tr_nan


def test_split_residuals_do_not_read_the_dense_tensor(monkeypatch):
    spec = cli.parse_config(CONFIGS / "isi_k4_l4.json").built
    xs = np.linspace(0.1, 1.4, 7)
    want = bs.solve_hh_star_grid(spec, xs, 1e-3, TIGHT) + [bs.solve_hh_star(spec, 0.7 + 0.01j)]
    law = cov._hh_star_law(spec)
    _unreadable(law.eta)
    monkeypatch.setattr(cov, "_hh_star_law", lambda spec: law)
    got = bs.solve_hh_star_grid(spec, xs, 1e-3, TIGHT) + [bs.solve_hh_star(spec, 0.7 + 0.01j)]
    for w, g in zip(want, got):
        assert np.isfinite(g.split_residuals).all()
        assert g.split_residuals == w.split_residuals
        assert np.array_equal(g.G1, w.G1) and np.array_equal(g.G2, w.G2)


def _mirrored_spec(rng):
    """3x3 hh_star whose two components mirror each other: each class holds an a and a b block."""
    M = [[1.0, 0.5], [0.5, 1.0]]
    pairs = [(i, j) for i in range(2) for j in range(2)]
    return bs.hh_star_covariance(3, 3, [(i + 1, 1, j + 1, 1, M[i][j]) for i, j in pairs]
                                 + [(3, k + 2, 3, l + 2, M[k][l]) for k, l in pairs])


SPLIT_SPECS = {
    "real-2x3": lambda rng: random_hh_star_spec(2, 3, rng),
    "complex-2x3": lambda rng: random_hh_star_spec(2, 3, rng, complex_=True),
    "real-3x2": lambda rng: random_hh_star_spec(3, 2, rng),
    "complex-3x2": lambda rng: random_hh_star_spec(3, 2, rng, complex_=True),
    "isi-palindromic": SPECS["isi-palindromic"],
    "mirrored-3x3": _mirrored_spec,
}


@pytest.mark.parametrize("tol", [1e-10, 1e-3])
@pytest.mark.parametrize("name", SPLIT_SPECS)
def test_split_residuals_are_the_dense_split_equations(name, tol):
    # ||z G1 - I - z eta1(G2) G1|| and ||z G2 - I - z eta2(G1) G2|| from the
    # returned blocks; the loose target leaves residuals near 1e-4 to compare
    spec = SPLIT_SPECS[name](np.random.default_rng(sorted(SPLIT_SPECS).index(name) + 47))
    pat = cov._hh_star_law(spec).eta.pattern
    assert (name == "mirrored-3x3") == any(len({b[0] < spec.a for b in c}) > 1 for c in pat.classes)
    config, e1, e2 = bs.SolverConfig(tol=tol), bs.eta1_map(spec), bs.eta2_map(spec)
    sols = bs.solve_hh_star_grid(spec, np.linspace(0.05, 3.0, 12), 1e-2, config)
    for s in sols + [bs.solve_hh_star(spec, 0.7 + 0.05j, config)]:
        want = (np.linalg.norm(s.z * s.G1 - np.eye(spec.a) - s.z * bs.eta_apply(e1, s.G2) @ s.G1),
                np.linalg.norm(s.z * s.G2 - np.eye(spec.b) - s.z * bs.eta_apply(e2, s.G1) @ s.G2))
        assert np.abs(np.subtract(s.split_residuals, want)).max() <= 1e-13


def test_results_expand_once_and_are_never_compressed(monkeypatch):
    # the engine hands its compressed batch on: a public result expands it
    # once, and moment_check reads g off the batch without expanding
    spec = cli.parse_config(CONFIGS / "isi_k4_l4.json").built
    eta = bs.eta_map(bs.hermitize_covariance(spec))
    expand, calls = cov.InvariantPattern.expand, []

    def refused(self, G):
        raise AssertionError("compressed a result the engine held compressed")

    def counted(self, Gc):
        calls.append(Gc.shape)
        return expand(self, Gc)

    monkeypatch.setattr(cov.InvariantPattern, "compress", refused)
    monkeypatch.setattr(cov.InvariantPattern, "expand", counted)
    assert bs.solve_hh_star(spec, 0.7 + 0.01j).converged and len(calls) <= 1
    calls.clear()
    assert len(bs.solve_hh_star_grid(spec, np.linspace(0.1, 1.4, 7), 1e-3)) == 7
    assert len(calls) <= 1
    calls.clear()
    assert bs.moment_check(eta).m0 == pytest.approx(1.0, abs=1e-6) and calls == []
