import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blockspectra as bs
from blockspectra import cli, errors

from conftest import random_complex_selfadjoint_spec

ROOT = Path(__file__).resolve().parent.parent

ISI_CONFIG = {
    "model": "isi",
    "K": 2,
    "L": 2,
    "grid": {"points": 160},
    "solver": {"tol": 1e-11, "newton": True},
}

# one small config per model, on the default 512-point grid
MODEL_CONFIGS = {
    "selfadjoint": {"model": "selfadjoint", "d": 2,
                    "entries": [[1, 1, 1, 1, 1.0], [2, 2, 2, 2, 1.0],
                                [1, 2, 2, 1, 0.5], [2, 1, 1, 2, 0.5]]},
    "hh_star": {"model": "hh_star", "a": 1, "b": 2,
                "entries": [[1, 1, 1, 1, 1.0], [1, 2, 1, 2, 0.5]]},
    "isi": {"model": "isi", "K": 2, "L": 2},
    "rectangular": {"model": "rectangular", "alpha": [1 / 3, 2 / 3],
                    "entries": [[1, 1, 1, 1, 1.0], [2, 2, 2, 2, 1.0]]},
    "nonsep": {"model": "nonsep",
               "psi": [[[1.0, 0.0], [0.0, 0.5]], [[0.5, 0.0], [0.0, 1.0]]],
               "psi_hat": [[[1.0, 0.2], [0.2, 0.8]], [[0.6, 0.0], [0.0, [0.6, 0.0]]]]},
}


# a non-finite number in each kind of numeric field, and the field it names
NON_FINITE = {
    "grid.epsilon-nan": (dict(ISI_CONFIG, grid={"epsilon": math.nan}), "grid.epsilon"),
    "grid.epsilon-inf": (dict(ISI_CONFIG, grid={"epsilon": math.inf}), "grid.epsilon"),
    "grid.xmin": (dict(ISI_CONFIG, grid={"xmin": -math.inf, "xmax": 2.0}), "grid.xmin"),
    "grid.xmax": (dict(ISI_CONFIG, grid={"xmin": 0.0, "xmax": math.nan}), "grid.xmax"),
    "solver.tol": (dict(ISI_CONFIG, solver={"tol": math.inf}), "solver.tol"),
    "psi": (dict(MODEL_CONFIGS["nonsep"],
                 psi=[[[math.nan, 0.0], [0.0, 0.5]], [[0.5, 0.0], [0.0, 1.0]]]), "psi[0][0]"),
    # an integer beyond the float range
    "entries": (dict(MODEL_CONFIGS["selfadjoint"], entries=[[1, 1, 1, 1, 10**400]]), "entries[0]"),
}


def _write(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestParse:
    def test_isi_defaults(self, tmp_path):
        cfg = cli.parse_config(_write(tmp_path, {"model": "isi", "K": 4, "L": 4}))
        assert cfg.model == "isi" and cfg.K == 4 and cfg.L == 4
        assert cfg.taps is None  # unit taps
        assert cfg.grid.points == 512 and cfg.grid.epsilon is None
        assert cfg.solver.tol == 1e-10 and cfg.solver.newton is True

    def test_text_source(self):
        cfg = cli.parse_config('{"model": "isi", "K": 2, "L": 2}')
        assert cfg.K == 2

    def test_missing_model(self):
        with pytest.raises(errors.ValidationError) as err:
            cli.parse_config('{"K": 2}')
        assert err.value.field == "model"

    def test_missing_isi_parameter(self):
        with pytest.raises(errors.ValidationError):
            cli.parse_config('{"model": "isi", "K": 2}')

    def test_unknown_key_rejected(self):
        with pytest.raises(errors.ValidationError, match="unknown"):
            cli.parse_config('{"model": "isi", "K": 2, "L": 2, "frobnicate": 1}')
        with pytest.raises(errors.ValidationError, match="unknown"):
            cli.parse_config('{"model": "isi", "K": 2, "L": 2, "grid": {"nope": 3}}')

    def test_malformed_json_position(self):
        with pytest.raises(errors.ParseError, match="line"):
            cli.parse_config('{"model": "isi",')

    def test_complex_entries(self):
        cfg = cli.parse_config(json.dumps({
            "model": "selfadjoint", "d": 2,
            "entries": [[1, 1, 1, 1, 1.0], [2, 2, 2, 2, 1.0],
                        [1, 1, 2, 2, [0.5, 0.0]], [1, 2, 2, 1, 1.0]],
        }))
        assert cfg.entries[2][4] == 0.5 + 0.0j

    def test_hh_star_rejects_complex(self):
        """A complex self-paired value tau(1,1;1,1), a variance, is refused."""
        with pytest.raises(errors.ValidationError, match="conflicting"):
            cli.parse_config(json.dumps({
                "model": "hh_star", "a": 1, "b": 1,
                "entries": [[1, 1, 1, 1, [1.0, 2.0]]],
            }))

    def test_hh_star_complex_entries(self):
        cfg = cli.parse_config(json.dumps(dict(
            MODEL_CONFIGS["hh_star"], entries=[[1, 1, 1, 1, 1.0], [1, 2, 1, 2, 0.5],
                                               [1, 1, 1, 2, [0.0, 0.5]]])))
        table = {e[:4]: e[4] for e in cfg.built.entries}
        assert table[(1, 2, 1, 1)] == -0.5j

    def test_semantic_model_errors_surface_as_validation(self):
        with pytest.raises(errors.ValidationError):
            cli.parse_config(json.dumps({
                "model": "selfadjoint", "d": 2, "entries": [[1, 3, 1, 1, 1.0]],
            }))

    def test_nonsep_matrices(self):
        cfg = cli.parse_config(json.dumps({
            "model": "nonsep",
            "psi": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]],
            "psi_hat": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
        }))
        spec = cfg.built
        assert spec.kind == "hh_star" and spec.a == spec.b == 2

    def test_snr_and_mc_validation(self):
        with pytest.raises(errors.ValidationError, match="snr"):
            cli.parse_config('{"model": "isi", "K": 2, "L": 2, "snr": [0.0]}')
        with pytest.raises(errors.ValidationError, match="mc"):
            cli.parse_config('{"model": "isi", "K": 2, "L": 2, "mc": {"N": 4}}')

    @pytest.mark.parametrize("section", ["grid", "solver", "mc"])
    @pytest.mark.parametrize("value", [None, 5, "ab", [1]], ids=["null", "number", "text", "list"])
    def test_section_must_be_an_object(self, section, value, tmp_path, capsys):
        payload = dict(ISI_CONFIG, **{section: value})
        with pytest.raises(errors.ValidationError) as err:
            cli.parse_config(json.dumps(payload))
        assert err.value.field == section
        code = cli.main([
            "--config", str(_write(tmp_path, payload)), "--command", "density",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "ValidationError"

    @pytest.mark.parametrize("payload, fields", [
        (ISI_CONFIG,
         dict(model="isi", K=2, L=2, grid=cli.GridConfig(points=160),
              solver=bs.SolverConfig(tol=1e-11))),
        ({"model": "selfadjoint", "d": 1, "entries": [[1, 1, 1, 1, 1.0]],
          "grid": {"xmin": -2.5, "xmax": 2.5, "points": 64, "epsilon": 1e-4}},
         dict(model="selfadjoint", d=1, entries=((1, 1, 1, 1, 1.0 + 0j),),
              grid=cli.GridConfig(xmin=-2.5, xmax=2.5, points=64, epsilon=1e-4))),
        ({"model": "isi", "K": 2, "L": 3, "taps": [1.0, 0.5, 0.25],
          "snr": [1.0, 10.0], "mc": {"N": [2, 4], "realizations": 3, "seed": 5}},
         dict(model="isi", K=2, L=3, taps=(1.0, 0.5, 0.25), snr=(1.0, 10.0),
              mc=cli.McConfig(N=(2, 4), realizations=3, seed=5))),
        ({"model": "rectangular", "alpha": [1 / 3, 2 / 3],
          "entries": [[1, 1, 1, 1, 1.0], [2, 2, 2, 2, 1.0]]},
         dict(model="rectangular", alpha=(1 / 3, 2 / 3),
              entries=((1, 1, 1, 1, 1.0 + 0j), (2, 2, 2, 2, 1.0 + 0j)))),
        (MODEL_CONFIGS["hh_star"],
         dict(model="hh_star", a=1, b=2,
              entries=((1, 1, 1, 1, 1.0 + 0j), (1, 2, 1, 2, 0.5 + 0j)))),
        (MODEL_CONFIGS["nonsep"],
         dict(model="nonsep",
              psi=(((1, 0), (0, 0.5)), ((0.5, 0), (0, 1))),
              psi_hat=(((1, 0.2), (0.2, 0.8)), ((0.6, 0), (0, 0.6))))),
    ], ids=[f"payload{i}" for i in range(6)])
    def test_round_trip(self, payload, fields):
        """Each payload parses to exactly the config its fields spell out;
        every field the payload leaves out keeps its default."""
        assert cli.parse_config(json.dumps(payload)) == cli.ProblemConfig(**fields)


class TestEmit:
    def test_csv_formatting(self, tmp_path):
        art = cli.CsvArtifact(("x", "density"), ((0.1, 1 / 3), (2, 0.25)))
        path = cli.emit(art, tmp_path / "t.csv")
        text = path.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "x,density"
        assert lines[1].split(",")[1] == "%.17g" % (1 / 3)
        assert not list(tmp_path.glob("*.tmp"))

    def test_json_artifact(self, tmp_path):
        path = cli.emit(cli.JsonArtifact({"b": 1, "a": 2}), tmp_path / "t.json")
        assert json.loads(path.read_text()) == {"a": 2, "b": 1}

    def test_io_error(self):
        with pytest.raises(errors.IoError):
            cli.emit(cli.JsonArtifact({}), "/nonexistent-dir/x.json")


class TestCommands:
    def test_density_artifacts_and_header(self, tmp_path):
        cfg = cli.parse_config(json.dumps(ISI_CONFIG))
        summary = cli.run("density", cfg, out_dir=tmp_path)
        csv = (tmp_path / "density.csv").read_text().strip().split("\n")
        assert csv[0] == "x,density"
        assert len(csv) == 1 + 160
        assert abs(summary["diagnostics"]["mass"] - 1.0) <= 5e-3

    def test_capacity_header_and_columns(self, tmp_path):
        payload = dict(ISI_CONFIG)
        payload["snr"] = [0.5, 5.0]
        payload["mc"] = {"N": [2, 4], "realizations": 5, "seed": 3}
        cfg = cli.parse_config(json.dumps(payload))
        cli.run("capacity", cfg, out_dir=tmp_path)
        lines = (tmp_path / "capacity.csv").read_text().strip().split("\n")
        assert lines[0] == "snr,bits,bits_mc_N2,bits_mc_N4"
        assert len(lines) == 3

    def test_capacity_requires_snr(self, tmp_path):
        cfg = cli.parse_config(json.dumps(ISI_CONFIG))
        with pytest.raises(errors.ValidationError, match="snr"):
            cli.run("capacity", cfg, out_dir=tmp_path)

    def test_capacity_mc_tracks_asymptote_at_n10(self, tmp_path):
        payload = dict(ISI_CONFIG)
        payload["grid"] = {"points": 400, "epsilon": 1e-4}
        payload["snr"] = [0.1, 1.0, 10.0]
        payload["mc"] = {"N": [10], "realizations": 50, "seed": 7}
        cfg = cli.parse_config(json.dumps(payload))
        cli.run("capacity", cfg, out_dir=tmp_path)
        lines = (tmp_path / "capacity.csv").read_text().strip().split("\n")
        assert lines[0] == "snr,bits,bits_mc_N10"
        for line in lines[1:]:
            _, bits, mc = (float(v) for v in line.split(","))
            assert abs(mc / bits - 1.0) < 0.03

    def test_mc_compare_artifacts(self, tmp_path):
        payload = dict(ISI_CONFIG)
        payload["mc"] = {"N": 25, "realizations": 8, "seed": 11}
        cfg = cli.parse_config(json.dumps(payload))
        summary = cli.run("mc-compare", cfg, out_dir=tmp_path)
        eig = (tmp_path / "eigenvalues.csv").read_text().strip().split("\n")
        assert eig[0] == "eigenvalue"
        assert len(eig) == 1 + 8 * 2 * 25
        hist = json.loads((tmp_path / "histogram.json").read_text())
        assert set(hist) == {"bin_edges", "counts"}
        ks = json.loads((tmp_path / "ks_summary.json").read_text())
        assert ks["ks_distance"] == summary["ks_distance"] < 0.2

    def test_mc_compare_needs_single_n(self, tmp_path):
        payload = dict(ISI_CONFIG)
        payload["mc"] = {"N": [2, 4], "realizations": 2, "seed": 0}
        cfg = cli.parse_config(json.dumps(payload))
        with pytest.raises(errors.ValidationError, match="single"):
            cli.run("mc-compare", cfg, out_dir=tmp_path)

    def test_moments_semicircle_catalan(self, tmp_path):
        cfg = cli.parse_config(json.dumps({
            "model": "selfadjoint", "d": 1, "entries": [[1, 1, 1, 1, 1.0]],
            "grid": {"epsilon": 2e-5},
        }))
        summary = cli.run("moments", cfg, out_dir=tmp_path)
        table = {int(k): (r, d) for k, r, d in summary["table"]}
        for k, want in ((2, 1.0), (4, 2.0), (6, 5.0)):
            rec, dens = table[k]
            assert rec == pytest.approx(want, abs=1e-12)
            assert dens == pytest.approx(want, rel=1e-2)
        lines = (tmp_path / "moments.csv").read_text().strip().split("\n")
        assert lines[0] == "order,moment_recursion,moment_density"

    @pytest.mark.parametrize("model", cli.MODELS)
    def test_density_and_moments_every_model(self, model, tmp_path):
        cfg = cli.parse_config(json.dumps(MODEL_CONFIGS[model]))
        density = cli.run("density", cfg, out_dir=tmp_path)
        assert abs(density["diagnostics"]["mass"] - 1.0) <= 5e-3
        moments = cli.run("moments", cfg, out_dir=tmp_path)
        assert moments["diagnostics"] == density["diagnostics"]
        assert len(moments["table"]) == 4
        for _, recursion, dens in moments["table"]:
            assert dens == pytest.approx(recursion, rel=1e-2)

    def test_model_built_once_per_config(self, tmp_path, monkeypatch):
        calls = []
        build = cli.cov.isi_covariance
        monkeypatch.setattr(cli.cov, "isi_covariance",
                            lambda *a, **kw: calls.append(a) or build(*a, **kw))
        cfg = cli.parse_config(json.dumps(ISI_CONFIG))
        cli.run("density", cfg, out_dir=tmp_path)
        cli.run("moments", cfg, out_dir=tmp_path)
        assert len(calls) == 1

    def test_end_to_end_determinism(self, tmp_path):
        payload = dict(ISI_CONFIG)
        payload["mc"] = {"N": 20, "realizations": 4, "seed": 21}
        cfg = cli.parse_config(json.dumps(payload))
        cli.run("mc-compare", cfg, out_dir=tmp_path / "a")
        cli.run("mc-compare", cfg, out_dir=tmp_path / "b")
        for name in ("eigenvalues.csv", "histogram.json", "ks_summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        payload = dict(ISI_CONFIG)
        payload["mc"] = {"N": 20, "realizations": 4, "seed": 21}
        cfg = cli.parse_config(json.dumps(payload))
        cli.run("mc-compare", cfg, out_dir=tmp_path / "a", seed=99)
        cli.run("mc-compare", cfg, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "eigenvalues.csv").read_bytes() != (
            tmp_path / "b" / "eigenvalues.csv").read_bytes()

    def test_threads_give_identical_bytes(self, tmp_path):
        payload = dict(ISI_CONFIG)
        payload["mc"] = {"N": 20, "realizations": 6, "seed": 2}
        cfg = cli.parse_config(json.dumps(payload))
        cli.run("mc-compare", cfg, out_dir=tmp_path / "a", threads=1)
        cli.run("mc-compare", cfg, out_dir=tmp_path / "b", threads=4)
        assert (tmp_path / "a" / "eigenvalues.csv").read_bytes() == (
            tmp_path / "b" / "eigenvalues.csv").read_bytes()


# every usage error of run: (command, config, run keywords, BLOCKSPECTRA_THREADS)
USAGE_ERRORS = {
    "capacity-no-snr": ("capacity", ISI_CONFIG, {}, None),
    "capacity-selfadjoint": ("capacity", dict(MODEL_CONFIGS["selfadjoint"], snr=[1.0]), {}, None),
    "mc-compare-no-mc": ("mc-compare", ISI_CONFIG, {}, None),
    "mc-compare-two-n": ("mc-compare",
                         dict(ISI_CONFIG, mc={"N": [2, 4], "realizations": 2, "seed": 0}), {}, None),
    "negative-seed": ("density", ISI_CONFIG, {"seed": -7}, None),
    "bad-env-threads": ("density", ISI_CONFIG, {}, "soup"),
    "negative-threads": ("density", ISI_CONFIG, {"threads": -1}, None),
    "unknown-command": ("spectrum", ISI_CONFIG, {}, None),
}


@pytest.mark.parametrize("command, payload, kwargs, env_threads",
                         USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_error_before_any_output_or_solve(
    command, payload, kwargs, env_threads, tmp_path, monkeypatch
):
    def solve(config):
        raise AssertionError("solved before refusing the command")

    monkeypatch.setattr(cli, "_solve_density", solve)
    if env_threads is not None:
        monkeypatch.setenv(cli.ENV_THREADS, env_threads)
    cfg = cli.parse_config(json.dumps(payload))
    with pytest.raises(errors.ValidationError):
        cli.run(command, cfg, out_dir=tmp_path / "out", **kwargs)
    assert not (tmp_path / "out").exists()


class TestMain:
    def test_exit_zero_and_summary(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, ISI_CONFIG)
        code = cli.main([
            "--config", str(cfg_path), "--command", "density",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["command"] == "density"
        assert (tmp_path / "out" / "density.csv").exists()

    def test_complex_selfadjoint_config(self, tmp_path, capsys):
        path = ROOT / "configs" / "selfadjoint_complex_d2.json"
        # the shipped entries are the seeded recipe's sigma
        recipe = random_complex_selfadjoint_spec(2, np.random.default_rng(1))
        assert cli.parse_config(path).built.entries == recipe.entries
        summaries = {}
        for command in ("density", "moments", "mc-compare"):
            code = cli.main(["--config", str(path), "--command", command,
                             "--out", str(tmp_path / command)])
            assert code == 0
            summaries[command] = json.loads(capsys.readouterr().out)
            assert abs(summaries[command]["diagnostics"]["mass"] - 1.0) <= 5e-3
        for _, recursion, dens in summaries["moments"]["table"]:
            assert dens == pytest.approx(recursion, rel=1e-2)
        assert summaries["mc-compare"]["ks_distance"] <= 0.05

    def test_nonsep_mc_compare(self, tmp_path, capsys):
        """The fading model is sampled as its hh_star spec, against its density."""
        code = cli.main(["--config", str(ROOT / "configs" / "nonsep_t2.json"),
                         "--command", "mc-compare", "--out", str(tmp_path)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["ks_distance"] <= 0.05

    def test_usage_error_exit_two(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, {"model": "isi", "K": 2})
        code = cli.main([
            "--config", str(cfg_path), "--command", "density", "--out", str(tmp_path),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ValidationError"

    def test_numerical_failure_exit_one(self, tmp_path, capsys):
        payload = {
            "model": "selfadjoint", "d": 1, "entries": [[1, 1, 1, 1, 1.0]],
            "grid": {"xmin": -2.5, "xmax": 2.5, "points": 16, "epsilon": 1e-4},
            "solver": {"max_iter": 2},
        }
        code = cli.main([
            "--config", str(_write(tmp_path, payload)), "--command", "density",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "NoConvergence"

    def test_mass_pin_exit_one(self, tmp_path, capsys):
        # the semicircle cut to [-1, 1] keeps 0.609 of its mass
        payload = json.loads((ROOT / "configs" / "semicircle.json").read_text())
        payload["grid"].update(xmin=-1.0, xmax=1.0)
        cfg_path = _write(tmp_path, payload)
        with pytest.warns(RuntimeWarning, match="mass"):
            with pytest.raises(errors.InvariantViolation, match=r"mass 0\.60\d+ violates"):
                cli.run("density", cli.parse_config(cfg_path), out_dir=tmp_path / "run")
        with pytest.warns(RuntimeWarning, match="mass"):
            code = cli.main([
                "--config", str(cfg_path), "--command", "density",
                "--out", str(tmp_path / "out"),
            ])
        assert code == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "InvariantViolation"
        assert not list(tmp_path.glob("*/density.csv"))

    def test_newton_false_exit_two(self, tmp_path, capsys):
        payload = dict(ISI_CONFIG, solver={"newton": False})
        code = cli.main([
            "--config", str(_write(tmp_path, payload)), "--command", "density",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ValidationError" and "solver.newton" in err["message"]

    @pytest.mark.parametrize("payload, field", NON_FINITE.values(), ids=NON_FINITE.keys())
    def test_non_finite_number_exit_two(self, payload, field, tmp_path, capsys):
        with pytest.raises(errors.ValidationError) as err:
            cli.parse_config(json.dumps(payload))
        assert err.value.field == field
        code = cli.main([
            "--config", str(_write(tmp_path, payload)), "--command", "density",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ValidationError" and field in err["message"]
        assert not (tmp_path / "out").exists()

    def test_negative_seed_refused(self, tmp_path, capsys):
        # SeedSequence must never see abs(seed): -7 and 7 would draw alike
        payload = dict(ISI_CONFIG, mc={"N": 4, "realizations": 2, "seed": 7})
        with pytest.raises(errors.ValidationError) as err:
            cli.parse_config(json.dumps(dict(payload, mc=dict(payload["mc"], seed=-7))))
        assert err.value.field == "mc.seed"
        with pytest.raises(errors.ValidationError):
            cli.run("mc-compare", cli.parse_config(json.dumps(payload)),
                    out_dir=tmp_path / "run", seed=-7)
        code = cli.main([
            "--config", str(_write(tmp_path, payload)),
            "--command", "mc-compare", "--seed", "-7", "--out", str(tmp_path / "main"),
        ])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "ValidationError"
        assert not (tmp_path / "run").exists() and not (tmp_path / "main").exists()

    def test_argparse_usage_exit_two(self, capsys):
        assert cli.main(["--command", "density"]) == 2
        capsys.readouterr()

    def test_env_threads(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.ENV_THREADS, "2")
        cfg_path = _write(tmp_path, ISI_CONFIG)
        code = cli.main([
            "--config", str(cfg_path), "--command", "density",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        capsys.readouterr()

    def test_bad_env_threads(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.ENV_THREADS, "soup")
        cfg_path = _write(tmp_path, ISI_CONFIG)
        code = cli.main([
            "--config", str(cfg_path), "--command", "density",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        capsys.readouterr()

    def test_auto_threads_count_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cli._resolve_threads(0) == 1
        monkeypatch.setenv(cli.ENV_THREADS, "0")
        assert cli._resolve_threads(None) == 1

    def test_auto_threads_without_affinity(self, monkeypatch):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        assert cli._resolve_threads(0) == 3
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert cli._resolve_threads(0) == 1


def test_artifacts_match_checked_in_digests():
    """Every shipped config's artifacts hash to scripts/artifact_digests.txt.

    The script runs in its own process, so its one-thread BLAS pin applies
    before numpy loads.
    """
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "artifact_digests.py")],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == (ROOT / "scripts" / "artifact_digests.txt").read_text()
