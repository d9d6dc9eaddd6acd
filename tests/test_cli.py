import json

import pytest

import blockspectra as bs
from blockspectra import cli, errors


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
        with pytest.raises(errors.ValidationError, match="real"):
            cli.parse_config(json.dumps({
                "model": "hh_star", "a": 1, "b": 1,
                "entries": [[1, 1, 1, 1, [1.0, 2.0]]],
            }))

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
        fam = cli._build_model(cfg)
        assert fam.t == 1 and fam.p == 2

    def test_snr_and_mc_validation(self):
        with pytest.raises(errors.ValidationError, match="snr"):
            cli.parse_config('{"model": "isi", "K": 2, "L": 2, "snr": [0.0]}')
        with pytest.raises(errors.ValidationError, match="mc"):
            cli.parse_config('{"model": "isi", "K": 2, "L": 2, "mc": {"N": 4}}')

    @pytest.mark.parametrize("payload", [
        ISI_CONFIG,
        {"model": "selfadjoint", "d": 1, "entries": [[1, 1, 1, 1, 1.0]],
         "grid": {"xmin": -2.5, "xmax": 2.5, "points": 64, "epsilon": 1e-4}},
        {"model": "isi", "K": 2, "L": 3, "taps": [1.0, 0.5, 0.25],
         "snr": [1.0, 10.0], "mc": {"N": [2, 4], "realizations": 3, "seed": 5}},
        {"model": "rectangular", "alpha": [1 / 3, 2 / 3],
         "entries": [[1, 1, 1, 1, 1.0], [2, 2, 2, 2, 1.0]]},
        MODEL_CONFIGS["hh_star"],
        MODEL_CONFIGS["nonsep"],
    ])
    def test_round_trip(self, payload):
        cfg = cli.parse_config(json.dumps(payload))
        assert cli.parse_config(cli.config_to_json(cfg)) == cfg


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
        cli._build_model.cache_clear()
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
            "solver": {"max_iter": 2, "newton": False},
        }
        code = cli.main([
            "--config", str(_write(tmp_path, payload)), "--command", "density",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "NoConvergence"

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
