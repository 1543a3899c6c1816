"""End-to-end command-line tests. Each run works in a temporary directory
against small datasets; the heavier train/predict flows share one fitted
run directory per module."""
import json
import math
import shutil

import numpy as np
import pytest

from embedlearn import cli, jsonio
from embedlearn.cli import load_run_config, main
from embedlearn.datagen import load_dataset
from embedlearn.embedding import load_model, make_embedding, save_model
from embedlearn.errors import ConfigError
from embedlearn.qla import SIGMA_X, SIGMA_Z, DimSpec, kron
from embedlearn.train import TrainConfig, select_d_er

MARKOV_PAIRS = jsonio.matrix_to_pairs(
    kron(0.3 * SIGMA_X, np.eye(4, dtype=np.complex128)))
NAN_HAMILTONIAN = [[math.nan, 0.0]] + MARKOV_PAIRS[1:]
ZERO = np.array([[1, 0], [0, 0]], dtype=np.complex128)


def write_config(path, extra):
    cfg = {
        "seed": 9,
        "data": {"hamiltonian": MARKOV_PAIRS, "n_train": 120, "n_val": 120},
    }
    cfg.update(extra)
    path.write_text(json.dumps(cfg))
    return str(path)


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    return lines[0], [ln.split(",") for ln in lines[1:]]


@pytest.fixture(scope="module")
def fitted_run(tmp_path_factory):
    """Generate + train on fast unitary-reservoir data, shared read-only."""
    tmp = tmp_path_factory.mktemp("fitted")
    cfg = write_config(tmp / "cfg.json", {
        "train": {"candidates": [1], "epochs": 30, "batch_size": 120,
                  "restarts": 1, "val_every": 10},
    })
    out = tmp / "run"
    assert main(["generate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert main(["train", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    return cfg, out


@pytest.fixture(scope="module")
def exact_model_run(tmp_path_factory):
    """Dataset plus a hand-saved exact model of the generating dynamics,
    with a selection table pointing at it."""
    tmp = tmp_path_factory.mktemp("exact")
    cfg = write_config(tmp / "cfg.json", {
        "predict": {"times": [0.0, 1.0, 2.0, 3.0]},
        "compare": {"gate": "x", "gate_period": 2, "times": [0, 1, 2, 3, 4]},
    })
    out = tmp / "run"
    assert main(["generate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    model = make_embedding(DimSpec(d_s=2, d_er=1), 1.0,
                           kron(0.3 * SIGMA_X, np.eye(4, dtype=np.complex128)),
                           ZERO.copy())
    save_model(model, out / "model_der1.json")
    (out / "selection.csv").write_text("d_er,val_per_step,selected\n1,-0.5,1\n")
    return cfg, out


class TestConfigResolution:
    def test_defaults_without_file(self):
        resolved = load_run_config(None, None)
        assert resolved["seed"] == 0
        assert resolved["train"]["candidates"] == [1, 2]

    def test_seed_override_wins(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"seed": 5}))
        assert load_run_config(str(p), 12)["seed"] == 12
        assert load_run_config(str(p), None)["seed"] == 5

    def test_unknown_top_level_key_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"serde": 1}))
        with pytest.raises(ConfigError, match="unknown config keys"):
            load_run_config(str(p), None)

    def test_unknown_section_key_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"train": {"learning_rate": 0.1}}))
        with pytest.raises(ConfigError, match="learning_rate"):
            load_run_config(str(p), None)

    def test_malformed_file_is_config_error(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{nope")
        with pytest.raises(ConfigError, match="valid JSON"):
            load_run_config(str(p), None)
        p.write_text(json.dumps([1, 2]))
        with pytest.raises(ConfigError, match="object"):
            load_run_config(str(p), None)
        p.write_text(json.dumps({"data": 7}))
        with pytest.raises(ConfigError, match="section 'data'"):
            load_run_config(str(p), None)


class TestIntegerFields:
    @pytest.mark.parametrize("command,extra", [
        ("generate", {"seed": True}),
        ("generate", {"data": {"hamiltonian": MARKOV_PAIRS, "n_train": 120.0,
                               "n_val": 120}}),
        ("train", {"train": {"epochs": 2.5}}),
        ("train", {"train": {"restarts": True}}),
        ("train", {"train": {"batch_size": "7"}}),
        ("train", {"train": {"candidates": [1, 1.5]}}),
        ("predict", {"predict": {"d_er": 1.5}}),
        ("predict", {"predict": {"d_er": 1, "times": [1.0],
                                 "n_values": [60.5]}}),
        ("tomo", {"tomo": {"times": [1, 2.5]}}),
        ("tomo", {"tomo": {"times": [1], "shots_per_channel": 30,
                           "k_values": [2.0]}}),
        ("compare", {"compare": {"times": [0, 1.0], "gate_period": 0}}),
    ])
    def test_non_integers_exit_two(self, exact_model_run, tmp_path, command,
                                   extra, capsys):
        # Refused outright rather than truncated: resolved_config.json
        # records the raw value, so a truncated run would misreport itself.
        _, src = exact_model_run
        out = tmp_path / "run"
        shutil.copytree(src, out)
        cfg = write_config(tmp_path / "c.json", extra)
        assert main([command, "--config", cfg, "--out", str(out),
                     "--quiet"]) == 2
        assert "must be an integer" in capsys.readouterr().err


class TestConfigShapes:
    @pytest.mark.parametrize("command,extra", [
        ("bayes", {"bayes": {"d_er": 1, "n_records": 500}}),
        ("bayes", {"bayes": {"d_er": 1, "n_records": 0}}),
        ("tomo", {"tomo": {"times": 5}}),
        ("tomo", {"tomo": {"times": None}}),
        ("compare", {"compare": {"times": 5, "gate_period": 0}}),
        ("compare", {"compare": {"times": None, "gate_period": 0}}),
        ("train", {"train": {"candidates": 1}}),
        ("predict", {"predict": {"d_er": 1, "times": [1.0], "n_values": 60}}),
        ("tomo", {"tomo": {"times": [1], "k_values": []}}),
        ("bayes", {"bayes": {"d_er": 1, "times": [1.0, -1.0]}}),
        ("bayes", {"bayes": {"d_er": 1, "times": 5}}),
        ("bayes", {"bayes": {"d_er": 1, "n_draws": 1}}),
        ("generate", {"data": {"tau": math.nan}}),
        ("generate", {"data": {"delta_t": math.nan}}),
        ("predict", {"predict": {"d_er": 1, "times": [math.nan]}}),
        ("train", {"train": {"lr": math.nan}}),
        ("train", {"train": {"lr": math.inf}}),
        ("tomo", {"tomo": {"shots_per_channel": 0}}),
        ("tomo", {"tomo": {"shots_per_channel": -3}}),
        ("generate", {"data": {"tau": "1.0"}}),
        ("train", {"train": {"lr": True}}),
        ("bayes", {"bayes": {"d_er": 1, "lr": "0.01"}}),
        ("generate", {"data": {"hamiltonian": NAN_HAMILTONIAN}}),
        ("generate", {"data": {"tau": 10 ** 400}}),
        ("predict", {"predict": {"d_er": 1, "times": [1.0, 10 ** 400]}}),
    ])
    def test_bad_shapes_exit_two(self, exact_model_run, tmp_path, monkeypatch,
                                 command, extra, capsys):
        # bayes settings are checked before the posterior is fitted.
        def no_fit(*args, **kwargs):
            raise AssertionError("fit_posterior must not run")

        monkeypatch.setattr(cli, "fit_posterior", no_fit)
        _, src = exact_model_run
        out = tmp_path / "run"
        shutil.copytree(src, out)
        cfg = write_config(tmp_path / "c.json", extra)
        assert main([command, "--config", cfg, "--out", str(out),
                     "--quiet"]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (out / "posterior.json").exists()


class TestGenerate:
    def test_small_run_writes_split_files(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           {"data": {"hamiltonian": None, "n_train": 4,
                                     "n_val": 4}})
        out = tmp_path / "run"
        assert main(["generate", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        for name in ("train.jsonl", "val.jsonl"):
            assert len((out / name).read_text().strip().split("\n")) == 5
        assert (out / "resolved_config.json").exists()
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["data"]["n_train"] == 4
        train = load_dataset(out / "train.jsonl")
        val = load_dataset(out / "val.jsonl")
        assert len(train.records) == 4
        assert len(val.records) == 4

    def test_same_seed_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           {"data": {"hamiltonian": None, "n_train": 6,
                                     "n_val": 3}})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--config", cfg, "--out", str(out_a),
                     "--quiet"]) == 0
        assert main(["generate", "--config", cfg, "--out", str(out_b),
                     "--quiet"]) == 0
        for name in ("train.jsonl", "val.jsonl", "resolved_config.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    @pytest.mark.parametrize("exc", [MemoryError("cannot allocate"),
                                     np.linalg.LinAlgError("no convergence")])
    def test_resource_and_linalg_failures_exit_four(self, tmp_path, monkeypatch,
                                                    capsys, exc):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "generate_trajectory", fail)
        cfg = write_config(tmp_path / "c.json", {})
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "x"),
                     "--quiet"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(exc) in err

    def test_invalid_sizes_exit_two(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           {"data": {"hamiltonian": None, "n_train": 0,
                                     "n_val": 4}})
        assert main(["generate", "--config", cfg, "--out",
                     str(tmp_path / "x"), "--quiet"]) == 2


class TestTrainAndValidate:
    def test_outputs_present(self, fitted_run):
        _, out = fitted_run
        assert (out / "model_der1.json").exists()
        assert (out / "model_best.json").exists()
        assert (out / "selection.csv").exists()
        model = load_model(out / "model_der1.json")
        assert model.dims.d_er == 1

    def test_selection_table_marks_winner(self, fitted_run):
        _, out = fitted_run
        header, rows = read_rows(out / "selection.csv")
        assert header == "d_er,val_per_step,selected"
        assert [r[0] for r in rows] == ["1"]
        assert rows[0][2] == "1"

    def test_curve_rows_match_epochs_run(self, fitted_run):
        _, out = fitted_run
        header, rows = read_rows(out / "curves_der1.csv")
        assert header == "epoch,train_per_step,val_per_step,seconds"
        epochs = [int(r[0]) for r in rows]
        assert epochs == list(range(1, len(epochs) + 1))
        assert len(epochs) <= 30

    def test_selection_matches_select_d_er(self, fitted_run):
        _, out = fitted_run
        tr = load_dataset(out / "train.jsonl")
        va = load_dataset(out / "val.jsonl")
        tc = TrainConfig(d_er=1, epochs=30, batch_size=120, seed=9, restarts=1,
                         val_every=10)
        best, table, _, _ = select_d_er(tr, va, [1], tc)
        _, rows = read_rows(out / "selection.csv")
        assert rows == [[str(k), repr(v), "1" if k == best else "0"]
                        for k, v in table]

    def test_validate_recomputes_recorded_likelihood(self, fitted_run):
        # Serialization must be lossless: scoring the saved model reproduces
        # the value recorded at selection time bit for bit.
        cfg, out = fitted_run
        assert main(["validate", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        _, sel_rows = read_rows(out / "selection.csv")
        header, val_rows = read_rows(out / "validation.csv")
        assert header == "file,d_er,train_per_step,val_per_step"
        assert float(val_rows[0][3]) == float(sel_rows[0][1])

    def test_missing_dataset_exits_three(self, fitted_run, tmp_path):
        cfg, _ = fitted_run
        assert main(["train", "--config", cfg, "--out",
                     str(tmp_path / "nodata"), "--quiet"]) == 3

    def test_missing_models_exit_three(self, fitted_run, tmp_path):
        cfg, out = fitted_run
        fresh = tmp_path / "models_only"
        fresh.mkdir()
        for name in ("train.jsonl", "val.jsonl"):
            (fresh / name).write_bytes((out / name).read_bytes())
        assert main(["validate", "--config", cfg, "--out", str(fresh),
                     "--quiet"]) == 3


class TestPredict:
    def test_exact_model_recovers_exact_maps(self, exact_model_run):
        cfg, out = exact_model_run
        assert main(["predict", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        header, rows = read_rows(out / "choi_error.csv")
        assert header == "time,choi_error"
        assert [r[0] for r in rows] == ["1.0", "2.0", "3.0"]
        assert all(float(r[1]) < 1e-10 for r in rows)

    def test_time_zero_echoes_initial_state(self, exact_model_run):
        cfg, out = exact_model_run
        main(["predict", "--config", cfg, "--out", str(out), "--quiet"])
        header, rows = read_rows(out / "bloch.csv")
        assert header == ("time,x_model,y_model,z_model,"
                          "x_exact,y_exact,z_exact")
        first = [float(x) for x in rows[0]]
        assert first == [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0]

    def test_error_vs_n_scan(self, exact_model_run, tmp_path):
        cfg_path = tmp_path / "scan.json"
        _, out = exact_model_run
        write_config(cfg_path, {
            "train": {"candidates": [1], "epochs": 10, "batch_size": 60,
                      "restarts": 1, "val_every": 5},
            "predict": {"d_er": 1, "times": [1.0, 2.0],
                        "n_values": [60, 120]},
        })
        assert main(["predict", "--config", str(cfg_path), "--out", str(out),
                     "--quiet"]) == 0
        header, rows = read_rows(out / "error_vs_n.csv")
        assert header == "n_records,mean_choi_error"
        assert [int(r[0]) for r in rows] == [60, 120]
        assert all(float(r[1]) > 0 for r in rows)

    def test_no_selection_and_no_d_er_exits_two(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {})
        out = tmp_path / "run"
        assert main(["generate", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        assert main(["predict", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 2

    def test_bad_selected_row_exits_three(self, exact_model_run, tmp_path, capsys):
        cfg, src = exact_model_run
        out = tmp_path / "run"
        shutil.copytree(src, out)
        (out / "selection.csv").write_text("d_er,val_per_step,selected\nx,-0.5,1\n")
        assert main(["predict", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "selection.csv" in err

    def test_branch_cut_model_exits_four(self, tmp_path, capsys):
        # Half-period rotation puts a channel eigenvalue on the logarithm's
        # branch cut; the failure must surface as a numerical exit code.
        out = tmp_path / "run"
        out.mkdir()
        bad = make_embedding(
            DimSpec(d_s=2, d_er=1), 1.0,
            kron((np.pi / 2) * SIGMA_Z, np.eye(4, dtype=np.complex128)),
            ZERO.copy())
        save_model(bad, out / "model_der1.json")
        cfg = write_config(tmp_path / "c.json", {
            "predict": {"d_er": 1, "times": [1.0]},
            "compare": {"d_er": 1, "gate_period": 1, "times": [0, 1, 2]},
        })
        for command in ("predict", "compare"):
            assert main([command, "--config", cfg, "--out", str(out),
                         "--quiet"]) == 4
            assert "branch cut" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "compare"])
    def test_unitary_channel_exits_four(self, tmp_path, command, capsys):
        # H acts trivially on the ancilla, so the period channel is unitary:
        # every eigenvalue has modulus one and no equilibrium reservoir
        # state is singled out.
        dims = DimSpec(d_s=2, d_er=2)
        rng = np.random.default_rng(26)
        a = rng.standard_normal((dims.d, dims.d)) + 1j * rng.standard_normal((dims.d, dims.d))
        h = kron(0.35 * (a + a.conj().T), np.eye(dims.d_a, dtype=np.complex128))
        out = tmp_path / "run"
        out.mkdir()
        save_model(make_embedding(dims, 1.0, h, np.eye(dims.d) / dims.d),
                   out / "model_der2.json")
        cfg = write_config(tmp_path / "c.json", {
            "predict": {"d_er": 2, "times": [1.0]},
            "compare": {"d_er": 2, "gate_period": 1, "times": [0, 1, 2]},
        })
        assert main([command, "--config", cfg, "--out", str(out),
                     "--quiet"]) == 4
        assert "fixed point not unique" in capsys.readouterr().err


def _break_model(obj, defect):
    """Apply one defect to a parsed model file of the exact d_er = 1 model."""
    if defect == "non-hermitian-h":
        obj["h"][1] = [1.0, 0.0]  # entry (0, 1); entry (1, 0) stays zero
    elif defect == "negative-tau":
        obj["tau"] = -1
    elif defect == "missing-rho_a":
        del obj["rho_a"]
    elif defect == "short-h":
        obj["h"] = obj["h"][:-1]
    elif defect == "nan-h":
        obj["h"][0] = [float("nan"), 0.0]


class TestMalformedModelFiles:
    @pytest.mark.parametrize("command", ["predict", "validate"])
    @pytest.mark.parametrize("defect", ["non-hermitian-h", "negative-tau",
                                        "missing-rho_a", "short-h", "nan-h"])
    def test_exit_three_naming_the_file(self, exact_model_run, tmp_path,
                                        command, defect, capsys):
        cfg, src = exact_model_run
        out = tmp_path / "run"
        shutil.copytree(src, out)
        path = out / "model_der1.json"
        obj = json.loads(path.read_text())
        _break_model(obj, defect)
        path.write_text(json.dumps(obj))
        assert main([command, "--config", cfg, "--out", str(out),
                     "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: bad model file")
        assert "model_der1.json" in err
        assert not (out / "validation.csv").exists()


class TestBayes:
    def test_small_posterior_run(self, fitted_run):
        cfg_path, out = fitted_run
        cfg = json.loads(open(cfg_path).read())
        cfg["bayes"] = {"d_er": 1, "iterations": 40, "mc_samples": 2,
                        "n_draws": 4, "n_records": 60,
                        "times": [0.0, 1.0, 2.0]}
        p = out.parent / "bayes.json"
        p.write_text(json.dumps(cfg))
        assert main(["bayes", "--config", str(p), "--out", str(out),
                     "--quiet"]) == 0
        assert (out / "posterior.json").exists()
        header, rows = read_rows(out / "posterior_bands.csv")
        assert header == "time,x_mean,x_std,y_mean,y_std,z_mean,z_std"
        assert len(rows) == 3
        summary = json.loads((out / "bayes_summary.json").read_text())
        assert summary["d_er"] == 1
        assert summary["n_records"] == 60
        assert summary["median_std"] > 0
        assert summary["channel_spread"] > 0

    def test_missing_model_exits_three(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"bayes": {"d_er": 1}})
        out = tmp_path / "run"
        assert main(["generate", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        assert main(["bayes", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 3


class TestTomo:
    def test_error_table_and_budget_scan(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "data": {"n_train": 2000, "n_val": 4},
            "tomo": {"times": [1, 2], "shots_per_channel": 400,
                     "k_values": [1, 2]},
        })
        out = tmp_path / "run"
        assert main(["tomo", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        header, rows = read_rows(out / "tomo_error.csv")
        assert header == "time,choi_error"
        assert len(rows) == 2
        assert all(0 < float(r[1]) < 1 for r in rows)
        header, rows = read_rows(out / "tomo_vs_k.csv")
        assert header == "k_channels,shots_per_channel,mean_choi_error"
        assert [(int(r[0]), int(r[1])) for r in rows] == [(1, 2000), (2, 1000)]

    def test_zero_period_exits_two(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           {"tomo": {"times": [0, 1]}})
        assert main(["tomo", "--config", cfg, "--out", str(tmp_path / "x"),
                     "--quiet"]) == 2


class TestCompare:
    def test_memoryless_truth_makes_predictions_agree(self, exact_model_run):
        # Unitary reservoir-free dynamics is divisible, so the joint-state
        # prediction and the stitched one must coincide, and both must match
        # the exact gated trajectory.
        cfg, out = exact_model_run
        assert main(["compare", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        header, rows = read_rows(out / "control.csv")
        assert header == ("time,x_exact,y_exact,z_exact,x_embed,y_embed,"
                          "z_embed,x_concat,y_concat,z_concat,dist_embed,"
                          "dist_concat,concat_positivity_violation")
        assert len(rows) == 5
        for r in rows:
            embed = np.array([float(x) for x in r[4:7]])
            concat = np.array([float(x) for x in r[7:10]])
            assert np.max(np.abs(embed - concat)) < 1e-6
            assert float(r[10]) < 1e-6
            assert float(r[11]) < 1e-6
            assert r[12] == "0"

    def test_gate_off_grid_exits_two(self, exact_model_run, tmp_path):
        _, out = exact_model_run
        cfg = write_config(tmp_path / "c.json", {
            "compare": {"d_er": 1, "gate": "x", "gate_period": 7,
                        "times": [0, 1, 2]},
        })
        assert main(["compare", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 2

    def test_unknown_gate_exits_two(self, exact_model_run, tmp_path):
        _, out = exact_model_run
        cfg = write_config(tmp_path / "c.json",
                           {"compare": {"d_er": 1, "gate": "t",
                                        "gate_period": 1, "times": [0, 1]}})
        assert main(["compare", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 2
