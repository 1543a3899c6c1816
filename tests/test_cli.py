"""End-to-end command-line tests. Each run works in a temporary directory
against small datasets; the heavier train/predict flows share one fitted
run directory per module."""
import hashlib
import json
import math
import shutil
import sys
from dataclasses import fields

import numpy as np
import pytest

from embedlearn import cli, datagen, jsonio
from embedlearn.bayes import BayesConfig
from embedlearn.cli import load_run_config, main
from embedlearn.datagen import Dataset, load_dataset, make_records, save_dataset, split_dataset
from embedlearn.embedding import load_model, make_embedding, save_model
from embedlearn.errors import ConfigError, FixedPointError, TomographyError
from embedlearn.qla import SIGMA_X, SIGMA_Z, DimSpec, kron
from embedlearn.train import TrainConfig, select_d_er

import oracles

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

    @pytest.mark.parametrize("section, cls", [("train", TrainConfig), ("bayes", BayesConfig)])
    def test_every_fit_field_but_the_seed_is_a_config_key(self, section, cls):
        # A field no config key sets would be written only by code, if at all.
        keys = set(load_run_config(None, None)[section])
        assert {f.name for f in fields(cls)} - {"seed"} <= keys

    def test_default_values_are_pinned(self, tmp_path):
        times = [float(t) for t in range(21)]
        assert load_run_config(None, None) == {
            "seed": 0,
            "data": {"tau": 1.0, "delta_t": None, "collisions_per_period": 5,
                     "hamiltonian": None, "n_train": 20000, "n_val": 4000},
            "train": {"candidates": [1, 2], "n_records": None, "epochs": 3000,
                      "batch_size": 1000, "init_scale": 0.1, "convergence_window": 100,
                      "convergence_tol": 1e-4, "lr": 1e-3, "beta1": 0.9, "beta2": 0.95,
                      "eps_adam": 1e-4, "restarts": 3, "val_every": 20},
            "predict": {"d_er": None, "times": times, "n_values": None},
            "bayes": {"d_er": None, "iterations": 1000, "mc_samples": 8, "lr": 0.01,
                      "beta1": 0.9, "beta2": 0.95, "eps_adam": 1e-8, "init_sigma": 0.01,
                      "floor_log_likelihood": -1e6, "n_draws": 50, "n_records": None,
                      "times": times},
            "tomo": {"times": list(range(1, 21)), "shots_per_channel": None,
                     "k_values": None},
            "compare": {"d_er": None, "gate": "x", "gate_period": 20,
                        "times": list(range(41))},
        }
        # A run without a model still records its configuration first.
        assert main(["predict", "--out", str(tmp_path), "--quiet"]) == 2
        digest = hashlib.sha256((tmp_path / "resolved_config.json").read_bytes()).hexdigest()
        assert digest == "39cf3d39a50ce1c03100a6b6f9ad1a8a9ef84b83f81bdb2dec23f7be1af1b292"

    @pytest.mark.parametrize("section,raw,match", [
        ("train", {"lr": "fast", "epochs": 2.5}, "'epochs'"),
        ("train", {"val_every": None, "restarts": True}, "'restarts'"),
        ("bayes", {"floor_log_likelihood": "low", "mc_samples": 1.5}, "'mc_samples'"),
        ("bayes", {"floor_log_likelihood": 2}, "floor_log_likelihood must be negative"),
    ])
    def test_first_bad_field_in_dataclass_order_is_reported(self, section, raw, match):
        resolved = load_run_config(None, None)
        resolved[section].update(raw)
        with pytest.raises(ConfigError, match=match):
            cli.build_config(cli.RunConfig, resolved)

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


NON_INTEGER_CASES = [
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
]

BAD_SHAPE_CASES = [
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
    ("tomo", {"tomo": {"times": [7, 2, 4, 2]}}),
]

# Values beyond the largest reservoir dimension or a 32-bit seed, scans the
# datasets cannot serve, and bad keys of a section the command does not read.
OUT_OF_RANGE_CASES = [
    ("train", {"train": {"candidates": [1, cli.MAX_D_ER + 1]}}),
    ("predict", {"predict": {"d_er": cli.MAX_D_ER + 1}}),
    ("bayes", {"bayes": {"d_er": cli.MAX_D_ER + 1}}),
    ("compare", {"compare": {"d_er": cli.MAX_D_ER + 1}}),
    ("generate", {"seed": 2**32}),
    ("generate", {"seed": -1}),
    ("predict", {"predict": {"d_er": 1, "times": [1.0], "n_values": [60, 10**6]}}),
    ("predict", {"predict": {"d_er": 1, "times": [0.5], "n_values": [60]}}),
    ("generate", {"compare": {"gate": "q"}}),
    ("validate", {"bayes": {"n_draws": 1}}),
    ("tomo", {"train": {"candidates": [0]}}),
]


def run_on_copy(run, tmp_path, command, extra, *flags):
    """Exit code of ``command`` with config ``extra`` on a copy of the run
    directory ``run``, and that copy."""
    _, src = run
    out = tmp_path / "run"
    shutil.copytree(src, out)
    cfg = write_config(tmp_path / "c.json", extra)
    return main([command, "--config", cfg, "--out", str(out), "--quiet", *flags]), out


def file_bytes(out):
    return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "resolved_config.json"}


class TestIntegerFields:
    @pytest.mark.parametrize("command,extra", NON_INTEGER_CASES)
    def test_non_integers_exit_two(self, exact_model_run, tmp_path, command,
                                   extra, capsys):
        # Refused outright rather than truncated: resolved_config.json
        # records the raw value, so a truncated run would misreport itself.
        code, _ = run_on_copy(exact_model_run, tmp_path, command, extra)
        assert code == 2
        assert "must be an integer" in capsys.readouterr().err


class TestConfigShapes:
    @pytest.mark.parametrize("command,extra", BAD_SHAPE_CASES)
    def test_bad_shapes_exit_two(self, exact_model_run, tmp_path, monkeypatch,
                                 command, extra, capsys):
        # bayes settings are checked before the posterior is fitted.
        def no_fit(*args, **kwargs):
            raise AssertionError("fit_posterior must not run")

        monkeypatch.setattr(cli, "fit_posterior", no_fit)
        code, out = run_on_copy(exact_model_run, tmp_path, command, extra)
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (out / "posterior.json").exists()


class TestCheckedBeforeAnyWork:
    @pytest.mark.parametrize("command,extra",
                             NON_INTEGER_CASES + BAD_SHAPE_CASES + OUT_OF_RANGE_CASES)
    def test_refused_config_leaves_outputs_untouched(self, exact_model_run, tmp_path,
                                                     command, extra, capsys):
        _, src = exact_model_run
        before = file_bytes(src)
        code, out = run_on_copy(exact_model_run, tmp_path, command, extra)
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert file_bytes(out) == before

    @pytest.mark.parametrize("command", ["generate", "train", "tomo"])
    @pytest.mark.parametrize("seed", ["-1", str(2**32)])
    def test_seed_flag_outside_32_bits_exits_two(self, exact_model_run, tmp_path,
                                                 command, seed, capsys):
        _, src = exact_model_run
        before = file_bytes(src)
        code, out = run_on_copy(exact_model_run, tmp_path, command, {}, "--seed", seed)
        assert code == 2
        assert "seed must be >= 0 and <= 4294967295" in capsys.readouterr().err
        assert file_bytes(out) == before

    def test_other_section_refused_whatever_the_command(self, tmp_path, capsys):
        # generate reads only data and seed, but a bad compare.gate still
        # stops it before the datasets are written.
        cfg = write_config(tmp_path / "c.json", {"compare": {"gate": "q"}})
        out = tmp_path / "run"
        assert main(["generate", "--config", cfg, "--out", str(out), "--quiet"]) == 2
        assert "unknown gate 'q'" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["resolved_config.json"]

    def test_candidate_beyond_largest_d_er_exits_two_without_data(self, tmp_path, capsys):
        # Refused as a config error (exit 2) before the missing dataset
        # (exit 3) is noticed.
        cfg = write_config(tmp_path / "c.json", {"train": {"candidates": [5]}})
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "empty"),
                     "--quiet"]) == 2
        assert "candidates must be >= 1 and <= 4, got 5" in capsys.readouterr().err

    @pytest.mark.parametrize("command,raw", [
        ("tomo", {"times": [1, cli.MAX_PERIODS + 1]}),
        ("tomo", {"k_values": [2, cli.MAX_PERIODS + 1]}),
        ("compare", {"times": [0, 2, cli.MAX_PERIODS + 1], "gate_period": 2}),
        ("compare", {"times": [0, 2], "gate_period": cli.MAX_PERIODS + 1}),
        ("predict", {"times": [0.0, cli.MAX_PERIODS + 1.0]}),
    ])
    def test_period_count_beyond_largest_exits_two(self, tmp_path, command, raw, capsys):
        # Each period costs one superoperator product, so a count bounds the
        # run time; one beyond the largest is refused before any work.
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json", {command: raw})
        assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 2
        assert f"<= {cli.MAX_PERIODS}" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["resolved_config.json"]

    def test_largest_period_count_is_accepted(self):
        resolved = load_run_config(None, None)
        big = cli.MAX_PERIODS
        resolved["tomo"].update(times=[1, big], k_values=[big])
        resolved["compare"].update(times=[0, big], gate_period=big)
        resolved["predict"]["times"] = [0.0, float(big)]
        cfg = cli.build_config(cli.RunConfig, resolved)
        assert (cfg.tomo.k_values, cfg.compare.gate_period, cfg.predict.times[-1]) == (
            (big,), big, big)

    def test_largest_d_er_is_accepted(self):
        resolved = load_run_config(None, None)
        resolved["train"]["candidates"] = [1, cli.MAX_D_ER]
        for section in ("predict", "bayes", "compare"):
            resolved[section]["d_er"] = cli.MAX_D_ER
        resolved["seed"] = 2**32 - 1
        cfg = cli.build_config(cli.RunConfig, resolved)
        assert (cfg.train.candidates, cfg.predict.d_er, cfg.seed) == ((1, 4), 4, 2**32 - 1)


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
        tc = TrainConfig(epochs=30, batch_size=120, seed=9, restarts=1,
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

    @pytest.mark.parametrize("n_records", [150, 200, None])
    def test_validation_of_another_trajectory_exits_three(self, tmp_path, capsys, monkeypatch,
                                                           n_records):
        # Both runs hold steps 1..200 and 201..300; only the provenance of
        # the copied validation file tells them apart.  The refusal comes
        # before any fit, with or without n_records.
        runs = {}
        for seed in (0, 5):
            cfg = write_config(tmp_path / f"c{seed}.json", {
                "seed": seed, "data": {"hamiltonian": None, "n_train": 200, "n_val": 100},
                "train": {"candidates": [1], "epochs": 2, "restarts": 1,
                          "n_records": n_records}})
            runs[seed] = (cfg, tmp_path / f"run{seed}")
            assert main(["generate", "--config", cfg, "--out", str(runs[seed][1]),
                         "--quiet"]) == 0
        cfg, out = runs[0]
        shutil.copy(runs[5][1] / "val.jsonl", out / "val.jsonl")
        capsys.readouterr()

        def no_fit(*args, **kwargs):
            raise AssertionError("train fitted before refusing the validation file")
        monkeypatch.setattr(cli, "select_d_er", no_fit)
        assert main(["train", "--config", cfg, "--out", str(out), "--quiet"]) == 3
        assert "provenance differs" in capsys.readouterr().err
        assert not list(out.glob("model_der*.json"))
        # An out-of-range n_records is still the config error it was.
        bad = write_config(tmp_path / "bad.json", {
            "seed": 0, "data": {"hamiltonian": None, "n_train": 200, "n_val": 100},
            "train": {"candidates": [1], "n_records": 500}})
        assert main(["train", "--config", bad, "--out", str(out), "--quiet"]) == 2
        assert "n must be in" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command,names", [
        ("validate", ["model_der5.json", "dims.d_er must be <= 4, got 5"]),
        ("predict", ["selection.csv", "selected d_er must be in 1..4, got 5"]),
    ])
    def test_reservoir_beyond_largest_in_run_directory_exits_three(
            self, exact_model_run, tmp_path, command, names, capsys):
        # The d_er reaches the command through the run directory, not the
        # config: a data problem.  H is not base64, so an error naming it
        # would mean the file was decoded.
        d_er = cli.MAX_D_ER + 1
        _, src = exact_model_run
        out = tmp_path / "run"
        shutil.copytree(src, out)
        big = {"dims": {"d_s": 2, "d_er": d_er, "d_a": (2 * d_er) ** 2}, "tau": 1.0,
               "h": "*", "rho0_ser": "*", "rho_a": "*"}
        (out / f"model_der{d_er}.json").write_text(json.dumps(big))
        (out / "selection.csv").write_text(
            f"d_er,val_per_step,selected\n1,-0.5,0\n{d_er},-0.4,1\n")
        before = file_bytes(out)
        cfg = write_config(tmp_path / "c.json", {"predict": {"times": [0.0, 1.0]}})
        assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert all(name in err for name in names)
        assert "base64" not in err
        assert file_bytes(out) == before

    def test_oversize_model_file_exits_three_before_decoding(self, exact_model_run, tmp_path,
                                                             capsys):
        # d_s = 3 with the largest d_er is d_total = 1728, a 48 MB H, above
        # the 512 of a qubit with that d_er.  H is not base64, so an error
        # naming it would mean the file was decoded.
        _, src = exact_model_run
        out = tmp_path / "run"
        shutil.copytree(src, out)
        big = {"dims": {"d_s": 3, "d_er": cli.MAX_D_ER, "d_a": (3 * cli.MAX_D_ER) ** 2},
               "tau": 1.0, "h": "*", "rho0_ser": "*", "rho_a": "*"}
        path = out / f"model_der{cli.MAX_D_ER}.json"
        path.write_text(json.dumps(big))
        with pytest.raises(ValueError, match=r"d_total .* must be <= 512, got 1728"):
            load_model(path)
        before = file_bytes(out)
        cfg = write_config(tmp_path / "c.json", {})
        assert main(["validate", "--config", cfg, "--out", str(out), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad model file {path}")
        assert "must be <= 512, got 1728" in err and "base64" not in err
        assert file_bytes(out) == before

    def test_failed_scan_fit_writes_no_outputs(self, exact_model_run, tmp_path,
                                               monkeypatch, capsys):
        # The first equilibrium is the loaded model's, the second the scan's
        # fit's; failing the second leaves every output of predict unwritten.
        _, src = exact_model_run
        out = tmp_path / "run"
        shutil.copytree(src, out)
        outputs = ("bloch.csv", "choi_error.csv", "error_vs_n.csv")
        for name in outputs:
            (out / name).unlink(missing_ok=True)
        real, calls = cli.equilibrium_er_state, []

        def fail_for_the_scan(gen):
            calls.append(gen)
            if len(calls) > 1:
                raise FixedPointError((1.0, 1.0))
            return real(gen)
        monkeypatch.setattr(cli, "equilibrium_er_state", fail_for_the_scan)
        cfg = write_config(tmp_path / "c.json", {
            "train": {"candidates": [1], "epochs": 2, "batch_size": 60, "restarts": 1},
            "predict": {"d_er": 1, "times": [0.0, 1.0], "n_values": [60]}})
        assert main(["predict", "--config", cfg, "--out", str(out), "--quiet"]) == 4
        assert len(calls) == 2
        assert "fixed point not unique" in capsys.readouterr().err
        assert not any((out / name).exists() for name in outputs)

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

    @pytest.mark.parametrize("command, output", [("predict", "bloch.csv"),
                                                 ("compare", "control.csv")])
    def test_model_of_another_period_exits_three(self, exact_model_run, tmp_path, command,
                                                 output, capsys):
        # The exact model's period is 1.0; scored against the truth of
        # period 0.5 it would describe another experiment.
        out = tmp_path / "run"
        shutil.copytree(exact_model_run[1], out)
        for name in ("bloch.csv", "control.csv"):
            (out / name).unlink(missing_ok=True)
        before = file_bytes(out)
        cfg = write_config(tmp_path / "c.json", {
            "data": {"hamiltonian": MARKOV_PAIRS, "n_train": 120, "n_val": 120, "tau": 0.5},
            "predict": {"times": [0.0, 0.5, 1.0]},
            "compare": {"gate": "x", "gate_period": 2, "times": [0, 1, 2, 3, 4]},
        })
        assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 3
        assert "model tau=1.0 does not match data tau=0.5" in capsys.readouterr().err
        assert not (out / output).exists()
        assert file_bytes(out) == before

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


@pytest.fixture(scope="module")
def qutrit_run(tmp_path_factory):
    """A run directory of a three-level system: datasets of Haar-random
    3x3 bases and a d_s = 3, d_er = 1 model that selection.csv marks."""
    out = tmp_path_factory.mktemp("qutrit") / "run"
    out.mkdir()
    rng = np.random.default_rng(31)
    g = rng.standard_normal((30, 3, 3)) + 1j * rng.standard_normal((30, 3, 3))
    bases = np.linalg.qr(g)[0]
    ds = Dataset(records=make_records(np.arange(1, 31), bases, rng.integers(0, 3, 30)),
                 tau=1.0, provenance={"seed": 0, "config_hash": "x"})
    for name, part in zip(("train", "val"), split_dataset(ds, 20)):
        save_dataset(part, out / f"{name}.jsonl")
    dims = DimSpec(d_s=3, d_er=1)
    save_model(make_embedding(dims, 1.0, np.zeros((dims.d_total, dims.d_total)),
                              np.eye(3) / 3), out / "model_der1.json")
    (out / "selection.csv").write_text("d_er,val_per_step,selected\n1,-1.0,1\n")
    return out


class TestQubitOnly:
    @pytest.mark.parametrize("command,file", [
        ("train", "train.jsonl"), ("validate", "train.jsonl"), ("predict", "model_der1.json"),
        ("bayes", "model_der1.json"), ("compare", "model_der1.json"),
    ])
    def test_non_qubit_run_directory_exits_three(self, qutrit_run, tmp_path, command, file,
                                                 capsys):
        out = tmp_path / "run"
        shutil.copytree(qutrit_run, out)
        before = file_bytes(out)
        cfg = write_config(tmp_path / "c.json", {
            "train": {"candidates": [1], "epochs": 2, "restarts": 1},
            "bayes": {"iterations": 2, "mc_samples": 2, "n_draws": 2},
            "compare": {"gate_period": 1, "times": [0, 1, 2]}})
        assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert f"{file}: d_s=3;" in err
        assert "commands take qubit (d_s=2) records and models only" in err
        assert file_bytes(out) == before
        assert (out / "resolved_config.json").exists()


def _edit_matrix(obj, key, side, change):
    """Decode the matrix under ``key``, apply ``change`` and store its
    result (of any length) re-encoded."""
    obj[key] = oracles.b64_encode(change(oracles.b64_decode(obj[key], "<c16", (side, side))),
                                  "<c16")


def _with_entry(m, index, value):
    m[index] = value
    return m


def _break_model(obj, defect):
    """Apply one defect to a parsed model file of the exact d_er = 1 model
    (H of side 8, a 4 x 4 ancilla state)."""
    if defect == "non-hermitian-h":
        # Entry (0, 1); entry (1, 0) stays zero.
        _edit_matrix(obj, "h", 8, lambda h: _with_entry(h, (0, 1), 1.0))
    elif defect == "negative-tau":
        obj["tau"] = -1
    elif defect in ("bool-tau", "string-tau", "padded-tau"):
        obj["tau"] = {"bool-tau": True, "string-tau": "1.0", "padded-tau": " 2 "}[defect]
    elif defect == "missing-rho_a":
        del obj["rho_a"]
    elif defect == "other-ancilla":
        # |1><1|: a valid pure state, but the ancilla of a model is |0><0|.
        _edit_matrix(obj, "rho_a", 4, lambda a: _with_entry(0 * a, (1, 1), 1.0))
    elif defect == "wrong-d_a":
        obj["dims"]["d_a"] = 15
    elif defect == "short-h":
        _edit_matrix(obj, "h", 8, lambda h: h.ravel()[:-1])
    elif defect == "long-h":
        _edit_matrix(obj, "h", 8, lambda h: np.append(h, 0.0))
    elif defect == "half-entry-h":
        obj["h"] = oracles.b64_encode(
            oracles.b64_decode(obj["h"], "u1", (1024,))[:-8], "u1")
    elif defect == "nan-h":
        _edit_matrix(obj, "h", 8, lambda h: _with_entry(h, (0, 0), np.nan))
    elif defect == "pair-format-h":
        obj["h"] = oracles.legacy_matrix_to_pairs(oracles.b64_decode(obj["h"], "<c16", (8, 8)))
    elif defect == "non-base64-h":
        obj["h"] = "*" + obj["h"][1:]
    elif defect == "non-string-h":
        obj["h"] = 0


MODEL_DEFECTS = ["non-hermitian-h", "negative-tau", "bool-tau", "string-tau", "padded-tau",
                 "missing-rho_a", "other-ancilla", "wrong-d_a", "short-h", "long-h",
                 "half-entry-h", "nan-h", "pair-format-h", "non-base64-h", "non-string-h"]


class TestMalformedModelFiles:
    def break_and_run(self, run, tmp_path, command, defect, capsys):
        """Exit code and error text of ``command`` on a copy of ``run``
        whose model file carries ``defect``."""
        cfg, src = run
        out = tmp_path / "run"
        shutil.copytree(src, out)
        path = out / "model_der1.json"
        obj = json.loads(path.read_text())
        _break_model(obj, defect)
        path.write_text(json.dumps(obj))
        code = main([command, "--config", cfg, "--out", str(out), "--quiet"])
        assert not (out / "validation.csv").exists()
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "validate"])
    @pytest.mark.parametrize("defect", MODEL_DEFECTS)
    def test_exit_three_naming_the_file(self, exact_model_run, tmp_path,
                                        command, defect, capsys):
        code, err = self.break_and_run(exact_model_run, tmp_path, command, defect, capsys)
        assert code == 3
        assert err.startswith("error: bad model file")
        assert "model_der1.json" in err

    def test_pair_format_names_the_base64_field(self, exact_model_run, tmp_path, capsys):
        # A file in the [re, im] pair format of earlier versions is refused,
        # not converted.
        _, err = self.break_and_run(exact_model_run, tmp_path, "validate", "pair-format-h",
                                    capsys)
        assert "h must be a base64 string, got list" in err

    def test_unbroken_copy_loads(self, exact_model_run, tmp_path, capsys):
        # The defects above are edits of a file that is otherwise accepted.
        code, _ = self.break_and_run(exact_model_run, tmp_path, "predict", "none", capsys)
        assert code == 0


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

    def test_bad_k_values_write_no_table(self, tmp_path, monkeypatch):
        # The scan settings are checked before any channel is simulated.
        def no_mle(*args, **kwargs):
            raise AssertionError("tomography_mle must not run")

        monkeypatch.setattr(cli, "tomography_mle", no_mle)
        cfg = write_config(tmp_path / "c.json",
                           {"tomo": {"times": [1, 2], "k_values": [0, 2]}})
        out = tmp_path / "run"
        assert main(["tomo", "--config", cfg, "--out", str(out), "--quiet"]) == 2
        assert not (out / "tomo_error.csv").exists()

    @pytest.mark.parametrize("channel,where", [
        (1, "period 3 in the main group"),
        (3, "period 1 in the K = 1 group"),
        (5, "period 2 in the K = 3 group"),
    ])
    def test_failed_channel_named_by_period_and_group(self, tmp_path, monkeypatch,
                                                      capsys, channel, where):
        def failing_mle(counts, design):
            assert len(counts) == 7  # lanes: main 2, 3, 5; K = 1: 1; K = 3: 1, 2, 3
            raise TomographyError(f"tomography MLE of channel {channel} did not "
                                  "converge in 7 iterations", channel)

        monkeypatch.setattr(cli, "tomography_mle", failing_mle)
        cfg = write_config(tmp_path / "c.json", {
            "data": {"n_train": 300, "n_val": 4},
            "tomo": {"times": [2, 3, 5], "k_values": [3, 1, 3]},
        })
        out = tmp_path / "run"
        assert main(["tomo", "--config", cfg, "--out", str(out), "--quiet"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert where in err
        assert "did not converge in 7 iterations" in err
        assert not (out / "tomo_error.csv").exists()

    @pytest.mark.parametrize("tomo", [
        {"times": [1, 2], "shots_per_channel": 400, "k_values": [1, 2]},
        {"times": [6, 2, 9, 4], "k_values": [4, 1, 3]},
    ])
    def test_tables_match_per_group_oracle(self, tmp_path, monkeypatch, tomo):
        cfg = write_config(tmp_path / "c.json",
                           {"data": {"n_train": 900, "n_val": 4}, "tomo": tomo})
        assert main(["tomo", "--config", cfg, "--out", str(tmp_path / "one"),
                     "--quiet"]) == 0

        def per_group(truth, groups, seed):
            return [oracles.tomography_errors_per_group(truth, periods, shots, seed, *names)
                    for _, periods, shots, names in groups]

        monkeypatch.setattr(cli, "_tomography_errors", per_group)
        assert main(["tomo", "--config", cfg, "--out", str(tmp_path / "groups"),
                     "--quiet"]) == 0
        for name in ("tomo_error.csv", "tomo_vs_k.csv"):
            assert ((tmp_path / "one" / name).read_bytes()
                    == (tmp_path / "groups" / name).read_bytes())

    def test_one_mle_and_one_reference_per_command(self, tmp_path, monkeypatch):
        calls = {"tomography_mle": 0, "exact_reference_dynamics": 0}

        def counted(name):
            real = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(cli, name, counted(name))
        cfg = write_config(tmp_path / "c.json", {
            "data": {"n_train": 600, "n_val": 4},
            "tomo": {"times": [1, 4], "k_values": [2, 3]},
        })
        assert main(["tomo", "--config", cfg, "--out", str(tmp_path / "run"),
                     "--quiet"]) == 0
        assert calls == {"tomography_mle": 1, "exact_reference_dynamics": 1}


class TestOneTruthBuild:
    """The commands that score against the truth build its period channel
    once and pass it on: to the model's start state (once per refit of
    ``predict``), the reference dynamics and the gated truth."""

    @pytest.mark.parametrize("command,extra", [
        ("predict", {"train": {"epochs": 2, "batch_size": 60, "restarts": 1, "val_every": 1},
                     "predict": {"d_er": 1, "times": [0.0, 0.5, 1.0, 2.0],
                                 "n_values": [60, 120]}}),
        ("compare", {"compare": {"d_er": 1, "gate": "x", "gate_period": 2,
                                 "times": [0, 1, 2, 3]}}),
        ("tomo", {"tomo": {"times": [1, 2], "k_values": [1, 2]}}),
    ])
    def test_one_period_superoperator_per_command(self, exact_model_run, tmp_path,
                                                  command, extra):
        # Counted by a profile hook on its code object, which leaves the
        # function itself in place.
        code, calls = datagen.period_superoperator.__code__, []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is code:
                calls.append(1)

        sys.setprofile(profile)
        try:
            status, _ = run_on_copy(exact_model_run, tmp_path, command, extra)
        finally:
            sys.setprofile(None)
        assert status == 0
        assert len(calls) == 1


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

