"""Model and dataset files: whole-array conversion against the per-element
writers in ``oracles``, the loader's error paths, and that no command loads
scipy."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import embedlearn
from embedlearn import jsonio
from embedlearn.bayes import VariationalPosterior, load_posterior, save_posterior
from embedlearn.datagen import (CollisionModelConfig, Dataset, MeasurementRecord,
                                generate_trajectory, load_dataset, save_dataset)
from embedlearn.embedding import (load_model, make_embedding, model_from_dict, model_to_dict,
                                  save_model)
from embedlearn.errors import DataError
from embedlearn.qla import DimSpec
from embedlearn.train import pack_hermitian

import oracles


def random_model(rng, d_er):
    dims = DimSpec(d_s=2, d_er=d_er)
    a = rng.standard_normal((dims.d_total,) * 2) + 1j * rng.standard_normal((dims.d_total,) * 2)
    h = 0.5 * (a + a.conj().T) / np.sqrt(dims.d_total)
    h[0, 0] = -0.0
    b = rng.standard_normal((dims.d,) * 2) + 1j * rng.standard_normal((dims.d,) * 2)
    rho = b @ b.conj().T
    return make_embedding(dims, 0.7, h, rho / np.trace(rho).real)


def signed_zero_basis():
    """A unitary whose entries carry -0.0 in both parts."""
    return np.array([[complex(-0.0, -0.0), 1.0], [1.0, complex(0.0, -0.0)]])


class TestPairs:
    def test_matches_per_element_conversion(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        m[1, 2] = complex(-0.0, -0.0)
        m[4, 0] = complex(np.inf, np.nan)
        pairs = jsonio.matrix_to_pairs(m)
        assert json.dumps(pairs) == json.dumps(oracles.legacy_matrix_to_pairs(m))
        assert json.dumps(jsonio.matrix_to_pairs(m.T)) == \
            json.dumps(oracles.legacy_matrix_to_pairs(m.T))
        back = jsonio.pairs_to_matrix(pairs, 5, 3)
        legacy = oracles.legacy_pairs_to_matrix(pairs, 5, 3)
        assert back.tobytes() == legacy.tobytes()

    @pytest.mark.parametrize("pairs", [
        [[1, 0], [True, -2], [0.5, False], [2 ** 60 + 1, 3]],
        [[2 ** 64 + 1, 0], [-1, 2 ** 63], [0, 0], [1, 1]],
    ])
    def test_integer_and_bool_entries_convert_like_complex(self, pairs):
        back = jsonio.pairs_to_matrix(pairs, 2, 2)
        assert back.tobytes() == oracles.legacy_pairs_to_matrix(pairs, 2, 2).tobytes()
        stack = jsonio.pairs_to_matrices([pairs[:2] * 2, pairs[2:] * 2], 2, 2)
        assert stack.tobytes() == np.stack([
            oracles.legacy_pairs_to_matrix(pairs[:2] * 2, 2, 2),
            oracles.legacy_pairs_to_matrix(pairs[2:] * 2, 2, 2)]).tobytes()

    def test_stack_matches_one_matrix_at_a_time(self):
        rng = np.random.default_rng(1)
        ms = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
        stack = jsonio.matrices_to_pairs(ms)
        assert stack == [oracles.legacy_matrix_to_pairs(m) for m in ms]
        assert np.array_equal(jsonio.pairs_to_matrices(stack, 2, 2), ms)

    @pytest.mark.parametrize("pairs", [
        [[1.0, 0.0], ["1", 0.0]],
        [[1.0, 0.0], [None, 0.0]],
        [[1.0, 0.0], [0.0]],
        [[1.0, 0.0], [0.0, 1.0, 2.0]],
        [[1.0, 0.0], 5],
        [[1.0, 0.0], [10 ** 400, 0.0]],
    ])
    def test_non_numeric_pairs_rejected(self, pairs):
        with pytest.raises(ValueError):
            jsonio.pairs_to_matrix(pairs, 1, 2)

    def test_wrong_entry_count_rejected(self):
        with pytest.raises(ValueError, match="expected 4 entries, got 3"):
            jsonio.pairs_to_matrix([[0.0, 0.0]] * 3, 2, 2)
        with pytest.raises(ValueError):
            jsonio.pairs_to_matrices([[[0.0, 0.0]] * 4, [[0.0, 0.0]] * 3], 2, 2)

    @pytest.mark.parametrize("value", [1.0, 0.9, True, "1", None])
    def test_ensure_int_refuses_non_integers(self, value):
        with pytest.raises(ValueError, match="must be an integer"):
            jsonio.ensure_int(value, "step")


class TestModelFiles:
    @pytest.mark.parametrize("d_er", [1, 2, 3])
    def test_bytes_match_streaming_writer(self, tmp_path, d_er):
        model = random_model(np.random.default_rng(10 + d_er), d_er)
        dims = model.dims
        save_model(model, tmp_path / "new.json")
        oracles.legacy_save_model(tmp_path / "old.json", (dims.d_s, dims.d_er, dims.d_a),
                                  model.tau, model.h, model.rho0_ser, model.rho_a)
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()
        back = load_model(tmp_path / "new.json")
        assert back.h.tobytes() == model.h.tobytes()
        assert np.signbit(back.h[0, 0].real)

    @pytest.mark.parametrize("value", [2.0, True, "2"])
    def test_non_integer_dims_rejected(self, value):
        obj = model_to_dict(random_model(np.random.default_rng(3), 1))
        obj["dims"]["d_s"] = value
        with pytest.raises(ValueError, match="dims.d_s must be an integer"):
            model_from_dict(obj)


class TestPosteriorFiles:
    @pytest.mark.parametrize("d_er", [1, 2])
    def test_bytes_match_streaming_writer(self, tmp_path, d_er):
        model = random_model(np.random.default_rng(20 + d_er), d_er)
        rng = np.random.default_rng(30 + d_er)
        mean = pack_hermitian(model.h) + 1e-3 * rng.standard_normal(model.dims.d_total ** 2)
        mean[1] = -0.0
        log_std = np.log(rng.uniform(1e-9, 1.0, mean.size))
        post = VariationalPosterior(base=model, mean=mean, log_std=log_std)
        save_posterior(post, tmp_path / "new.json")
        oracles.legacy_save_posterior(tmp_path / "old.json", post)
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()
        back = load_posterior(tmp_path / "new.json")
        assert back.mean.tobytes() == mean.tobytes()
        assert back.log_std.tobytes() == log_std.tobytes()


def records_with_signed_zeros(n):
    ds = generate_trajectory(CollisionModelConfig(), n, 40)
    recs = list(ds.records)
    for i in range(0, n, 7):
        recs[i] = MeasurementRecord(step=recs[i].step, basis=signed_zero_basis(),
                                    outcome=recs[i].outcome)
    return Dataset(records=recs, tau=ds.tau, d_s=ds.d_s, provenance=ds.provenance)


class TestDatasetFiles:
    def test_bytes_match_per_record_writer(self, tmp_path):
        ds = records_with_signed_zeros(2000)
        save_dataset(ds, tmp_path / "new.jsonl")
        oracles.legacy_save_dataset(tmp_path / "old.jsonl", ds.tau, ds.d_s, ds.provenance,
                                    [(r.step, r.basis, r.outcome) for r in ds.records])
        new = (tmp_path / "new.jsonl").read_bytes()
        assert new == (tmp_path / "old.jsonl").read_bytes()
        assert b"-0.0" in new
        back = load_dataset(tmp_path / "new.jsonl")
        assert back.provenance == ds.provenance
        for a, b in zip(ds.records, back.records):
            assert (a.step, a.outcome) == (b.step, b.outcome)
            assert type(b.step) is int and type(b.outcome) is int
            assert a.basis.tobytes() == b.basis.tobytes()
        save_dataset(back, tmp_path / "again.jsonl")
        assert (tmp_path / "again.jsonl").read_bytes() == new


def write_lines(path, records, header=None):
    """A dataset file from raw record objects (or raw strings)."""
    header = header or {"tau": 1.0, "d_s": 2, "seed": 0, "config_hash": "x"}
    lines = [json.dumps(header)]
    lines += [r if isinstance(r, str) else json.dumps(r) for r in records]
    path.write_text("\n".join(lines) + "\n")
    return path


def good(step, outcome=0):
    return {"step": step, "basis": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
            "outcome": outcome}


class TestLoadErrors:
    """Each check reports the first bad record in the file, by step."""

    def load_error(self, tmp_path, records, header=None):
        with pytest.raises(DataError) as info:
            load_dataset(write_lines(tmp_path / "d.jsonl", records, header))
        return str(info.value)

    def test_gap_in_steps(self, tmp_path):
        msg = self.load_error(tmp_path, [good(1), good(2), good(4), good(6)])
        assert msg.endswith("steps must be contiguous, 2 -> 4")

    def test_outcome_out_of_range(self, tmp_path):
        msg = self.load_error(tmp_path, [good(1), good(2, 2), good(3, -1)])
        assert msg.endswith("outcome 2 out of range at step 2")

    @pytest.mark.parametrize("entry", [2.0, float("nan")])
    def test_non_unitary_basis(self, tmp_path, entry):
        bad = good(3)
        bad["basis"][3] = [entry, 0.0]
        msg = self.load_error(tmp_path, [good(1), good(2), bad, dict(bad, step=4)])
        assert msg.endswith("basis at step 3 is not unitary")

    def test_wrong_pair_count(self, tmp_path):
        bad = good(2)
        bad["basis"] = bad["basis"][:3]
        msg = self.load_error(tmp_path, [good(1), bad])
        assert "bad record line: expected 4 entries, got 3" in msg

    def test_non_numeric_pair(self, tmp_path):
        bad = good(2)
        bad["basis"][1] = ["0.0", 0.0]
        assert "bad record line" in self.load_error(tmp_path, [good(1), bad])

    def test_bad_json_line(self, tmp_path):
        msg = self.load_error(tmp_path, [good(1), '{"step": 2, "basis": [', good(3)])
        assert "bad record line: Expecting value" in msg

    @pytest.mark.parametrize("field,value", [
        ("outcome", 0.9), ("outcome", "1"), ("outcome", True), ("step", 1.5),
    ])
    def test_non_integer_field(self, tmp_path, field, value):
        bad = dict(good(2), **{field: value})
        msg = self.load_error(tmp_path, [good(1), bad])
        assert f"bad record line: {field} must be an integer, got {value!r}" in msg

    @pytest.mark.parametrize("d_s", [2.0, True, "2", 0])
    def test_non_integer_header_d_s(self, tmp_path, d_s):
        header = {"tau": 1.0, "d_s": d_s, "seed": 0, "config_hash": "x"}
        assert "bad header line" in self.load_error(tmp_path, [good(1)], header)

    @pytest.mark.parametrize("tau", [float("nan"), 0.0, -1.0])
    def test_bad_header_tau(self, tmp_path, tau):
        header = {"tau": tau, "d_s": 2, "seed": 0, "config_hash": "x"}
        msg = self.load_error(tmp_path, [good(1)], header)
        assert "bad header line: tau must be positive and finite" in msg

    def test_earliest_problem_wins(self, tmp_path):
        # A gap at step 3 comes before the unparsable line, and a bad outcome
        # at the same record as a gap loses to the gap.
        bad_outcome = good(3, 5)
        msg = self.load_error(tmp_path, [good(1), good(2), dict(bad_outcome, step=4),
                                         good(5), "not json"])
        assert msg.endswith("steps must be contiguous, 2 -> 4")
        msg = self.load_error(tmp_path, [good(1), good(2, 7), "not json"])
        assert msg.endswith("outcome 7 out of range at step 2")

    def test_header_only_and_empty_files(self, tmp_path):
        assert self.load_error(tmp_path, []).endswith("no records")
        (tmp_path / "e.jsonl").write_text("\n")
        with pytest.raises(DataError, match="empty dataset file"):
            load_dataset(tmp_path / "e.jsonl")


SCIPY_PROBE = """
import json, sys
from embedlearn import cli
loaded = {"import": "scipy" in sys.modules}
for cmd in sys.argv[3:]:
    code = cli.main([cmd, "--config", sys.argv[1], "--out", sys.argv[2], "--quiet"])
    loaded[cmd] = [code, "scipy" in sys.modules]
print(json.dumps(loaded))
"""
COMMANDS = ["generate", "train", "validate", "predict", "tomo", "bayes", "compare"]


def test_no_command_loads_scipy(tmp_path):
    # numpy is the only runtime dependency; scipy serves the tests as an
    # independent oracle and must not leak into any command.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "seed": 3,
        "data": {"n_train": 40, "n_val": 20},
        "train": {"candidates": [1], "epochs": 2, "restarts": 1, "batch_size": 10},
        "predict": {"d_er": 1, "times": [0.0, 1.0, 2.0]},
        "bayes": {"d_er": 1, "iterations": 2, "mc_samples": 2, "n_draws": 2,
                  "times": [0.0, 1.0]},
        "tomo": {"times": [1], "shots_per_channel": 20},
        "compare": {"d_er": 1, "gate_period": 1, "times": [0, 1, 2]},
    }))
    env = dict(os.environ, PYTHONPATH=str(Path(embedlearn.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(cfg), str(tmp_path / "run"),
                           *COMMANDS], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert loaded == {"import": False, **{cmd: [0, False] for cmd in COMMANDS}}
    for name in ("validation.csv", "bloch.csv", "tomo_error.csv", "bayes_summary.json",
                 "control.csv"):
        assert (tmp_path / "run" / name).exists()
