"""Ground-truth simulator tests: collision steps, measurement sampling,
trajectory generation, exact references, and the memorizing environment."""
import hashlib
import tracemalloc

import numpy as np
import pytest

from embedlearn import datagen, seeds
from embedlearn.datagen import (CollisionModelConfig, Dataset, dataset_prefix,
                                default_collision_hamiltonian,
                                exact_controlled_dynamics,
                                exact_reference_dynamics, generate_trajectory,
                                load_dataset, overfit_oracle,
                                period_superoperator, save_dataset,
                                split_dataset, validation_continuation)
from embedlearn.errors import DataError, ZeroProbabilityError
from embedlearn.likelihood import true_model_log_likelihood
from embedlearn.qla import (SIGMA_X, SIGMA_Y, SIGMA_Z, dagger, expm_unitary,
                            kron, ptrace, unvec, vec)

import oracles
from oracles import collision_step, sample_measurement


def random_density(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def local_collision_hamiltonian():
    """The default interaction with the three reservoir couplings removed."""
    i2 = np.eye(2, dtype=np.complex128)
    return (kron(SIGMA_Z, i2, i2) + kron(SIGMA_X, i2, i2)
            + kron(i2, SIGMA_Z, i2) + kron(i2, SIGMA_X, i2)
            + kron(SIGMA_Z, SIGMA_Z, i2))


class TestDefaultHamiltonian:
    def test_hermitian_and_traceless(self):
        h = default_collision_hamiltonian()
        assert h.shape == (8, 8)
        assert np.max(np.abs(h - dagger(h))) == 0.0
        assert abs(np.trace(h)) < 1e-14

    def test_reservoir_coupling_coefficient(self):
        h = default_collision_hamiltonian()
        op = kron(np.eye(2, dtype=np.complex128), SIGMA_X, SIGMA_X)
        coeff = np.trace(h @ op).real / 8.0
        assert abs(coeff - 0.3) < 1e-14

    def test_ground_diagonal_element(self):
        # Diagonal Pauli terms at |000>: three +1 contributions plus the
        # 0.3 z-z reservoir coupling.
        h = default_collision_hamiltonian()
        assert abs(h[0, 0] - 3.3) < 1e-14

    def test_term_by_term_reconstruction(self):
        i2 = np.eye(2, dtype=np.complex128)
        want = (local_collision_hamiltonian()
                + 0.3 * kron(i2, SIGMA_Z, SIGMA_Z)
                + 0.3 * kron(i2, SIGMA_Y, SIGMA_Y)
                + 0.3 * kron(i2, SIGMA_X, SIGMA_X))
        assert np.max(np.abs(default_collision_hamiltonian() - want)) < 1e-14


class TestCollisionConfig:
    def test_defaults(self):
        cfg = CollisionModelConfig()
        assert cfg.tau == 1.0
        assert cfg.delta_t == 0.2
        assert cfg.collisions_per_period == 5
        assert np.allclose(cfg.rho_r, [[1, 0], [0, 0]])
        want0 = np.zeros((4, 4))
        want0[0, 0] = 1.0
        assert np.allclose(cfg.rho_ss1_0, want0)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            CollisionModelConfig(tau=0.0)
        with pytest.raises(ValueError):
            CollisionModelConfig(collisions_per_period=0)
        with pytest.raises(ValueError):
            CollisionModelConfig(hamiltonian=np.eye(4))

    @pytest.mark.parametrize("name,side", [("hamiltonian", 8), ("rho_r", 2),
                                           ("rho_ss1_0", 4)])
    def test_non_finite_matrices_rejected(self, name, side):
        m = np.eye(side, dtype=np.complex128) / side
        m[0, 0] = np.nan
        with pytest.raises(ValueError, match=name):
            CollisionModelConfig(**{name: m})

    def test_digest_tracks_content(self):
        a = CollisionModelConfig()
        b = CollisionModelConfig(collisions_per_period=4)
        assert a.digest() == CollisionModelConfig().digest()
        assert a.digest() != b.digest()


class TestCollisionStep:
    def test_vanishing_duration_is_identity(self):
        rng = np.random.default_rng(0)
        cfg = CollisionModelConfig(tau=1.0, delta_t=1e-9)
        rho = random_density(rng, 4)
        assert np.max(np.abs(collision_step(rho, cfg) - rho)) < 1e-7

    def test_decoupled_reservoir_gives_local_unitary(self):
        rng = np.random.default_rng(1)
        cfg = CollisionModelConfig(hamiltonian=local_collision_hamiltonian())
        rho = random_density(rng, 4)
        i2 = np.eye(2, dtype=np.complex128)
        h_local = (kron(SIGMA_Z, i2) + kron(SIGMA_X, i2) + kron(i2, SIGMA_Z)
                   + kron(i2, SIGMA_X) + kron(SIGMA_Z, SIGMA_Z))
        u = expm_unitary(h_local, cfg.delta_t)
        want = u @ rho @ dagger(u)
        assert np.max(np.abs(collision_step(rho, cfg) - want)) < 1e-12

    def test_matches_three_subsystem_oracle(self):
        rng = np.random.default_rng(2)
        cfg = CollisionModelConfig()
        rho = random_density(rng, 4)
        joint = oracles.kron_loops(rho, np.asarray(cfg.rho_r))
        u = oracles.taylor_expm(np.asarray(cfg.hamiltonian), cfg.delta_t, terms=40)
        evolved = u @ joint @ u.conj().T
        want = oracles.ptrace_loops(evolved, [2, 2, 2], [0, 1])
        assert np.max(np.abs(collision_step(rho, cfg) - want)) < 1e-11

    def test_preserves_density_invariants(self):
        rng = np.random.default_rng(3)
        cfg = CollisionModelConfig()
        rho = random_density(rng, 4)
        for _ in range(10):
            rho = collision_step(rho, cfg)
            assert abs(np.trace(rho) - 1.0) < 1e-10
            assert np.linalg.eigvalsh(rho).min() > -1e-10


class TestPeriodSuperoperator:
    def test_composes_collision_steps(self):
        rng = np.random.default_rng(4)
        cfg = CollisionModelConfig()
        rho = random_density(rng, 4)
        direct = rho
        for _ in range(cfg.collisions_per_period):
            direct = collision_step(direct, cfg)
        via_matrix = unvec(period_superoperator(cfg) @ vec(rho))
        assert np.max(np.abs(direct - via_matrix)) < 1e-11


class TestSampleMeasurement:
    def test_record_invariants(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 2)
        rec, proj = sample_measurement(rho, rng, step=7)
        assert rec.step == 7
        b = rec.basis
        assert np.max(np.abs(dagger(b) @ b - np.eye(2))) < 1e-10
        phi = b[:, rec.outcome]
        assert np.max(np.abs(proj - np.outer(phi, phi.conj()))) < 1e-14

    def test_deterministic_under_seed(self):
        rho = np.array([[0.7, 0.1j], [-0.1j, 0.3]], dtype=np.complex128)
        a, _ = sample_measurement(rho, np.random.default_rng(6))
        b, _ = sample_measurement(rho, np.random.default_rng(6))
        assert np.array_equal(a.basis, b.basis)
        assert a.outcome == b.outcome

    def test_maximally_mixed_frequencies(self):
        rng = np.random.default_rng(7)
        rho = np.eye(2, dtype=np.complex128) / 2
        hits = sum(sample_measurement(rho, rng)[0].outcome == 0
                   for _ in range(100_000))
        sigma = 0.5 / np.sqrt(100_000)
        assert abs(hits / 100_000 - 0.5) < 3 * sigma

    def test_born_frequencies(self):
        rng = np.random.default_rng(8)
        rho = np.array([[0.85, 0.2 - 0.1j], [0.2 + 0.1j, 0.15]],
                       dtype=np.complex128)
        n = 100_000
        indicator = np.zeros(n)
        p0 = np.zeros(n)
        for i in range(n):
            rec, _ = sample_measurement(rho, rng)
            phi0 = rec.basis[:, 0]
            p0[i] = np.real(phi0.conj() @ rho @ phi0)
            indicator[i] = 1.0 if rec.outcome == 0 else 0.0
        sigma = np.sqrt(np.sum(p0 * (1 - p0))) / n
        assert abs(indicator.mean() - p0.mean()) < 3 * sigma


class TestGenerateTrajectory:
    def test_base_case_matches_manual_composition(self):
        cfg = CollisionModelConfig()
        seed = 11
        ds = generate_trajectory(cfg, 1, seed)
        rho = np.asarray(cfg.rho_ss1_0)
        for _ in range(cfg.collisions_per_period):
            rho = collision_step(rho, cfg)
        rho_s = ptrace(rho, [2, 2], [0])
        rec, _ = sample_measurement(rho_s, seeds.stream(seed, "trajectory"),
                                    step=1)
        assert np.array_equal(ds.records[0].basis, rec.basis)
        assert ds.records[0].outcome == rec.outcome

    def test_steps_count_from_one(self):
        ds = generate_trajectory(CollisionModelConfig(), 5, 12)
        assert [r.step for r in ds.records] == [1, 2, 3, 4, 5]

    def test_determinism(self):
        cfg = CollisionModelConfig()
        a = generate_trajectory(cfg, 20, 13)
        b = generate_trajectory(cfg, 20, 13)
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.basis, rb.basis)
            assert ra.outcome == rb.outcome
        assert a.provenance == b.provenance

    def test_first_step_marginals_match_exact_state(self):
        cfg = CollisionModelConfig()
        exact_states, _ = exact_reference_dynamics(cfg, [1])
        rho1 = exact_states[0]
        n = 4000
        indicator = np.zeros(n)
        p0 = np.zeros(n)
        for s in range(n):
            ds = generate_trajectory(cfg, 1, 1000 + s)
            rec = ds.records[0]
            phi0 = rec.basis[:, 0]
            p0[s] = np.real(phi0.conj() @ rho1 @ phi0)
            indicator[s] = 1.0 if rec.outcome == 0 else 0.0
        sigma = np.sqrt(np.sum(p0 * (1 - p0))) / n
        assert abs(indicator.mean() - p0.mean()) < 3 * sigma

    def test_basis_unitarity_along_trajectory(self):
        ds = generate_trajectory(CollisionModelConfig(), 50, 14)
        for rec in ds.records:
            b = rec.basis
            assert np.max(np.abs(dagger(b) @ b - np.eye(2))) < 1e-10


class TestProductFormSampler:
    """The memory-block sampler against the joint-space simulator it
    replaced (``oracles.joint_trajectory``), the bytes it writes, and its
    memory."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_joint_oracle(self, seed):
        cfg = CollisionModelConfig()
        ds = generate_trajectory(cfg, 3000, seed)
        bases, outcomes = oracles.joint_trajectory(
            period_superoperator(cfg), cfg.rho_ss1_0, seeds.stream(seed, "trajectory"), 3000)
        assert np.array_equal(np.array([r.basis for r in ds.records]), bases)
        assert [r.outcome for r in ds.records] == outcomes.tolist()

    def test_golden_dataset_bytes(self, tmp_path):
        # sha256 of the files the joint-space simulator wrote for seed 3
        # with 200 training and 100 validation records.
        want = {"train": "0ca15099f7ff0373add7aef0f84abad56331e472083e78c69acd0c3cc3809e9a",
                "val": "73c6a1147cbd903e20528c6e2317b3d09c8bd1a0e01fe7a76c575c283d5dab46"}
        parts = split_dataset(generate_trajectory(CollisionModelConfig(), 300, 3), 200)
        for name, part in zip(("train", "val"), parts):
            path = tmp_path / f"{name}.jsonl"
            save_dataset(part, path)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == want[name]

    @pytest.mark.parametrize("kraus, step", [
        (np.zeros((4, 4)), 1),
        # S1 |0> -> |1>, and |1> is annihilated: the second record has no weight.
        (np.kron(np.eye(2), [[0.0, 0.0], [1.0, 0.0]]), 2),
    ])
    def test_zero_probability_step_matches_oracle(self, monkeypatch, kraus, step):
        m = np.kron(kraus.conj(), kraus).astype(np.complex128)
        monkeypatch.setattr(datagen, "period_superoperator", lambda cfg: m)
        cfg = CollisionModelConfig()
        with pytest.raises(ZeroProbabilityError) as exc:
            generate_trajectory(cfg, 10, 5)
        assert exc.value.step == step
        with pytest.raises(ValueError, match=f"zero probability at step {step}$"):
            oracles.joint_trajectory(m, cfg.rho_ss1_0, seeds.stream(5, "trajectory"), 10)

    def test_memory_at_20000_records(self):
        # Mostly the records themselves (6.4 MiB for the joint-space loop);
        # building every transfer at once would add about 40 MiB.
        generate_trajectory(CollisionModelConfig(), 10, 0)
        tracemalloc.start()
        try:
            generate_trajectory(CollisionModelConfig(), 20000, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20


class TestExactReference:
    def test_time_zero(self):
        cfg = CollisionModelConfig()
        states, chans = exact_reference_dynamics(cfg, [0])
        want = ptrace(np.asarray(cfg.rho_ss1_0), [2, 2], [0])
        assert np.max(np.abs(states[0] - want)) < 1e-12
        assert np.max(np.abs(chans[0] - np.eye(4))) < 1e-12

    def test_traces_one(self):
        cfg = CollisionModelConfig()
        states, _ = exact_reference_dynamics(cfg, list(range(11)))
        for rho in states:
            assert abs(np.trace(rho) - 1.0) < 1e-10

    def test_channel_action_matches_state_propagation(self):
        cfg = CollisionModelConfig()
        rho_s0 = ptrace(np.asarray(cfg.rho_ss1_0), [2, 2], [0])
        states, chans = exact_reference_dynamics(cfg, [1, 3, 7])
        for rho_t, m in zip(states, chans):
            via_channel = unvec(m @ vec(rho_s0))
            assert np.max(np.abs(via_channel - rho_t)) < 1e-11

    def test_channels_are_trace_preserving(self):
        cfg = CollisionModelConfig()
        _, chans = exact_reference_dynamics(cfg, [2, 5])
        ident = vec(np.eye(2, dtype=np.complex128))
        for m in chans:
            assert np.max(np.abs(ident @ m - ident)) < 1e-10


class TestExactControlled:
    def test_identity_gate_matches_reference(self):
        cfg = CollisionModelConfig()
        periods = [0, 1, 2, 3, 4]
        ref, _ = exact_reference_dynamics(cfg, periods)
        got = exact_controlled_dynamics(cfg, np.eye(2), 2, periods)
        for a, b in zip(ref, got):
            assert np.max(np.abs(a - b)) < 1e-12

    def test_gate_applied_at_event_period(self):
        cfg = CollisionModelConfig()
        ref, _ = exact_reference_dynamics(cfg, [2])
        got = exact_controlled_dynamics(cfg, SIGMA_X, 2, [2])
        want = SIGMA_X @ ref[0] @ SIGMA_X
        assert np.max(np.abs(got[0] - want)) < 1e-12

    def test_pre_gate_states_unaffected(self):
        cfg = CollisionModelConfig()
        ref, _ = exact_reference_dynamics(cfg, [0, 1])
        got = exact_controlled_dynamics(cfg, SIGMA_X, 2, [0, 1])
        for a, b in zip(ref, got):
            assert np.max(np.abs(a - b)) < 1e-12

    def test_non_unitary_gate_rejected(self):
        with pytest.raises(ValueError):
            exact_controlled_dynamics(CollisionModelConfig(), np.eye(2) * 2, 1,
                                      [0, 1])


class TestTrueModelLikelihood:
    def test_single_record_closed_form(self):
        cfg = CollisionModelConfig()
        ds = generate_trajectory(cfg, 1, 21)
        states, _ = exact_reference_dynamics(cfg, [1])
        rec = ds.records[0]
        phi = rec.basis[:, rec.outcome]
        want = np.log(np.real(phi.conj() @ states[0] @ phi))
        assert abs(true_model_log_likelihood(cfg, ds) - want) < 1e-10

    def test_longer_record_is_finite_and_negative(self):
        cfg = CollisionModelConfig()
        ds = generate_trajectory(cfg, 200, 22)
        ll = true_model_log_likelihood(cfg, ds)
        assert np.isfinite(ll)
        assert ll < 0.0

    def test_engine_matches_simulator_loop(self):
        cfg = CollisionModelConfig()
        ds = generate_trajectory(cfg, 2000, 25)
        phis = [rec.basis[:, rec.outcome] for rec in ds.records]
        want = oracles.filtered_log_likelihood(period_superoperator(cfg),
                                               cfg.rho_ss1_0, phis)
        assert abs(true_model_log_likelihood(cfg, ds) - want) < 1e-12


class TestSplitting:
    def test_split_halves(self):
        ds = generate_trajectory(CollisionModelConfig(), 10, 23)
        tr, va = split_dataset(ds, 6)
        assert [r.step for r in tr.records] == [1, 2, 3, 4, 5, 6]
        assert [r.step for r in va.records] == [7, 8, 9, 10]

    def test_prefix(self):
        ds = generate_trajectory(CollisionModelConfig(), 10, 24)
        pre = dataset_prefix(ds, 4)
        assert [r.step for r in pre.records] == [1, 2, 3, 4]
        with pytest.raises(ValueError):
            dataset_prefix(ds, 11)

    def test_continuation_spans_train_remainder_then_validation(self):
        ds = generate_trajectory(CollisionModelConfig(), 12, 25)
        tr, va = split_dataset(ds, 8)
        cont = validation_continuation(tr, va, 5)
        assert [r.step for r in cont.records] == [6, 7, 8, 9, 10, 11, 12][:4]

    def test_continuation_at_full_length_is_validation(self):
        ds = generate_trajectory(CollisionModelConfig(), 12, 26)
        tr, va = split_dataset(ds, 8)
        cont = validation_continuation(tr, va, 8)
        assert [r.step for r in cont.records] == [r.step for r in va.records]


class TestOverfitOracle:
    def _dataset(self, n_total, seed):
        return generate_trajectory(CollisionModelConfig(), n_total, seed)

    def test_training_half_is_exactly_zero(self):
        ds = self._dataset(40, 27)
        rho_s0 = np.array([[1, 0], [0, 0]], dtype=np.complex128)
        train_ll, _ = overfit_oracle(ds, rho_s0)
        assert train_ll == 0.0

    def test_validation_half_matches_product_of_overlaps(self):
        ds = self._dataset(12, 28)
        rho_s0 = np.array([[1, 0], [0, 0]], dtype=np.complex128)
        _, val_ps = overfit_oracle(ds, rho_s0)
        recs = ds.records
        n = len(recs) // 2
        projs = []
        for rec in recs:
            phi = rec.basis[:, rec.outcome]
            projs.append(np.outer(phi, phi.conj()))
        total = 0.0
        for j in range(n):
            rec = recs[n + j]
            phi = rec.basis[:, rec.outcome]
            source = rho_s0 if j == 0 else projs[j - 1]
            total += np.log(np.real(phi.conj() @ source @ phi))
        assert abs(val_ps - total / n) < 1e-12

    def test_odd_length_rejected(self):
        ds = self._dataset(5, 29)
        with pytest.raises(DataError):
            overfit_oracle(ds, np.eye(2, dtype=np.complex128) / 2)


class TestPersistence:
    def test_round_trip_bytes(self, tmp_path):
        ds = generate_trajectory(CollisionModelConfig(), 8, 30)
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        save_dataset(ds, p1)
        back = load_dataset(p1)
        save_dataset(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_records_equal(self, tmp_path):
        ds = generate_trajectory(CollisionModelConfig(), 8, 31)
        path = tmp_path / "data.jsonl"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.tau == ds.tau
        assert back.d_s == ds.d_s
        for ra, rb in zip(ds.records, back.records):
            assert ra.step == rb.step
            assert ra.outcome == rb.outcome
            assert np.array_equal(ra.basis, rb.basis)

    def test_file_line_count(self, tmp_path):
        ds = generate_trajectory(CollisionModelConfig(), 4, 32)
        path = tmp_path / "data.jsonl"
        save_dataset(ds, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 5  # header plus one line per record
