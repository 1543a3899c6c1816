"""Ground-truth simulator tests: collision steps, measurement sampling,
trajectory generation, exact references, and the memorizing environment."""
import hashlib
import tracemalloc
import zlib

import numpy as np
import pytest

from embedlearn import seeds
from embedlearn.assess import ControlEvent, predict_with_control
from embedlearn.datagen import (CollisionModelConfig, Dataset, _record_vectors,
                                dataset_prefix, default_collision_hamiltonian,
                                exact_reference_dynamics, generate_trajectory,
                                load_dataset, make_records, period_channel,
                                period_superoperator, sample_trajectory, save_dataset,
                                split_dataset, validation_continuation)
from embedlearn.embedding import PeriodChannel, make_embedding
from embedlearn.errors import DataError, ZeroProbabilityError
from embedlearn.likelihood import true_model_log_likelihood
from embedlearn.qla import (SIGMA_X, SIGMA_Y, SIGMA_Z, DimSpec, dagger, expm_unitary,
                            kron, ptrace, unvec, vec)

import oracles
from oracles import collision_step, overfit_oracle, sample_measurement


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


def random_collision_config(seed):
    """A random 8x8 interaction and a random correlated S x S1 start."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    return CollisionModelConfig(hamiltonian=(a + a.conj().T) / 4,
                                rho_ss1_0=random_density(rng, 4))


def random_unitary(seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q


def reference(cfg, periods):
    """The truth's unmeasured states and maps at ``periods``."""
    return exact_reference_dynamics(period_channel(cfg), periods)


def controlled(cfg, gate, event_period, periods):
    """The truth's S states at ``periods`` with ``gate`` on S at the
    boundary of ``event_period``, as the ``compare`` command predicts them."""
    truth = period_channel(cfg)
    return predict_with_control(truth, truth.rho0,
                                [ControlEvent(event_period, gate)], periods)


# Sorted, unsorted with repeats, all repeats, one late period, none.
PERIOD_LISTS = [[0, 1, 2, 3], [5, 0, 3, 3, 1], [2, 2, 2], [9], []]


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
        assert np.array_equal(ds.records["basis"][0], rec.basis)
        assert ds.records["outcome"][0] == rec.outcome

    def test_steps_count_from_one(self):
        ds = generate_trajectory(CollisionModelConfig(), 5, 12)
        assert ds.records["step"].tolist() == [1, 2, 3, 4, 5]

    def test_determinism(self):
        cfg = CollisionModelConfig()
        a = generate_trajectory(cfg, 20, 13)
        b = generate_trajectory(cfg, 20, 13)
        assert np.array_equal(a.records["basis"], b.records["basis"])
        assert np.array_equal(a.records["outcome"], b.records["outcome"])
        assert a.provenance == b.provenance

    @pytest.mark.parametrize("seed", [-1, 2**32, 2**32 + 13])
    def test_seed_outside_32_bits_is_refused(self, seed):
        # The stream keeps 32 bits of its seed, so a wider seed would repeat
        # the records of another one instead of giving its own.
        with pytest.raises(ValueError, match="seed must be in"):
            seeds.stream(seed, "trajectory")
        with pytest.raises(ValueError, match="seed must be in"):
            generate_trajectory(CollisionModelConfig(), 2, seed)

    @pytest.mark.parametrize("seed", [0, 13, 2**32 - 1])
    def test_seeds_in_range_keep_their_streams(self, seed):
        # The stream of a 32-bit seed is the one it had when wider seeds were
        # masked to 32 bits.
        material = np.random.SeedSequence([seed, 4, zlib.crc32(b"trajectory")])
        want = np.random.Generator(np.random.PCG64(material)).random(4)
        assert np.array_equal(seeds.stream(seed, 4, "trajectory").random(4), want)

    def test_first_step_marginals_match_exact_state(self):
        cfg = CollisionModelConfig()
        exact_states, _ = reference(cfg, [1])
        rho1 = exact_states[0]
        n = 4000
        indicator = np.zeros(n)
        p0 = np.zeros(n)
        for s in range(n):
            ds = generate_trajectory(cfg, 1, 1000 + s)
            phi0 = ds.records["basis"][0, :, 0]
            p0[s] = np.real(phi0.conj() @ rho1 @ phi0)
            indicator[s] = 1.0 if ds.records["outcome"][0] == 0 else 0.0
        sigma = np.sqrt(np.sum(p0 * (1 - p0))) / n
        assert abs(indicator.mean() - p0.mean()) < 3 * sigma

    def test_basis_unitarity_along_trajectory(self):
        ds = generate_trajectory(CollisionModelConfig(), 50, 14)
        for b in ds.records["basis"]:
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
        assert np.array_equal(ds.records["basis"], bases)
        assert ds.records["outcome"].tolist() == outcomes.tolist()

    @pytest.mark.parametrize("d_er", [1, 2, 3])
    def test_any_memory_matches_joint_oracle(self, d_er):
        # The sampler reads every memory size from the channel it samples:
        # here a random embedding's, its reservoir the memory.
        rng = np.random.default_rng(60 + d_er)
        dims = DimSpec(d_s=2, d_er=d_er)
        a = rng.standard_normal((dims.d_total, dims.d_total)) * (1 + 1j)
        h = 0.25 * (a + a.conj().T) / np.sqrt(dims.d_total)
        channel = oracles.model_channel(
            make_embedding(dims, 1.0, h, random_density(rng, dims.d)))
        ds = sample_trajectory(channel, 600, d_er, "model")
        bases, outcomes = oracles.joint_trajectory(
            channel.m, channel.rho0, seeds.stream(d_er, "trajectory"), 600)
        assert np.array_equal(ds.records["basis"], bases)
        assert ds.records["outcome"].tolist() == outcomes.tolist()
        assert 0 < outcomes.mean() < 1
        assert ds.provenance == {"seed": d_er, "config_hash": "model"}

    def test_generate_is_the_sampler_on_the_truth(self):
        cfg = CollisionModelConfig(tau=0.5)
        ds = generate_trajectory(cfg, 40, 8)
        want = sample_trajectory(period_channel(cfg), 40, 8, cfg.digest())
        assert ds.records.tobytes() == want.records.tobytes()
        assert (ds.tau, ds.provenance) == (0.5, {"seed": 8, "config_hash": cfg.digest()})

    def test_non_qubit_channel_rejected(self):
        dims = DimSpec(d_s=3, d_er=1)
        channel = PeriodChannel(np.eye(9, dtype=np.complex128), dims,
                                np.eye(3, dtype=np.complex128) / 3, 1.0)
        with pytest.raises(ValueError, match="d_s=3"):
            sample_trajectory(channel, 5, 0, None)

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
    def test_zero_probability_step_matches_oracle(self, kraus, step):
        m = np.kron(kraus.conj(), kraus).astype(np.complex128)
        rho0 = CollisionModelConfig().rho_ss1_0
        with pytest.raises(ZeroProbabilityError) as exc:
            sample_trajectory(PeriodChannel(m, DimSpec(d_s=2, d_er=2), rho0, 1.0), 10, 5, None)
        assert exc.value.step == step
        with pytest.raises(ValueError, match=f"zero probability at step {step}$"):
            oracles.joint_trajectory(m, rho0, seeds.stream(5, "trajectory"), 10)

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
        states, chans = reference(cfg, [0])
        want = ptrace(np.asarray(cfg.rho_ss1_0), [2, 2], [0])
        assert np.max(np.abs(states[0] - want)) < 1e-12
        assert np.max(np.abs(chans[0] - np.eye(4))) < 1e-12

    def test_traces_one(self):
        cfg = CollisionModelConfig()
        states, _ = reference(cfg, list(range(11)))
        for rho in states:
            assert abs(np.trace(rho) - 1.0) < 1e-10

    def test_channel_action_matches_state_propagation(self):
        cfg = CollisionModelConfig()
        rho_s0 = ptrace(np.asarray(cfg.rho_ss1_0), [2, 2], [0])
        states, chans = reference(cfg, [1, 3, 7])
        for rho_t, m in zip(states, chans):
            via_channel = unvec(m @ vec(rho_s0))
            assert np.max(np.abs(via_channel - rho_t)) < 1e-11

    def test_channels_are_trace_preserving(self):
        cfg = CollisionModelConfig()
        _, chans = reference(cfg, [2, 5])
        ident = vec(np.eye(2, dtype=np.complex128))
        for m in chans:
            assert np.max(np.abs(ident @ m - ident)) < 1e-10

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("periods", PERIOD_LISTS)
    def test_stacks_are_bitwise_the_serial_steps(self, seed, periods):
        cfg = random_collision_config(seed)
        states, chans = reference(cfg, periods)
        want_states, want_chans = oracles.exact_reference_dynamics_serial(cfg, periods)
        assert states.shape == (len(periods), 2, 2)
        assert chans.shape == (len(periods), 4, 4)
        assert np.array_equal(states, np.reshape(want_states, (-1, 2, 2)))
        assert np.array_equal(chans, np.reshape(want_chans, (-1, 4, 4)))

    def test_negative_period_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            reference(CollisionModelConfig(), [2, -1])

    def test_memory_does_not_grow_with_the_period(self):
        # Keeping every power up to period 20000 takes about 30 MB.
        cfg = CollisionModelConfig()
        tracemalloc.start()
        try:
            reference(cfg, [20000, 3])
            controlled(cfg, SIGMA_X, 10000, [20000])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2**20


class TestExactControlled:
    def test_identity_gate_matches_reference(self):
        cfg = CollisionModelConfig()
        periods = [0, 1, 2, 3, 4]
        ref, _ = reference(cfg, periods)
        got = controlled(cfg, np.eye(2), 2, periods)
        for a, b in zip(ref, got):
            assert np.max(np.abs(a - b)) < 1e-12

    def test_gate_applied_at_event_period(self):
        cfg = CollisionModelConfig()
        ref, _ = reference(cfg, [2])
        got = controlled(cfg, SIGMA_X, 2, [2])
        want = SIGMA_X @ ref[0] @ SIGMA_X
        assert np.max(np.abs(got[0] - want)) < 1e-12

    def test_pre_gate_states_unaffected(self):
        cfg = CollisionModelConfig()
        ref, _ = reference(cfg, [0, 1])
        got = controlled(cfg, SIGMA_X, 2, [0, 1])
        for a, b in zip(ref, got):
            assert np.max(np.abs(a - b)) < 1e-12

    def test_non_unitary_gate_rejected(self):
        with pytest.raises(ValueError):
            controlled(CollisionModelConfig(), np.eye(2) * 2, 1, [0, 1])

    def test_negative_period_rejected(self):
        with pytest.raises(ValueError, match="period counts must be nonnegative"):
            controlled(CollisionModelConfig(), SIGMA_X, 2, [-1, 3])

    def test_negative_event_period_rejected(self):
        with pytest.raises(ValueError, match="event times must be nonnegative"):
            controlled(CollisionModelConfig(), SIGMA_X, -1, [0, 3])

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("periods", PERIOD_LISTS)
    def test_gate_after_every_period_is_bitwise_the_reference(self, seed, periods):
        cfg = random_collision_config(seed)
        ref, _ = reference(cfg, periods)
        got = controlled(cfg, random_unitary(seed + 10), max(periods, default=0) + 1, periods)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("periods", PERIOD_LISTS)
    # Before, at, between and after the requested periods, for most lists.
    @pytest.mark.parametrize("event_period", [0, 1, 2, 4, 12])
    def test_stack_is_bitwise_the_serial_steps(self, seed, periods, event_period):
        cfg = random_collision_config(seed)
        gate = random_unitary(seed + 10)
        got = controlled(cfg, gate, event_period, periods)
        want = oracles.exact_controlled_dynamics_serial(cfg, gate, event_period, periods)
        assert got.shape == (len(periods), 2, 2)
        assert np.array_equal(got, np.reshape(want, (-1, 2, 2)))


class TestTrueModelLikelihood:
    def test_single_record_closed_form(self):
        cfg = CollisionModelConfig()
        ds = generate_trajectory(cfg, 1, 21)
        states, _ = reference(cfg, [1])
        phi = oracles.record_vectors_serial(ds.records)[0]
        want = np.log(np.real(phi.conj() @ states[0] @ phi))
        assert abs(true_model_log_likelihood(period_channel(cfg), ds) - want) < 1e-10

    def test_longer_record_is_finite_and_negative(self):
        cfg = CollisionModelConfig()
        ds = generate_trajectory(cfg, 200, 22)
        ll = true_model_log_likelihood(period_channel(cfg), ds)
        assert np.isfinite(ll)
        assert ll < 0.0

    def test_dataset_of_another_tau_or_d_s_is_refused(self):
        ds = generate_trajectory(CollisionModelConfig(), 20, 26)
        with pytest.raises(DataError, match="data tau=1.0 does not match model tau=2.0"):
            true_model_log_likelihood(period_channel(CollisionModelConfig(tau=2.0)), ds)
        qutrit = Dataset(records=make_records([1, 2], np.stack([np.eye(3)] * 2), [0, 2]),
                         tau=1.0, provenance={})
        with pytest.raises(DataError, match="data d_s=3 does not match model d_s=2"):
            true_model_log_likelihood(period_channel(CollisionModelConfig()), qutrit)

    def test_engine_matches_simulator_loop(self):
        cfg = CollisionModelConfig()
        ds = generate_trajectory(cfg, 2000, 25)
        phis = oracles.record_vectors_serial(ds.records)
        want = oracles.filtered_log_likelihood(period_superoperator(cfg),
                                               cfg.rho_ss1_0, phis)
        assert abs(true_model_log_likelihood(period_channel(cfg), ds) - want) < 1e-12


class TestSplitting:
    def test_split_halves(self):
        ds = generate_trajectory(CollisionModelConfig(), 10, 23)
        tr, va = split_dataset(ds, 6)
        assert tr.records["step"].tolist() == [1, 2, 3, 4, 5, 6]
        assert va.records["step"].tolist() == [7, 8, 9, 10]

    def test_prefix(self):
        ds = generate_trajectory(CollisionModelConfig(), 10, 24)
        pre = dataset_prefix(ds, 4)
        assert pre.records["step"].tolist() == [1, 2, 3, 4]
        with pytest.raises(ValueError):
            dataset_prefix(ds, 11)

    def test_continuation_spans_train_remainder_then_validation(self):
        ds = generate_trajectory(CollisionModelConfig(), 12, 25)
        tr, va = split_dataset(ds, 8)
        cont = validation_continuation(tr, va, 5)
        assert cont.records["step"].tolist() == [6, 7, 8, 9, 10, 11, 12][:4]

    def test_continuation_at_full_length_is_validation(self):
        ds = generate_trajectory(CollisionModelConfig(), 12, 26)
        tr, va = split_dataset(ds, 8)
        cont = validation_continuation(tr, va, 8)
        assert cont.records["step"].tolist() == va.records["step"].tolist()


class TestRecordsArray:
    """The records of a dataset as one structured array, and the measured
    system vectors read from it by one fancy index, against the per-record
    stack in ``oracles``."""

    @pytest.mark.parametrize("n, seed", [(1, 50), (7, 51), (600, 52)])
    def test_vectors_of_generated_records(self, n, seed):
        ds = generate_trajectory(CollisionModelConfig(), n, seed)
        assert np.array_equal(_record_vectors(ds), oracles.record_vectors_serial(ds.records))

    def test_vectors_of_slices(self):
        ds = generate_trajectory(CollisionModelConfig(), 40, 53)
        tr, va = split_dataset(ds, 25)
        for part in (tr, va, dataset_prefix(tr, 9), validation_continuation(tr, va, 9),
                     validation_continuation(tr, va, 25)):
            assert np.array_equal(_record_vectors(part),
                                  oracles.record_vectors_serial(part.records))

    def test_empty_records(self):
        ds = Dataset(records=make_records([], np.empty((0, 2, 2)), []), tau=1.0,
                     provenance={})
        got = _record_vectors(ds)
        assert got.shape == (0, 2)
        assert np.array_equal(got, oracles.record_vectors_serial(ds.records))

    def test_d_s_comes_from_the_basis_field(self):
        ds = Dataset(records=make_records([], np.empty((0, 3, 3)), []), tau=1.0,
                     provenance={})
        assert ds.d_s == 3
        assert generate_trajectory(CollisionModelConfig(), 3, 54).d_s == 2

    def test_fields(self):
        recs = generate_trajectory(CollisionModelConfig(), 5, 55).records
        assert type(recs) is np.ndarray
        assert recs.dtype["step"] == np.int64 and recs.dtype["outcome"] == np.int64
        assert recs.dtype["basis"].base == np.complex128
        assert recs.dtype["basis"].shape == (2, 2)


class TestContinuationCheck:
    """``validation_continuation`` refuses validation records that do not
    continue the training records, as ``conditional_validation_ll`` does."""

    def _halves(self, seed):
        return split_dataset(generate_trajectory(CollisionModelConfig(), 30, seed), 20)

    @pytest.mark.parametrize("n", [12, 20])
    def test_foreign_trajectory_rejected(self, n):
        tr, _ = self._halves(60)
        _, foreign = self._halves(61)
        with pytest.raises(DataError, match="provenance differs"):
            validation_continuation(tr, foreign, n)

    def test_gap_rejected(self):
        tr, va = self._halves(62)
        gapped = Dataset(records=va.records[1:], tau=va.tau, provenance=dict(va.provenance))
        with pytest.raises(DataError, match="steps 20 -> 22$"):
            validation_continuation(tr, gapped, 12)


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
        phis = oracles.record_vectors_serial(ds.records)
        n = len(phis) // 2
        projs = [np.outer(phi, phi.conj()) for phi in phis]
        total = 0.0
        for j in range(n):
            phi = phis[n + j]
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
        for name in ("step", "basis", "outcome"):
            assert np.array_equal(ds.records[name], back.records[name])

    def test_file_line_count(self, tmp_path):
        ds = generate_trajectory(CollisionModelConfig(), 4, 32)
        path = tmp_path / "data.jsonl"
        save_dataset(ds, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 5  # header plus one line per record
