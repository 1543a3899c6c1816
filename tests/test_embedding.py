"""Embedded-channel model tests: dilation, superoperator, generator,
equilibrium, and trajectory prediction, checked against independent routes."""
import numpy as np
import pytest
import scipy.linalg

from embedlearn.embedding import (MAX_D_ER, MarkovianEmbedding, PeriodChannel,
                                  _kraus_superoperator, equilibrium_er_state,
                                  extract_generator, kraus_stack, load_model,
                                  make_embedding, model_from_dict, model_to_dict,
                                  predict_dynamics, save_model,
                                  superoperator_matrix)
from embedlearn.assess import ControlEvent, dynamics_maps, predict_with_control
from embedlearn.errors import FixedPointError
from embedlearn.qla import (SIGMA_X, DimSpec, dagger, expm_unitary, kron, ptrace,
                            unvec, vec)
from embedlearn.train import init_model

import oracles
from oracles import apply_channel, apply_dual


def random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (a + a.conj().T)


def random_density(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_model(rng, d_s=2, d_er=2, tau=1.0, scale=0.5):
    """Fully generic model: dense Hermitian H over the whole dilation,
    normalized so the channel stays well clear of the log branch cut."""
    dims = DimSpec(d_s=d_s, d_er=d_er)
    h = scale * random_hermitian(rng, dims.d_total) / np.sqrt(dims.d_total)
    return make_embedding(dims, tau, h, random_density(rng, dims.d))


def decoupled_model(rng, d_s=2, d_er=2, tau=1.0, scale=0.7):
    """Ancilla acts as a spectator: H = H_{joint} x I, channel is unitary."""
    dims = DimSpec(d_s=d_s, d_er=d_er)
    h_joint = scale * random_hermitian(rng, dims.d)
    h = kron(h_joint, np.eye(dims.d_a, dtype=np.complex128))
    model = make_embedding(dims, tau, h, random_density(rng, dims.d))
    return model, h_joint


class TestModelConstruction:
    def test_non_hermitian_hamiltonian_rejected(self):
        dims = DimSpec(d_s=2, d_er=1)
        h = np.zeros((dims.d_total, dims.d_total), dtype=np.complex128)
        h[0, 1] = 1.0
        with pytest.raises(ValueError):
            make_embedding(dims, 1.0, h, np.eye(2) / 2)

    def test_wrong_hamiltonian_side_rejected(self):
        dims = DimSpec(d_s=2, d_er=1)
        with pytest.raises(ValueError):
            make_embedding(dims, 1.0, np.zeros((4, 4)), np.eye(2) / 2)

    def test_initial_state_must_be_density(self):
        dims = DimSpec(d_s=2, d_er=1)
        h = np.zeros((dims.d_total, dims.d_total))
        with pytest.raises(ValueError):
            make_embedding(dims, 1.0, h, np.eye(2))  # trace 2

    @pytest.mark.parametrize("target", ["h-diagonal", "h-off-diagonal", "rho0_ser",
                                        "rho_a"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, target, value):
        # Each check fails closed: a NaN deviation compares false against
        # every tolerance, so it must not slip through as "small".  The
        # ancilla state is not model data; only a model file records it.
        dims = DimSpec(d_s=2, d_er=1)
        h = np.zeros((dims.d_total, dims.d_total), dtype=np.complex128)
        rho = np.eye(2, dtype=np.complex128) / 2
        if target == "rho_a":
            obj = model_to_dict(make_embedding(dims, 1.0, h, rho))
            rho_a = oracles.b64_decode(obj["rho_a"], "<c16", (dims.d_a, dims.d_a))
            rho_a[0, 0] = value
            obj["rho_a"] = oracles.b64_encode(rho_a, "<c16")
            with pytest.raises(ValueError, match="rho_a must be"):
                model_from_dict(obj)
            return
        if target == "h-diagonal":
            h[0, 0] = value
        elif target == "h-off-diagonal":
            h[0, 1] = h[1, 0] = value
        else:
            rho[0, 0] = value
        with pytest.raises(ValueError, match="non-finite"):
            make_embedding(dims, 1.0, h, rho)

    @pytest.mark.parametrize("tau", [np.nan, np.inf, -1.0, 0.0])
    def test_period_must_be_positive_and_finite(self, tau):
        dims = DimSpec(d_s=2, d_er=1)
        h = np.zeros((dims.d_total, dims.d_total))
        with pytest.raises(ValueError, match="tau"):
            make_embedding(dims, tau, h, np.eye(2) / 2)

    def test_mixed_ancilla_rejected(self):
        dims = DimSpec(d_s=2, d_er=1)
        h = np.zeros((dims.d_total, dims.d_total))
        obj = model_to_dict(make_embedding(dims, 1.0, h, np.eye(2) / 2))
        obj["rho_a"] = oracles.b64_encode(np.eye(dims.d_a) / dims.d_a, "<c16")
        with pytest.raises(ValueError, match="rho_a must be"):
            model_from_dict(obj)

    def test_ancilla_defaults_to_ground_state(self):
        rng = np.random.default_rng(0)
        model = random_model(rng)
        d_a = model.dims.d_a
        rho_a = oracles.b64_decode(model_to_dict(model)["rho_a"], "<c16", (d_a, d_a))
        assert rho_a.tobytes() == oracles.ground_ancilla(d_a).tobytes()

    @pytest.mark.parametrize("d_er", [1, 2, 3])
    def test_kraus_stack_matches_eigh_ancilla_route(self, d_er):
        # Slicing U at the |0> ancilla column is bitwise the contraction of
        # U against the eigh-derived, phase-fixed ancilla vector.
        model = init_model(DimSpec(d_s=2, d_er=d_er), 1.0, np.random.default_rng(0))
        u = expm_unitary(model.h, model.tau)
        want = oracles.kraus_stack_eigh(model, u)
        got = kraus_stack(model, u)
        assert got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()
        assert superoperator_matrix(model, u).tobytes() == _kraus_superoperator(want).tobytes()


class TestApplyChannel:
    def test_decoupled_hamiltonian_is_unitary_conjugation(self):
        rng = np.random.default_rng(1)
        model, h_joint = decoupled_model(rng)
        rho = random_density(rng, model.dims.d)
        u = expm_unitary(h_joint, model.tau)
        want = u @ rho @ dagger(u)
        assert np.max(np.abs(apply_channel(model, rho) - want)) < 1e-12

    def test_trace_preserved_on_maximally_mixed(self):
        rng = np.random.default_rng(2)
        model = random_model(rng)
        d = model.dims.d
        out = apply_channel(model, np.eye(d, dtype=np.complex128) / d)
        assert abs(np.trace(out) - 1.0) < 1e-12

    def test_matches_kraus_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(3):
            model = random_model(rng)
            d, d_a = model.dims.d, model.dims.d_a
            u = expm_unitary(model.h, model.tau)
            # Kraus slices read straight off U against the |0> ancilla column.
            kraus = [np.array([[u[x * d_a + j, y * d_a] for y in range(d)]
                               for x in range(d)]) for j in range(d_a)]
            rho = random_density(rng, d)
            want = oracles.kraus_apply(kraus, rho)
            assert np.max(np.abs(apply_channel(model, rho) - want)) < 1e-12

    def test_positive_output(self):
        rng = np.random.default_rng(4)
        model = random_model(rng)
        out = apply_channel(model, random_density(rng, model.dims.d))
        assert np.linalg.eigvalsh(out).min() > -1e-12

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        model = random_model(rng)
        with pytest.raises(ValueError):
            apply_channel(model, np.eye(3) / 3)


class TestApplyDual:
    def test_unitality(self):
        rng = np.random.default_rng(6)
        model = random_model(rng)
        d = model.dims.d
        out = apply_dual(model, np.eye(d, dtype=np.complex128))
        assert np.max(np.abs(out - np.eye(d))) < 1e-12

    def test_adjoint_identity(self):
        rng = np.random.default_rng(7)
        model = random_model(rng)
        d = model.dims.d
        for _ in range(100):
            rho = random_density(rng, d)
            effect = random_hermitian(rng, d)
            lhs = np.trace(apply_channel(model, rho) @ effect)
            rhs = np.trace(rho @ apply_dual(model, effect))
            assert abs(lhs - rhs) < 1e-12

    def test_decoupled_hamiltonian_reverses_conjugation(self):
        rng = np.random.default_rng(8)
        model, h_joint = decoupled_model(rng)
        effect = random_hermitian(rng, model.dims.d)
        u = expm_unitary(h_joint, model.tau)
        want = dagger(u) @ effect @ u
        assert np.max(np.abs(apply_dual(model, effect) - want)) < 1e-12


class TestSuperoperatorMatrix:
    def test_zero_hamiltonian_gives_identity(self):
        dims = DimSpec(d_s=2, d_er=1)
        model = make_embedding(dims, 1.0, np.zeros((dims.d_total, dims.d_total)),
                               np.eye(2) / 2)
        m = superoperator_matrix(model, expm_unitary(model.h, model.tau))
        assert np.max(np.abs(m - np.eye(4))) < 1e-12

    def test_agrees_with_channel_on_matrix_units(self):
        rng = np.random.default_rng(9)
        model = random_model(rng)
        d = model.dims.d
        m = superoperator_matrix(model, expm_unitary(model.h, model.tau))
        for i in range(d):
            for j in range(d):
                unit = np.zeros((d, d), dtype=np.complex128)
                unit[i, j] = 1.0
                want = apply_channel(model, unit)
                got = unvec(m @ vec(unit))
                assert np.max(np.abs(got - want)) < 1e-12

    def test_identity_is_left_fixed_point(self):
        rng = np.random.default_rng(10)
        model = random_model(rng)
        d = model.dims.d
        ident = vec(np.eye(d, dtype=np.complex128))
        m = superoperator_matrix(model, expm_unitary(model.h, model.tau))
        assert np.max(np.abs(ident @ m - ident)) < 1e-12

    def test_kraus_stack_shape(self):
        rng = np.random.default_rng(11)
        model = random_model(rng, d_er=1)
        ks = kraus_stack(model, expm_unitary(model.h, model.tau))
        assert ks.shape == (model.dims.d_a, model.dims.d, model.dims.d)
        total = sum(dagger(k) @ k for k in ks)
        assert np.max(np.abs(total - np.eye(model.dims.d))) < 1e-12


class TestExtractGenerator:
    def test_zero_hamiltonian_gives_zero_generator(self):
        dims = DimSpec(d_s=2, d_er=1)
        model = make_embedding(dims, 1.0, np.zeros((dims.d_total, dims.d_total)),
                               np.eye(2) / 2)
        assert np.max(np.abs(extract_generator(model).matrix)) < 1e-12

    def test_unitary_channel_gives_commutator_form(self):
        rng = np.random.default_rng(12)
        model, h_joint = decoupled_model(rng, scale=0.4)
        d = model.dims.d
        gen = extract_generator(model)
        ident = np.eye(d, dtype=np.complex128)
        want = -1j * (kron(ident, h_joint) - kron(h_joint.T, ident))
        assert np.max(np.abs(gen.matrix - want)) < 1e-10

    def test_round_trip(self):
        rng = np.random.default_rng(13)
        for _ in range(3):
            model = random_model(rng)
            m = superoperator_matrix(model, expm_unitary(model.h, model.tau))
            gen = extract_generator(model)
            back = scipy.linalg.expm(model.tau * gen.matrix)
            assert np.linalg.norm(back - m) / np.linalg.norm(m) < 1e-8

    def test_composition_matches_semigroup(self):
        rng = np.random.default_rng(14)
        model = random_model(rng)
        gen = extract_generator(model)
        rho = random_density(rng, model.dims.d)
        state = rho
        for k in range(1, 11):
            state = apply_channel(model, state)
            via_gen = unvec(scipy.linalg.expm(k * model.tau * gen.matrix) @ vec(rho))
            assert np.max(np.abs(state - via_gen)) < 1e-8


    def test_generator_carries_its_models_dims_and_period(self):
        # The prediction functions take both from the generator they are given.
        model = random_model(np.random.default_rng(29), d_er=3, tau=0.8)
        gen = extract_generator(model)
        assert (gen.dims, gen.tau) == (model.dims, model.tau)
        assert predict_dynamics(gen, model.rho0_ser, [0.0, 0.8]).shape == (2, 2, 2)


class TestOneEigensystem:
    def test_generator_flow_matches_dense_exponential(self):
        rng = np.random.default_rng(27)
        for d_er in (1, 2):
            model = random_model(rng, d_er=d_er, tau=0.8)
            gen = extract_generator(model)
            x = vec(random_density(rng, model.dims.d))[:, None]
            times = np.array([0.0, 0.3, 0.8, 2.7])
            flow = gen.propagate(x, times)
            assert np.array_equal(flow[0], x)
            for t, got in zip(times[1:], flow[1:]):
                want = scipy.linalg.expm(t * gen.matrix) @ x
                assert np.max(np.abs(got - want)) < 1e-10

    def test_push_forward_diagonalizes_once(self, monkeypatch):
        # Generator, equilibrium, trajectory, reduced maps and a gated
        # trajectory all reuse the eigensystem of the one principal log.
        calls = []
        eig = np.linalg.eig

        def counting_eig(a):
            calls.append(np.shape(a))
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", counting_eig)
        rng = np.random.default_rng(28)
        model = random_model(rng)
        dims = model.dims
        gen = extract_generator(model)
        er = equilibrium_er_state(gen)
        rho_ser0 = kron(random_density(rng, dims.d_s), er)
        predict_dynamics(gen, rho_ser0, [0.0, 1.0, 2.5])
        dynamics_maps(gen, er, [1.0, 2.0])
        assert calls == [(1, dims.d ** 2, dims.d ** 2)]  # a stack of one
        predict_with_control(gen, rho_ser0,
                             [ControlEvent(1.0, SIGMA_X)], [0.5, 2.0])
        assert len(calls) == 1


class TestEquilibrium:
    def test_unital_mixture_gives_maximally_mixed_reservoir(self):
        rng = np.random.default_rng(15)
        dims = DimSpec(d_s=2, d_er=2)
        d, d_a = dims.d, dims.d_a
        # Equal mixture of two generic unitaries: Kraus V_j/sqrt(2) reached
        # by a controlled-unitary after rotating the ancilla ground state
        # into (|0> + |1>)/sqrt(2).
        v0 = expm_unitary(0.5 * random_hermitian(rng, d), 1.0)
        v1 = expm_unitary(0.5 * random_hermitian(rng, d), 1.0)
        cu = np.zeros((d * d_a, d * d_a), dtype=np.complex128)
        for j in range(d_a):
            block = v0 if j == 0 else (v1 if j == 1 else np.eye(d))
            for x in range(d):
                for y in range(d):
                    cu[x * d_a + j, y * d_a + j] = block[x, y]
        w = np.eye(d_a, dtype=np.complex128)
        w[:2, :2] = np.array([[1, -1], [1, 1]]) / np.sqrt(2)
        u = cu @ kron(np.eye(d, dtype=np.complex128), w)
        h = 1j * scipy.linalg.logm(u)
        h = 0.5 * (h + h.conj().T)
        model = make_embedding(dims, 1.0, h, np.eye(d) / d)
        # the dilation reproduces the intended mixture
        rho = random_density(rng, d)
        want = 0.5 * (v0 @ rho @ dagger(v0) + v1 @ rho @ dagger(v1))
        assert np.max(np.abs(apply_channel(model, rho) - want)) < 1e-10
        er = equilibrium_er_state(extract_generator(model))
        assert np.max(np.abs(er - np.eye(2) / 2)) < 1e-8

    def test_unitary_channel_has_no_unique_fixed_point(self):
        rng = np.random.default_rng(26)
        model, _ = decoupled_model(rng, scale=0.3)
        with pytest.raises(FixedPointError):
            equilibrium_er_state(extract_generator(model))

    def test_matches_power_iteration(self):
        rng = np.random.default_rng(16)
        model = random_model(rng)
        dims = model.dims
        gen = extract_generator(model)
        er = equilibrium_er_state(gen)
        channel = scipy.linalg.expm(model.tau * gen.matrix)
        rho_inf = oracles.power_fixed_point(channel)
        want = ptrace(rho_inf, [dims.d_s, dims.d_er], [1])
        assert np.max(np.abs(er - want)) < 1e-8
        # stationary-state residual under the generator
        resid = gen.matrix @ vec(rho_inf)
        assert np.linalg.norm(resid) < 1e-6

    def test_reservoir_state_is_density(self):
        rng = np.random.default_rng(17)
        model = random_model(rng)
        er = equilibrium_er_state(extract_generator(model))
        assert abs(np.trace(er) - 1.0) < 1e-10
        assert np.linalg.eigvalsh(er).min() > -1e-10

    def test_trivial_reservoir(self):
        rng = np.random.default_rng(18)
        model = random_model(rng, d_er=1)
        er = equilibrium_er_state(extract_generator(model))
        assert np.array_equal(er, np.ones((1, 1), dtype=np.complex128))


class TestPredictDynamics:
    def test_time_zero_echoes_initial_state(self):
        rng = np.random.default_rng(19)
        model = random_model(rng)
        dims = model.dims
        gen = extract_generator(model)
        rho_s = random_density(rng, dims.d_s)
        er = random_density(rng, dims.d_er)
        out = predict_dynamics(gen, kron(rho_s, er), [0.0])
        assert np.max(np.abs(out[0] - rho_s)) < 1e-12

    def test_decoupled_system_evolves_unitarily(self):
        rng = np.random.default_rng(20)
        dims = DimSpec(d_s=2, d_er=2)
        h_s = 0.3 * random_hermitian(rng, 2)
        h = kron(h_s, np.eye(dims.d_er * dims.d_a, dtype=np.complex128))
        model = make_embedding(dims, 1.0, h, np.eye(dims.d) / dims.d)
        gen = extract_generator(model)
        rho_s = random_density(rng, 2)
        er0 = np.eye(2, dtype=np.complex128) / 2
        times = [0.0, 1.0, 2.0, 3.0]
        states = predict_dynamics(gen, kron(rho_s, er0), times)
        for t, got in zip(times, states):
            u = expm_unitary(h_s, t)
            assert np.max(np.abs(got - u @ rho_s @ dagger(u))) < 1e-9

    def test_traces_stay_one(self):
        rng = np.random.default_rng(21)
        model = random_model(rng)
        gen = extract_generator(model)
        states = predict_dynamics(gen, model.rho0_ser,
                                  [0.0, 0.5, 1.0, 2.5])
        for rho in states:
            assert abs(np.trace(rho) - 1.0) < 1e-8

    def test_negative_time_rejected(self):
        rng = np.random.default_rng(22)
        model = random_model(rng)
        gen = extract_generator(model)
        with pytest.raises(ValueError):
            predict_dynamics(gen, model.rho0_ser, [-1.0])


class TestPeriodChannel:
    @pytest.mark.parametrize("d_er", [1, 2])
    def test_matches_the_generator_at_whole_periods(self, d_er):
        rng = np.random.default_rng(40 + d_er)
        model = random_model(rng, d_er=d_er, tau=0.5)
        side = model.dims.d ** 2
        # A stack of two blocks of three columns each.
        x = rng.standard_normal((2, side, 3)) + 1j * rng.standard_normal((2, side, 3))
        periods = [3, 0, 7, 1, 3]
        got = oracles.model_channel(model).propagate(x, periods)
        want = extract_generator(model).propagate(x, model.tau * np.array(periods, float))
        assert got.shape == want.shape == (2, 5, side, 3)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_period_zero_is_the_input(self):
        rng = np.random.default_rng(43)
        model = random_model(rng)
        x = rng.standard_normal((model.dims.d ** 2, 2)) + 0j
        out = oracles.model_channel(model).propagate(x, [0, 2, 0.0])
        assert np.array_equal(out[0], x) and np.array_equal(out[2], x)

    @pytest.mark.parametrize("periods,match", [
        ([-1], "must be nonnegative"), ([2, -np.inf], "must be nonnegative"),
        ([1, 2.5], "must be integers"), ([np.nan], "must be integers"),
        ([np.inf], "must be integers"),
    ])
    def test_negative_and_non_integer_counts_rejected(self, periods, match):
        channel = PeriodChannel(np.eye(4, dtype=np.complex128), DimSpec(d_s=2, d_er=1),
                                np.eye(2, dtype=np.complex128) / 2, 1.0)
        with pytest.raises(ValueError, match=f"period counts {match}"):
            channel.propagate(np.ones((4, 1), dtype=np.complex128), periods)


class TestSerialization:
    def test_dict_round_trip(self):
        rng = np.random.default_rng(23)
        model = random_model(rng)
        back = model_from_dict(model_to_dict(model))
        assert np.array_equal(back.h, model.h)
        assert np.array_equal(back.rho0_ser, model.rho0_ser)
        assert back.dims == model.dims
        assert back.tau == model.tau

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(24)
        model = random_model(rng, d_er=1)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.h, model.h)

    def test_reservoir_beyond_largest_refused_before_decoding(self):
        # No matrix is valid base64: decoding any would fail for that instead.
        d_er = MAX_D_ER + 1
        obj = {"dims": {"d_s": 2, "d_er": d_er, "d_a": (2 * d_er) ** 2}, "tau": 1.0,
               "h": "*", "rho0_ser": "*", "rho_a": "*"}
        with pytest.raises(ValueError, match=f"dims.d_er must be <= {MAX_D_ER}, got {d_er}"):
            model_from_dict(obj)

    def test_invariants_revalidated_on_load(self):
        rng = np.random.default_rng(25)
        model = random_model(rng, d_er=1)
        obj = model_to_dict(model)
        side = model.dims.d_total
        h = oracles.b64_decode(obj["h"], "<c16", (side, side))
        h[0, 1] += 1.0  # breaks Hermiticity of the (0,1) entry
        obj["h"] = oracles.b64_encode(h, "<c16")
        with pytest.raises(ValueError):
            model_from_dict(obj)
