"""Optimizer and model-selection tests: Adam against an unrolled recursion,
parameter packing, and fits on data whose generating model is known."""
import numpy as np
import pytest

import oracles
from embedlearn import train
from embedlearn.datagen import (CollisionModelConfig, generate_trajectory,
                                period_channel, split_dataset)
from embedlearn.likelihood import (conditional_validation_ll, forward_pass,
                                   true_model_log_likelihood)
from embedlearn.qla import SIGMA_X, DimSpec, dagger, kron, ptrace
from embedlearn.train import (AdamState, LearningCurve, TrainConfig,
                              adam_update, fit, gradient_to_params, init_model,
                              pack_hermitian, select_d_er, unpack_hermitian)


def markovian_collision_config():
    """Collision Hamiltonian acting on the system alone: the reduced
    dynamics is exactly unitary, so a one-dimensional reservoir suffices."""
    i4 = np.eye(4, dtype=np.complex128)
    return CollisionModelConfig(hamiltonian=kron(0.3 * SIGMA_X, i4))


@pytest.fixture(scope="module")
def markovian_fit():
    """One d_er=1 fit on unitary-system collision data, shared across the
    tests that inspect its curve and final model."""
    cfg = markovian_collision_config()
    ds = generate_trajectory(cfg, 800, 77)
    tr, va = split_dataset(ds, 400)
    tc = TrainConfig(epochs=300, batch_size=400, seed=3, restarts=1,
                     convergence_window=60, convergence_tol=1e-4, val_every=25)
    model, curve = fit(tr, va, DimSpec(d_s=2, d_er=1), tc)
    truth_train = true_model_log_likelihood(period_channel(cfg), tr)
    return model, curve, truth_train, tc, tr, va


class TestParameterPacking:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for d in (2, 5, 8):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h = 0.5 * (a + a.conj().T)
            p = pack_hermitian(h)
            assert p.shape == (d * d,)
            assert p.dtype == np.float64
            assert np.max(np.abs(unpack_hermitian(p, d) - h)) < 1e-14

    def test_unpack_always_hermitian(self):
        rng = np.random.default_rng(1)
        h = unpack_hermitian(rng.standard_normal(16), 4)
        assert np.max(np.abs(h - dagger(h))) == 0.0

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            unpack_hermitian(np.zeros(10), 4)

    def test_gradient_chain_rule(self):
        # Entrywise gradient paired with a Hermitian perturbation equals
        # the packed gradient dotted with the packed perturbation.
        rng = np.random.default_rng(2)
        d = 6
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        g = 0.5 * (a + a.conj().T)
        dp = rng.standard_normal(d * d)
        dh = unpack_hermitian(dp, d)
        direct = np.sum(g * dh).real
        packed = float(gradient_to_params(g) @ dp)
        assert abs(direct - packed) < 1e-12


class TestAdam:
    def test_first_step_closed_form(self):
        cfg = TrainConfig()
        g = np.array([3.0, -0.2, 1e-7])
        params, state = adam_update(AdamState.fresh(3), np.zeros(3), g, cfg)
        want = cfg.lr * g / (np.abs(g) + cfg.eps_adam)
        assert np.max(np.abs(params - want)) < 1e-15
        assert state.t == 1

    def test_first_step_is_signlike_for_large_gradient(self):
        cfg = TrainConfig()
        g = np.array([50.0, -80.0])
        params, _ = adam_update(AdamState.fresh(2), np.zeros(2), g, cfg)
        assert np.max(np.abs(params - cfg.lr * np.sign(g))) < 1e-5

    def test_zero_gradient_keeps_parameters(self):
        cfg = TrainConfig()
        params = np.array([0.4, -1.2])
        state = AdamState.fresh(2)
        for _ in range(20):
            params, state = adam_update(state, params, np.zeros(2), cfg)
        assert np.array_equal(params, np.array([0.4, -1.2]))

    def test_hundred_steps_match_unrolled_recursion(self):
        # Independent route: geometric sums over the full gradient history
        # recomputed from scratch at every step, no running accumulators.
        cfg = TrainConfig()
        rng = np.random.default_rng(3)
        grads = rng.standard_normal((100, 7))
        start = rng.standard_normal(7)

        params = start.copy()
        state = AdamState.fresh(7)
        trace = []
        for g in grads:
            params, state = adam_update(state, params, g, cfg)
            trace.append(params.copy())

        b1, b2 = cfg.beta1, cfg.beta2
        ref = start.copy()
        for t in range(1, 101):
            hist = grads[:t]
            w1 = b1 ** np.arange(t - 1, -1, -1)
            w2 = b2 ** np.arange(t - 1, -1, -1)
            m1 = (1.0 - b1) * np.einsum("t,tp->p", w1, hist)
            m2 = (1.0 - b2) * np.einsum("t,tp->p", w2, hist ** 2)
            m1_hat = m1 / (1.0 - b1 ** t)
            m2_hat = m2 / (1.0 - b2 ** t)
            ref = ref + cfg.lr * m1_hat / (np.sqrt(m2_hat) + cfg.eps_adam)
            assert np.max(np.abs(trace[t - 1] - ref)) < 1e-12

    def test_moments_stay_finite(self):
        cfg = TrainConfig()
        rng = np.random.default_rng(4)
        params = np.zeros(5)
        state = AdamState.fresh(5)
        for _ in range(200):
            params, state = adam_update(state, params,
                                        rng.standard_normal(5) * 100, cfg)
        assert np.all(np.isfinite(state.m1))
        assert np.all(np.isfinite(state.m2))
        assert np.all(np.isfinite(params))


class TestTrainConfigValidation:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.lr == 1e-3
        assert cfg.beta1 == 0.9
        assert cfg.beta2 == 0.95
        assert cfg.eps_adam == 1e-4
        assert cfg.batch_size == 1000

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(init_scale=0.0)
        with pytest.raises(ValueError):
            TrainConfig(beta1=1.0)


class TestInitModel:
    def test_hamiltonian_is_identity_on_ancilla(self):
        # Pairing H with any traceless ancilla operator must vanish.
        rng = np.random.default_rng(5)
        dims = DimSpec(d_s=2, d_er=2)
        model = init_model(dims, 1.0, rng)
        d, d_a = dims.d, dims.d_a
        x = rng.standard_normal((d_a, d_a)) + 1j * rng.standard_normal((d_a, d_a))
        x = x - np.trace(x) / d_a * np.eye(d_a)
        paired = ptrace(np.asarray(model.h) @ kron(np.eye(d, dtype=np.complex128), x),
                        [d, d_a], [0])
        assert np.max(np.abs(paired)) < 1e-12

    def test_initial_state_is_pure_product(self):
        rng = np.random.default_rng(6)
        dims = DimSpec(d_s=2, d_er=2)
        model = init_model(dims, 1.0, rng)
        rho = np.asarray(model.rho0_ser)
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12
        rho_s = ptrace(rho, [2, 2], [0])
        assert abs(np.trace(rho_s @ rho_s).real - 1.0) < 1e-12

    def test_seed_reproducibility(self):
        dims = DimSpec(d_s=2, d_er=2)
        a = init_model(dims, 1.0, np.random.default_rng(7))
        b = init_model(dims, 1.0, np.random.default_rng(7))
        assert np.array_equal(np.asarray(a.h), np.asarray(b.h))
        assert np.array_equal(np.asarray(a.rho0_ser), np.asarray(b.rho0_ser))

    def test_zero_scale_gives_zero_hamiltonian(self):
        dims = DimSpec(d_s=2, d_er=1)
        model = init_model(dims, 1.0, np.random.default_rng(8), init_scale=0.0)
        assert np.max(np.abs(np.asarray(model.h))) == 0.0

    def test_scale_controls_magnitude(self):
        dims = DimSpec(d_s=2, d_er=1)
        small = init_model(dims, 1.0, np.random.default_rng(9), init_scale=0.01)
        large = init_model(dims, 1.0, np.random.default_rng(9), init_scale=1.0)
        assert np.max(np.abs(np.asarray(large.h))) > 10 * np.max(np.abs(np.asarray(small.h)))


class TestFit:
    def test_reaches_generating_model_likelihood(self, markovian_fit):
        _, curve, truth_train, _, _, _ = markovian_fit
        assert curve.train_per_step[-1] > truth_train - 0.02

    def test_train_curve_trend_nondecreasing(self, markovian_fit):
        _, curve, _, tc, _, _ = markovian_fit
        tr = np.asarray(curve.train_per_step)
        w = tc.convergence_window
        kernel = np.ones(w) / w
        smoothed = np.convolve(tr, kernel, mode="valid")
        slope = np.polyfit(np.arange(smoothed.size), smoothed, 1)[0]
        assert slope > 0

    def test_final_hamiltonian_hermitian(self, markovian_fit):
        model, _, _, _, _, _ = markovian_fit
        h = np.asarray(model.h)
        assert np.linalg.norm(h - dagger(h)) < 1e-12

    def test_curve_epochs_contiguous(self, markovian_fit):
        _, curve, _, _, _, _ = markovian_fit
        assert curve.epoch == list(range(1, len(curve.epoch) + 1))

    def test_validation_present_at_requested_epochs(self, markovian_fit):
        _, curve, _, tc, _, _ = markovian_fit
        for e, v in zip(curve.epoch, curve.val_per_step):
            if e % tc.val_every == 0:
                assert v is not None
        assert curve.val_per_step[-1] is not None

    def test_determinism(self):
        cfg = markovian_collision_config()
        ds = generate_trajectory(cfg, 160, 55)
        tr, va = split_dataset(ds, 80)
        tc = TrainConfig(epochs=25, batch_size=40, seed=9, restarts=1,
                         convergence_window=10, convergence_tol=1e-12,
                         val_every=5)
        dims = DimSpec(d_s=2, d_er=1)
        m1, c1 = fit(tr, va, dims, tc)
        m2, c2 = fit(tr, va, dims, tc)
        assert np.array_equal(np.asarray(m1.h), np.asarray(m2.h))
        assert c1.epoch == c2.epoch
        assert c1.train_per_step == c2.train_per_step
        assert c1.val_per_step == c2.val_per_step

    @pytest.mark.parametrize("tol", [1e-12, 1e3])
    def test_one_build_cache_per_epoch(self, monkeypatch, tol):
        # tol 1e3 converges at epoch 4 (window 3); 1e-12 runs all 6 epochs.
        # Each epoch runs both sweeps in one build_cache call; the epoch that
        # ends a fit takes no gradient.
        import embedlearn.likelihood as lk
        import embedlearn.train as tm
        calls = {"build_cache": 0, "forward_pass": 0, "backward_pass": 0,
                 "log_likelihood_gradient": 0}
        for mod in (lk, tm):
            for name in calls:
                if not hasattr(mod, name):
                    continue
                fn = getattr(mod, name)

                def counting(*args, _fn=fn, _name=name, **kwargs):
                    calls[_name] += 1
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(mod, name, counting)
        ds = generate_trajectory(markovian_collision_config(), 120, 57)
        tr, va = split_dataset(ds, 80)
        tc = TrainConfig(epochs=6, batch_size=20, seed=4, restarts=2,
                         convergence_window=3, convergence_tol=tol, val_every=2)
        _, curve = fit(tr, va, DimSpec(d_s=2, d_er=2), tc)
        epochs = len(curve.epoch) * tc.restarts
        assert epochs == (8 if tol > 1 else 12)
        assert calls == {"build_cache": epochs, "forward_pass": 0, "backward_pass": 0,
                         "log_likelihood_gradient": epochs - tc.restarts}

    @pytest.fixture(scope="class")
    def traced_peaks(self):
        """Traced peak bytes of a 3-epoch d_er = 3 fit with batches of 1000
        merge points, validated on 2000 records, at n = 20000 and 25000."""
        import tracemalloc
        peaks = {}
        for n in (20000, 25000):
            tr, va = split_dataset(generate_trajectory(CollisionModelConfig(), n + 2000, 11), n)
            tc = TrainConfig(epochs=3, batch_size=1000, seed=0, restarts=1)
            tracemalloc.start()
            try:
                fit(tr, va, DimSpec(d_s=2, d_er=3), tc)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        return peaks

    def test_fit_keeps_only_the_blocks_it_reads(self, traced_peaks):
        # Both sweeps in full, 2 (n + 2) d_er^2 complex numbers, take
        # 5.5 MiB at n = 20000.  This fit peaked at 6.87 MiB traced, keeping
        # only the blocks its batch and validation read.  It peaked at
        # 12.07 MiB with every block kept, at 8.29 MiB with the start model
        # and the complex gradient held through the next sweep, and at
        # 7.75 MiB with the last epoch's cache still alive while the next one
        # is built.  The bound lies halfway to the nearest of the three.
        assert traced_peaks[20000] < 7.3 * 2**20

    def test_fit_memory_grows_only_by_the_record_vectors(self, traced_peaks):
        # Per record, an epoch keeps the measured system vector (32 bytes)
        # and the two sweeps' running logs (16 bytes), and briefly the
        # lanes' logs before they are copied (16 bytes).  The 5000 extra
        # records added 0.23 MiB; with every block kept they added 1.62 MiB.
        # The bound is 64 bytes per record plus a margin of 0.25 MiB.
        assert traced_peaks[25000] - traced_peaks[20000] < 5000 * 64 + 0.25 * 2**20

    def test_fit_without_validation(self):
        cfg = markovian_collision_config()
        ds = generate_trajectory(cfg, 120, 56)
        tc = TrainConfig(epochs=20, batch_size=60, seed=2, restarts=2,
                         convergence_window=10, convergence_tol=1e-12,
                         val_every=5)
        model, curve = fit(ds, None, DimSpec(d_s=2, d_er=1), tc)
        assert all(v is None for v in curve.val_per_step)
        assert np.isfinite(curve.train_per_step[-1])


def tiny_split():
    """The trajectory of the CI tiny config (seed 3), 200 training records
    then 100 validation records."""
    return split_dataset(generate_trajectory(CollisionModelConfig(), 300, 3), 200)


class TestCompactEpochs:
    """``fit``, whose epochs keep only the blocks their batch and validation
    read, against :func:`oracles.fit_loop_full_cache`, whose epochs keep
    every block: curves and models are the same bytes."""

    @staticmethod
    def _same_fit(monkeypatch, tr, va, dims, tc):
        got = fit(tr, va, dims, tc)
        with monkeypatch.context() as patch:
            patch.setattr(train, "_fit_loop", oracles.fit_loop_full_cache)
            want = fit(tr, va, dims, tc)
        for model, curve in (got, want):
            assert model.h.tobytes() == got[0].h.tobytes()
            assert model.rho0_ser.tobytes() == got[0].rho0_ser.tobytes()
            assert curve.epoch == got[1].epoch
            assert list(map(repr, curve.train_per_step)) == list(map(repr, got[1].train_per_step))
            assert list(map(repr, curve.val_per_step)) == list(map(repr, got[1].val_per_step))
        return got[1]

    @pytest.mark.parametrize("d_er", [1, 2, 3])
    @pytest.mark.parametrize("val_every", [2, 20])
    def test_tiny_config_runs_to_its_last_epoch(self, monkeypatch, d_er, val_every):
        tr, va = tiny_split()
        tc = TrainConfig(epochs=5, batch_size=50, seed=3, restarts=2, val_every=val_every)
        curve = self._same_fit(monkeypatch, tr, va, DimSpec(d_s=2, d_er=d_er), tc)
        assert curve.epoch == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("d_er", [1, 2])
    def test_early_convergence(self, monkeypatch, d_er):
        tr, va = tiny_split()
        tc = TrainConfig(epochs=40, batch_size=50, seed=3, restarts=2,
                         convergence_window=3, convergence_tol=1e3, val_every=2)
        curve = self._same_fit(monkeypatch, tr, va, DimSpec(d_s=2, d_er=d_er), tc)
        assert curve.epoch == [1, 2, 3, 4]

    def test_without_validation(self, monkeypatch):
        tr, _ = tiny_split()
        tc = TrainConfig(epochs=6, batch_size=50, seed=3, restarts=2)
        self._same_fit(monkeypatch, tr, None, DimSpec(d_s=2, d_er=2), tc)

    def test_zero_probability_retry(self, monkeypatch):
        # The tiny config's outcomes, all measured in the computational
        # basis.  The first start is made stuck: H = 0 from |0> on the
        # system keeps every record until the outcome changes, which then
        # has probability 0, so its first sweep raises and the fit retries
        # from the next start.
        from embedlearn.embedding import make_embedding
        tr, va = tiny_split()
        for ds in (tr, va):
            ds.records["basis"] = np.eye(2)
        assert tr.records["outcome"][0] == 0 and tr.records["outcome"].any()
        real, starts = train.init_model, []

        def stuck_first(dims, tau, rng, init_scale=0.1):
            model = real(dims, tau, rng, init_scale)
            starts.append(model)
            if len(starts) % 2 == 0:  # each fit's second start
                return model
            rho0 = kron(np.diag([1.0, 0.0]), np.eye(dims.d_er) / dims.d_er)
            return make_embedding(dims, tau, np.zeros_like(model.h), rho0)
        monkeypatch.setattr(train, "init_model", stuck_first)
        tc = TrainConfig(epochs=5, batch_size=50, seed=3, restarts=1, val_every=2)
        curve = self._same_fit(monkeypatch, tr, va, DimSpec(d_s=2, d_er=2), tc)
        assert len(starts) == 4 and curve.epoch == [1, 2, 3, 4, 5]


class TestLearningCurveCsv:
    def test_csv_round_trip_fields(self, tmp_path):
        curve = LearningCurve()
        curve.append(1, -0.9, None, 0.1)
        curve.append(2, -0.8, -0.85, 0.2)
        path = tmp_path / "curve.csv"
        curve.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "epoch,train_per_step,val_per_step,seconds"
        assert len(lines) == 3
        row1 = lines[1].split(",")
        assert row1[0] == "1"
        assert float(row1[1]) == -0.9
        assert row1[2] == ""
        row2 = lines[2].split(",")
        assert float(row2[2]) == -0.85


class TestSelectDEr:
    def test_markovian_source_selects_one(self):
        cfg = markovian_collision_config()
        ds = generate_trajectory(cfg, 800, 77)
        tr, va = split_dataset(ds, 400)
        tc = TrainConfig(epochs=300, batch_size=400, seed=3,
                         restarts=1, convergence_window=60,
                         convergence_tol=1e-4, val_every=25)
        best, table, models, _ = select_d_er(tr, va, [1, 2], tc)
        assert best == 1
        assert [k for k, _ in table] == [1, 2]
        assert set(models) == {1, 2}
        vals = dict(table)
        assert vals[1] > vals[2]

    def test_singleton_candidate(self):
        cfg = markovian_collision_config()
        ds = generate_trajectory(cfg, 60, 58)
        tr, va = split_dataset(ds, 30)
        tc = TrainConfig(epochs=3, batch_size=30, seed=1, restarts=1,
                         convergence_window=2, convergence_tol=1e-12,
                         val_every=2)
        best, table, models, _ = select_d_er(tr, va, [2], tc)
        assert best == 2
        assert len(table) == 1
        assert 2 in models

    def test_scores_are_the_returned_models_validation(self):
        # The table is read off the fit's curves; it must equal a fresh
        # conditional score of each returned checkpoint.  The first config
        # converges between validation epochs; the second, with a large
        # step, runs to the end and peaks before its last validation.
        cfg = markovian_collision_config()
        ds = generate_trajectory(cfg, 80, 60)
        tr, va = split_dataset(ds, 50)
        for tol, val_every, lr in ((1.0, 4, 1e-3), (1e-12, 2, 0.3)):
            tc = TrainConfig(epochs=6, batch_size=50, seed=2,
                             restarts=2, convergence_window=2,
                             convergence_tol=tol, val_every=val_every, lr=lr)
            best, table, models, curves = select_d_er(tr, va, [2, 1, 2], tc)
            assert [k for k, _ in table] == [1, 2]
            assert set(curves) == {1, 2}
            for k, val_ll in table:
                cache = forward_pass(models[k], tr)
                assert val_ll == conditional_validation_ll(tr, va, cache)
            assert best == max(table, key=lambda row: row[1])[0]

    def test_empty_candidates_rejected(self):
        cfg = markovian_collision_config()
        ds = generate_trajectory(cfg, 20, 59)
        tr, va = split_dataset(ds, 10)
        with pytest.raises(ValueError):
            select_d_er(tr, va, [], TrainConfig())

    def test_missing_validation_rejected_before_any_fit(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit called")

        monkeypatch.setattr(train, "fit", no_fit)
        tr = generate_trajectory(markovian_collision_config(), 20, 59)
        with pytest.raises(ValueError, match="validation data"):
            select_d_er(tr, None, [1, 2], TrainConfig(epochs=2))
