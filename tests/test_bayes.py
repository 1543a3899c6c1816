"""Variational posterior tests: the Gaussian fitter against an analytic
quadratic target, consistency with the point fit, posterior-draw pushforward,
and serialization."""
import numpy as np
import pytest

from embedlearn.assess import dynamics_maps
from embedlearn.bayes import (DIVERGENCE_WINDOW, DRAW_BLOCK, BayesConfig, PosteriorDynamics,
                              VariationalPosterior, _usable_draws, bayes_channel_error,
                              fit_gaussian_posterior, fit_posterior,
                              load_posterior, posterior_from_dict,
                              posterior_to_dict, sample_dynamics,
                              save_posterior, score_draws)
from embedlearn.datagen import (CollisionModelConfig, Dataset, dataset_prefix,
                                generate_trajectory)
from embedlearn.embedding import make_embedding, predict_dynamics
from embedlearn.errors import DataError, DivergenceError, NumericalError, ZeroProbabilityError
from embedlearn.likelihood import (build_cache, build_caches, log_likelihood,
                                   log_likelihood_gradient)
from embedlearn.qla import SIGMA_X, DimSpec, kron
from embedlearn.train import TrainConfig, fit, init_model, pack_hermitian

import oracles
from oracles import sample_model, variational_objective
from test_likelihood import basis_records


def batched(vg):
    """A one-draw target as the batched callback fit_gaussian_posterior
    takes: each row of the stack scored in turn."""
    return lambda thetas: [vg(theta) for theta in thetas]


def unitary_system_model():
    """d_er=1 embedding whose period channel is a fixed system rotation."""
    dims = DimSpec(d_s=2, d_er=1)
    h = kron(0.3 * SIGMA_X, np.eye(4, dtype=np.complex128))
    rho0 = np.array([[1, 0], [0, 0]], dtype=np.complex128)
    return make_embedding(dims, 1.0, h, rho0)


MIXED = np.eye(2, dtype=np.complex128) / 2


def spread_posterior(d_er):
    """A posterior of width 0.02 around a random starting model."""
    model = init_model(DimSpec(d_s=2, d_er=d_er), 1.0, np.random.default_rng(30 + d_er))
    mean = pack_hermitian(np.asarray(model.h))
    return VariationalPosterior(base=model, mean=mean,
                                log_std=np.full(mean.size, np.log(0.02)))


def degenerate_posterior(model, log_std=-40.0):
    mean = pack_hermitian(np.asarray(model.h))
    return VariationalPosterior(base=model, mean=mean,
                                log_std=np.full(mean.size, log_std))


@pytest.fixture(scope="module")
def trained_posterior():
    """Point fit on unitary-system collision data, then a variational fit
    around it; shared by the consistency and trace tests."""
    ccfg = CollisionModelConfig(hamiltonian=kron(0.3 * SIGMA_X,
                                                 np.eye(4, dtype=np.complex128)))
    ds = generate_trajectory(ccfg, 600, 177)
    tc = TrainConfig(epochs=250, batch_size=600, seed=5, restarts=1,
                     convergence_window=60, convergence_tol=1e-4)
    ml, _ = fit(ds, None, DimSpec(d_s=2, d_er=1), tc)
    data = dataset_prefix(ds, 300)
    post = fit_posterior(ml, data, BayesConfig(iterations=250, mc_samples=4,
                                               seed=11))
    return ml, post, data


class TestBayesConfig:
    def test_defaults(self):
        cfg = BayesConfig()
        assert cfg.mc_samples == 8
        assert cfg.init_sigma == 0.01

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            BayesConfig(iterations=0)
        with pytest.raises(ValueError):
            BayesConfig(init_sigma=0.0)
        with pytest.raises(ValueError):
            BayesConfig(floor_log_likelihood=1.0)


class TestGaussianFitter:
    def quadratic_target(self, theta_star, v, n_eff=1.0):
        def vg(theta):
            t = theta[0]
            return (-n_eff * (t - theta_star) ** 2 / (2 * v),
                    np.array([-n_eff * (t - theta_star) / v]))
        return vg

    def test_recovers_quadratic_posterior(self):
        theta_star, v = 1.7, 0.09
        cfg = BayesConfig(iterations=1500, mc_samples=8, seed=4)
        mean, log_std, trace = fit_gaussian_posterior(
            batched(self.quadratic_target(theta_star, v)), np.array([0.2]),
            np.array([np.log(0.01)]), cfg, np.random.default_rng(4))
        assert abs(mean[0] - theta_star) < 0.1
        assert abs(np.exp(log_std[0]) - np.sqrt(v)) / np.sqrt(v) < 0.2
        assert len(trace) == 1500

    def test_sigma_shrinks_with_effective_data(self):
        # Doubling the curvature (two copies of the data) must shrink the
        # posterior width toward 1/sqrt(2) of the single-copy width.
        theta_star, v = 0.8, 0.04
        cfg = BayesConfig(iterations=1500, mc_samples=8, seed=4)
        start = np.array([0.1])
        width = np.array([np.log(0.01)])
        _, ls1, _ = fit_gaussian_posterior(
            batched(self.quadratic_target(theta_star, v, 1.0)), start, width, cfg,
            np.random.default_rng(4))
        _, ls2, _ = fit_gaussian_posterior(
            batched(self.quadratic_target(theta_star, v, 2.0)), start, width, cfg,
            np.random.default_rng(5))
        ratio = np.exp(ls2[0]) / np.exp(ls1[0])
        assert ratio < 1.0
        assert abs(ratio - 1.0 / np.sqrt(2.0)) < 0.12

    def test_divergence_raises_with_trace(self):
        # Target that keeps worsening no matter the parameters.
        calls = [0]

        def vg(theta):
            calls[0] += 1
            return -float(calls[0]) ** 2, np.zeros(1)

        cfg = BayesConfig(iterations=5000, mc_samples=1, seed=0)
        with pytest.raises(DivergenceError) as err:
            fit_gaussian_posterior(batched(vg), np.zeros(1), np.zeros(1), cfg,
                                   np.random.default_rng(0))
        # The guard compares two windows, so it first acts after two.
        assert len(err.value.trace) == 2 * DIVERGENCE_WINDOW

    def test_non_finite_objective_raises(self):
        def vg(theta):
            return float("nan"), np.zeros(1)

        cfg = BayesConfig(iterations=10, mc_samples=1, seed=0)
        with pytest.raises(DivergenceError):
            fit_gaussian_posterior(batched(vg), np.zeros(1), np.zeros(1), cfg,
                                   np.random.default_rng(0))

    def test_shape_mismatch_rejected(self):
        cfg = BayesConfig(iterations=5, mc_samples=1, seed=0)
        with pytest.raises(ValueError):
            fit_gaussian_posterior(batched(lambda t: (0.0, np.zeros(2))), np.zeros(2),
                                   np.zeros(3), cfg, np.random.default_rng(0))


class TestVariationalObjective:
    def test_empty_data_reduces_to_entropy_term(self):
        model = unitary_system_model()
        log_std = np.full(64, np.log(0.05))
        post = VariationalPosterior(base=model,
                                    mean=pack_hermitian(np.asarray(model.h)),
                                    log_std=log_std)
        empty = z_records([])
        f = variational_objective(post, empty, 3, np.random.default_rng(0))
        assert abs(f - (-np.sum(log_std))) < 1e-12

    def test_estimator_variance_scales_inversely_with_samples(self):
        model = unitary_system_model()
        ccfg = CollisionModelConfig(hamiltonian=kron(0.3 * SIGMA_X,
                                                     np.eye(4, dtype=np.complex128)))
        data = dataset_prefix(generate_trajectory(ccfg, 3, 9), 3)
        post = VariationalPosterior(base=model,
                                    mean=pack_hermitian(np.asarray(model.h)),
                                    log_std=np.full(64, np.log(0.05)))
        rng = np.random.default_rng(12)
        small = np.array([variational_objective(post, data, 4, rng)
                          for _ in range(300)])
        large = np.array([variational_objective(post, data, 16, rng)
                          for _ in range(300)])
        ratio = small.var() / large.var()
        assert 2.0 < ratio < 8.0

    def test_mc_samples_validated(self):
        model = unitary_system_model()
        post = degenerate_posterior(model)
        empty = z_records([])
        with pytest.raises(ValueError):
            variational_objective(post, empty, 0, np.random.default_rng(0))


class TestFitPosterior:
    def test_mean_model_likelihood_near_point_fit(self, trained_posterior):
        ml, post, data = trained_posterior
        n = len(data.records)
        ml_ps = log_likelihood(ml, data) / n
        mean_ps = log_likelihood(post.mean_model(), data) / n
        assert abs(ml_ps - mean_ps) < 0.01

    def test_objective_trend_decreases(self, trained_posterior):
        _, post, _ = trained_posterior
        tr = np.asarray(post.objective_trace)
        w = 50
        smoothed = np.convolve(tr, np.ones(w) / w, mode="valid")
        slope = np.polyfit(np.arange(smoothed.size), smoothed, 1)[0]
        assert slope < 0

    def test_posterior_stds_positive_finite(self, trained_posterior):
        _, post, _ = trained_posterior
        assert np.all(post.std > 0)
        assert np.all(np.isfinite(post.std))

    def test_sampling_statistics_match_parameters(self, trained_posterior):
        _, post, _ = trained_posterior
        rng = np.random.default_rng(13)
        n = 2000
        draws = np.stack([pack_hermitian(np.asarray(sample_model(post, rng).h))
                          for _ in range(n)])
        mean_err = np.abs(draws.mean(axis=0) - post.mean)
        assert np.all(mean_err < 4.0 * post.std / np.sqrt(n))
        std_err = np.abs(draws.std(axis=0) - post.std)
        assert np.all(std_err < 4.0 * post.std / np.sqrt(2.0 * (n - 1)))


class TestSampleDynamics:
    def test_degenerate_posterior_reproduces_point_model(self):
        model = unitary_system_model()
        post = degenerate_posterior(model)
        rho_s0 = np.array([[1, 0], [0, 0]], dtype=np.complex128)
        dyn = sample_dynamics(post, rho_s0, [0.0, 1.0, 2.0, 3.0], 4,
                              np.random.default_rng(1))
        assert dyn.states.shape == (4, 4, 2, 2)
        assert np.max(oracles.entry_std(dyn)) < 1e-10
        # Exact single-qubit rotation by 0.3*sigma_x per period.
        for k, t in enumerate([0.0, 1.0, 2.0, 3.0]):
            u = np.cos(0.3 * t) * np.eye(2) - 1j * np.sin(0.3 * t) * SIGMA_X
            want = u @ rho_s0 @ u.conj().T
            assert np.max(np.abs(oracles.entry_mean(dyn)[k] - want)) < 1e-8

    def test_time_zero_echoes_initial_state(self):
        model = unitary_system_model()
        post = VariationalPosterior(base=model,
                                    mean=pack_hermitian(np.asarray(model.h)),
                                    log_std=np.full(64, np.log(0.02)))
        rho_s0 = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=np.complex128)
        dyn = sample_dynamics(post, rho_s0, [0.0], 5, np.random.default_rng(2))
        assert np.max(np.abs(oracles.entry_mean(dyn)[0] - rho_s0)) < 1e-12
        assert np.max(oracles.entry_std(dyn)[0]) < 1e-12

    def test_draws_are_valid_states(self):
        model = unitary_system_model()
        post = VariationalPosterior(base=model,
                                    mean=pack_hermitian(np.asarray(model.h)),
                                    log_std=np.full(64, np.log(0.02)))
        rho_s0 = np.eye(2, dtype=np.complex128) / 2
        dyn = sample_dynamics(post, rho_s0, [1.0, 2.0, 5.0], 6,
                              np.random.default_rng(3))
        for draw in dyn.states:
            for rho in draw:
                assert abs(np.trace(rho) - 1.0) < 1e-9
                assert np.linalg.eigvalsh(rho).min() > -1e-9

    def test_bloch_stats_and_csv(self, tmp_path):
        model = unitary_system_model()
        post = VariationalPosterior(base=model,
                                    mean=pack_hermitian(np.asarray(model.h)),
                                    log_std=np.full(64, np.log(0.02)))
        rho_s0 = np.array([[1, 0], [0, 0]], dtype=np.complex128)
        dyn = sample_dynamics(post, rho_s0, [0.0, 1.0, 2.0], 5,
                              np.random.default_rng(4))
        mean, std = dyn.bloch_stats()
        assert mean.shape == (3, 3)
        assert std.shape == (3, 3)
        assert np.all(std >= 0)
        path = tmp_path / "bands.csv"
        dyn.bands_to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "time,x_mean,x_std,y_mean,y_std,z_mean,z_std"
        assert len(lines) == 4

    @pytest.mark.parametrize("d_er", [1, 2])
    def test_states_and_maps_follow_each_draw(self, d_er):
        post = spread_posterior(d_er)
        rho_s0 = np.array([[0.6, 0.2j], [-0.2j, 0.4]], dtype=np.complex128)
        times = [0.0, 0.5, 2.0]
        dyn = sample_dynamics(post, rho_s0, times, 4, np.random.default_rng(17))
        assert dyn.maps.shape == (4, 3, 4, 4)
        draws = oracles.usable_draws_serial(post, 4, np.random.default_rng(17))
        for i, (_, gen, er) in enumerate(draws):
            want = predict_dynamics(gen, kron(rho_s0, er), times)
            assert np.array_equal(dyn.states[i], np.stack(want))
            maps = dynamics_maps(gen, er, times)
            assert np.array_equal(dyn.maps[i], maps)

    @pytest.mark.parametrize("d_er", [1, 2, 3])
    def test_draw_factors_match_one_draw_at_a_time(self, d_er):
        post = spread_posterior(d_er)
        n_draws = DRAW_BLOCK + 2
        got = [(gen, ers, j) for gen, ers in _usable_draws(post, n_draws, np.random.default_rng(5))
               for j in range(len(ers))]
        want = list(oracles.usable_draws_serial(post, n_draws, np.random.default_rng(5)))
        assert len(got) == len(want) == n_draws
        for (gen, ers, j), (_, want_gen, want_er) in zip(got, want):
            for name in ("log_eigenvalues", "eigenvectors", "inverse"):
                assert getattr(gen, name)[j].tobytes() == getattr(want_gen, name).tobytes()
            assert ers[j].tobytes() == want_er.tobytes()

    def test_too_few_draws_rejected(self):
        post = degenerate_posterior(unitary_system_model())
        rho = np.eye(2, dtype=np.complex128) / 2
        with pytest.raises(ValueError):
            sample_dynamics(post, rho, [1.0], 1, np.random.default_rng(0))

    def test_state_shape_validated(self):
        post = degenerate_posterior(unitary_system_model())
        with pytest.raises(ValueError):
            sample_dynamics(post, np.eye(3) / 3, [1.0], 3,
                            np.random.default_rng(0))


class TestBayesChannelError:
    def test_degenerate_posterior_gives_zero(self):
        post = degenerate_posterior(unitary_system_model())
        err = bayes_channel_error(sample_dynamics(post, MIXED, [1, 2, 3], 4,
                                                  np.random.default_rng(5)))
        assert err < 1e-10

    def test_stable_under_doubling_draws(self):
        model = unitary_system_model()
        post = VariationalPosterior(base=model,
                                    mean=pack_hermitian(np.asarray(model.h)),
                                    log_std=np.full(64, np.log(0.02)))
        e60 = bayes_channel_error(sample_dynamics(post, MIXED, [1, 2, 3, 4], 60,
                                                  np.random.default_rng(7)))
        e120 = bayes_channel_error(sample_dynamics(post, MIXED, [1, 2, 3, 4], 120,
                                                   np.random.default_rng(8)))
        assert abs(e60 - e120) / e60 < 0.10

    def test_wider_posterior_gives_larger_error(self):
        model = unitary_system_model()
        mean = pack_hermitian(np.asarray(model.h))
        narrow = VariationalPosterior(base=model, mean=mean,
                                      log_std=np.full(64, np.log(0.005)))
        wide = VariationalPosterior(base=model, mean=mean,
                                    log_std=np.full(64, np.log(0.04)))
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        e_narrow = bayes_channel_error(sample_dynamics(narrow, MIXED, [1, 2, 3], 40,
                                                       rng_a))
        e_wide = bayes_channel_error(sample_dynamics(wide, MIXED, [1, 2, 3], 40,
                                                     rng_b))
        assert e_wide > 3.0 * e_narrow

    @pytest.mark.parametrize("d_er", [1, 2])
    @pytest.mark.parametrize("times", [[0.0, 1.0, 2.5], [1.0, 2.0, 3.0], [0.0, 0.0]])
    def test_matches_two_loop_oracle(self, d_er, times):
        # The spread of the band draws equals the spread the separate draw
        # loop gave on the same stream, over the positive times (all times
        # when none is positive).
        post = spread_posterior(d_er)
        dyn = sample_dynamics(post, MIXED, times, 5, np.random.default_rng(21))
        spread_times = [t for t in times if t > 0] or times
        want = oracles.bayes_channel_error_two_loop(post, spread_times, 5,
                                                    np.random.default_rng(21))
        assert bayes_channel_error(dyn) == want


def generic_model(d_er, seed):
    """A random starting model with its reservoir symmetry broken, so its
    channel has a unique stationary state."""
    model = init_model(DimSpec(d_s=2, d_er=d_er), 1.0, np.random.default_rng(seed))
    dd = model.dims.d_total
    g = np.random.default_rng(seed + 50).standard_normal((2, dd, dd))
    g = g[0] + 1j * g[1]
    return model.with_h(model.h + 0.3 / dd * (g + g.conj().T))


def z_records(outcomes):
    """Records measured in the computational basis with the given outcomes."""
    return Dataset(records=basis_records(np.eye(2), outcomes), tau=1.0, provenance={})


def idle_model(d_er):
    """H = 0: every period is the identity channel, so a record that differs
    from the one before it has zero probability."""
    dims = DimSpec(d_s=2, d_er=d_er)
    rho0 = kron(np.diag([1.0, 0.0]).astype(np.complex128),
                np.eye(d_er, dtype=np.complex128) / d_er)
    return make_embedding(dims, 1.0, np.zeros((dims.d_total, dims.d_total)), rho0)


def caches_equal(got, want):
    for name in ("forward_blocks", "forward_log_scale", "backward_blocks",
                 "backward_log_scale", "phis"):
        assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), name
    for name in ("m", "rho0"):
        assert np.array_equal(getattr(got.channel, name), getattr(want.channel, name)), name
    assert (got.channel.dims, got.channel.tau) == (want.channel.dims, want.channel.tau)
    assert np.array_equal(got.spectrum.eigenvectors, want.spectrum.eigenvectors)


class TestLockstepSweeps:
    """The sweeps of several draws as lanes of one loop, against one
    build_cache per draw."""

    @pytest.mark.parametrize("d_er", [1, 2, 3])
    def test_each_lane_is_its_own_sweep(self, d_er):
        data = generate_trajectory(CollisionModelConfig(), 600, 41)
        base = generic_model(d_er, 3)
        models = [base.with_h(base.h + 0.01 * s * np.diag(np.arange(base.dims.d_total)))
                  for s in range(3)]
        caches = build_caches(models, data)
        for model, cache in zip(models, caches):
            want = build_cache(model, data)
            caches_equal(cache, want)
            assert np.array_equal(log_likelihood_gradient(cache),
                                  log_likelihood_gradient(want))

    @pytest.mark.parametrize("d_er", [1, 2])
    @pytest.mark.parametrize("outcomes", [[0, 0, 1, 1, 0, 1], [1, 0, 0, 1]])
    def test_floor_lane_beside_normal_lane(self, d_er, outcomes):
        # The idle model gives the first record (outcome 1) or a later one
        # zero probability; only its own draw is floored.
        data = z_records(outcomes * 50)
        idle, normal = idle_model(d_er), generic_model(d_er, 5)
        with pytest.raises(ZeroProbabilityError):
            build_cache(idle, data)
        caches = build_caches([idle, normal, idle], data)
        assert caches[0] is None and caches[2] is None
        caches_equal(caches[1], build_cache(normal, data))
        thetas = np.stack([pack_hermitian(np.asarray(m.h)) for m in (idle, normal)])
        scores = score_draws(normal, data, thetas, -1e6)
        for theta, (value, grad) in zip(thetas, scores):
            want_value, want_grad = oracles.score_draw_serial(normal, data, theta, -1e6)
            assert value == want_value
            assert np.array_equal(grad, want_grad)
        assert scores[0][0] == -1e6

    @pytest.mark.parametrize("d_er", [1, 2, 3])
    def test_fit_matches_serial_draw_loop(self, d_er):
        data = generate_trajectory(CollisionModelConfig(), 300, 43)
        model = generic_model(d_er, 7)
        cfg = BayesConfig(iterations=3, mc_samples=3, seed=2)
        post = fit_posterior(model, data, cfg)
        mean, log_std, trace = oracles.fit_posterior_serial(model, data, cfg)
        assert np.array_equal(post.mean, mean)
        assert np.array_equal(post.log_std, log_std)
        assert post.objective_trace == trace


def branch_cut_posterior(std):
    """A posterior around a half-turn of the system: its channel has the
    eigenvalue -1, so a draw is rejected unless its perturbation moves that
    eigenvalue more than 1e-10 off the branch cut."""
    h = kron(np.pi / 2 * SIGMA_X, np.eye(4, dtype=np.complex128))
    model = make_embedding(DimSpec(d_s=2, d_er=1), 1.0, h,
                           np.diag([1.0, 0.0]).astype(np.complex128))
    return degenerate_posterior(model, log_std=np.log(std))


class TestBlockedPushForward:
    """Draws decomposed and propagated in blocks, against one attempt and one
    time at a time."""

    TIMES = [0.0, 0.5, 1.0, 2.0, 0.0, 3.5]

    def check(self, post, n_draws, seed, rho_s0=MIXED):
        outcomes = []
        states, maps = oracles.sample_dynamics_serial(
            post, rho_s0, self.TIMES, n_draws, np.random.default_rng(seed), outcomes)
        dyn = sample_dynamics(post, rho_s0, self.TIMES, n_draws, np.random.default_rng(seed))
        assert np.array_equal(dyn.states, states)
        assert np.array_equal(dyn.maps, maps)
        return outcomes

    @pytest.mark.parametrize("d_er", [1, 2])
    def test_draw_count_off_the_block_grid(self, d_er):
        n_draws = 2 * DRAW_BLOCK + 3
        outcomes = self.check(spread_posterior(d_er), n_draws, 23)
        assert outcomes == [True] * n_draws

    def test_rejected_draw_refilled_from_next_block(self):
        outcomes = self.check(branch_cut_posterior(3e-10), DRAW_BLOCK, 0)
        assert not all(outcomes[:DRAW_BLOCK])
        assert len(outcomes) > DRAW_BLOCK

    # In the second case the last block is cut short by the cap.
    @pytest.mark.parametrize("std, n_draws, seed, usable", [(1e-11, 3, 1, 0), (3e-11, 6, 6, 4)])
    def test_attempt_cap(self, std, n_draws, seed, usable):
        post = branch_cut_posterior(std)
        outcomes = []
        with pytest.raises(NumericalError) as want:
            list(oracles.usable_draws_serial(post, n_draws, np.random.default_rng(seed),
                                             outcomes))
        with pytest.raises(NumericalError) as got:
            sample_dynamics(post, MIXED, self.TIMES, n_draws, np.random.default_rng(seed))
        assert str(got.value) == str(want.value)
        assert (len(outcomes), sum(outcomes)) == (10 * n_draws, usable)


class TestSerialization:
    def test_dict_round_trip(self, trained_posterior):
        _, post, _ = trained_posterior
        back = posterior_from_dict(posterior_to_dict(post))
        assert np.array_equal(back.mean, post.mean)
        assert np.array_equal(back.log_std, post.log_std)
        assert np.array_equal(np.asarray(back.base.h), np.asarray(post.base.h))

    def test_file_round_trip(self, trained_posterior, tmp_path):
        _, post, _ = trained_posterior
        path = tmp_path / "posterior.json"
        save_posterior(post, path)
        back = load_posterior(path)
        assert np.array_equal(back.mean, post.mean)
        assert np.array_equal(back.log_std, post.log_std)

    def test_parameter_count_mismatch_rejected(self, trained_posterior):
        _, post, _ = trained_posterior
        obj = posterior_to_dict(post)
        obj["mean"] = oracles.b64_encode(post.mean[:-1], "<f8")
        with pytest.raises(DataError, match="mean must hold"):
            posterior_from_dict(obj)
