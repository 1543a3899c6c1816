"""Assessment tests: Choi construction and metrics, the tomography
baseline, and coherent-control prediction against concatenation."""
import numpy as np
import pytest
import scipy.linalg

from embedlearn import seeds
from embedlearn.assess import (ChoiMatrix, ControlEvent, average_choi_error,
                               choi_from_superop, concatenation_prediction,
                               default_design, dynamics_maps,
                               outcome_probabilities, predict_with_control,
                               simulate_tomography_counts, tomography_mle,
                               trace_distance_trajectory)
from embedlearn.datagen import (CollisionModelConfig, exact_controlled_dynamics,
                                exact_reference_dynamics)
from embedlearn.embedding import extract_generator, make_embedding
from embedlearn.errors import IllConditionedError, NumericalError
from embedlearn.qla import SIGMA_X, DimSpec, kron, unvec, vec

from oracles import (apply_choi, choi_of_map, choi_to_superop, nonmonotonicity_flag,
                     tomography_mle_serial)

ZERO = np.array([[1, 0], [0, 0]], dtype=np.complex128)
ONE = np.array([[0, 0], [0, 1]], dtype=np.complex128)
MAX_ENTANGLED = np.zeros((4, 4), dtype=np.complex128)
for _i in range(2):
    for _j in range(2):
        MAX_ENTANGLED[_i * 2 + _i, _j * 2 + _j] = 0.5


def random_kraus_channel(rng, n_kraus=4):
    """CPTP qubit channel from random Kraus operators, trace-preservation
    enforced by a whitening factor."""
    ops = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
           for _ in range(n_kraus)]
    s = sum(k.conj().T @ k for k in ops)
    w, v = np.linalg.eigh(s)
    fix = (v / np.sqrt(w)) @ v.conj().T
    ops = [k @ fix for k in ops]

    def chan(rho):
        return sum(k @ rho @ k.conj().T for k in ops)

    sup = sum(np.kron(k.conj(), k) for k in ops)
    return chan, sup


def random_density(rng, d=2):
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = x @ x.conj().T
    return rho / np.trace(rho)


def mixed_test_superop():
    """Partly depolarized x-rotation: a full-rank channel away from any
    boundary of the CPTP set."""
    u = np.cos(0.7) * np.eye(2) - 1j * np.sin(0.7) * SIGMA_X
    i2 = np.eye(2, dtype=np.complex128)
    depol = np.outer(vec(i2 / 2), vec(i2))
    return 0.7 * np.kron(u.conj(), u) + 0.3 * depol


def x_rotation(t, rate=0.3):
    return np.cos(rate * t) * np.eye(2) - 1j * np.sin(rate * t) * SIGMA_X


def dissipative_semigroup_generator(seed=11):
    """Single-period generator of a d_er=1 embedding with a random coupling;
    its reduced dynamics is an honest qubit semigroup."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = (x + x.conj().T) / (2 * np.sqrt(8))
    dims = DimSpec(d_s=2, d_er=1)
    model = make_embedding(dims, 1.0, h, ZERO.copy())
    return extract_generator(model), dims


class TestChoiOfMap:
    def test_identity_channel_is_maximally_entangled_state(self):
        choi = choi_of_map(lambda r: r, 2)
        assert np.max(np.abs(choi.matrix - MAX_ENTANGLED)) < 1e-14
        assert choi.d == 2

    def test_depolarizing_channel_is_maximally_mixed(self):
        choi = choi_of_map(lambda r: np.trace(r) * np.eye(2) / 2, 2)
        assert np.max(np.abs(choi.matrix - np.eye(4) / 4)) < 1e-14

    def test_map_round_trip_on_random_states(self):
        rng = np.random.default_rng(3)
        for _ in range(4):
            chan, _ = random_kraus_channel(rng)
            choi = choi_of_map(chan, 2)
            for _ in range(3):
                rho = random_density(rng)
                assert np.max(np.abs(apply_choi(choi, rho) - chan(rho))) < 1e-10

    def test_cptp_invariants(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            chan, _ = random_kraus_channel(rng)
            choi = choi_of_map(chan, 2)
            assert abs(np.trace(choi.matrix) - 1.0) < 1e-12
            assert np.max(np.abs(choi.matrix - choi.matrix.conj().T)) < 1e-12
            assert choi.min_eigenvalue() >= -1e-10
            assert choi.output_partial_trace_deviation() <= 1e-8


class TestSuperopConversions:
    def test_matches_choi_of_map(self):
        rng = np.random.default_rng(7)
        chan, sup = random_kraus_channel(rng)
        a = choi_of_map(chan, 2)
        b = choi_from_superop(sup, 2)
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(8)
        _, sup = random_kraus_channel(rng)
        back = choi_to_superop(choi_from_superop(sup, 2))
        assert np.max(np.abs(back - sup)) < 1e-13

    def test_apply_choi_matches_superoperator_action(self):
        rng = np.random.default_rng(9)
        _, sup = random_kraus_channel(rng)
        choi = choi_from_superop(sup, 2)
        rho = random_density(rng)
        want = unvec(sup @ vec(rho))
        assert np.max(np.abs(apply_choi(choi, rho) - want)) < 1e-12


class TestDynamicsMaps:
    def test_time_zero_is_identity_channel(self):
        gen, dims = dissipative_semigroup_generator()
        (choi,) = dynamics_maps(gen, dims, np.eye(1, dtype=np.complex128),
                                [0.0])
        assert np.max(np.abs(choi.matrix - MAX_ENTANGLED)) < 1e-12

    def test_decoupled_model_gives_rank_one_rotation_choi(self):
        dims = DimSpec(d_s=2, d_er=1)
        h = kron(0.3 * SIGMA_X, np.eye(4, dtype=np.complex128))
        model = make_embedding(dims, 1.0, h, ZERO.copy())
        gen = extract_generator(model)
        for t in [0.7, 2.0, 5.0]:
            (choi,) = dynamics_maps(gen, dims, np.eye(1, dtype=np.complex128),
                                    [t])
            u = x_rotation(t)
            want = choi_of_map(lambda r: u @ r @ u.conj().T, 2)
            assert np.max(np.abs(choi.matrix - want.matrix)) < 1e-9
            evals = np.sort(np.linalg.eigvalsh(choi.matrix))
            assert evals[-1] > 1.0 - 1e-9
            assert np.max(np.abs(evals[:-1])) < 1e-9

    def test_random_embeddings_stay_cptp(self):
        dims = DimSpec(d_s=2, d_er=2)
        rho_er0 = ZERO.copy()
        for trial in range(3):
            rng = np.random.default_rng(20 + trial)
            d_tot = dims.d * dims.d_a
            x = rng.normal(size=(d_tot, d_tot)) + 1j * rng.normal(size=(d_tot, d_tot))
            h = (x + x.conj().T) / (2 * np.sqrt(d_tot))
            model = make_embedding(dims, 1.0, h, np.kron(ZERO, ZERO))
            gen = extract_generator(model)
            for choi in dynamics_maps(gen, dims, rho_er0, [0.5, 1.0, 3.0]):
                assert choi.min_eigenvalue() >= -1e-10
                assert choi.output_partial_trace_deviation() <= 1e-8
                assert abs(np.trace(choi.matrix) - 1.0) < 1e-10

    def test_negative_time_rejected(self):
        gen, dims = dissipative_semigroup_generator()
        with pytest.raises(ValueError, match="nonnegative"):
            dynamics_maps(gen, dims, np.eye(1, dtype=np.complex128), [-1.0])


class TestAverageChoiError:
    def test_identical_lists_give_zero(self):
        rng = np.random.default_rng(10)
        chois = [choi_of_map(random_kraus_channel(rng)[0], 2) for _ in range(3)]
        assert average_choi_error(chois, chois) == 0.0

    def test_orthogonal_rotations_give_one(self):
        ident = choi_of_map(lambda r: r, 2)
        flip = choi_of_map(lambda r: SIGMA_X @ r @ SIGMA_X, 2)
        assert abs(average_choi_error([ident], [flip]) - 1.0) < 1e-12

    def test_matches_singular_value_oracle(self):
        rng = np.random.default_rng(11)
        a = [choi_of_map(random_kraus_channel(rng)[0], 2) for _ in range(4)]
        b = [choi_of_map(random_kraus_channel(rng)[0], 2) for _ in range(4)]
        want = sum(np.linalg.svd(ca.matrix - cb.matrix, compute_uv=False).sum()
                   for ca, cb in zip(a, b)) / (2 * 4)
        assert abs(average_choi_error(a, b) - want) < 1e-12

    def test_metric_properties(self):
        rng = np.random.default_rng(12)
        a, b, c = ([choi_of_map(random_kraus_channel(rng)[0], 2)
                    for _ in range(2)] for _ in range(3))
        dab = average_choi_error(a, b)
        dba = average_choi_error(b, a)
        dac = average_choi_error(a, c)
        dcb = average_choi_error(c, b)
        assert abs(dab - dba) < 1e-12
        assert dab <= dac + dcb + 1e-10
        assert 0.0 <= dab <= 1.0

    def test_mismatches_rejected(self):
        ident = choi_of_map(lambda r: r, 2)
        with pytest.raises(ValueError, match="differ"):
            average_choi_error([ident], [ident, ident])
        with pytest.raises(ValueError, match="empty"):
            average_choi_error([], [])
        big = ChoiMatrix(matrix=np.eye(9, dtype=np.complex128) / 9, d=3)
        with pytest.raises(ValueError, match="dimension"):
            average_choi_error([ident], [big])


class TestTomographyDesign:
    def test_povm_completeness_and_positivity(self):
        design = default_design(100)
        total = sum(design.povm)
        assert np.max(np.abs(total - np.eye(2))) < 1e-12
        for eff in design.povm:
            assert np.linalg.eigvalsh(eff).min() > -1e-14

    def test_shape(self):
        design = default_design(7)
        assert len(design.input_states) == 4
        assert len(design.povm) == 8
        assert design.shots == 7
        for rho in design.input_states:
            assert abs(np.trace(rho) - 1.0) < 1e-14
            # all four inputs are pure
            assert np.max(np.abs(rho @ rho - rho)) < 1e-14

    @pytest.mark.parametrize("shots", [0, -3])
    def test_budget_below_one_rejected(self, shots):
        with pytest.raises(ValueError, match=f"shots must be >= 1, got {shots}"):
            default_design(shots)


class TestOutcomeProbabilities:
    def test_identity_channel_first_row(self):
        p = outcome_probabilities(np.eye(4, dtype=np.complex128),
                                  default_design(1))
        want = np.array([0.25, 0.0, 0.0, 0.25, 0.125, 0.125, 0.125, 0.125])
        assert np.max(np.abs(p[0] - want)) < 1e-12

    def test_rows_normalize_for_random_channels(self):
        rng = np.random.default_rng(13)
        design = default_design(1)
        for _ in range(4):
            _, sup = random_kraus_channel(rng)
            p = outcome_probabilities(sup, design)
            assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12
            assert np.all(p >= 0)
            # uniform input choice makes each row carry 1/4 joint weight
            assert np.max(np.abs((p / 4).sum(axis=1) - 0.25)) < 1e-12


class TestSimulateCounts:
    def test_total_and_determinism(self):
        design = default_design(500)
        sup = mixed_test_superop()
        a = simulate_tomography_counts(sup, design, np.random.default_rng(2))
        b = simulate_tomography_counts(sup, design, np.random.default_rng(2))
        assert a.sum() == 500
        assert np.array_equal(a, b)
        assert a.dtype == np.int64

    def test_frequencies_converge(self):
        shots = 100_000
        design = default_design(shots)
        sup = mixed_test_superop()
        counts = simulate_tomography_counts(sup, design,
                                            np.random.default_rng(4))
        joint = outcome_probabilities(sup, design) / 4.0
        freq = counts / shots
        sigma = np.sqrt(joint * (1 - joint) / shots)
        assert np.all(np.abs(freq - joint) <= 3.0 * sigma + 1e-12)


class TestTomographyMle:
    def test_noiseless_identity_recovery(self):
        design = default_design(8_000_000)
        p = outcome_probabilities(np.eye(4, dtype=np.complex128), design)
        counts = np.round(p * 2_000_000).astype(np.int64)
        assert counts.sum() == 8_000_000
        est = tomography_mle(counts, design)
        dist = 0.5 * np.abs(np.linalg.eigvalsh(est.matrix - MAX_ENTANGLED)).sum()
        assert dist < 1e-6

    def test_likelihood_beats_true_channel(self):
        sup = mixed_test_superop()
        true_choi = choi_from_superop(sup, 2)
        design = default_design(2000)
        counts = simulate_tomography_counts(sup, design,
                                            np.random.default_rng(7))
        est = tomography_mle(counts, design)

        def loglik(choi):
            total = 0.0
            for j, rho in enumerate(design.input_states):
                out = apply_choi(choi, rho)
                for k, eff in enumerate(design.povm):
                    p = max(np.einsum("ab,ba->", eff, out).real, 1e-300)
                    total += counts[j, k] * np.log(p)
            return total

        assert loglik(est) >= loglik(true_choi) - 1e-6

    def test_output_is_cptp(self):
        sup = mixed_test_superop()
        design = default_design(1500)
        counts = simulate_tomography_counts(sup, design,
                                            np.random.default_rng(8))
        est = tomography_mle(counts, design)
        assert est.min_eigenvalue() >= -1e-10
        assert est.output_partial_trace_deviation() <= 1e-8
        assert abs(np.trace(est.matrix) - 1.0) < 1e-10

    def test_error_grows_as_sqrt_channels_at_fixed_budget(self):
        # Splitting one shot budget across K fits: per-fit error scales as
        # sqrt(K / n), so the average over fits does too.
        sup = mixed_test_superop()
        true_choi = choi_from_superop(sup, 2)
        total = 32_000
        avg_err = {}
        for ki, k in enumerate([4, 16]):
            design = default_design(total // k)
            counts = np.stack([simulate_tomography_counts(
                sup, design, np.random.default_rng(100 * ki + rep)) for rep in range(k)])
            ests = tomography_mle(counts, design)
            avg_err[k] = np.mean([average_choi_error([est], [true_choi]) for est in ests])
        slope = np.log(avg_err[16] / avg_err[4]) / np.log(16 / 4)
        assert abs(slope - 0.5) < 0.2


# Counts whose fits reject steps: HALVING_COUNTS[0] halves four times, down
# to step 1/16, and HALVING_COUNTS[1] halves down to the 1e-6 floor, where
# a step is accepted whatever its likelihood.
HALVING_COUNTS = np.array([
    [[2375, 0, 0, 0, 12, 130278, 0, 0], [37973, 0, 0, 0, 6, 130, 340, 0],
     [930040, 0, 2265, 836991, 0, 1, 1939, 0], [0, 401, 0, 263132, 0, 0, 0, 5]],
    [[0, 4, 40636, 1188, 0, 0, 225, 1], [0, 0, 0, 414, 0, 1281, 14617, 0],
     [0, 3466, 7473, 11, 0, 651961, 0, 15], [174573, 0, 199, 25878, 0, 8887, 0, 0]],
])


def tomo_scan_groups(seed):
    """The four channel groups the ``tomo-scan`` bench workload fits at
    ``seed`` (n_train = 5000, the 20 default periods, k_values 5, 10, 20),
    each as (design, counts), counts drawn from the CLI's seed streams."""
    _, chans = exact_reference_dynamics(CollisionModelConfig(), list(range(1, 21)))
    groups = [(250, [seeds.stream(seed, "tomo", k) for k in range(1, 21)])]
    for kk in (5, 10, 20):
        groups.append((5000 // kk, [seeds.stream(seed, "tomo-scan", kk, k)
                                    for k in range(1, kk + 1)]))
    out = []
    for shots, rngs in groups:
        design = default_design(shots)
        out.append((design, np.stack([simulate_tomography_counts(ch, design, rng)
                                      for ch, rng in zip(chans, rngs)])))
    return out


class TestLockstepTomography:
    """The lockstep fit of a stack equals the serial loop it replaced,
    bitwise, channel by channel."""

    @staticmethod
    def assert_lanes_match_serial(counts, design, steps_per_lane=None):
        ests = tomography_mle(counts, design)
        assert len(ests) == len(counts)
        for c, est in zip(counts, ests):
            steps = []
            ref = tomography_mle_serial(c, design, steps=steps)
            assert np.array_equal(est.matrix, ref.matrix)
            if steps_per_lane is not None:
                steps_per_lane.append(steps)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tomo_scan_groups_match_serial_loop(self, seed):
        # The seed-0 lanes converge after 68 to 878 evaluations, so most
        # lanes drop out long before the last one.
        for design, counts in tomo_scan_groups(seed):
            steps = []
            self.assert_lanes_match_serial(counts, design, steps)
            lengths = [len(s) for s in steps]
            assert max(lengths) > 5 * min(lengths)

    def test_lanes_that_halve_their_step_match_serial_loop(self):
        # Lanes at different steps in the same round: a halving lane, a
        # plain channel and a lane bound for the step floor.
        design = default_design(100)
        plain = simulate_tomography_counts(mixed_test_superop(), design,
                                           np.random.default_rng(5))
        counts = np.stack([HALVING_COUNTS[0], plain * 1000, HALVING_COUNTS[1]])
        steps = []
        self.assert_lanes_match_serial(counts, design, steps)
        assert min(steps[0]) == 1 / 16
        assert min(steps[1]) == 1.0
        assert min(steps[2]) < 1e-6

    def test_two_dimensional_counts_are_a_batch_of_one(self):
        design = default_design(2000)
        counts = simulate_tomography_counts(mixed_test_superop(), design,
                                            np.random.default_rng(7))
        single = tomography_mle(counts, design)
        batch = tomography_mle(counts[None], design)
        assert len(batch) == 1
        assert np.array_equal(single.matrix, batch[0].matrix)
        assert tomography_mle(np.zeros((0, 4, 8)), design) == []


class TestTomographyMleRefusals:
    @pytest.mark.parametrize("counts,match", [
        (np.ones((2, 8)), "shape"),
        (np.ones(32), "shape"),
        (np.ones((1, 1, 4, 8)), "shape"),
        (np.full((4, 8), np.nan), "finite"),
        (np.where(np.eye(4, 8) > 0, np.inf, 1.0), "finite"),
        (np.where(np.eye(4, 8) > 0, -1.0, 5.0), "nonnegative"),
        (np.zeros((4, 8)), "channel 0 has no counts"),
        (np.stack([np.ones((4, 8)), np.zeros((4, 8))]), "channel 1 has no counts"),
    ])
    def test_unfittable_counts_rejected(self, counts, match):
        with pytest.raises(ValueError, match=match):
            tomography_mle(counts, default_design(32))

    def test_non_finite_likelihood_raises_at_once(self):
        # Finite counts whose log-likelihood overflows to -inf.
        counts = np.stack([np.ones((4, 8)), np.full((4, 8), 1e308)])
        with np.errstate(over="ignore"), \
                pytest.raises(NumericalError, match="channel 1 is not finite"):
            tomography_mle(counts, default_design(32))

    def test_unconverged_lane_is_named(self):
        design = default_design(2000)
        counts = simulate_tomography_counts(mixed_test_superop(), design,
                                            np.random.default_rng(7))
        # Lane 0 converges in 16 iterations, lane 1 needs 603.
        with pytest.raises(NumericalError, match="channel 1 did not converge in 100 "):
            tomography_mle(np.stack([HALVING_COUNTS[0], counts]), design, max_iter=100)


class TestPredictWithControl:
    def test_identity_gate_matches_plain_propagation(self):
        gen, dims = dissipative_semigroup_generator()
        times = [0.5, 1.5, 4.0]
        plain = predict_with_control(gen, dims, ZERO.copy(), [], times)
        gated = predict_with_control(gen, dims, ZERO.copy(),
                                     [ControlEvent(1.0, np.eye(2))], times)
        for a, b in zip(plain, gated):
            assert np.max(np.abs(a - b)) < 1e-12

    def test_decoupled_two_segment_closed_form(self):
        dims = DimSpec(d_s=2, d_er=1)
        h = kron(0.3 * SIGMA_X, np.eye(4, dtype=np.complex128))
        model = make_embedding(dims, 1.0, h, ZERO.copy())
        gen = extract_generator(model)
        t_gate = 2.0
        traj = predict_with_control(gen, dims, ZERO.copy(),
                                    [ControlEvent(t_gate, SIGMA_X)],
                                    [1.0, 2.0, 3.5])
        pre = x_rotation(1.0) @ ZERO @ x_rotation(1.0).conj().T
        assert np.max(np.abs(traj[0] - pre)) < 1e-10
        at = SIGMA_X @ x_rotation(2.0) @ ZERO @ x_rotation(2.0).conj().T @ SIGMA_X
        assert np.max(np.abs(traj[1] - at)) < 1e-10
        prop = x_rotation(1.5) @ SIGMA_X @ x_rotation(2.0)
        post = prop @ ZERO @ prop.conj().T
        assert np.max(np.abs(traj[2] - post)) < 1e-10

    def test_unsorted_times_keep_requested_order(self):
        gen, dims = dissipative_semigroup_generator()
        fwd = predict_with_control(gen, dims, ZERO.copy(), [], [1.0, 3.0])
        rev = predict_with_control(gen, dims, ZERO.copy(), [], [3.0, 1.0])
        assert np.max(np.abs(fwd[0] - rev[1])) < 1e-12
        assert np.max(np.abs(fwd[1] - rev[0])) < 1e-12

    def test_invalid_gates_and_times_rejected(self):
        gen, dims = dissipative_semigroup_generator()
        with pytest.raises(ValueError, match="unitary"):
            predict_with_control(gen, dims, ZERO.copy(),
                                 [ControlEvent(1.0, 2.0 * np.eye(2))], [2.0])
        with pytest.raises(ValueError, match="unitary"):
            predict_with_control(gen, dims, ZERO.copy(),
                                 [ControlEvent(1.0, np.eye(3))], [2.0])
        with pytest.raises(ValueError, match="nonnegative"):
            predict_with_control(gen, dims, ZERO.copy(),
                                 [ControlEvent(-1.0, np.eye(2))], [2.0])
        with pytest.raises(ValueError, match="nonnegative"):
            predict_with_control(gen, dims, ZERO.copy(), [], [-2.0])


class TestConcatenationPrediction:
    def test_identity_event_reduces_to_direct_maps(self):
        gen, _ = dissipative_semigroup_generator()
        times = [1.0, 2.0, 3.0, 4.0]
        sups = [scipy.linalg.expm(t * gen.matrix) for t in times]
        states, flags = concatenation_prediction(times, sups,
                                                 ControlEvent(2.0, np.eye(2)),
                                                 ZERO.copy())
        for t, m, rho in zip(times, sups, states):
            assert np.max(np.abs(rho - unvec(m @ vec(ZERO)))) < 1e-10
        assert not any(flags)

    def test_semigroup_truth_matches_embedding_prediction(self):
        # Divisible dynamics is the regime where memoryless stitching is
        # exact; the two predictions must coincide.
        gen, dims = dissipative_semigroup_generator()
        times = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        sups = [scipy.linalg.expm(t * gen.matrix) for t in times]
        ev = ControlEvent(3.0, SIGMA_X)
        concat, flags = concatenation_prediction(times, sups, ev, ZERO.copy())
        emb = predict_with_control(gen, dims, ZERO.copy(), [ev], times)
        for a, b in zip(concat, emb):
            assert np.max(np.abs(a - b)) < 1e-8
        assert not any(flags)

    def test_collision_truth_breaks_concatenation(self):
        # Memory makes the stitched prediction fail hard after the gate: it
        # leaves the state space and sits far from the exact trajectory.
        cfg = CollisionModelConfig()
        periods = list(range(1, 11))
        _, channels = exact_reference_dynamics(cfg, periods)
        times = [float(k) for k in periods]
        ev = ControlEvent(5.0, SIGMA_X)
        concat, flags = concatenation_prediction(times, channels, ev,
                                                 ZERO.copy())
        exact_post = exact_controlled_dynamics(cfg, SIGMA_X, 5, periods)
        dist = trace_distance_trajectory(concat, exact_post)
        assert np.max(dist[:5]) < 1e-12
        assert np.min(dist[5:]) > 0.4
        assert any(flags[5:])

    def test_flags_report_raw_eigenvalues_unclipped(self):
        cfg = CollisionModelConfig()
        periods = list(range(1, 11))
        _, channels = exact_reference_dynamics(cfg, periods)
        states, flags = concatenation_prediction(
            [float(k) for k in periods], channels, ControlEvent(5.0, SIGMA_X),
            ZERO.copy())
        fired = False
        for rho, flag in zip(states, flags):
            mn = np.linalg.eigvalsh(rho).min()
            assert flag == (mn < -1e-8)
            fired = fired or flag
        assert fired

    def test_event_off_grid_rejected(self):
        gen, _ = dissipative_semigroup_generator()
        sups = [scipy.linalg.expm(t * gen.matrix) for t in [1.0, 2.0]]
        with pytest.raises(ValueError, match="time grid"):
            concatenation_prediction([1.0, 2.0], sups,
                                     ControlEvent(1.5, np.eye(2)), ZERO.copy())

    def test_singular_map_at_event_rejected(self):
        i2 = np.eye(2, dtype=np.complex128)
        depol = np.outer(vec(i2 / 2), vec(i2))
        with pytest.raises(IllConditionedError):
            concatenation_prediction([1.0], [depol],
                                     ControlEvent(1.0, np.eye(2)), ZERO.copy())

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="pair"):
            concatenation_prediction([1.0, 2.0], [np.eye(4)],
                                     ControlEvent(1.0, np.eye(2)), ZERO.copy())


class TestTraceDistanceTrajectory:
    def test_known_values(self):
        d = trace_distance_trajectory([ZERO, ZERO, np.eye(2) / 2],
                                      [ZERO, ONE, ZERO])
        assert np.max(np.abs(d - np.array([0.0, 1.0, 0.5]))) < 1e-12

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            trace_distance_trajectory([ZERO], [ZERO, ONE])


class TestNonmonotonicityFlag:
    def test_synthetic_sequences(self):
        assert not nonmonotonicity_flag(np.array([0.9, 0.5, 0.3, 0.1]))
        assert nonmonotonicity_flag(np.array([0.9, 0.5, 0.6, 0.1]))
        assert not nonmonotonicity_flag(np.array([0.9, 0.5, 0.5 + 1e-8]))
        assert nonmonotonicity_flag(np.array([0.5, 0.5 + 1e-5]), tol=1e-6)

    def test_collision_dynamics_show_backflow(self):
        cfg = CollisionModelConfig()
        _, channels = exact_reference_dynamics(cfg, list(range(1, 21)))
        traj_a = [unvec(m @ vec(ZERO)) for m in channels]
        traj_b = [unvec(m @ vec(ONE)) for m in channels]
        d = trace_distance_trajectory(traj_a, traj_b)
        assert nonmonotonicity_flag(d)
        assert np.max(np.diff(d)) > 0.1

    def test_semigroup_dynamics_stay_monotone(self):
        gen, _ = dissipative_semigroup_generator()
        sups = [scipy.linalg.expm(t * gen.matrix) for t in range(1, 8)]
        traj_a = [unvec(m @ vec(ZERO)) for m in sups]
        traj_b = [unvec(m @ vec(ONE)) for m in sups]
        assert not nonmonotonicity_flag(trace_distance_trajectory(traj_a,
                                                                  traj_b))
