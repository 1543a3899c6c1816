"""Record-sequence likelihood tests: both renormalized sweeps against flat
contractions that keep every ancilla, plus the analytic gradient against
central finite differences."""
import tracemalloc

import numpy as np
import pytest

from embedlearn.datagen import Dataset, make_records
from embedlearn.errors import DataError, ZeroProbabilityError
from embedlearn.likelihood import (PropagationCache, _filter, _loewner_exp,
                                   _product_operators, backward_pass,
                                   build_cache, build_caches, conditional_validation_ll,
                                   forward_pass, log_likelihood,
                                   log_likelihood_gradient)
from embedlearn.embedding import (CHUNK, _transfer_basis, extract_generator, kraus_stack,
                                  make_embedding, model_channels, superoperator_matrix)
from embedlearn.qla import DimSpec, dagger, expm_unitary, herm_eig, kron
from embedlearn.train import init_model

import oracles
from oracles import (backward_effects, dump_step_increments, forward_states,
                     per_step_increments, unitary_derivative)


def random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (a + a.conj().T)


def random_density(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_pure_density(rng, d):
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj()), psi


def random_model(rng, d_s=2, d_er=2, tau=1.0, scale=0.5, pure=False):
    dims = DimSpec(d_s=d_s, d_er=d_er)
    h = scale * random_hermitian(rng, dims.d_total) / np.sqrt(dims.d_total)
    if pure:
        rho0, psi0 = random_pure_density(rng, dims.d)
        return make_embedding(dims, tau, h, rho0), psi0
    return make_embedding(dims, tau, h, random_density(rng, dims.d))


def random_records(rng, n, d_s=2):
    """Haar-random measurement bases with uniformly random outcomes."""
    bases = np.empty((n, d_s, d_s), dtype=np.complex128)
    outcomes = np.empty(n, dtype=np.int64)
    for i in range(n):
        a = rng.standard_normal((d_s, d_s)) + 1j * rng.standard_normal((d_s, d_s))
        q, r = np.linalg.qr(a)
        bases[i] = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
        outcomes[i] = rng.integers(d_s)
    return make_records(np.arange(1, n + 1), bases, outcomes)


def basis_records(basis, outcomes, first_step=1):
    """Records all measured in ``basis``, with the given outcomes."""
    return make_records(np.arange(first_step, first_step + len(outcomes)),
                        np.broadcast_to(basis, (len(outcomes), *basis.shape)), outcomes)


def make_dataset(records, tau=1.0):
    return Dataset(records=records, tau=tau,
                   provenance={"seed": 0, "config_hash": "unit-test"})


def flat_log_likelihood(model, records):
    """Exponential-cost contraction keeping every ancilla, mixed initial
    states handled by decomposing into pure components."""
    dims = model.dims
    u = expm_unitary(np.asarray(model.h), model.tau)
    projs = [np.outer(phi, phi.conj()) for phi in oracles.record_vectors_serial(records)]
    w, vecs = np.linalg.eigh(np.asarray(model.rho0_ser))
    total = 0.0
    for k in range(len(w)):
        if w[k] < 1e-14:
            continue
        total += w[k] * oracles.flat_record_probability(
            u, dims.d_s, dims.d_er, dims.d_a, vecs[:, k], projs)
    return np.log(total)


class TestForwardPass:
    def test_empty_sequence(self):
        model = random_model(np.random.default_rng(0))
        cache = forward_pass(model, make_dataset(basis_records(np.eye(2), [])))
        assert cache.n == 0
        assert cache.log_likelihood() == 0.0
        assert np.max(np.abs(forward_states(cache)[0] - model.rho0_ser)) == 0.0

    def test_deterministic_outcomes_accumulate_zero(self):
        # Frozen dynamics measured repeatedly in the preparation basis.
        dims = DimSpec(d_s=2, d_er=1)
        h = np.zeros((dims.d_total, dims.d_total), dtype=np.complex128)
        rho0 = np.zeros((2, 2), dtype=np.complex128)
        rho0[0, 0] = 1.0
        model = make_embedding(dims, 1.0, h, rho0)
        eye = np.eye(2, dtype=np.complex128)
        cache = forward_pass(model, make_dataset(basis_records(eye, [0] * 6)))
        assert np.max(np.abs(cache.forward_log_scale)) < 1e-12

    def test_matches_flat_contraction_n3(self):
        rng = np.random.default_rng(1)
        for trial in range(4):
            model = random_model(rng)
            records = random_records(rng, 3)
            got = forward_pass(model, make_dataset(records)).log_likelihood()
            want = flat_log_likelihood(model, records)
            assert abs(got - want) < 1e-9, f"trial {trial}"

    def test_states_are_normalized_densities(self):
        rng = np.random.default_rng(2)
        model = random_model(rng)
        cache = forward_pass(model, make_dataset(random_records(rng, 8)))
        for rho in forward_states(cache):
            assert abs(np.trace(rho) - 1.0) < 1e-10
            assert np.max(np.abs(rho - dagger(rho))) < 1e-10
            assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_zero_probability_names_step(self):
        dims = DimSpec(d_s=2, d_er=1)
        h = np.zeros((dims.d_total, dims.d_total), dtype=np.complex128)
        rho0 = np.zeros((2, 2), dtype=np.complex128)
        rho0[0, 0] = 1.0
        model = make_embedding(dims, 1.0, h, rho0)
        eye = np.eye(2, dtype=np.complex128)
        with pytest.raises(ZeroProbabilityError, match="2"):
            forward_pass(model, make_dataset(basis_records(eye, [0, 1])))

    def test_prefix_log_likelihoods_nonincreasing(self):
        rng = np.random.default_rng(3)
        model = random_model(rng)
        cache = forward_pass(model, make_dataset(random_records(rng, 12)))
        assert np.all(np.diff(cache.forward_log_scale) <= 1e-15)


class TestBackwardPass:
    def test_terminal_effect_is_identity(self):
        rng = np.random.default_rng(4)
        model = random_model(rng)
        cache = backward_pass(model, make_dataset(random_records(rng, 5)))
        d = model.dims.d
        assert np.max(np.abs(backward_effects(cache)[-1] - np.eye(d))) < 1e-12
        assert cache.backward_log_scale[-1] == 0.0

    def test_effects_psd_unit_norm(self):
        rng = np.random.default_rng(5)
        model = random_model(rng)
        cache = backward_pass(model, make_dataset(random_records(rng, 10)))
        for eff in backward_effects(cache):
            vals = np.linalg.eigvalsh(eff)
            assert vals.min() > -1e-10
            assert abs(np.abs(vals).max() - 1.0) < 1e-10

    @pytest.mark.parametrize("d_er", [1, 2])
    def test_zero_probability_names_step(self, d_er):
        # Identity channel, computational basis: the forward sweep fails at
        # the first switch, 0 -> 1 at step 13; the backward sweep at the
        # last, 1 -> 0 between steps 15 and 16, named by its later record.
        dims = DimSpec(d_s=2, d_er=d_er)
        h = np.zeros((dims.d_total, dims.d_total), dtype=np.complex128)
        rho0 = np.zeros((dims.d, dims.d), dtype=np.complex128)
        rho0[0, 0] = 1.0
        model = make_embedding(dims, 1.0, h, rho0)
        eye = np.eye(2, dtype=np.complex128)
        ds = make_dataset(basis_records(eye, [0, 0, 0, 1, 1, 1, 0, 0], first_step=10))
        with pytest.raises(ZeroProbabilityError) as fwd:
            forward_pass(model, ds)
        with pytest.raises(ZeroProbabilityError) as bwd:
            backward_pass(model, ds)
        assert (fwd.value.step, bwd.value.step) == (13, 16)

    def test_merge_points_agree_n3(self):
        rng = np.random.default_rng(6)
        model = random_model(rng)
        cache = build_cache(model, make_dataset(random_records(rng, 3)))
        ref = cache.log_likelihood()
        for m in range(4):
            assert abs(cache.merged_log_likelihood(m) - ref) < 1e-10

    def test_merge_points_agree_longer(self):
        rng = np.random.default_rng(7)
        model = random_model(rng)
        cache = build_cache(model, make_dataset(random_records(rng, 25)))
        ref = cache.log_likelihood()
        for m in range(26):
            assert abs(cache.merged_log_likelihood(m) - ref) < 1e-8


class TestLogLikelihood:
    def test_certain_outcome(self):
        dims = DimSpec(d_s=2, d_er=1)
        h = np.zeros((dims.d_total, dims.d_total), dtype=np.complex128)
        rho0 = np.zeros((2, 2), dtype=np.complex128)
        rho0[0, 0] = 1.0
        model = make_embedding(dims, 1.0, h, rho0)
        eye = np.eye(2, dtype=np.complex128)
        ds = make_dataset(basis_records(eye, [0]))
        assert abs(log_likelihood(model, ds)) < 1e-14

    def test_unbiased_basis_outcome(self):
        dims = DimSpec(d_s=2, d_er=1)
        h = np.zeros((dims.d_total, dims.d_total), dtype=np.complex128)
        rho0 = np.zeros((2, 2), dtype=np.complex128)
        rho0[0, 0] = 1.0
        model = make_embedding(dims, 1.0, h, rho0)
        had = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
        ds = make_dataset(basis_records(had, [0]))
        assert abs(log_likelihood(model, ds) - np.log(0.5)) < 1e-12

    def test_matches_flat_contraction_n4(self):
        rng = np.random.default_rng(8)
        for trial in range(3):
            model = random_model(rng)
            records = random_records(rng, 4)
            got = log_likelihood(model, make_dataset(records))
            want = flat_log_likelihood(model, records)
            assert abs(got - want) < 1e-9, f"trial {trial}"

    def test_pure_initial_state_flat_contraction(self):
        rng = np.random.default_rng(9)
        model, psi0 = random_model(rng, pure=True)
        records = random_records(rng, 4)
        projs = [np.outer(phi, phi.conj()) for phi in oracles.record_vectors_serial(records)]
        u = expm_unitary(np.asarray(model.h), model.tau)
        dims = model.dims
        p = oracles.flat_record_probability(u, dims.d_s, dims.d_er, dims.d_a,
                                            psi0, projs)
        got = log_likelihood(model, make_dataset(records))
        assert abs(got - np.log(p)) < 1e-9

    def test_tau_mismatch_rejected(self):
        rng = np.random.default_rng(10)
        model = random_model(rng, tau=1.0)
        ds = Dataset(records=random_records(rng, 2), tau=2.0, provenance={})
        with pytest.raises(DataError):
            log_likelihood(model, ds)


class TestPerStepIncrements:
    def test_increments_sum_to_total(self):
        rng = np.random.default_rng(11)
        model = random_model(rng)
        cache = forward_pass(model, make_dataset(random_records(rng, 9)))
        inc = per_step_increments(cache)
        assert inc.shape == (9,)
        assert abs(inc.sum() - cache.log_likelihood()) < 1e-12

    def test_dump_format(self, tmp_path):
        rng = np.random.default_rng(12)
        model = random_model(rng)
        cache = forward_pass(model, make_dataset(random_records(rng, 3)))
        path = tmp_path / "inc.csv"
        dump_step_increments(cache, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "step,log_p_increment"
        assert len(lines) == 4
        inc = per_step_increments(cache)
        for i, line in enumerate(lines[1:]):
            step, val = line.split(",")
            assert int(step) == i + 1
            assert float(val) == float(inc[i])


class TestUnitaryDerivative:
    def test_zero_hamiltonian(self):
        d = 4
        h = np.zeros((d, d), dtype=np.complex128)
        tau = 0.8
        got = unitary_derivative(h, 1, 2, tau)
        want = np.zeros((d, d), dtype=np.complex128)
        want[1, 2] = -1j * tau
        assert np.max(np.abs(got - want)) < 1e-12

    def test_diagonal_hamiltonian_diagonal_entry(self):
        lam = np.array([0.3, -1.1, 2.0])
        h = np.diag(lam).astype(np.complex128)
        tau = 0.6
        for j in range(3):
            got = unitary_derivative(h, j, j, tau)
            want = np.zeros((3, 3), dtype=np.complex128)
            want[j, j] = -1j * tau * np.exp(-1j * lam[j] * tau)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_finite_difference(self):
        rng = np.random.default_rng(13)
        h = random_hermitian(rng, 6)
        tau = 0.9
        eps = 1e-6
        for mu, nu in [(0, 0), (1, 4), (5, 2)]:
            delta = np.zeros((6, 6), dtype=np.complex128)
            delta[mu, nu] = 1.0
            up = oracles.taylor_expm(h + eps * delta, tau, terms=60)
            dn = oracles.taylor_expm(h - eps * delta, tau, terms=60)
            fd = (up - dn) / (2 * eps)
            got = unitary_derivative(h, mu, nu, tau)
            rel = np.linalg.norm(got - fd) / np.linalg.norm(fd)
            assert rel < 1e-6

    def test_degenerate_pair_uses_confluent_limit(self):
        lam = np.array([0.5, 0.5, -0.2])
        h = np.diag(lam).astype(np.complex128)
        tau = 1.3
        got = unitary_derivative(h, 0, 1, tau)
        want = np.zeros((3, 3), dtype=np.complex128)
        want[0, 1] = -1j * tau * np.exp(-1j * 0.5 * tau)
        assert np.max(np.abs(got - want)) < 1e-12


def hamiltonian_parameter_map(d):
    """Real parameter vector <-> Hermitian matrix, diagonal then real and
    imaginary parts of the strict upper triangle."""
    rows, cols = np.triu_indices(d, k=1)
    n_off = rows.size

    def pack(h):
        return np.concatenate([np.real(np.diagonal(h)),
                               h[rows, cols].real, h[rows, cols].imag])

    def unpack(x):
        h = np.zeros((d, d), dtype=np.complex128)
        h[np.arange(d), np.arange(d)] = x[:d]
        off = x[d:d + n_off] + 1j * x[d + n_off:]
        h[rows, cols] = off
        h[cols, rows] = off.conj()
        return h

    return pack, unpack


def hermitian_gradient_vector(g, d):
    """Project the matrix-unit gradient onto the real Hermitian parameters.

    d/dx_real(i,j) = g[i,j] + g[j,i] (real part), d/dx_imag(i,j) picks the
    antisymmetric imaginary combination; g Hermitian makes both real."""
    rows, cols = np.triu_indices(d, k=1)
    return np.concatenate([np.real(np.diagonal(g)),
                           (g[rows, cols] + g[cols, rows]).real,
                           (1j * (g[rows, cols] - g[cols, rows])).real])


def dense_oracle_sweeps(model, ds):
    """Joint-space forward states and logs, backward effects and logs."""
    m = superoperator_matrix(model, expm_unitary(model.h, model.tau))
    phis = oracles.record_vectors_serial(ds.records)
    states, flogs = oracles.dense_forward_sweep(m, model.rho0_ser, phis)
    effects, blogs = oracles.dense_backward_sweep(m, phis, model.dims.d)
    return states, flogs, effects, blogs


def chain_gradient_error(model, ds, got, batch):
    """Relative distance of a gradient from the per-merge-point chain fed
    the joint-space oracle sweeps."""
    states, _, effects, _ = dense_oracle_sweeps(model, ds)
    phis = oracles.record_vectors_serial(ds.records)
    avec = oracles.ancilla_vector_eigh(oracles.ground_ancilla(model.dims.d_a))
    want = oracles.merge_point_chain_gradient(
        np.asarray(model.h), model.tau, avec, model.dims.d_s,
        model.dims.d_er, states, effects, phis, batch, len(ds.records))
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class TestGradient:
    def test_full_batch_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        model = random_model(rng, d_er=2)
        ds = make_dataset(random_records(rng, 10))
        cache = build_cache(model, ds)
        g = log_likelihood_gradient(cache)
        d = model.dims.d_total
        pack, unpack = hamiltonian_parameter_map(d)

        def f(x):
            m = make_embedding(model.dims, model.tau, unpack(x),
                               np.asarray(model.rho0_ser))
            return log_likelihood(m, ds)

        fd = oracles.central_difference(f, pack(np.asarray(model.h)), 1e-5)
        got = hermitian_gradient_vector(g, d)
        rel = np.linalg.norm(got - fd) / np.linalg.norm(fd)
        assert rel < 1e-5

    def test_gradient_is_hermitian(self):
        rng = np.random.default_rng(15)
        model = random_model(rng)
        ds = make_dataset(random_records(rng, 6))
        cache = build_cache(model, ds)
        g = log_likelihood_gradient(cache)
        assert np.linalg.norm(g - dagger(g)) < 1e-10

    def test_half_batches_average_to_full(self):
        rng = np.random.default_rng(16)
        model = random_model(rng)
        ds = make_dataset(random_records(rng, 8))
        cache = build_cache(model, ds)
        full = log_likelihood_gradient(cache)
        first = log_likelihood_gradient(cache, batch=[1, 2, 3, 4])
        second = log_likelihood_gradient(cache, batch=[5, 6, 7, 8])
        assert np.max(np.abs(0.5 * (first + second) - full)) < 1e-10

    def test_batch_bounds_checked(self):
        rng = np.random.default_rng(17)
        model = random_model(rng)
        ds = make_dataset(random_records(rng, 4))
        cache = build_cache(model, ds)
        with pytest.raises(ValueError):
            log_likelihood_gradient(cache, batch=[0])
        with pytest.raises(ValueError):
            log_likelihood_gradient(cache, batch=[5])
        with pytest.raises(ValueError):
            log_likelihood_gradient(cache, batch=[])
        # A cast to an index would score merge point 2 and merge point 1.
        with pytest.raises(ValueError, match="integers"):
            log_likelihood_gradient(cache, batch=[2.9])
        with pytest.raises(ValueError, match="integers"):
            log_likelihood_gradient(cache, batch=np.array([True, True]))


class TestGradientThroughSuperoperator:
    """The gradient aggregated through the period superoperator against the
    per-merge-point chain through the dilation, fed the joint-space oracle
    sweeps (``oracles``), directional finite differences, and its memory,
    which must not grow with n x d_total."""

    @staticmethod
    def _setup(d_er, n, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, d_er=d_er)
        ds = make_dataset(random_records(rng, n))
        return rng, model, ds, build_cache(model, ds)

    @pytest.mark.parametrize("d_er,n", [(1, 60), (2, 40), (3, 12)])
    @pytest.mark.parametrize("full", [False, True])
    def test_matches_chain_oracle(self, d_er, n, full):
        rng, model, ds, cache = self._setup(d_er, n, 30 + d_er)
        batch = (np.arange(1, n + 1) if full
                 else np.sort(rng.choice(np.arange(1, n + 1), n // 3, replace=False)))
        got = log_likelihood_gradient(cache, None if full else batch)
        assert chain_gradient_error(model, ds, got, batch) < 1e-8

    @pytest.mark.parametrize("d_er", [1, 2, 3])
    def test_directional_central_differences(self, d_er):
        rng, model, ds, cache = self._setup(d_er, 8, 40 + d_er)
        g = log_likelihood_gradient(cache)
        h = np.asarray(model.h)
        rho0 = np.asarray(model.rho0_ser)
        eps = 1e-5

        def ll(x):
            return log_likelihood(make_embedding(model.dims, model.tau, x, rho0), ds)

        for _ in range(3):
            x = random_hermitian(rng, h.shape[0])
            x /= np.linalg.norm(x)
            fd = (ll(h + eps * x) - ll(h - eps * x)) / (2 * eps)
            got = np.sum(g * x)
            assert abs(got.imag) < 1e-10
            assert abs(got.real - fd) < 1e-6 * max(1.0, abs(fd))

    def test_full_batch_memory_is_bounded_at_d_er_3(self):
        # The per-merge-point chain needs about 0.75 GB here.  d_total = 216,
        # so one H-sized complex matrix is 0.71 MiB.  Measured peak 2.40 MiB
        # (5.46 MiB with a new array per H-sized step); the cap leaves a
        # third on top of that.
        *_, cache = self._setup(3, 1000, 50)
        tracemalloc.start()
        try:
            log_likelihood_gradient(cache)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.2 * 2**20

    def test_full_batch_of_20000_holds_two_record_sized_arrays(self):
        # A posterior draw's gradient has every record as a merge point.  At
        # d_er = 2 one n x d^2 complex array is 4.9 MiB here.  Measured peak
        # 11.6 MiB with the two factor arrays read from views of the sweeps
        # and the merge-point values formed in row blocks, 15.2 MiB with
        # gathered copies of the sweeps and the whole product b @ M^T as a
        # third such array; the cap lies halfway between the two.
        *_, cache = self._setup(2, 20000, 51)
        tracemalloc.start()
        try:
            log_likelihood_gradient(cache, np.arange(1, 20001))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 13.4 * 2**20

    def test_full_batch_memory_is_bounded_at_d_er_4(self):
        # d_er = 4 is the largest the command line accepts: d_total = 512, so
        # one H-sized complex matrix is 4 MiB.  Measured peak 12.3 MiB, three
        # such matrices (26.2 MiB with a new array per H-sized step; 0.09 s
        # with one BLAS thread); the cap leaves a third on top of that.
        *_, cache = self._setup(4, 1000, 50)
        tracemalloc.start()
        try:
            log_likelihood_gradient(cache)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16.4 * 2**20


class TestInPlaceAlgebraIsBitwise:
    """The gradient's H-sized algebra, written in place, and its merge-point
    values, formed in blocks of ``CHUNK`` rows, against the allocating
    oracle byte for byte: on random models, on the start point of a fit,
    whose H = h_ser x I has every eigenvalue repeated d_a times, so the
    confluent branch of the divided differences runs, and on H = 0, whose
    confluent entries have zero real parts."""

    @pytest.fixture(scope="class", params=[(d_er, start) for d_er in (1, 2, 3, 4)
                                           for start in ("random", "init", "zero")],
                    ids=lambda p: f"d_er{p[0]}-{p[1]}")
    def model(self, request):
        d_er, start = request.param
        rng = np.random.default_rng(80 + d_er)
        model = (random_model(rng, d_er=d_er) if start == "random"
                 else init_model(DimSpec(d_s=2, d_er=d_er), 1.0, rng))
        if start == "zero":
            model = make_embedding(model.dims, model.tau, np.zeros_like(model.h),
                                   model.rho0_ser)
        return model, random_records(rng, 3000)

    @pytest.fixture(scope="class")
    def cache(self, model):
        model, records = model
        return build_cache(model, make_dataset(records[:24]))

    def test_divided_differences(self, cache):
        lam, tau = cache.spectrum.eigenvalues, cache.channel.tau
        assert (_loewner_exp(lam, tau).tobytes()
                == oracles.loewner_exp_allocating(lam, tau).tobytes())

    def test_product_operators_of_transposed_blocks(self, cache):
        batch = np.arange(2, 25)
        phis = cache.phis[batch - 2].conj()
        blocks = cache.forward_blocks[batch - 1].transpose(0, 2, 1)
        got = _product_operators(phis, blocks)
        want = oracles.product_operators_allocating(phis, blocks)
        assert got.flags.c_contiguous
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("batch", [[1, 5, 6, 17], [3, 8, 9, 20, 24], None],
                             ids=["with-1", "partial", "full"])
    def test_gradient(self, cache, batch):
        got = log_likelihood_gradient(cache, batch)
        want = oracles.log_likelihood_gradient_allocating(
            cache, np.arange(1, 25) if batch is None else batch)
        assert got.tobytes() == want.tobytes()

    # n = k CHUNK + 1 is where plain blocks of CHUNK rows would end in a
    # block of one row, whose matrix-vector product rounds differently.
    @pytest.mark.parametrize("n", [1, 2, CHUNK, CHUNK + 1, CHUNK + 2, 2 * CHUNK + 1, 3000])
    def test_gradient_over_blocks(self, model, n):
        model, records = model
        cache = build_cache(model, make_dataset(records[:n]))
        steps = np.arange(1, n + 1)
        rng = np.random.default_rng(n)
        shuffled = rng.permutation(np.concatenate([steps, rng.integers(1, n + 1, n // 3 + 1)]))
        want = oracles.log_likelihood_gradient_allocating(cache, steps).tobytes()
        for batch in (None, steps, shuffled):
            assert log_likelihood_gradient(cache, batch).tobytes() == want
        partial = rng.choice(steps, size=(n + 1) // 2, replace=False)
        assert (log_likelihood_gradient(cache, partial).tobytes()
                == oracles.log_likelihood_gradient_allocating(cache, partial).tobytes())


class TestProductFormAgainstDenseOracle:
    """The reservoir-sized sweeps against the joint-space loops they replaced,
    on random models and 2000 records."""

    @pytest.fixture(scope="class", params=[1, 2, 3])
    def sweeps(self, request):
        rng = np.random.default_rng(70 + request.param)
        model = random_model(rng, d_er=request.param)
        ds = make_dataset(random_records(rng, 2000))
        return model, ds, build_cache(model, ds), dense_oracle_sweeps(model, ds)

    def test_log_likelihood_and_every_prefix(self, sweeps):
        _, _, cache, (_, flogs, _, _) = sweeps
        assert abs(cache.log_likelihood() - flogs[-1]) <= 1e-9
        assert np.max(np.abs(cache.forward_log_scale - flogs)) <= 1e-9

    def test_merge_at_every_point(self, sweeps):
        _, _, cache, _ = sweeps
        ref = cache.log_likelihood()
        worst = max(abs(cache.merged_log_likelihood(m) - ref) for m in range(cache.n + 1))
        assert worst <= 1e-9

    def test_dense_views(self, sweeps):
        _, _, cache, (states, _, effects, blogs) = sweeps
        assert np.max(np.abs(forward_states(cache) - states)) < 1e-10
        assert np.max(np.abs(backward_effects(cache) - effects)) < 1e-10
        assert abs(cache.backward_log_scale[0] - blogs[0]) <= 1e-9

    def test_batch_gradient(self, sweeps):
        model, ds, cache, _ = sweeps
        rng = np.random.default_rng(80)
        batch = np.sort(rng.choice(np.arange(1, 2001), 40, replace=False))
        got = log_likelihood_gradient(cache, batch)
        assert chain_gradient_error(model, ds, got, batch) < 1e-8

    def test_build_cache_memory_at_d_er_3(self):
        # At n = 20000 the joint-space sweeps of one cache peak at 24.7 MiB:
        # (n+1) x 6 x 6 states and effects.  The product form holds two
        # (n+1) x 3 x 3 block arrays and one chunk of transfer matrices;
        # building all T_i at once would add 25 MiB.
        rng = np.random.default_rng(60)
        model = random_model(rng, d_er=3)
        ds = make_dataset(random_records(rng, 20000))
        tracemalloc.start()
        try:
            build_cache(model, ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


class TestConditionalValidation:
    def _trajectory_datasets(self, rng, n_train, n_val):
        recs = random_records(rng, n_train + n_val)
        prov = {"seed": 5, "config_hash": "unit-test"}
        tr = Dataset(records=recs[:n_train], tau=1.0, provenance=prov)
        va = Dataset(records=recs[n_train:], tau=1.0, provenance=dict(prov))
        return tr, va

    def test_equals_joint_suffix_mean(self):
        rng = np.random.default_rng(18)
        model = random_model(rng)
        tr, va = self._trajectory_datasets(rng, 7, 5)
        joint = Dataset(records=np.concatenate((tr.records, va.records)), tau=1.0,
                        provenance=dict(tr.provenance))
        cache = forward_pass(model, joint)
        want = (cache.forward_log_scale[12] - cache.forward_log_scale[7]) / 5
        got = conditional_validation_ll(tr, va, forward_pass(model, tr))
        assert abs(got - want) < 1e-12

    @pytest.mark.parametrize("d_er", [1, 2, 3])
    def test_continuation_is_bitwise_joint_suffix(self, d_er):
        # Continuing from the training cache performs the same additions as
        # one sweep over train + validation, so the results are equal.
        rng = np.random.default_rng(40 + d_er)
        model = random_model(rng, d_er=d_er)
        tr, va = self._trajectory_datasets(rng, 30, 11)
        joint = Dataset(records=np.concatenate((tr.records, va.records)), tau=1.0,
                        provenance=dict(tr.provenance))
        logs = forward_pass(model, joint).forward_log_scale
        want = float(logs[41] - logs[30]) / 11
        assert conditional_validation_ll(tr, va, forward_pass(model, tr)) == want

    def test_mismatched_train_cache_rejected(self):
        rng = np.random.default_rng(44)
        model = random_model(rng)
        tr, va = self._trajectory_datasets(rng, 6, 4)
        shorter = Dataset(records=tr.records[:5], tau=1.0, provenance=dict(tr.provenance))
        with pytest.raises(ValueError):
            conditional_validation_ll(tr, va, forward_pass(model, shorter))
        with pytest.raises(ValueError):
            conditional_validation_ll(tr, va, backward_pass(model, tr))
        # A forward sweep over another dataset of the same length.
        other_tr, _ = self._trajectory_datasets(rng, 6, 4)
        with pytest.raises(ValueError):
            conditional_validation_ll(tr, va, forward_pass(model, other_tr))

    def test_split_halves_statistically_consistent(self):
        # Same model scored on both halves of one long exchangeable record
        # stream: per-step values differ only by sampling noise.
        rng = np.random.default_rng(19)
        model = random_model(rng, scale=0.3)
        tr, va = self._trajectory_datasets(rng, 400, 400)
        joint = Dataset(records=np.concatenate((tr.records, va.records)), tau=1.0,
                        provenance=dict(tr.provenance))
        cache = forward_pass(model, joint)
        inc = per_step_increments(cache)
        first, second = inc[:400], inc[400:]
        pooled = np.sqrt((first.var() + second.var()) / 400)
        assert abs(first.mean() - second.mean()) < 4 * pooled

    def test_gap_rejected(self):
        rng = np.random.default_rng(20)
        model = random_model(rng)
        tr, va = self._trajectory_datasets(rng, 6, 4)
        va.records = va.records[1:]
        with pytest.raises(DataError):
            conditional_validation_ll(tr, va, forward_pass(model, tr))

    def test_provenance_mismatch_rejected(self):
        rng = np.random.default_rng(21)
        model = random_model(rng)
        tr, va = self._trajectory_datasets(rng, 6, 4)
        va.provenance["seed"] = 999
        with pytest.raises(DataError):
            conditional_validation_ll(tr, va, forward_pass(model, tr))


class TestCacheErrors:
    def test_merge_requires_both_sweeps(self):
        rng = np.random.default_rng(22)
        model = random_model(rng)
        ds = make_dataset(random_records(rng, 3))
        cache = forward_pass(model, ds)
        with pytest.raises(ValueError):
            cache.merged_log_likelihood(1)

    def test_merge_point_outside_range_rejected(self):
        rng = np.random.default_rng(24)
        model = random_model(rng)
        cache = build_cache(model, make_dataset(random_records(rng, 3)))
        for m in (-1, -4, 4):
            with pytest.raises(ValueError):
                cache.merged_log_likelihood(m)
        ref = cache.log_likelihood()
        assert abs(cache.merged_log_likelihood(0) - ref) < 1e-12
        assert abs(cache.merged_log_likelihood(3) - ref) < 1e-12

    def test_gradient_requires_both_sweeps(self):
        rng = np.random.default_rng(23)
        model = random_model(rng)
        ds = make_dataset(random_records(rng, 3))
        cache = forward_pass(model, ds)
        with pytest.raises(ValueError):
            log_likelihood_gradient(cache)


class TestCacheReuse:
    """One eigendecomposition of H and one period map per (model, data) pair."""

    def _counted(self, monkeypatch):
        import embedlearn.embedding as em
        import embedlearn.likelihood as lk
        calls = {}
        for mod, name in ((em, "herm_eig"), (em, "superoperator_matrix"), (lk, "_filter")):
            fn = getattr(mod, name)
            calls[name] = 0

            def counting(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(mod, name, counting)
        return calls

    @pytest.mark.parametrize("d_er", [1, 2, 3])
    def test_one_decomposition_for_sweeps_validation_and_gradient(self, monkeypatch, d_er):
        rng = np.random.default_rng(60 + d_er)
        model = random_model(rng, d_er=d_er)
        recs = random_records(rng, 40)
        tr, va = make_dataset(recs[:30]), make_dataset(recs[30:])
        calls = self._counted(monkeypatch)
        cache = build_cache(model, tr)
        log_likelihood_gradient(cache, [3, 7, 30])
        conditional_validation_ll(tr, va, cache)
        # Both sweeps of build_cache are lanes of one loop; validation runs one more.
        assert calls == {"herm_eig": 1, "superoperator_matrix": 1, "_filter": 2}

    def test_build_caches_decomposes_every_model_in_one_call(self, monkeypatch):
        rng = np.random.default_rng(63)
        models = [random_model(rng) for _ in range(3)]
        ds = make_dataset(random_records(rng, 20))
        calls = self._counted(monkeypatch)
        build_caches(models, ds)
        assert calls == {"herm_eig": 1, "superoperator_matrix": 3, "_filter": 1}

    @pytest.mark.parametrize("d_er", [1, 2, 3])
    def test_reuse_is_bitwise_equal_to_recomputing(self, d_er):
        rng = np.random.default_rng(70 + d_er)
        model = random_model(rng, d_er=d_er)
        recs = random_records(rng, 25)
        tr, va = make_dataset(recs[:20]), make_dataset(recs[20:])
        cache = build_cache(model, tr)
        # An equal but distinct model object shares nothing with the cache,
        # so its own cache recomputes every input from its own H.
        twin = model.with_h(model.h.copy())
        twin_cache = build_cache(twin, tr)
        for batch in (None, [1, 5, 20]):
            reused = log_likelihood_gradient(cache, batch)
            fresh = log_likelihood_gradient(twin_cache, batch)
            assert np.array_equal(reused, fresh)
        # Validation takes only a forward sweep of its own model and data.
        assert (conditional_validation_ll(tr, va, cache)
                == conditional_validation_ll(tr, va, forward_pass(twin, tr)))
        separate = backward_pass(twin, tr)
        assert np.array_equal(cache.backward_log_scale, separate.backward_log_scale)
        assert np.array_equal(cache.backward_blocks[1:], separate.backward_blocks[1:])

    def test_build_cache_runs_the_backward_sweep(self):
        rng = np.random.default_rng(81)
        model = random_model(rng)
        ds = make_dataset(random_records(rng, 15))
        cache = build_cache(model, ds)
        separate = backward_pass(model, ds)
        assert np.array_equal(cache.backward_log_scale, separate.backward_log_scale)
        assert np.array_equal(cache.backward_blocks[1:], separate.backward_blocks[1:])
        assert abs(cache.merged_log_likelihood(7) - cache.log_likelihood()) < 1e-10


class TestStackedChannels:
    """The stacked channel construction and the two-lane build_cache,
    bitwise against one model, one decomposition and one sweep at a time."""

    SWEEP_FIELDS = ("forward_blocks", "forward_log_scale", "backward_blocks",
                    "backward_log_scale")

    @pytest.mark.parametrize("d_er", [1, 2, 3])
    @pytest.mark.parametrize("count", [1, 3])
    def test_model_channels_match_one_model_at_a_time(self, d_er, count):
        rng = np.random.default_rng(90 + d_er)
        models = [random_model(rng, d_er=d_er) for _ in range(count)]
        spectra, ms, kraus = model_channels(models)
        for j, model in enumerate(models):
            want = herm_eig(model.h)
            assert spectra.eigenvalues[j].tobytes() == want.eigenvalues.tobytes()
            assert spectra.eigenvectors[j].tobytes() == want.eigenvectors.tobytes()
            assert ms[j].tobytes() == oracles.model_superoperator(model).tobytes()
            want = kraus_stack(model, expm_unitary(model.h, model.tau))
            assert kraus[j].tobytes() == want.tobytes()
            assert kraus[j].flags.c_contiguous

    @pytest.mark.parametrize("d_er", [1, 2, 3])
    def test_generator_factors_match_one_model_route(self, d_er):
        model = random_model(np.random.default_rng(95 + d_er), d_er=d_er, scale=0.3)
        got, want = extract_generator(model), oracles.extract_generator_serial(model)
        for name in ("log_eigenvalues", "eigenvectors", "inverse"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.tau == want.tau

    @pytest.mark.parametrize("d_er", [1, 2, 3])
    def test_build_cache_is_two_one_lane_sweeps(self, d_er):
        rng = np.random.default_rng(100 + d_er)
        model = random_model(rng, d_er=d_er)
        ds = make_dataset(random_records(rng, 300))
        got, want = build_cache(model, ds), oracles.build_cache_serial(model, ds)
        for name in self.SWEEP_FIELDS:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    @pytest.mark.parametrize("d_er", [1, 2, 3])
    def test_build_caches_and_gradients_match_serial_caches(self, d_er):
        rng = np.random.default_rng(110 + d_er)
        models = [random_model(rng, d_er=d_er) for _ in range(3)]
        ds = make_dataset(random_records(rng, 200))
        for model, cache in zip(models, build_caches(models, ds)):
            want = oracles.build_cache_serial(model, ds)
            for name in self.SWEEP_FIELDS:
                assert getattr(cache, name).tobytes() == getattr(want, name).tobytes(), name
            for batch in (None, [1, 17, 200]):
                got = log_likelihood_gradient(cache, batch)
                assert got.tobytes() == log_likelihood_gradient(want, batch).tobytes()

    @pytest.mark.parametrize("d_er", [1, 2])
    @pytest.mark.parametrize("outcomes, step", [([1, 0, 0], 1), ([0, 0, 1, 1, 0], 3)])
    def test_build_cache_raises_at_the_forward_sweeps_step(self, d_er, outcomes, step):
        # H = 0 keeps every record: a change of outcome has zero probability.
        dims = DimSpec(d_s=2, d_er=d_er)
        rho0 = kron(np.diag([1.0, 0.0]), np.eye(d_er) / d_er)
        model = make_embedding(dims, 1.0, np.zeros((dims.d_total, dims.d_total)), rho0)
        ds = make_dataset(basis_records(np.eye(2), outcomes * 20))
        with pytest.raises(ZeroProbabilityError) as want:
            forward_pass(model, ds)
        with pytest.raises(ZeroProbabilityError) as got:
            build_cache(model, ds)
        assert got.value.step == want.value.step == step


def stuck_model(d_er):
    """H = 0 from |0> on the system: the period channel is the identity, so
    a record in the computational basis has probability 1 until the outcome
    changes, and then exactly 0."""
    dims = DimSpec(d_s=2, d_er=d_er)
    rho0 = kron(np.diag([1.0, 0.0]), np.eye(d_er) / d_er)
    return make_embedding(dims, 1.0, np.zeros((dims.d_total, dims.d_total)), rho0)


class TestOneLoop:
    """The lockstep ``_filter`` against :func:`oracles.filter_lanes_serial`,
    its lanes run one after another by the plain matrix-vector loop, over
    more than one chunk of records and with a lane that dies among live
    ones: every result is bitwise the same."""

    N = 300  # records, more than one CHUNK of transfers

    @staticmethod
    def _lane(rng, d_er, dies):
        """Transfer basis, start block and N + 1 record vectors of one lane;
        a dying lane's record N // 2 has probability 0."""
        if dies:
            model = stuck_model(d_er)
            phis = np.zeros((TestOneLoop.N + 1, 2), dtype=np.complex128)
            phis[:TestOneLoop.N // 2, 0] = phis[TestOneLoop.N // 2:, 1] = 1.0
        else:
            model = random_model(rng, d_er=d_er)
            phis = rng.standard_normal((TestOneLoop.N + 1, 2, 2)) @ [1, 1j]
            phis /= np.linalg.norm(phis, axis=1, keepdims=True)
        basis = _transfer_basis(model_channels([model])[1][0], model.dims)
        return basis, np.eye(d_er, dtype=np.complex128).ravel() / d_er, phis

    @pytest.mark.parametrize("d_er", [1, 2, 3, 4])
    @pytest.mark.parametrize("lanes", ["L", "D", "LD", "LLL", "LDL"])
    def test_filter_is_the_serial_lanes(self, d_er, lanes):
        self._check(d_er, lanes, kept=False)

    @pytest.mark.parametrize("d_er", [1, 2, 3, 4])
    @pytest.mark.parametrize("lanes", ["L", "LD", "LDL"])
    def test_filter_keeps_the_chosen_rows(self, d_er, lanes):
        self._check(d_er, lanes, kept=True)

    def _check(self, d_er, lanes, kept):
        rng = np.random.default_rng(130 + d_er)
        basis, x, phis = zip(*(self._lane(rng, d_er, c == "D") for c in lanes))
        log0 = rng.standard_normal(len(lanes))
        # Per lane, every record position, or some at the chunk edges and
        # some at random.
        keep = [np.arange(self.N)] * len(lanes)
        if kept:
            edges = [0, CHUNK - 1, CHUNK, self.N - 1]
            keep = [np.union1d(edges[s % 2:], rng.choice(self.N, 20 * s))
                    for s in range(len(lanes))]
        outs = [[np.full((len(k), d_er * d_er), np.nan, dtype=np.complex128) for k in keep]
                for _ in range(2)]
        got = _filter(basis, np.array(x), log0, phis, outs[0], keep)
        want = oracles.filter_lanes_serial(basis, np.array(x), log0, phis, outs[1], keep)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tolist() == want[1].tolist()
        assert got[1].tolist() == [self.N // 2 - 1 if c == "D" else -1 for c in lanes]
        for s, b in enumerate(want[1]):
            # A dead lane's blocks from its dead record on mean nothing.
            live = keep[s] < (self.N if b < 0 else b)
            assert outs[0][s][live].tobytes() == outs[1][s][live].tobytes()

    @pytest.mark.parametrize("d_er", [1, 2, 3, 4])
    def test_sweeps_and_validation_are_the_serial_lanes(self, monkeypatch, d_er):
        # One lane (forward_pass, validation), two (build_cache) and six
        # (build_caches), one model of which dies while the others live.
        import embedlearn.likelihood as lk
        rng = np.random.default_rng(140 + d_er)
        models = [random_model(rng, d_er=d_er), stuck_model(d_er), random_model(rng, d_er=d_er)]
        outcomes = [0] * 100 + [1] + rng.integers(2, size=self.N - 101).tolist()
        tr = make_dataset(basis_records(np.eye(2), outcomes[:260]))
        va = make_dataset(basis_records(np.eye(2), outcomes[260:], first_step=261))
        fields = TestStackedChannels.SWEEP_FIELDS

        def results():
            out = [getattr(forward_pass(models[0], tr), f) for f in fields[:2]]
            out += [getattr(build_cache(models[2], tr), f) for f in fields]
            caches = build_caches(models, tr)
            assert caches[1] is None
            out += [getattr(c, f) for c in (caches[0], caches[2]) for f in fields]
            out.append(np.float64(conditional_validation_ll(tr, va, caches[0])))
            with pytest.raises(ZeroProbabilityError) as err:
                forward_pass(models[1], tr)
            assert err.value.step == 101
            return [a.tobytes() for a in out]

        want = results()
        monkeypatch.setattr(lk, "_filter", oracles.filter_lanes_serial)
        assert results() == want


class TestCompactCache:
    """The cache of one batch of merge points against the full cache of the
    same model and records, swept lane by lane by
    :func:`oracles.build_cache_serial`: every block it holds, its running
    logs, its gradient and its validation are the same bytes, and it
    refuses every block it does not hold."""

    N = 5000

    @pytest.fixture(scope="class", params=[1, 2, 3, 4])
    def case(self, request):
        """Model, training records, validation records and full cache."""
        rng = np.random.default_rng(150 + request.param)
        model = random_model(rng, d_er=request.param)
        recs = random_records(rng, self.N + 200)
        tr, va = make_dataset(recs[:self.N]), make_dataset(recs[self.N:])
        return model, tr, va, oracles.build_cache_serial(model, tr)

    @staticmethod
    def batches():
        rng = np.random.default_rng(160)
        n = TestCompactCache.N
        return {"random": rng.choice(n, 1000, replace=False) + 1,
                "ends": np.array([n, 1, 7, 7, 1, n, n // 2]),
                "every": rng.permutation(n) + 1,
                "first": np.array([1]),
                "last": np.array([n])}

    @pytest.mark.parametrize("name", ["random", "ends", "every", "first", "last"])
    def test_same_bytes_as_the_full_cache(self, case, name):
        model, tr, va, full = case
        batch = self.batches()[name]
        cache = build_cache(model, tr, batch)
        if name == "every":  # read through views of a full cache
            assert cache.forward_rows is None and cache.backward_rows is None
        else:
            assert cache.forward_rows.tolist() == sorted({*(batch - 1).tolist(), self.N})
            assert cache.backward_rows.tolist() == sorted({*batch.tolist(), 1})
        for half in ("forward", "backward"):
            rows = getattr(cache, f"{half}_rows")
            rows = np.arange(self.N + 1) if rows is None else rows
            assert (getattr(cache, f"{half}_blocks").tobytes()
                    == getattr(full, f"{half}_blocks")[rows].tobytes())
            assert (getattr(cache, f"{half}_log_scale").tobytes()
                    == getattr(full, f"{half}_log_scale").tobytes())
        got = log_likelihood_gradient(cache, batch)
        assert got.tobytes() == log_likelihood_gradient(full, batch).tobytes()
        assert (conditional_validation_ll(tr, va, cache)
                == conditional_validation_ll(tr, va, full))

    def test_refuses_the_blocks_it_does_not_hold(self, case):
        model, tr, _, full = case
        cache = build_cache(model, tr, [10, 11])
        for batch in ([12], [9, 10], [10, 11, self.N], None):
            with pytest.raises(ValueError, match="holds no"):
                log_likelihood_gradient(cache, batch)
        for m in (9, 11, self.N):
            with pytest.raises(ValueError, match="holds no"):
                cache.merged_log_likelihood(m)
        # A batch whose blocks it holds, and a merge point of both halves.
        got = log_likelihood_gradient(cache, [11, 11])
        assert got.tobytes() == log_likelihood_gradient(full, [11]).tobytes()
        for m in (0, 10):
            assert cache.merged_log_likelihood(m) == full.merged_log_likelihood(m)

    @pytest.mark.parametrize("batch", [[0], [N + 1], [], [2.0]])
    def test_refuses_a_bad_batch(self, case, batch):
        model, tr, _, _ = case
        with pytest.raises(ValueError):
            build_cache(model, tr, batch)


class TestExactEmbedding:
    """The embedding built from the truth's period channel reproduces it and
    its record likelihood."""

    def test_superoperator_is_the_truths(self):
        from embedlearn.datagen import CollisionModelConfig, period_superoperator
        cfg = CollisionModelConfig()
        model = oracles.exact_embedding(cfg, 2)
        m = superoperator_matrix(model, expm_unitary(model.h, model.tau))
        assert np.max(np.abs(m - period_superoperator(cfg))) <= 1e-13

    @pytest.mark.parametrize("d_er", [2, 3])
    def test_log_likelihood_is_the_truths(self, d_er):
        from embedlearn.datagen import (CollisionModelConfig, generate_trajectory,
                                        period_channel)
        from embedlearn.likelihood import true_model_log_likelihood
        cfg = CollisionModelConfig()
        ds = generate_trajectory(cfg, 2000, 7)
        per_step = log_likelihood(oracles.exact_embedding(cfg, d_er), ds) / len(ds)
        assert abs(per_step - true_model_log_likelihood(period_channel(cfg), ds)) <= 1e-12


class TestRecordsOfAModelsChannel:
    """Records sampled from a fitted model's period channel, as a recovery
    test or a parametric bootstrap draws them: the channel's likelihood is
    the model's, and provenance still separates trajectories."""

    @pytest.mark.parametrize("d_er", [1, 2, 3])
    def test_channel_likelihood_is_the_models(self, d_er):
        from embedlearn.datagen import sample_trajectory
        from embedlearn.likelihood import true_model_log_likelihood
        model = random_model(np.random.default_rng(70 + d_er), d_er=d_er)
        channel = oracles.model_channel(model)
        ds = sample_trajectory(channel, 400, d_er, "model")
        want = log_likelihood(model, ds) / len(ds)
        assert abs(true_model_log_likelihood(channel, ds) - want) <= 1e-12

    def test_validation_of_another_config_hash_is_refused(self):
        from embedlearn.datagen import sample_trajectory, split_dataset
        model = random_model(np.random.default_rng(74), d_er=2)
        channel = oracles.model_channel(model)
        train, _ = split_dataset(sample_trajectory(channel, 60, 5, "a"), 40)
        _, val = split_dataset(sample_trajectory(channel, 60, 5, "b"), 40)
        with pytest.raises(DataError, match="provenance differs"):
            conditional_validation_ll(train, val, forward_pass(model, train))
