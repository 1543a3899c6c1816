"""Dense linear-algebra kernel tests against loop/series oracles."""
import numpy as np
import pytest

from embedlearn.errors import BranchCutError, IllConditionedError, NumericalError
from embedlearn.qla import (SIGMA_X, SIGMA_Y, SIGMA_Z, DimSpec, bloch_vector,
                            dagger, expm_unitary, haar_random_pure_state,
                            herm_eig, hermitian_deviation, hermitianize, kron,
                            logm_principal,
                            logm_principal_stack, ptrace, trace_norm, unvec, vec)

import oracles


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_hermitian(rng, d):
    a = random_complex(rng, d, d)
    return 0.5 * (a + a.conj().T)


def random_density(rng, d):
    a = random_complex(rng, d, d)
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestDimSpec:
    def test_ancilla_dimension_filled_in(self):
        dims = DimSpec(d_s=2, d_er=3)
        assert dims.d_a == 36
        assert dims.d == 6
        assert dims.d_total == 216

    def test_nonpositive_dimension_rejected(self):
        with pytest.raises(ValueError):
            DimSpec(d_s=0, d_er=1)


class TestVec:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        m = random_complex(rng, 4, 4)
        assert np.array_equal(unvec(vec(m)), m)

    def test_column_stacking_order(self):
        m = np.array([[1, 2], [3, 4]], dtype=np.complex128)
        assert np.array_equal(vec(m), np.array([1, 3, 2, 4], dtype=np.complex128))

    def test_unvec_rejects_non_square_length(self):
        with pytest.raises(ValueError):
            unvec(np.arange(3.0))

    def test_stacks_map_each_matrix(self):
        rng = np.random.default_rng(1)
        ms = random_complex(rng, 6, 9).reshape(2, 3, 3, 3)
        vs = vec(ms)
        assert vs.shape == (2, 3, 9)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(vs[i, j], vec(ms[i, j]))
        assert np.array_equal(unvec(vs), ms)
        assert vec(np.zeros((0, 2, 2))).shape == (0, 4)
        assert unvec(np.zeros((0, 4))).shape == (0, 2, 2)


class TestKron:
    def test_identity_case(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_pauli_block_structure(self):
        got = kron(SIGMA_X, SIGMA_Z)
        want = np.zeros((4, 4), dtype=np.complex128)
        want[:2, 2:] = SIGMA_Z
        want[2:, :2] = SIGMA_Z
        assert np.array_equal(got, want)

    def test_matches_index_formula(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            a = random_complex(rng, 3, 3)
            b = random_complex(rng, 3, 3)
            assert np.max(np.abs(kron(a, b) - oracles.kron_loops(a, b))) < 1e-13

    def test_associativity(self):
        rng = np.random.default_rng(2)
        a, b, c = (random_complex(rng, 2, 2) for _ in range(3))
        left = kron(kron(a, b), c)
        right = kron(a, kron(b, c))
        assert np.max(np.abs(left - right)) < 1e-14

    def test_variadic_form(self):
        rng = np.random.default_rng(3)
        a, b, c = (random_complex(rng, 2, 2) for _ in range(3))
        assert np.array_equal(kron(a, b, c), np.kron(np.kron(a, b), c))


class TestPtrace:
    def test_product_state_factorizes(self):
        rng = np.random.default_rng(4)
        rho_a = random_density(rng, 2)
        rho_b = random_complex(rng, 3, 3)
        got = ptrace(kron(rho_a, rho_b), [2, 3], [0])
        assert np.max(np.abs(got - rho_a * np.trace(rho_b))) < 1e-13

    def test_bell_state_marginals_maximally_mixed(self):
        psi = np.zeros(4, dtype=np.complex128)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        for keep in ([0], [1]):
            got = ptrace(rho, [2, 2], keep)
            assert np.max(np.abs(got - np.eye(2) / 2)) < 1e-14

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 6)
        for keep in ([0], [1], [0, 1]):
            got = ptrace(rho, [2, 3], keep)
            want = oracles.ptrace_loops(rho, [2, 3], keep)
            assert np.max(np.abs(got - want)) < 1e-13

    def test_three_factor_consistency(self):
        rng = np.random.default_rng(6)
        rho = random_density(rng, 8)
        got = ptrace(rho, [2, 2, 2], [0, 2])
        want = oracles.ptrace_loops(rho, [2, 2, 2], [0, 2])
        assert np.max(np.abs(got - want)) < 1e-13

    def test_trace_preserved(self):
        rng = np.random.default_rng(7)
        rho = random_density(rng, 6)
        red = ptrace(rho, [3, 2], [1])
        assert abs(np.trace(red) - 1.0) < 1e-13

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ptrace(np.eye(5), [2, 3], [0])
        with pytest.raises(ValueError):
            ptrace(np.eye(6), [2, 3], [2])


class TestHermEig:
    def test_sigma_z_spectrum(self):
        dec = herm_eig(SIGMA_Z)
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0])
        # ascending order puts |1> first
        assert abs(abs(dec.eigenvectors[1, 0]) - 1.0) < 1e-14
        assert abs(abs(dec.eigenvectors[0, 1]) - 1.0) < 1e-14

    def test_reconstruction(self):
        rng = np.random.default_rng(8)
        h = random_hermitian(rng, 8)
        dec = herm_eig(h)
        rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dagger(dec.eigenvectors)
        denom = np.linalg.norm(h)
        assert np.linalg.norm(rebuilt - h) / denom < 1e-12

    def test_two_level_closed_form(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            h = random_hermitian(rng, 2)
            want = oracles.eig2_closed_form(h)
            assert np.max(np.abs(herm_eig(h).eigenvalues - want)) < 1e-12

    def test_eigenvector_orthonormality(self):
        rng = np.random.default_rng(10)
        v = herm_eig(random_hermitian(rng, 12)).eigenvectors
        assert np.linalg.norm(dagger(v) @ v - np.eye(12)) < 1e-12

    def test_non_hermitian_rejected(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            herm_eig(m)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")  # inf - inf
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        m = np.eye(4, dtype=np.complex128)
        m[0, 0] = bad
        with pytest.raises(ValueError, match="not Hermitian"):
            herm_eig(m)


    # Dilation sides at d_er = 1..4, and a stack.
    @pytest.mark.parametrize("shape", [(8, 8), (64, 64), (216, 216), (512, 512), (3, 12, 12)])
    def test_bitwise_the_allocating_oracle(self, shape):
        # Hermitian up to rounding-sized noise, so symmetrizing moves bits.
        rng = np.random.default_rng(shape[-1])
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        m = 0.5 * (a + a.conj().swapaxes(-1, -2))
        m += 1e-13 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        before = m.copy()
        dec = herm_eig(m)
        w, v = oracles.herm_eig_allocating(m)
        assert dec.eigenvalues.tobytes() == w.tobytes()
        assert dec.eigenvectors.tobytes() == v.tobytes()
        assert m.tobytes() == before.tobytes()

    def test_degenerate_kron_bitwise_the_allocating_oracle(self):
        rng = np.random.default_rng(12)
        h = kron(random_hermitian(rng, 6), np.eye(36, dtype=np.complex128))
        dec = herm_eig(h)
        w, v = oracles.herm_eig_allocating(h)
        assert dec.eigenvalues.tobytes() == w.tobytes()
        assert dec.eigenvectors.tobytes() == v.tobytes()

    @staticmethod
    def signed_zero_hermitian(rng, n):
        """Hermitian by value, about half its parts exact zeros, each zero
        signed at random apart from its mirror's: symmetrizing rewrites some
        of those signs, and eigh reads the signs of its triangle."""
        re, im = random_complex(rng, n, n).real, random_complex(rng, n, n).imag
        re[rng.random((n, n)) < 0.5] = 0.0
        im[rng.random((n, n)) < 0.5] = 0.0
        re = np.triu(re) + np.triu(re, 1).T
        im = np.triu(im, 1) - np.triu(im, 1).T
        h = np.empty((n, n), dtype=np.complex128)
        h.real = np.where(re == 0, np.where(rng.random((n, n)) < 0.5, -0.0, 0.0), re)
        h.imag = np.where(im == 0, np.where(rng.random((n, n)) < 0.5, -0.0, 0.0), im)
        assert hermitian_deviation(h) == 0.0
        return h

    @staticmethod
    def kron_start(d_er):
        from embedlearn.train import init_model
        return init_model(DimSpec(d_s=2, d_er=d_er), 1.0, np.random.default_rng(d_er)).h

    @staticmethod
    def unpacked(rng, side):
        # Parameters with exact zeros of both signs, as a step may leave.
        from embedlearn.train import unpack_hermitian
        p = rng.standard_normal(side * side)
        p[rng.random(p.size) < 0.3] = 0.0
        p[rng.random(p.size) < 0.3] = -0.0
        return unpack_hermitian(p, side)

    def assert_bitwise_the_oracle(self, m):
        before = m.copy()
        dec = herm_eig(m)
        w, v = oracles.herm_eig_allocating(m)
        assert dec.eigenvalues.tobytes() == w.tobytes()
        assert dec.eigenvectors.tobytes() == v.tobytes()
        assert m.tobytes() == before.tobytes()

    def test_signed_zeros_bitwise_the_allocating_oracle(self):
        # 15 of these 100 decompose to other bits when the input is taken
        # for its symmetrized copy because the two are equal in value: only
        # the same bits may skip the copy.
        rng = np.random.default_rng(13)
        for n in (2, 3, 6, 8):
            for _ in range(25):
                self.assert_bitwise_the_oracle(self.signed_zero_hermitian(rng, n))

    @pytest.mark.parametrize("d_er", [1, 2, 3])
    def test_kron_start_bitwise_the_allocating_oracle(self, d_er):
        self.assert_bitwise_the_oracle(self.kron_start(d_er))

    @pytest.mark.parametrize("side", [8, 64, 216])
    def test_unpacked_bitwise_the_allocating_oracle(self, side):
        self.assert_bitwise_the_oracle(self.unpacked(np.random.default_rng(side), side))

    @pytest.mark.parametrize("mix", ["all", "unpacked"])
    def test_mixed_stack_bitwise_the_allocating_oracle(self, mix):
        rng = np.random.default_rng(14)
        stack = [self.unpacked(rng, 8), self.unpacked(rng, 8)]
        if mix == "all":
            stack += [self.kron_start(1)] + [self.signed_zero_hermitian(rng, 8) for _ in range(12)]
        self.assert_bitwise_the_oracle(np.stack(stack))


class TestHermitianDeviation:
    @pytest.mark.parametrize("shape", [(1, 1), (7, 7), (2, 5, 5)])
    def test_equals_the_max_abs_difference(self, shape):
        rng = np.random.default_rng(shape[-1])
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want = np.max(np.abs(m - m.conj().swapaxes(-1, -2)))
        assert hermitian_deviation(m) == want

    def test_real_input_is_left_untouched(self):
        # A real array's conj() is the array itself, not a copy.
        m = np.arange(9.0).reshape(3, 3)
        assert hermitian_deviation(m) == 4.0
        assert np.array_equal(m, np.arange(9.0).reshape(3, 3))

    @pytest.mark.filterwarnings("ignore:invalid value encountered")  # inf - inf
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_gives_nan(self, bad):
        m = np.eye(3, dtype=np.complex128)
        m[1, 1] = bad
        assert np.isnan(hermitian_deviation(m))

    def test_empty_is_zero(self):
        assert hermitian_deviation(np.zeros((0, 0), dtype=np.complex128)) == 0.0


class TestExpmUnitary:
    def test_zero_hamiltonian(self):
        assert np.allclose(expm_unitary(np.zeros((3, 3)), 1.7), np.eye(3))

    def test_diagonal_case(self):
        u = expm_unitary(SIGMA_Z, np.pi / 2)
        want = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
        assert np.max(np.abs(u - want)) < 1e-14

    def test_matches_taylor_series(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            h = random_hermitian(rng, 4)
            u = expm_unitary(h, 0.05)
            want = oracles.taylor_expm(h, 0.05)
            assert np.max(np.abs(u - want)) < 1e-12

    def test_unitarity_and_group_property(self):
        rng = np.random.default_rng(12)
        h = random_hermitian(rng, 6)
        u1 = expm_unitary(h, 0.3)
        u2 = expm_unitary(h, 1.1)
        assert np.max(np.abs(dagger(u1) @ u1 - np.eye(6))) < 1e-12
        assert np.max(np.abs(u1 @ u2 - expm_unitary(h, 1.4))) < 1e-10


def dense_logm(m):
    """The principal logarithm reassembled from its factors."""
    log_w, v, v_inv = logm_principal(m)
    return (v * log_w) @ v_inv


class TestLogmPrincipal:
    def test_identity(self):
        assert np.max(np.abs(dense_logm(np.eye(4)))) == 0.0

    def test_diagonal_case(self):
        m = np.diag([np.exp(0.3), np.exp(-0.5)])
        want = np.diag([0.3, -0.5])
        assert np.max(np.abs(dense_logm(m) - want)) < 1e-12

    def test_factors_invert_each_other(self):
        rng = np.random.default_rng(30)
        m = np.eye(5) + 0.1 * random_complex(rng, 5, 5)
        _, v, v_inv = logm_principal(m)
        assert np.max(np.abs(v_inv @ v - np.eye(5))) < 1e-12

    def test_round_trip_on_contraction(self):
        rng = np.random.default_rng(13)
        a = random_complex(rng, 4, 4)
        m = np.eye(4) + 0.05 * a
        import scipy.linalg
        back = scipy.linalg.expm(dense_logm(m))
        assert np.max(np.abs(back - m)) / np.max(np.abs(m)) < 1e-8

    def test_negative_axis_rejected(self):
        with pytest.raises(BranchCutError):
            logm_principal(np.diag([-1.0, 1.0]))

    def test_defective_rejected(self):
        m = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(IllConditionedError):
            logm_principal(m)

    def test_stack_matches_the_one_matrix_oracle(self):
        # Per matrix the stack gives the oracle's factors bitwise, or the
        # error it raises, with the same message and attributes.
        rng = np.random.default_rng(31)
        good = np.eye(3) + 0.1 * random_complex(rng, 3, 3)
        branch = np.diag([-1.0, 1.0, 0.5])
        defective = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.5]])
        want = []
        for m in (good, branch, defective):
            try:
                want.append(oracles.logm_principal_serial(m))
            except NumericalError as exc:
                want.append(exc)
        failures, *factors = logm_principal_stack(np.stack([good, branch, defective]))
        assert failures[0] is None
        assert [f.shape[0] for f in factors] == [1, 1, 1]
        for got, ref in zip(factors, want[0]):
            assert got[0].tobytes() == ref.tobytes()
        for got, ref in zip(logm_principal(good), want[0]):
            assert got.tobytes() == ref.tobytes()
        for got, ref in zip(failures[1:], want[1:]):
            assert type(got) is type(ref) and str(got) == str(ref)
            assert vars(got) == vars(ref)
        assert [type(f) for f in failures[1:]] == [BranchCutError, IllConditionedError]


class TestTraceNorm:
    def test_zero(self):
        assert trace_norm(np.zeros((3, 3))) == 0.0

    def test_sigma_x(self):
        assert abs(trace_norm(SIGMA_X) - 2.0) < 1e-14

    def test_matches_eigenvalue_route(self):
        rng = np.random.default_rng(14)
        a = random_complex(rng, 4, 4)
        evals = np.linalg.eigvalsh(a.conj().T @ a)
        want = np.sum(np.sqrt(np.clip(evals, 0.0, None)))
        assert abs(trace_norm(a) - want) < 1e-12

    def test_rank_one_hermitian(self):
        rng = np.random.default_rng(15)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        a = np.outer(v, v.conj())
        assert abs(trace_norm(a) - abs(np.trace(a))) < 1e-12

    def test_triangle_inequality(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            a = random_complex(rng, 3, 3)
            b = random_complex(rng, 3, 3)
            assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-12

    def test_stack_gives_one_norm_per_matrix(self):
        rng = np.random.default_rng(17)
        a = random_complex(rng, 12, 4).reshape(3, 4, 4)
        assert isinstance(trace_norm(a[0]), float)
        assert np.array_equal(trace_norm(a), [trace_norm(m) for m in a])


class TestHaarRandomPureState:
    def test_one_dimensional(self):
        rho = haar_random_pure_state(1, np.random.default_rng(17))
        assert np.allclose(rho, [[1.0]])

    def test_fixed_seed_reproducible(self):
        a = haar_random_pure_state(4, np.random.default_rng(18))
        b = haar_random_pure_state(4, np.random.default_rng(18))
        assert np.array_equal(a, b)

    def test_pure_density_matrix(self):
        rho = haar_random_pure_state(5, np.random.default_rng(19))
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.max(np.abs(rho @ rho - rho)) < 1e-12

    def test_isotropy(self):
        rng = np.random.default_rng(20)
        total = np.zeros(3)
        for _ in range(10_000):
            total += bloch_vector(haar_random_pure_state(2, rng))
        assert np.linalg.norm(total / 10_000) < 0.05


class TestBlochVector:
    def test_basis_states(self):
        up = np.array([[1, 0], [0, 0]], dtype=np.complex128)
        assert np.allclose(bloch_vector(up), [0, 0, 1])
        plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=np.complex128)
        assert np.allclose(bloch_vector(plus), [1, 0, 0])

    def test_pauli_expectations(self):
        rng = np.random.default_rng(21)
        rho = random_density(rng, 2)
        b = bloch_vector(rho)
        for i, s in enumerate((SIGMA_X, SIGMA_Y, SIGMA_Z)):
            assert abs(b[i] - np.trace(rho @ s).real) < 1e-13

    def test_stack_gives_one_triple_per_state(self):
        rng = np.random.default_rng(22)
        rhos = np.stack([random_density(rng, 2) for _ in range(6)]).reshape(2, 3, 2, 2)
        got = bloch_vector(rhos)
        assert got.shape == (2, 3, 3)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(got[i, j], bloch_vector(rhos[i, j]))
        with pytest.raises(ValueError, match="qubit"):
            bloch_vector(np.eye(3))


class TestHermitianize:
    def test_projects_to_hermitian(self):
        rng = np.random.default_rng(22)
        m = random_complex(rng, 3, 3)
        h = hermitianize(m)
        assert np.max(np.abs(h - dagger(h))) == 0.0
