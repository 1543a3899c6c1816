"""Property tests of the period channel and its generator over random
reservoir sizes and Hamiltonian scales, with numpy-only references: the
channel is completely positive and trace preserving, the generator's flow at
whole periods is the matching power of the channel, and the Hermitian
parameter packing round-trips."""
import numpy as np
from hypothesis import given, settings, strategies as st

from embedlearn.assess import choi_from_superop
from embedlearn.embedding import extract_generator, superoperator_matrix
from embedlearn.qla import expm_unitary, vec
from embedlearn.train import pack_hermitian, unpack_hermitian

from test_likelihood import random_model

# Derandomized and without an example database, so every run draws the same
# examples.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=30)

d_ers = st.sampled_from([1, 2, 3])
seeds = st.integers(0, 2**32 - 1)


def model_for(d_er, seed, scale):
    # A period other than 1 keeps t and t / tau apart.
    return random_model(np.random.default_rng(seed), d_er=d_er, tau=0.7, scale=scale)


@PROPERTY
@given(d_er=d_ers, seed=seeds, scale=st.floats(0.05, 3.0))
def test_period_channel_is_cptp(d_er, seed, scale):
    model = model_for(d_er, seed, scale)
    d = model.dims.d
    m = superoperator_matrix(model, expm_unitary(model.h, model.tau))
    choi = d * choi_from_superop(m, d)
    assert np.linalg.eigvalsh(choi).min() >= -1e-10
    ident = vec(np.eye(d, dtype=np.complex128))
    assert np.max(np.abs(ident @ m - ident)) <= 1e-12


@PROPERTY
@given(d_er=d_ers, seed=seeds, scale=st.floats(0.05, 1.0))
def test_flow_at_whole_periods_is_channel_power(d_er, seed, scale):
    # Scales up to 1 keep every channel eigenvalue off the logarithm's
    # branch cut; larger ones are where extraction is meant to refuse.
    model = model_for(d_er, seed, scale)
    m = superoperator_matrix(model, expm_unitary(model.h, model.tau))
    flow = extract_generator(model).propagate(np.eye(m.shape[0], dtype=np.complex128),
                                              model.tau * np.arange(1, 6))
    for k in range(1, 6):
        want = np.linalg.matrix_power(m, k)
        assert np.max(np.abs(flow[k - 1] - want)) <= 1e-10


@PROPERTY
@given(d_er=d_ers, seed=seeds, scale=st.floats(0.05, 3.0))
def test_hermitian_packing_round_trips(d_er, seed, scale):
    h = model_for(d_er, seed, scale).h
    assert np.array_equal(unpack_hermitian(pack_hermitian(h), h.shape[0]), h)
