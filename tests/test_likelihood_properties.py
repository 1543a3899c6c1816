"""Property tests of the reservoir-sized likelihood sweeps over random
reservoir sizes, Hamiltonians and record sequences: agreement with the
joint-space oracle loops and merge-point consistency at every time."""
import numpy as np
from hypothesis import given, settings, strategies as st

from embedlearn.likelihood import build_cache

from oracles import backward_effects, forward_states
from test_likelihood import (dense_oracle_sweeps, make_dataset, random_model,
                             random_records)

# Derandomized and without an example database, so every run draws the same
# examples.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=30)

cases = dict(d_er=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2**32 - 1),
             n=st.integers(1, 60), scale=st.floats(0.05, 3.0))


def random_case(d_er, seed, n, scale, pure=False):
    rng = np.random.default_rng(seed)
    model = random_model(rng, d_er=d_er, scale=scale, pure=pure)
    if pure:
        model = model[0]
    ds = make_dataset(random_records(rng, n))
    return model, ds, build_cache(model, ds)


@PROPERTY
@given(**cases)
def test_sweeps_match_dense_oracles(d_er, seed, n, scale):
    model, ds, cache = random_case(d_er, seed, n, scale)
    states, flogs, effects, blogs = dense_oracle_sweeps(model, ds)
    assert np.max(np.abs(cache.forward_log_scale - flogs)) <= 1e-9
    assert abs(cache.backward_log_scale[0] - blogs[0]) <= 1e-9
    assert np.max(np.abs(forward_states(cache) - states)) <= 1e-9
    assert np.max(np.abs(backward_effects(cache) - effects)) <= 1e-9


@PROPERTY
@given(pure=st.booleans(), **cases)
def test_merge_points_agree(d_er, seed, n, scale, pure):
    _, _, cache = random_case(d_er, seed, n, scale, pure)
    ref = cache.log_likelihood()
    for m in range(n + 1):
        assert abs(cache.merged_log_likelihood(m) - ref) <= 1e-9
