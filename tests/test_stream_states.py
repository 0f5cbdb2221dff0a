"""Batch stream states against NumPy's own seeding.

``rngstreams.stream_states(seed, *path, count)`` re-implements NumPy's
``SeedSequence`` and PCG64 seeding over many stream indices at once. Every
state must equal ``derive_rng(seed, *path, i).bit_generator.state``, and a
fit, whose candidates draw from those states, must equal the
one-candidate-at-a-time oracle.
"""

import itertools

import numpy as np
import pytest
from _oracles import fit_side_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from raterpower import ItemStats, fit_prior
from raterpower.distributions import DistributionSpec, Family
from raterpower.errors import InvalidParam
from raterpower.rngstreams import derive_rng, stream_states

# Small tags, and entries of several 32-bit words.
tags = st.one_of(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=2**70))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**96 - 1), st.lists(tags, max_size=5),
       st.integers(min_value=0, max_value=40))
def test_stream_states_equal_derive_rng(seed, path, count):
    states = stream_states(seed, *path, count=count)
    assert len(states) == count
    for i, state in enumerate(states):
        assert state == derive_rng(seed, *path, i).bit_generator.state


def test_a_restated_generator_draws_what_derive_rng_draws():
    rng = np.random.Generator(np.random.PCG64(0))
    for i, state in enumerate(stream_states(2**40 + 3, 4, 1, count=5)):
        rng.bit_generator.state = state
        want = derive_rng(2**40 + 3, 4, 1, i)
        assert rng.standard_normal(7).tobytes() == want.standard_normal(7).tobytes()
        assert rng.integers(0, 2, 3).tolist() == want.integers(0, 2, 3).tolist()
        assert rng.bit_generator.state == want.bit_generator.state


def test_stream_states_reject_what_derive_rng_rejects():
    with pytest.raises(InvalidParam, match="seed"):
        stream_states(-1, 4, count=1)
    with pytest.raises(ValueError):
        stream_states(1, -4, count=1)
    with pytest.raises(ValueError):
        stream_states(1, 4, count=2**32 + 1)


def _candidates(family, grid, fixed):
    out = []
    for combo in itertools.product(*grid.values()):
        try:
            out.append(DistributionSpec(family, {**fixed, **dict(zip(grid, combo))}))
        except InvalidParam:
            pass
    return out


# Both grids hold points that fail validation (uniform lo > hi, triangular
# a > b), so a candidate's stream index counts valid points only.
LOCATION = (Family.UNIFORM, {"lo": (0.0, 0.1, 0.3, 0.5), "hi": (0.2, 0.4, 0.9)}, {})
SCALE = (Family.TRIANGULAR, {"a": (0.0, 0.1), "b": (0.05, 0.1, 0.2), "c": (0.3, 0.4)}, {"lo": 0.0})


@pytest.mark.parametrize("seed", [7, 2**33 + 5])
@pytest.mark.parametrize("threads", [1, 2])
def test_fit_prior_matches_the_candidate_oracle(seed, threads):
    rng = np.random.default_rng(11)
    stats = ItemStats(np.clip(rng.normal(0.4, 0.2, 40), 0.0, 1.0), np.abs(rng.normal(0.15, 0.05, 40)))
    report = fit_prior(stats, LOCATION[0], LOCATION[1], scale_family=SCALE[0], scale_grid=SCALE[1],
                       location_fixed=LOCATION[2], scale_fixed=SCALE[2], sim_count=60, seed=seed,
                       threads=threads)
    for values, (family, grid, fixed), side, got in ((stats.means, LOCATION, 0, report.location),
                                                     (stats.stds, SCALE, 1, report.scale)):
        candidates = _candidates(family, grid, fixed)
        assert len(candidates) < np.prod([len(v) for v in grid.values()])
        best, distance = fit_side_oracle(values, candidates, 60, seed, side)
        assert got.best == candidates[best]
        assert got.distance == distance
