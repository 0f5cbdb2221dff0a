"""Grid-search fitting in blocks, checked against one-candidate-at-a-time oracles.

``fit`` holds a grid's valid points as parameter columns, draws each
candidate's values from its own generator straight into one row of a
block, then transforms, clips, sorts and scores the block at once. The
kept points must be exactly those ``DistributionSpec`` accepts, and every
candidate's values and the chosen candidate must equal the oracles in
``_oracles`` (the generator's own ``uniform``/``normal``/``triangular``
calls, one candidate per loop turn) bit for bit, whatever the block size
and thread count.
"""

import itertools
import math

import numpy as np
import pytest
from _oracles import fit_distance_oracle, fit_side_oracle, sample_oracle
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from raterpower import fitting
from raterpower.distributions import _PARAMS, DistributionSpec, Family, valid_columns
from raterpower.errors import InvalidParam
from raterpower.fitting import _distances, _fit_side, grid_columns
from raterpower.rngstreams import FIT, derive_rng

unit = st.floats(min_value=-1.0, max_value=1.0, allow_subnormal=False)
scale = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0, allow_subnormal=False))


def _bounds(draw, optional: bool) -> dict:
    """lo < hi, or (when optional) any subset of them."""
    lo, hi = sorted(draw(st.lists(unit, min_size=2, max_size=2, unique=True)))
    if not optional:
        return {"lo": lo, "hi": hi}
    keep = draw(st.sampled_from([(), ("lo",), ("hi",), ("lo", "hi")]))
    return {k: v for k, v in (("lo", lo), ("hi", hi)) if k in keep}


def _params(draw, family: Family, bounds: dict) -> dict:
    if family == Family.UNIFORM:
        lo = draw(unit)
        return {"lo": lo, "hi": lo + draw(scale)}
    if family == Family.NORMAL:
        return {"mu": draw(unit), "sigma": draw(scale)}
    if family in (Family.TRUNCATED_NORMAL, Family.CENSORED_NORMAL, Family.FOLDED_NORMAL):
        mu = draw(unit)
        if family == Family.TRUNCATED_NORMAL:
            # Keep mass on [lo, hi]: mu inside it.
            mu = min(max(mu, bounds["lo"]), bounds["hi"])
        return {"mu": mu, "sigma": draw(scale), **bounds}
    if family == Family.TRIANGULAR:
        a, b, c = sorted(draw(st.lists(unit, min_size=3, max_size=3)))
        return {"a": a, "b": b, "c": c, **bounds}
    if family == Family.GAUSSIAN_MIXTURE2:
        return {"mu1": draw(unit), "sigma1": draw(scale), "mu2": draw(unit), "sigma2": draw(scale),
                "kappa": draw(st.floats(min_value=0.0, max_value=1.0))}
    raise AssertionError(family)


@st.composite
def spec_blocks(draw):
    """1-6 valid specs of one family sharing their parameter names."""
    family = draw(st.sampled_from(list(Family)))
    optional = family in (Family.FOLDED_NORMAL, Family.TRIANGULAR)
    needs = family in (Family.TRUNCATED_NORMAL, Family.CENSORED_NORMAL) or optional
    bounds = _bounds(draw, optional) if needs else {}
    n = draw(st.integers(min_value=1, max_value=6))
    try:
        return family, [DistributionSpec(family, _params(draw, family, bounds)) for _ in range(n)]
    except InvalidParam:  # a truncation interval too narrow to carry mass in double precision
        reject()


def _raw(spec, rng, count):
    """The raw variates of ``count`` draws of ``spec``, in stream order."""
    raw = spec.raw_arrays(spec.family, count)
    spec.draw_into(spec.family, spec.params, rng, raw)
    return raw


# A bound of -0.0 once made a block keep the bound's sign where a scalar clip keeps the draw's.
ZERO_BOUND = DistributionSpec(Family.CENSORED_NORMAL, {"mu": 0.0, "sigma": 0.0, "lo": -0.0, "hi": 1.0})


@settings(max_examples=300, deadline=None)
@given(spec_blocks(), st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=2**32))
@example((Family.CENSORED_NORMAL, [ZERO_BOUND, ZERO_BOUND]), 1, 0)
def test_block_transform_matches_sample_oracle(block, count, seed):
    family, specs = block
    raw = [_raw(spec, derive_rng(seed, i), count) for i, spec in enumerate(specs)]
    columns = {name: np.array([s.params[name] for s in specs])[:, None] for name in specs[0].params}
    block = tuple(np.stack(x) for x in zip(*raw))
    want = [sample_oracle(spec, derive_rng(seed, i), count) for i, spec in enumerate(specs)]
    got = DistributionSpec.transform(family, columns, block)
    for i, spec in enumerate(specs):
        # One spec's scalar params, as the simulator transforms its prior's draws.
        rng, want_rng = derive_rng(seed, i), derive_rng(seed, i)
        assert got[i].tobytes() == want[i].tobytes()
        assert DistributionSpec.transform(family, spec.params, _raw(spec, rng, count)).tobytes() == want[i].tobytes()
        sample_oracle(spec, want_rng, count)
        assert rng.bit_generator.state == want_rng.bit_generator.state


def test_truncated_without_mass_is_refused_and_left_out_of_a_block():
    # Such a row used to abort a whole fit: "truncation interval carries no mass".
    params = {"mu": 40.0, "sigma": 0.1, "lo": 0.0, "hi": 1.0}
    with pytest.raises(InvalidParam, match="no mass") as err:
        DistributionSpec(Family.TRUNCATED_NORMAL, params)
    assert err.value.name == "lo"
    columns = {name: np.full(3, value) for name, value in params.items()}
    columns["mu"] = np.array([0.5, 40.0, 0.0])
    assert valid_columns(Family.TRUNCATED_NORMAL, columns)[1].tolist() == [True, False, True]


# Parameter values that make points NaN or infinite, signed zeros, degenerate or invalid.
point_values = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 0.5, -0.5, 1.0]), unit)


@st.composite
def grids(draw):
    """A family, a grid and fixed params over its names; sometimes a name it lacks or does not take."""
    family = draw(st.sampled_from(list(Family)))
    required, optional = _PARAMS[family]
    names = [*required, *draw(st.lists(st.sampled_from(optional), unique=True))] if optional else list(required)
    if draw(st.integers(0, 9)) == 0:
        names.remove(draw(st.sampled_from(required)))
    if draw(st.integers(0, 9)) == 0:
        names.append("bogus")
    names = draw(st.permutations(names))
    # Each name is fixed, a grid axis, or both (the axis overrides the fixed value).
    roles = {name: draw(st.sampled_from(["fixed", "grid", "both"])) for name in names}
    fixed = {n: draw(point_values) for n in names if roles[n] != "grid"}
    grid = {n: tuple(draw(st.lists(point_values, min_size=1, max_size=3))) for n in names if roles[n] != "fixed"}
    if not grid:
        grid = {names[0]: (fixed.pop(names[0]),)}
    return family, grid, fixed


@settings(max_examples=300, deadline=None)
@given(grids())
def test_grid_columns_keep_exactly_the_points_a_spec_accepts(case):
    family, grid, fixed = case
    accepted = []
    for combo in itertools.product(*grid.values()):
        try:
            accepted.append(DistributionSpec(family, {**fixed, **dict(zip(grid, combo))}).params)
        except InvalidParam:
            pass
    try:
        columns = grid_columns(family, grid, fixed)
    except InvalidParam as exc:
        # A name the family does not take, or needs and lacks, fails every point.
        assert not accepted
        with pytest.raises(InvalidParam) as err:
            DistributionSpec(family, {**dict.fromkeys(fixed, 0.0), **dict.fromkeys(grid, 0.0)})
        assert str(err.value) == str(exc)
        return
    assert all(column.dtype == np.float64 and column.shape == (len(accepted),) for column in columns.values())
    assert list(columns) == list({**fixed, **grid})
    rows = [dict(zip(columns, row)) for row in zip(*(column.tolist() for column in columns.values()))]
    assert len(rows) == len(accepted)
    for row, params in zip(rows, accepted):
        assert list(row) == list(params)
        assert [np.float64(row[n]).tobytes() for n in row] == [np.float64(params[n]).tobytes() for n in params]


VALUES = np.clip(np.random.default_rng(3).normal(0.3, 0.15, 57), 0.0, 1.0)

# (family, grid, fixed params): each grid holds candidates that fail
# validation (skipped, so candidate index != grid index) or are degenerate.
GRIDS = [
    (Family.FOLDED_NORMAL, {"mu": (0.0, 0.1, 0.2, 0.3, 0.4), "sigma": (0.0, 0.05, 0.1, 0.2)},
     {"lo": 0.0, "hi": 1.0}),
    (Family.TRIANGULAR, {"a": (-0.1, 0.0, 0.1), "b": (0.0, 0.1, 0.2), "c": (0.1, 0.3, 0.5)}, {"lo": 0.0}),
    (Family.UNIFORM, {"lo": (0.0, 0.1, 0.2, 0.3), "hi": (0.2, 0.3, 0.5)}, {}),
    (Family.TRUNCATED_NORMAL, {"mu": (0.0, 0.3, 0.6), "sigma": (0.0, 0.1, 0.3)}, {"lo": 0.0, "hi": 1.0}),
    (Family.GAUSSIAN_MIXTURE2, {"mu1": (0.1, 0.3), "sigma1": (0.0, 0.1), "mu2": (0.5,), "sigma2": (0.1,),
                                "kappa": (0.0, 0.5, 1.0, 1.5)}, {}),
    # A NaN point is skipped; a -0.0 bound is stored as 0.0.
    (Family.CENSORED_NORMAL, {"mu": (0.0, math.nan, 0.3), "sigma": (0.0, 0.1), "lo": (-0.0, 0.2)}, {"hi": 1.0}),
    # Infinite points are skipped, and so are truncation intervals without
    # mass in double precision: mu = -0.2, 2 and 3 here, while mu = 1.2 draws.
    (Family.UNIFORM, {"lo": (-math.inf, 0.0, 0.1), "hi": (0.5, math.inf)}, {}),
    (Family.TRUNCATED_NORMAL, {"mu": (-0.2, 0.0, 1.0, 1.2, 2.0, 3.0), "sigma": (0.02,)}, {"lo": 0.0, "hi": 1.0}),
]


@pytest.mark.parametrize("family, grid, fixed", GRIDS, ids=[g[0].value for g in GRIDS])
@pytest.mark.parametrize("sim_count", [57, 200])
def test_fit_side_matches_candidate_loop(family, grid, fixed, sim_count, monkeypatch):
    candidates = []
    for combo in itertools.product(*grid.values()):
        try:
            candidates.append(DistributionSpec(family, {**fixed, **dict(zip(grid, combo))}))
        except InvalidParam:
            pass
    best, distance = fit_side_oracle(VALUES, candidates, sim_count, 5, 1)
    for i, spec in enumerate(candidates):
        want = fit_distance_oracle(VALUES, sample_oracle(spec, derive_rng(5, FIT, 1, i), sim_count))
        sims = DistributionSpec.transform(family, spec.params, _raw(spec, derive_rng(5, FIT, 1, i), sim_count))
        assert _distances(np.sort(VALUES), sims[None]) == [want]
    # Blocks of 1 and 7 candidates, and one block for the whole grid.
    for rows in (1, 7, len(candidates)):
        monkeypatch.setattr(fitting, "_FIT_BLOCK", rows * sim_count)
        for threads in (1, 2):
            side = _fit_side(VALUES, family, grid, fixed, sim_count, 5, 1, threads)
            assert side.best == candidates[best]
            assert side.distance == distance


@pytest.mark.parametrize("n", [1, 7, 8, 129, 300, 3000])
def test_block_distances_equal_the_row_loop(n):
    # One reduction over the block's last axis must add every row as a 1-D
    # row.mean() does: pairwise, in blocks of 8, below and above 128 terms.
    rng = np.random.default_rng(n)
    real = np.sort(rng.normal(0.3, 0.2, n))
    for sim_count in (n, 2 * n + 3, max(1, n // 3)):  # equal sizes, then interpolated quantiles
        sims = rng.normal(0.3, 0.25, (5, sim_count))
        want = [fit_distance_oracle(real, row) for row in sims]
        got = _distances(real, sims.copy())
        assert got == want
        assert all(type(d) is float for d in got)
