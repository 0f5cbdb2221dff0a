import math

import numpy as np
import pytest
from _oracles import cdf_oracle, ks_distance

from raterpower.distributions import (
    DistributionSpec,
    Family,
    folded_normal,
    triangular,
    truncated_normal,
    uniform,
)
from raterpower.errors import InvalidParam
from raterpower.rngstreams import derive_rng


def test_validate_unit_uniform_ok():
    uniform(0, 1)


def test_validate_triangular_ordering():
    with pytest.raises(InvalidParam) as err:
        triangular(a=1, b=0, c=2)
    assert err.value.name == "b"


def test_validate_negative_scale():
    with pytest.raises(InvalidParam) as err:
        DistributionSpec(Family.NORMAL, {"mu": 0, "sigma": -0.1})
    assert err.value.name == "sigma"


def test_validate_unknown_and_missing_params():
    with pytest.raises(InvalidParam):
        DistributionSpec(Family.UNIFORM, {"lo": 0, "hi": 1, "mid": 0.5})
    with pytest.raises(InvalidParam):
        DistributionSpec(Family.NORMAL, {"mu": 0})


def test_validate_mixture_weight():
    with pytest.raises(InvalidParam):
        DistributionSpec(Family.GAUSSIAN_MIXTURE2, {"mu1": 0, "sigma1": 1, "mu2": 1, "sigma2": 1, "kappa": 1.5})


def test_degenerate_uniform_is_point_mass():
    spec = uniform(0.3, 0.3)
    assert list(spec.sample(derive_rng(0), 4)) == [0.3] * 4


def test_censored_zero_scale_clips_to_bound():
    spec = DistributionSpec(Family.CENSORED_NORMAL, {"mu": 2, "sigma": 0, "lo": 0, "hi": 1})
    assert list(spec.sample(derive_rng(0), 3)) == [1.0, 1.0, 1.0]


def test_uniform_sample_mean():
    x = uniform(0, 1).sample(derive_rng(101), 100_000)
    assert abs(x.mean() - 0.5) < 0.01


def test_folded_normal_sample_mean():
    # E|N(0,1)| = sqrt(2/pi)
    x = folded_normal(0, 1).sample(derive_rng(102), 100_000)
    assert abs(x.mean() - math.sqrt(2 / math.pi)) < 0.01


def test_bounded_samples_stay_inside():
    cases = [
        DistributionSpec(Family.CENSORED_NORMAL, {"mu": 0.4, "sigma": 0.5, "lo": 0, "hi": 1}),
        truncated_normal(0.4, 0.5, 0, 1),
        folded_normal(0.2, 0.4, lo=0, hi=0.8),
        triangular(-0.05, 0.21, 0.45, lo=0),
    ]
    for spec in cases:
        x = spec.sample(derive_rng(103), 20_000)
        lo, hi = spec.support()
        assert x.min() >= lo - 1e-12
        assert x.max() <= hi + 1e-12


def test_truncated_normal_bounds_carry_no_mass():
    spec = truncated_normal(-0.5, 1.0, 0.0, 1.0)
    x = spec.sample(derive_rng(104), 50_000)
    assert not np.any(x == 0.0)
    assert not np.any(x == 1.0)


def test_censored_normal_has_point_masses():
    spec = DistributionSpec(Family.CENSORED_NORMAL, {"mu": 0.5, "sigma": 0.6, "lo": 0.0, "hi": 1.0})
    x = spec.sample(derive_rng(105), 50_000)
    assert (x == 0.0).mean() > 0.1
    assert (x == 1.0).mean() > 0.1


# The CDF checks' specs of the families built with DistributionSpec alone.
NORMAL = DistributionSpec(Family.NORMAL, {"mu": 0.2, "sigma": 0.5})
CENSORED = DistributionSpec(Family.CENSORED_NORMAL, {"mu": 0.3, "sigma": 0.4, "lo": 0, "hi": 1})
MIXTURE = DistributionSpec(
    Family.GAUSSIAN_MIXTURE2, {"mu1": -0.4, "sigma1": 0.4, "mu2": 1.2, "sigma2": 0.5, "kappa": 0.65}
)


def test_cdf_uniform_midpoint():
    assert cdf_oracle(uniform(0, 1), 0.5) == pytest.approx(0.5)


def test_cdf_triangular_symmetric_mode():
    assert cdf_oracle(triangular(0, 0.5, 1), 0.5) == pytest.approx(0.5)


def test_cdf_censored_normal_jump_at_lower_bound():
    # Mass of the latent normal at or below 0 lands on the bound.
    spec = DistributionSpec(Family.CENSORED_NORMAL, {"mu": 0, "sigma": 1, "lo": 0, "hi": 1})
    assert cdf_oracle(spec, 0) == pytest.approx(0.5)
    assert cdf_oracle(spec, -1e-12) == 0.0


def test_cdf_normal_matches_math_erfc():
    spec = DistributionSpec(Family.NORMAL, {"mu": 0.3, "sigma": 0.7})
    for x in (-1.2, 0.0, 0.3, 2.4):
        expected = 0.5 * math.erfc(-(x - 0.3) / (0.7 * math.sqrt(2)))
        assert cdf_oracle(spec, x) == pytest.approx(expected, abs=1e-12)


def test_cdf_monotone_and_limits():
    specs = [
        uniform(0, 1),
        NORMAL,
        truncated_normal(-0.5, 1, 0, 1),
        CENSORED,
        folded_normal(0.19, 0.11, lo=0, hi=1),
        triangular(-0.05, 0.21, 0.45, lo=0),
        MIXTURE,
    ]
    grid = np.linspace(-3, 3, 1201)
    for spec in specs:
        values = cdf_oracle(spec, grid)
        assert np.all(np.diff(values) >= -1e-12)
        assert cdf_oracle(spec, -1e9) == pytest.approx(0.0, abs=1e-12)
        assert cdf_oracle(spec, 1e9) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "spec,atoms",
    [
        (uniform(0, 1), ()),
        (NORMAL, ()),
        (truncated_normal(-0.5, 1, 0, 1), ()),
        (CENSORED, (0.0, 1.0)),
        (folded_normal(0.19, 0.11, lo=0, hi=1), (0.0, 1.0)),
        (triangular(-0.05, 0.21, 0.45, lo=0), (0.0,)),
        (MIXTURE, ()),
    ],
    ids=lambda v: v.family.value if isinstance(v, DistributionSpec) else "",
)
def test_sampler_cdf_self_consistency(spec, atoms):
    x = spec.sample(derive_rng(106), 100_000)
    assert ks_distance(x, lambda grid: cdf_oracle(spec, grid), atoms=atoms) < 0.01


def test_sampling_determinism():
    spec = DistributionSpec(
        Family.GAUSSIAN_MIXTURE2, {"mu1": -0.43, "sigma1": 0.42, "mu2": 1.19, "sigma2": 0.53, "kappa": 0.652}
    )
    a = spec.sample(derive_rng(9, 1), 1000)
    b = spec.sample(derive_rng(9, 1), 1000)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("count", [-1, 2.5, 1.0, "3", True])
def test_sample_rejects_a_count_that_is_not_a_nonnegative_integer(count):
    with pytest.raises(InvalidParam) as err:
        uniform(0, 1).sample(derive_rng(0), count)
    assert err.value.name == "count"


def test_sample_of_zero_is_empty():
    x = uniform(0, 1).sample(derive_rng(0), 0)
    assert x.shape == (0,)


def test_json_round_trip():
    spec = triangular(-0.05, 0.21, 0.45, lo=0)
    again = DistributionSpec.from_json_dict(spec.to_json_dict())
    assert again == spec
    with pytest.raises(InvalidParam):
        DistributionSpec.from_json_dict({"family": "zipf", "params": {}})


def test_folded_normal_clips_after_folding():
    # |N(0.9, 0.05)| mostly sits near 0.9; censoring at 0.5 piles mass there.
    spec = folded_normal(0.9, 0.05, lo=0, hi=0.5)
    x = spec.sample(derive_rng(107), 1000)
    assert np.all(x <= 0.5)
    assert (x == 0.5).mean() > 0.99
