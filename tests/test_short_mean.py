"""The short-axis mean of the metric kernel equals NumPy's mean bit for bit."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from raterpower.metrics import _mean

values = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_subnormal=False),
    st.sampled_from([0.0, -0.0, 0.25, 1.0]),
)


@settings(max_examples=400, deadline=None)
@given(
    hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=9),
    st.integers(min_value=0, max_value=3),
    st.data(),
)
def test_mean_matches_numpy_bits(shape, pad, data):
    # A padded array sliced back to its values, as the ragged kernel reads
    # count buckets, is a non-contiguous view.
    x = data.draw(hnp.arrays(np.float64, (*shape[:-1], shape[-1] + pad), elements=values))
    x = x[..., : shape[-1]]
    if data.draw(st.booleans()):
        x = np.asfortranarray(x)
    assert _mean(x).tobytes() == x.mean(axis=-1).tobytes()
