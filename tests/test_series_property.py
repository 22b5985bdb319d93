"""Property test of the timing scan's series margin; skipped without hypothesis."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_protocol import scan_chunk, series_and_sweep


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(
    n=st.integers(1, 30).map(lambda k: 3 * k),
    start=st.floats(0.0, 1.5),
    size=st.integers(1, 2048),
)
def test_sweep_product_lies_within_the_series_margin(n, start, size):
    thetas = scan_chunk(n, start, size)
    assume(thetas.size > 0)
    prod, margin, swept = series_and_sweep(n, thetas)
    assert np.all(np.abs(prod - swept) <= margin)
