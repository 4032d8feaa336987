"""Hypothesis strategies for numerically awkward data: ties, constant
columns, large common offsets, exactly and nearly duplicated rows, p = 1."""

import numpy as np
from hypothesis import strategies as st


@st.composite
def awkward_data(draw, min_rows=4, max_rows=24, max_p=40, integer=None):
    """A (rows, p) float matrix. ``integer`` forces integer-valued entries
    (True) or real ones (False); by default either is drawn."""
    rows = draw(st.integers(min_rows, max_rows))
    p = draw(st.integers(1, max_p))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if integer is None:
        integer = draw(st.booleans())
    if integer:
        data = rng.integers(-3, 4, size=(rows, p)).astype(float)
    else:
        data = rng.standard_normal((rows, p))
        if draw(st.booleans()):
            data = np.round(data, 1)  # ties between coordinates and distances
    constant = draw(st.integers(0, p))
    data[:, :constant] = rng.integers(-3, 4, size=constant)
    copies = draw(st.integers(0, rows - 1))
    data[rng.integers(0, rows, copies)] = data[rng.integers(0, rows, copies)]
    if not integer and draw(st.booleans()):
        near = rng.integers(0, rows, 2)
        data[near[1]] = data[near[0]] + 1e-9 * rng.standard_normal(p)
    return data + draw(st.sampled_from([0.0, 1e8, -1e8]))
