"""Hypothesis property tests for the int-k storage format.

Random weight geometries — including non-dividing group sizes,
single-element groups, single-row/column matrices, and adversarial value
distributions — replay the shared conformance obligations of
``tests/format_conformance.py`` on every conformance width, plus the
invariants hypothesis is uniquely good at: pack/unpack byte-identity
under arbitrary geometry and bit-identity with first-principles affine
dequantization at any width.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from format_conformance import CONFORMANCE_WIDTHS, run_conformance
from repro.quant.formats import IntFormat
from repro.quant.groupwise import group_of_row, quantize_groupwise


@st.composite
def weight_cases(draw):
    """(weight, group_size): random geometry and value distribution."""
    d_in = draw(st.integers(min_value=1, max_value=48))
    d_out = draw(st.integers(min_value=1, max_value=10))
    group_size = draw(
        st.one_of(
            st.none(),  # whole-matrix group
            st.just(1),  # single-element groups
            st.integers(min_value=2, max_value=d_in + 3),  # incl. non-dividing
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    magnitude = draw(st.sampled_from([1e-3, 1.0, 50.0]))
    rng = np.random.default_rng(seed)
    weight = rng.standard_normal((d_in, d_out)) * magnitude
    if draw(st.booleans()):
        # Sparsify some entries to exercise exact zeros and ties.
        weight *= rng.random(weight.shape) > 0.3
    return weight, group_size


class TestConformanceProperties:
    @given(case=weight_cases(), bits=st.sampled_from(CONFORMANCE_WIDTHS))
    @settings(max_examples=60, deadline=None)
    def test_obligations_hold_on_random_geometry(self, case, bits):
        weight, group_size = case
        run_conformance(IntFormat(bits), weight, group_size)

    @given(
        case=weight_cases(),
        bits=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_int_family_bit_identical_to_legacy_layer(self, case, bits):
        weight, group_size = case
        fmt = IntFormat(bits)
        tensor = fmt.encode(weight, group_size)
        # Oracle: quantize_groupwise codes on fp16-cast grids, decoded as
        # (codes - z[rows]) * s[rows] in float64.
        reference = quantize_groupwise(weight, bits, group_size)
        scales = reference.scales.astype(np.float16).astype(np.float64)
        zeros = reference.zeros.astype(np.float16).astype(np.float64)
        rows = group_of_row(
            weight.shape[0], reference.group_size, reference.n_groups
        )
        dense = (reference.codes - zeros[rows]) * scales[rows]
        assert np.array_equal(tensor.codes, reference.codes)
        assert np.array_equal(fmt.decode(tensor), dense)
        run_conformance(fmt, weight, group_size)
