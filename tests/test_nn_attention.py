"""Tests for multi-head attention: equivalence, causality, capture."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn.attention import MultiHeadAttention, RotaryEmbedding


@pytest.fixture
def attn(rng):
    return MultiHeadAttention(12, 3, 16, rng=rng)


class TestRotaryEmbedding:
    def test_table_limits(self):
        rope = RotaryEmbedding(8, 10)
        cos, sin = rope.tables(5)
        assert cos.shape == (5, 8)
        with pytest.raises(ValueError):
            rope.tables(11)


class TestForwardPaths:
    def test_tensor_and_array_paths_agree(self, attn, rng):
        x = rng.normal(size=(2, 5, 12))
        assert np.allclose(attn(Tensor(x)).data, attn.forward_array(x))

    def test_output_shape(self, attn, rng):
        x = rng.normal(size=(3, 7, 12))
        assert attn.forward_array(x).shape == (3, 7, 12)

    def test_head_count_must_divide(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(10, 3, 8)


class TestCausality:
    def test_future_tokens_do_not_affect_past(self, attn, rng):
        x = rng.normal(size=(1, 6, 12))
        out1 = attn.forward_array(x)
        x2 = x.copy()
        x2[0, 4:] += 10.0  # perturb positions 4, 5
        out2 = attn.forward_array(x2)
        assert np.allclose(out1[0, :4], out2[0, :4])
        assert not np.allclose(out1[0, 4:], out2[0, 4:])

    def test_first_position_attends_only_itself(self, attn, rng):
        x = rng.normal(size=(1, 5, 12))
        _, cap = attn.forward_array(x, capture=True)
        assert np.allclose(cap.probs[:, :, 0, 0], 1.0)
        assert np.allclose(cap.probs[:, :, 0, 1:], 0.0)


class TestCapture:
    def test_probs_are_row_stochastic(self, attn, rng):
        x = rng.normal(size=(2, 6, 12))
        _, cap = attn.forward_array(x, capture=True)
        assert np.allclose(cap.probs.sum(axis=-1), 1.0)

    def test_capture_shapes(self, attn, rng):
        x = rng.normal(size=(2, 6, 12))
        out, cap = attn.forward_array(x, capture=True)
        assert cap.x.shape == (2, 6, 12)
        assert cap.q.shape == (2, 3, 6, 4)
        assert cap.k.shape == (2, 3, 6, 4)
        assert cap.v.shape == (2, 3, 6, 4)
        # N_h and the block output are not captured: both follow from
        # what is (q, k and the head outputs).
        assert (cap.q @ np.swapaxes(cap.k, -1, -2)).shape == (2, 3, 6, 6)
        assert cap.heads.shape == (2, 6, 12)
        assert np.array_equal(attn.o_proj.forward_array(cap.heads), out)

    def test_output_is_heads_times_o_proj(self, attn, rng):
        x = rng.normal(size=(1, 4, 12))
        out, cap = attn.forward_array(x, capture=True)
        assert np.allclose(out, cap.heads @ attn.o_proj.weight.data)

    def test_heads_are_probs_times_values(self, attn, rng):
        x = rng.normal(size=(1, 4, 12))
        _, cap = attn.forward_array(x, capture=True)
        context = np.einsum("bhst,bhtd->bhsd", cap.probs, cap.v)
        merged = context.transpose(0, 2, 1, 3).reshape(1, 4, 12)
        assert np.allclose(cap.heads, merged)


class TestGradients:
    def test_all_projections_receive_gradients(self, attn, rng):
        x = rng.normal(size=(2, 4, 12))
        out = attn(Tensor(x))
        from repro.autograd import ops

        ops.sum(out).backward()
        for proj in (attn.q_proj, attn.k_proj, attn.v_proj, attn.o_proj):
            assert proj.weight.grad is not None
            assert np.any(proj.weight.grad != 0.0)
