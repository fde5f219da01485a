"""Tests for the numpy functional ops, including hypothesis properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn import functional as F

finite_rows = arrays(
    np.float64,
    (4, 6),
    elements=st.floats(-50, 50, allow_nan=False),
)


class TestSoftmax:
    @given(finite_rows)
    @settings(max_examples=30, deadline=None)
    def test_rows_sum_to_one(self, x):
        assert np.allclose(F.softmax(x).sum(axis=-1), 1.0)

    @given(finite_rows)
    @settings(max_examples=30, deadline=None)
    def test_shift_invariance(self, x):
        assert np.allclose(F.softmax(x), F.softmax(x + 123.0))

    def test_extreme_values_stable(self):
        out = F.softmax(np.array([1e9, -1e9]))
        assert np.allclose(out, [1.0, 0.0])

    @given(finite_rows)
    @settings(max_examples=30, deadline=None)
    def test_log_softmax_consistency(self, x):
        assert np.allclose(F.log_softmax(x), np.log(F.softmax(x)))


class TestGatherNLL:
    """The fused NLL must be bit-identical to log-softmax-then-gather."""

    @given(finite_rows, st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_bitwise_equals_reference(self, logits, seed):
        rng = np.random.default_rng(seed)
        targets = rng.integers(0, logits.shape[-1], size=logits.shape[0])
        fused = F.gather_nll(logits, targets)
        assert np.array_equal(fused, F.gather_nll_reference(logits, targets))

    def test_batched_shapes(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(3, 5, 11))
        targets = rng.integers(0, 11, size=(3, 5))
        fused = F.gather_nll(logits, targets)
        assert fused.shape == (3, 5)
        assert np.array_equal(fused, F.gather_nll_reference(logits, targets))

    def test_extreme_logits_stable(self):
        logits = np.array([[1e9, 0.0, -1e9], [-1e9, -1e9, -1e9]])
        targets = np.array([0, 2])
        fused = F.gather_nll(logits, targets)
        assert np.all(np.isfinite(fused))
        assert fused[0] == pytest.approx(0.0)
        assert fused[1] == pytest.approx(np.log(3.0))

    def test_does_not_mutate_inputs(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(4, 7))
        original = logits.copy()
        F.gather_nll(logits, np.zeros(4, dtype=int))
        assert np.array_equal(logits, original)

    def test_cross_entropy_equals_unfused_composition(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(2, 6, 9))
        targets = rng.integers(0, 9, size=(2, 6))
        flat = logits.reshape(-1, 9)
        unfused = float(
            F.gather_nll_reference(flat, targets.reshape(-1)).mean()
        )
        assert F.cross_entropy(logits, targets) == unfused


class TestSigmoid:
    def test_extreme_values_stable(self):
        out = F.sigmoid(np.array([-1e9, 0.0, 1e9]))
        assert np.allclose(out, [0.0, 0.5, 1.0])
        assert np.all(np.isfinite(out))

    @given(finite_rows)
    @settings(max_examples=30, deadline=None)
    def test_symmetry(self, x):
        assert np.allclose(F.sigmoid(x) + F.sigmoid(-x), 1.0)

    @given(finite_rows)
    @settings(max_examples=30, deadline=None)
    def test_silu_is_x_times_sigmoid(self, x):
        assert np.allclose(F.silu(x), x * F.sigmoid(x))


class TestRMSNorm:
    def test_unit_gain_output_has_unit_rms(self, rng):
        x = rng.normal(size=(8, 16)) * 5.0
        out = F.rms_norm(x, np.ones(16), eps=0.0)
        assert np.allclose(np.sqrt((out**2).mean(axis=-1)), 1.0)

    def test_gain_scales_output(self, rng):
        x = rng.normal(size=(4, 8))
        gain = np.full(8, 3.0)
        assert np.allclose(
            F.rms_norm(x, gain), 3.0 * F.rms_norm(x, np.ones(8))
        )

    def test_eps_guards_zero_input(self):
        out = F.rms_norm(np.zeros((2, 4)), np.ones(4), eps=1e-5)
        assert np.all(np.isfinite(out))


class TestRoPE:
    def test_tables_shape(self):
        cos, sin = F.rope_tables(10, 8)
        assert cos.shape == (10, 8)
        assert sin.shape == (10, 8)

    def test_odd_head_dim_rejected(self):
        with pytest.raises(ValueError):
            F.rope_tables(4, 7)

    def test_rotation_preserves_norm(self, rng):
        cos, sin = F.rope_tables(6, 8)
        x = rng.normal(size=(6, 8))
        rotated = F.apply_rope(x, cos, sin)
        assert np.allclose(
            np.linalg.norm(rotated, axis=-1), np.linalg.norm(x, axis=-1)
        )

    def test_position_zero_is_identity(self, rng):
        cos, sin = F.rope_tables(4, 8)
        x = rng.normal(size=(4, 8))
        rotated = F.apply_rope(x, cos, sin)
        assert np.allclose(rotated[0], x[0])

    def test_relative_property_dot_products(self, rng):
        # <R_m q, R_n k> must depend only on (m - n): shift both positions.
        d = 8
        cos, sin = F.rope_tables(12, d)
        q = rng.normal(size=d)
        k = rng.normal(size=d)
        def rot(v, pos):
            return v * cos[pos] + F.rotate_half(v[None, :])[0] * sin[pos]
        a = rot(q, 3) @ rot(k, 1)
        b = rot(q, 7) @ rot(k, 5)
        assert a == pytest.approx(b, rel=1e-9)


class TestCausalMask:
    def test_upper_triangle_blocked(self):
        mask = F.causal_mask(4)
        assert np.all(np.isneginf(mask[np.triu_indices(4, k=1)]))

    def test_lower_triangle_open(self):
        mask = F.causal_mask(4)
        lower = mask[np.tril_indices(4)]
        assert np.all(lower == 0.0)


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = np.zeros((5, 10))
        targets = np.arange(5) % 10
        assert F.cross_entropy(logits, targets) == pytest.approx(np.log(10))

    def test_perfect_prediction_near_zero(self):
        logits = np.full((4, 6), -1e3)
        targets = np.array([1, 2, 3, 4])
        logits[np.arange(4), targets] = 1e3
        assert F.cross_entropy(logits, targets) == pytest.approx(0.0, abs=1e-9)

    def test_batched_shape(self):
        logits = np.zeros((2, 3, 7))
        targets = np.zeros((2, 3), dtype=int)
        assert F.cross_entropy(logits, targets) == pytest.approx(np.log(7))


class TestAttention:
    def test_uniform_scores_average_values(self, rng):
        q = np.zeros((1, 3, 4))
        k = np.zeros((1, 3, 4))
        v = rng.normal(size=(1, 3, 4))
        out = F.attention(q, k, v)
        assert np.allclose(out, v.mean(axis=1, keepdims=True))

    def test_causal_mask_first_position_sees_itself(self, rng):
        q = rng.normal(size=(1, 3, 4))
        k = rng.normal(size=(1, 3, 4))
        v = rng.normal(size=(1, 3, 4))
        out = F.attention(q, k, v, mask=F.causal_mask(3))
        assert np.allclose(out[0, 0], v[0, 0])


# ---------------------------------------------------------------------------
# Kernel rewrites against the formulas they replaced
# ---------------------------------------------------------------------------
# The forward's elementwise kernels run in place on buffers they own.  Each
# must run the same IEEE operations as the textbook expression below, so
# every output is bit-identical to it, NaN included.


def softmax_oracle(x, axis=-1):
    shifted = x - x.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=axis, keepdims=True)


def sigmoid_oracle(x):
    z = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))


def silu_oracle(x):
    return x * sigmoid_oracle(x)


def rms_norm_oracle(x, gain, eps=1e-5):
    scale = np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + eps)
    return x / scale * gain


def swiglu_oracle(mlp, x):
    gate = silu_oracle(x @ mlp.gate_proj.weight.data)
    return (gate * (x @ mlp.up_proj.weight.data)) @ mlp.down_proj.weight.data


EDGE_VALUES = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e308, -1e308,
     np.inf, -np.inf, np.nan, 1.5, -2.5, 40.0, -750.0]
)

#: Eval-chunk, prefill and decode shapes of llama-7b-sim's activations:
#: attention scores, MLP hidden states and the residual stream.
SCORE_SHAPES = [(4, 4, 63, 63), (1, 4, 48, 48), (1, 4, 1, 40)]
HIDDEN_SHAPES = [(4, 63, 176), (1, 48, 176), (8, 1, 176)]
RESIDUAL_SHAPES = [(4, 63, 64), (1, 48, 64), (8, 1, 64)]


def edge_matrix(seed, shape):
    return np.random.default_rng(seed).choice(EDGE_VALUES, size=shape)


def assert_bitwise(kernel, oracle, *args):
    originals = [np.copy(a) for a in args]
    # Edge values overflow and divide inf by inf on both sides alike.
    with np.errstate(all="ignore"):
        out = kernel(*args)
        expected = oracle(*args)
    assert out.dtype == expected.dtype
    assert np.array_equal(out, expected, equal_nan=True)
    for arg, original in zip(args, originals):
        assert np.array_equal(arg, original, equal_nan=True)


class TestKernelsMatchOracles:
    @pytest.mark.parametrize("shape", SCORE_SHAPES)
    def test_softmax_random(self, shape):
        x = np.random.default_rng(0).normal(size=shape) * 4.0
        assert_bitwise(F.softmax, softmax_oracle, x)

    @pytest.mark.parametrize("shape", HIDDEN_SHAPES)
    def test_sigmoid_and_silu_random(self, shape):
        x = np.random.default_rng(1).normal(size=shape) * 6.0
        assert_bitwise(F.sigmoid, sigmoid_oracle, x)
        assert_bitwise(F.silu, silu_oracle, x)

    @pytest.mark.parametrize("shape", RESIDUAL_SHAPES)
    def test_rms_norm_random(self, shape):
        rng = np.random.default_rng(2)
        x = rng.normal(size=shape)
        gain = rng.normal(size=shape[-1])
        assert_bitwise(F.rms_norm, rms_norm_oracle, x, gain)
        assert_bitwise(
            lambda a, g: F.rms_norm(a, g, eps=0.0),
            lambda a, g: rms_norm_oracle(a, g, eps=0.0),
            x,
            gain,
        )

    @pytest.mark.parametrize("shape", HIDDEN_SHAPES)
    def test_swiglu_random(self, shape):
        from repro.nn.transformer import SwiGLU

        mlp = SwiGLU(64, shape[-1], rng=np.random.default_rng(3))
        x = np.random.default_rng(4).normal(size=shape[:-1] + (64,))
        assert_bitwise(mlp.forward_array, lambda a: swiglu_oracle(mlp, a), x)

    @pytest.mark.parametrize("seed", range(4))
    def test_edge_values(self, seed):
        x = edge_matrix(seed, (32, 9))
        gain = edge_matrix(seed + 100, 9)
        assert_bitwise(F.softmax, softmax_oracle, x)
        assert_bitwise(lambda a: F.softmax(a, axis=0),
                       lambda a: softmax_oracle(a, axis=0), x)
        assert_bitwise(F.sigmoid, sigmoid_oracle, x)
        assert_bitwise(F.silu, silu_oracle, x)
        assert_bitwise(F.rms_norm, rms_norm_oracle, x, gain)
        assert_bitwise(F.rms_norm, rms_norm_oracle, x, np.ones(9))

    def test_finite_edge_rows(self):
        finite = EDGE_VALUES[np.isfinite(EDGE_VALUES)]
        x = np.stack([np.roll(finite, i) for i in range(finite.size)])
        assert_bitwise(F.softmax, softmax_oracle, x)
        assert_bitwise(F.sigmoid, sigmoid_oracle, x)
        assert_bitwise(F.silu, silu_oracle, x)
        assert_bitwise(F.rms_norm, rms_norm_oracle, x, np.ones(finite.size))

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.int16, np.int8])
    def test_integer_inputs(self, dtype):
        x = np.random.default_rng(5).integers(0, 7, size=(3, 4, 5)).astype(dtype)
        assert_bitwise(F.softmax, softmax_oracle, x)
        assert_bitwise(F.sigmoid, sigmoid_oracle, x)
        assert_bitwise(F.silu, silu_oracle, x)
        assert_bitwise(F.rms_norm, rms_norm_oracle, x, np.arange(5.0))

    def test_scalar_and_vector_inputs(self):
        assert_bitwise(F.sigmoid, sigmoid_oracle, np.float64(-3.0))
        assert_bitwise(F.softmax, softmax_oracle, np.array([3.0, -1.0, 2.0]))


class TestAttentionScoresMatchOracle:
    """Scaling and masking run in place on the score buffer."""

    def oracle(self, attn, x):
        batch, seq, _ = x.shape
        cos, sin = attn.rope.tables(seq)

        def split(a):
            return a.reshape(batch, seq, attn.n_heads, attn.d_head).transpose(
                0, 2, 1, 3
            )

        q = F.apply_rope(split(x @ attn.q_proj.weight.data), cos, sin)
        k = F.apply_rope(split(x @ attn.k_proj.weight.data), cos, sin)
        v = split(x @ attn.v_proj.weight.data)
        scores = q @ np.swapaxes(k, -1, -2) / np.sqrt(attn.d_head)
        scores = scores + F.causal_mask(seq)
        probs = softmax_oracle(scores, axis=-1)
        heads = (probs @ v).transpose(0, 2, 1, 3).reshape(batch, seq, -1)
        return heads @ attn.o_proj.weight.data, scores, probs

    @pytest.mark.parametrize("shape", [(4, 63), (1, 48), (8, 1)])
    def test_forward_array(self, shape):
        from repro.nn.attention import MultiHeadAttention

        attn = MultiHeadAttention(64, 4, 64, rng=np.random.default_rng(6))
        x = np.random.default_rng(7).normal(size=shape + (64,))
        original = x.copy()
        out, capture = attn.forward_array(x, capture=True)
        expected, scores, probs = self.oracle(attn, x)
        assert np.array_equal(out, expected)
        # The capture keeps q and k, not N_h: rebuild the scores from them.
        captured = capture.q @ np.swapaxes(capture.k, -1, -2)
        captured = captured / np.sqrt(attn.d_head) + F.causal_mask(shape[1])
        assert np.array_equal(captured, scores)
        assert np.array_equal(capture.probs, probs)
        assert np.array_equal(x, original)

    def test_owned_mask_is_read_only_causal_mask(self):
        from repro.nn.attention import MultiHeadAttention

        attn = MultiHeadAttention(16, 2, 12)
        assert np.array_equal(attn.causal_mask, F.causal_mask(12))
        assert not attn.causal_mask.flags.writeable
