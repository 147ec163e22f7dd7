"""Unit tests for the tensor type, primitives, and the gradient tape."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convkv.attention import RopeConfig, apply_rope, attend, merge_heads, split_heads
from convkv.cache import KvCache
from convkv.model import LayerStream
from convkv.numerics import (
    ConvKernels,
    GradTape,
    NonFiniteError,
    NumericsError,
    ShapeError,
    TapeError,
    Tensor2,
    add,
    add_mask,
    backward,
    conv1d,
    cross_entropy_cols,
    custom_op,
    embedding_lookup,
    hstack,
    matmul,
    relu,
    rms_norm_cols,
    row_normalize,
    scale,
    select_cols,
    slice_cols,
    slice_rows,
    softmax_cols,
    transpose,
    vstack,
)
from convkv.policies import PolicySpec

import oracles


def t2(arr, trainable=False):
    return Tensor2(np.asarray(arr, dtype=np.float64), requires_grad=trainable)


def rand(rng, rows, cols, trainable=False):
    return Tensor2(rng.standard_normal((rows, cols)), requires_grad=trainable)


def head_batched(rng, n_heads, rows, cols, trainable=False):
    """An (n_heads, rows, cols) op result, made the way attention makes one."""
    return split_heads(rand(rng, n_heads * rows, cols, trainable), n_heads, rows)


class TestTensor2:
    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            Tensor2(np.zeros(3))

    def test_rejects_nan_and_inf(self):
        with pytest.raises(NonFiniteError):
            Tensor2([[1.0, np.nan]])
        with pytest.raises(NonFiniteError):
            Tensor2([[np.inf, 0.0]])
        with pytest.raises(NonFiniteError):
            Tensor2([[-np.inf, 0.0]])

    def test_row_major_invariant(self):
        t = t2([[1, 2, 3], [4, 5, 6]])
        assert t.rows * t.cols == t.data.size
        assert t.data.flags["C_CONTIGUOUS"]

    def test_detach_drops_tracking(self):
        t = t2([[1.0]], trainable=True)
        assert not t.detach().requires_grad


class TestMatmul:
    def test_identity(self):
        out = matmul(t2([[1, 0], [0, 1]]), t2([[3], [4]]))
        assert np.array_equal(out.data, [[3], [4]])

    def test_hand_checked_1x2_2x1(self):
        out = matmul(t2([[1, 2]]), t2([[3], [4]]))
        assert np.array_equal(out.data, [[11]])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        a, b = rng.standard_normal((5, 4)), rng.standard_normal((4, 3))
        got = matmul(t2(a), t2(b)).data
        assert np.max(np.abs(got - oracles.matmul_loops(a, b))) < 1e-12

    def test_loop_oracle_up_to_32(self):
        rng = np.random.default_rng(11)
        for m, k, n in [(1, 1, 1), (8, 3, 5), (32, 32, 32)]:
            a, b = rng.standard_normal((m, k)), rng.standard_normal((k, n))
            got = matmul(t2(a), t2(b)).data
            assert np.max(np.abs(got - oracles.matmul_loops(a, b))) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(t2([[1, 2]]), t2([[1, 2]]))

    def test_leading_dims_must_match(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ShapeError, match="leading"):
            matmul(head_batched(rng, 2, 3, 4), head_batched(rng, 3, 4, 2))
        with pytest.raises(ShapeError, match="leading"):
            matmul(rand(rng, 3, 4), head_batched(rng, 2, 4, 2))


class TestSoftmaxCols:
    def test_symmetry(self):
        out = softmax_cols(t2([[0.0], [0.0]]))
        assert np.array_equal(out.data, [[0.5], [0.5]])

    def test_masked_entry_is_exact_zero(self):
        x = add_mask(t2([[0.0], [0.0]]), np.array([[-np.inf], [0.0]]))
        out = softmax_cols(x)
        assert out.data[0, 0] == 0.0
        assert out.data[1, 0] == 1.0

    def test_matches_scalar_oracle(self):
        col = np.array([1.0, 2.0, 3.0])
        out = softmax_cols(t2(col.reshape(3, 1)))
        assert np.max(np.abs(out.data[:, 0] - oracles.softmax_scalar(col))) < 1e-15

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_add_mask_rejects_non_finite_scores(self, bad):
        scores = custom_op([], np.array([[bad], [0.0]]), lambda g: ())
        with pytest.raises(NonFiniteError, match="add_mask"):
            add_mask(scores, np.zeros((2, 1)))

    def test_fully_masked_column_rejected(self):
        x = add_mask(t2([[0.0], [0.0]]), np.full((2, 1), -np.inf))
        with pytest.raises(NumericsError):
            softmax_cols(x)

    @settings(max_examples=50, deadline=None)
    @given(
        rows=st.integers(1, 12),
        cols=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_columns_sum_to_one(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        out = softmax_cols(t2(rng.standard_normal((rows, cols)) * 10))
        assert np.max(np.abs(out.data.sum(axis=0) - 1.0)) < 1e-12


class TestConv1d:
    def make(self, kernels3d):
        k3 = np.asarray(kernels3d, dtype=np.float64)
        c_out, c_in, k = k3.shape
        return ConvKernels(Tensor2(k3.reshape(c_out, c_in * k)), c_in=c_in, k=k)

    def test_delta_kernel_identity(self):
        kern = self.make([[[0.0, 1.0, 0.0]]])
        out = conv1d(t2([[5.0, -2.0, 7.0]]), kern)
        assert np.array_equal(out.data, [[5.0, -2.0, 7.0]])

    def test_box_kernel_zero_padding_edges(self):
        kern = self.make([[[1.0, 1.0, 1.0]]])
        out = conv1d(t2([[1.0, 1.0, 1.0, 1.0]]), kern)
        assert np.array_equal(out.data, [[2.0, 3.0, 3.0, 2.0]])

    def test_matches_sliding_window_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 9))
        k3 = rng.standard_normal((3, 2, 5))
        out = conv1d(t2(x), self.make(k3))
        assert np.max(np.abs(out.data - oracles.conv1d_loops(x, k3))) < 1e-12

    def test_channel_mismatch(self):
        kern = self.make([[[0.0, 1.0, 0.0]]])
        with pytest.raises(ShapeError):
            conv1d(t2(np.zeros((2, 4))), kern)

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError):
            ConvKernels(Tensor2(np.zeros((1, 4))), c_in=2, k=2)

    @settings(max_examples=30, deadline=None)
    @given(shift=st.integers(1, 3), seed=st.integers(0, 2**31))
    def test_interior_shift_equivariance(self, shift, seed):
        rng = np.random.default_rng(seed)
        t_len, k = 16, 5
        half = (k - 1) // 2
        x = rng.standard_normal((2, t_len))
        k3 = rng.standard_normal((3, 2, k))
        shifted = np.zeros_like(x)
        shifted[:, shift:] = x[:, :-shift]
        base = conv1d(t2(x), self.make(k3)).data
        moved = conv1d(t2(shifted), self.make(k3)).data
        for t in range(shift + half, t_len - half):
            assert np.max(np.abs(moved[:, t] - base[:, t - shift])) < 1e-12


class TestRelu:
    def test_basic(self):
        assert np.array_equal(relu(t2([[-1.0, 0.0, 2.0]])).data, [[0.0, 0.0, 2.0]])

    def test_all_negative(self):
        assert np.array_equal(relu(t2([[-3.0, -0.5]])).data, [[0.0, 0.0]])

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 6))
        expect = np.array([[max(0.0, v) for v in row] for row in x])
        assert np.array_equal(relu(t2(x)).data, expect)


class TestStackingAndSlicing:
    def test_hstack_then_slice_roundtrip(self):
        a, b = t2([[1.0], [2.0]]), t2([[3.0, 4.0], [5.0, 6.0]])
        cat = hstack([a, b])
        assert cat.shape == (2, 3)
        assert np.array_equal(slice_cols(cat, 1, 3).data, b.data)

    def test_hstack_with_empty(self):
        empty = Tensor2.zeros(2, 0)
        cat = hstack([empty, t2([[1.0], [2.0]])])
        assert cat.shape == (2, 1)

    def test_vstack_slice_rows(self):
        a, b = t2([[1.0, 2.0]]), t2([[3.0, 4.0]])
        cat = vstack([a, b])
        assert np.array_equal(slice_rows(cat, 1, 2).data, b.data)

    def test_select_cols(self):
        x = t2([[1.0, 2.0, 3.0]])
        assert np.array_equal(select_cols(x, np.array([2, 0])).data, [[3.0, 1.0]])

    def test_row_mismatch(self):
        with pytest.raises(ShapeError):
            hstack([t2([[1.0]]), t2([[1.0], [2.0]])])


# primitives without a head axis; each gets a (2, 2, 3) head-batched operand
TWO_D_ONLY = {
    "slice_cols": lambda x: slice_cols(x, 0, 1),
    "slice_rows": lambda x: slice_rows(x, 0, 1),
    "vstack": lambda x: vstack([x, x]),
    "select_cols": lambda x: select_cols(x, np.array([0])),
    "conv1d": lambda x: conv1d(x, ConvKernels(Tensor2(np.ones((1, 6))), c_in=2, k=3)),
    "row_normalize": lambda x: row_normalize(relu(x)),
    "rms_norm_cols": lambda x: rms_norm_cols(x, Tensor2(np.ones((2, 1)))),
    "embedding_lookup": lambda x: embedding_lookup(x, np.array([0])),
    "cross_entropy_cols": lambda x: cross_entropy_cols(x, np.zeros(3, dtype=int)),
}


class TestRankGuard:
    @pytest.mark.parametrize("op", sorted(TWO_D_ONLY))
    def test_head_batched_operand_rejected(self, op):
        x = head_batched(np.random.default_rng(13), 2, 2, 3)
        with pytest.raises(ShapeError, match=f"{op}: needs 2-D"):
            TWO_D_ONLY[op](x)


class TestRowNormalize:
    def test_plain_rows(self):
        out = row_normalize(t2([[1.0, 3.0]]))
        assert np.allclose(out.data, [[0.25, 0.75]])

    def test_dead_row_fallback_is_uniform(self):
        out = row_normalize(t2([[0.0, 0.0, 0.0, 0.0]]))
        assert np.max(np.abs(out.data - 0.25)) < 1e-12
        assert abs(out.data.sum() - 1.0) < 1e-12

    def test_negative_rejected(self):
        with pytest.raises(NumericsError):
            row_normalize(t2([[-1.0, 2.0]]))


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = Tensor2.zeros(4, 3)
        loss = cross_entropy_cols(logits, np.array([0, 1, 2]))
        assert abs(loss.data[0, 0] - np.log(4.0)) < 1e-12

    def test_matches_scalar_logsumexp(self):
        rng = np.random.default_rng(9)
        d = rng.standard_normal((5, 4))
        targets = np.array([1, 0, 4, 2])
        expect = 0.0
        for j, t in enumerate(targets):
            col = d[:, j]
            expect += np.log(np.sum(np.exp(col - col.max()))) + col.max() - col[t]
        expect /= 4
        got = cross_entropy_cols(t2(d), targets).data[0, 0]
        assert abs(got - expect) < 1e-12


class TestEmbeddingAndNorm:
    def test_lookup_gathers_columns(self):
        table = t2([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        out = embedding_lookup(table, np.array([2, 0, 2]))
        assert np.array_equal(out.data, [[3.0, 1.0, 3.0], [6.0, 4.0, 6.0]])

    def test_rms_norm_unit_scale(self):
        x = t2([[3.0], [4.0]])
        gain = t2([[1.0], [1.0]])
        out = rms_norm_cols(x, gain)
        rms = np.sqrt(np.mean(out.data ** 2))
        assert abs(rms - 1.0) < 1e-6


def fd_check(build_loss, params, h=1e-5, rel_tol=1e-4, n_probe=None, seed=0):
    """Compare tape gradients against central finite differences.

    ``build_loss`` runs the forward pass and returns a 1x1 Tensor2; ``params``
    are the trainable tensors to probe. Probes every entry unless ``n_probe``
    limits to a random sample.
    """
    with GradTape() as tape:
        loss = build_loss()
    grads = backward(tape, 1.0, output=loss)
    rng = np.random.default_rng(seed)
    for p in params:
        g = grads[p]
        idxs = list(np.ndindex(p.shape))
        if n_probe is not None and len(idxs) > n_probe:
            idxs = [idxs[i] for i in rng.choice(len(idxs), n_probe, replace=False)]
        for idx in idxs:
            orig = p.data[idx]
            p.data[idx] = orig + h
            hi = build_loss().data[0, 0]
            p.data[idx] = orig - h
            lo = build_loss().data[0, 0]
            p.data[idx] = orig
            fd = (hi - lo) / (2 * h)
            rel = abs(g[idx] - fd) / (abs(g[idx]) + 1e-8)
            assert rel < rel_tol, f"grad mismatch at {idx}: analytic={g[idx]}, fd={fd}"


class TestGradients:
    def test_matmul_chain(self):
        rng = np.random.default_rng(0)
        w = rand(rng, 3, 4, trainable=True)
        x = rand(rng, 4, 5)
        tgt = rng.standard_normal((3, 5))

        def loss():
            diff = add(matmul(w, x), t2(-tgt))
            sq = cross_entropy_cols(diff, np.zeros(5, dtype=int))
            return sq

        fd_check(loss, [w])

    def test_softmax_attention_composition(self):
        rng = np.random.default_rng(1)
        wq = rand(rng, 4, 4, trainable=True)
        x = rand(rng, 4, 6)
        k = rand(rng, 4, 6)
        v = rand(rng, 4, 6)

        def loss():
            q = matmul(wq, x)
            probs = softmax_cols(scale(matmul(transpose(k), q), 0.5))
            out = matmul(v, probs)
            return cross_entropy_cols(out, np.array([1, 0, 3, 2, 1, 0]))

        fd_check(loss, [wq])

    def test_conv_and_row_normalize(self):
        rng = np.random.default_rng(2)
        k3 = rng.standard_normal((3, 2, 3)) * 0.5
        w = Tensor2(k3.reshape(3, 6), requires_grad=True)
        kern = ConvKernels(w, c_in=2, k=3)
        x = rand(rng, 2, 7)

        def loss():
            raw = relu(conv1d(x, kern))
            weights = row_normalize(raw)
            return cross_entropy_cols(weights, np.array([0, 1, 2, 0, 1, 2, 0]))

        fd_check(loss, [w])

    def test_rms_norm_and_embedding(self):
        rng = np.random.default_rng(3)
        table = rand(rng, 4, 7, trainable=True)
        gain = Tensor2(np.ones((4, 1)), requires_grad=True)
        ids = np.array([0, 3, 6, 3])

        def loss():
            emb = embedding_lookup(table, ids)
            normed = rms_norm_cols(emb, gain)
            return cross_entropy_cols(normed, np.array([1, 2, 0, 3]))

        fd_check(loss, [table, gain], n_probe=10)

    @pytest.mark.parametrize("n_cached", [0, 3])
    def test_head_batched_attention(self, n_cached):
        # the layer step's path: cached keys/values plus a rotated new block
        rng = np.random.default_rng(5)
        n_heads, head_dim, b = 2, 4, 3
        d, rope = n_heads * head_dim, RopeConfig()
        q, k_new, v_new = (rand(rng, d, b, trainable=True) for _ in range(3))
        k_cached, v_cached = (rand(rng, d, n_cached, trainable=True) for _ in range(2))
        positions = n_cached + np.arange(b)

        def loss():
            qh, kc, kn, vc, vn = (
                split_heads(x, n_heads, head_dim) for x in (q, k_cached, k_new, v_cached, v_new)
            )
            out = attend(
                apply_rope(qh, positions, rope),
                hstack([kc, apply_rope(kn, positions, rope)]),
                hstack([vc, vn]),
                n_cached,
            )
            return cross_entropy_cols(merge_heads(out), np.array([1, 6, 3]))

        fd_check(loss, [q, k_new, v_new, k_cached, v_cached])

    @pytest.mark.parametrize("n_cached", [0, 3])
    def test_context_buffer_extension(self, n_cached):
        # the decode path: two chunks extend one in-place context buffer
        rng = np.random.default_rng(6)
        n_heads, head_dim, chunks = 2, 4, (2, 1)
        d = n_heads * head_dim
        k_cached, v_cached = (rand(rng, d, n_cached, trainable=True) for _ in range(2))
        qs, ks, vs = ([rand(rng, d, b, trainable=True) for b in chunks] for _ in range(3))

        def loss():
            stream = LayerStream(PolicySpec("concat").build(), KvCache.empty(d), sum(chunks))
            stream.open_context(*(split_heads(x, n_heads, head_dim) for x in (k_cached, v_cached)))
            outs, n_context = [], n_cached
            for q, k, v in zip(qs, ks, vs):
                context_k, context_v = stream.extend_context(
                    split_heads(k, n_heads, head_dim), split_heads(v, n_heads, head_dim)
                )
                outs.append(attend(split_heads(q, n_heads, head_dim), context_k, context_v,
                                   n_context))
                n_context += q.cols
            return cross_entropy_cols(merge_heads(hstack(outs)), np.array([1, 6, 3]))

        fd_check(loss, [k_cached, v_cached, *qs, *ks, *vs])

    def test_relu_vstack_select(self):
        rng = np.random.default_rng(4)
        a = rand(rng, 2, 5, trainable=True)
        b = rand(rng, 3, 5, trainable=True)

        def loss():
            cat = vstack([relu(a), b])
            picked = select_cols(cat, np.array([0, 2, 2, 4]))
            return cross_entropy_cols(picked, np.array([0, 1, 2, 3]))

        fd_check(loss, [a, b])


class TestTapeProtocol:
    def test_no_recording_without_trainable(self):
        with GradTape() as tape:
            matmul(t2([[1.0]]), t2([[2.0]]))
        assert len(tape) == 0

    def test_records_when_either_operand_trainable(self):
        with GradTape() as tape:
            matmul(t2([[1.0]], trainable=True), t2([[2.0]]))
        assert len(tape) == 1

    def test_replay_twice_without_reset(self):
        w = t2([[1.0]], trainable=True)
        with GradTape() as tape:
            out = scale(w, 2.0)
        backward(tape, 1.0, output=out)
        with pytest.raises(TapeError):
            backward(tape, 1.0, output=out)
        tape.reset()
        assert len(tape) == 0

    def test_zero_upstream_contributes_zero(self):
        w = t2([[1.0]], trainable=True)
        with GradTape() as tape:
            used = scale(w, 3.0)
            scale(used, 10.0)  # dangling op, never reaches the loss
            loss = cross_entropy_cols(vstack([used, scale(used, 0.0)]), np.array([0]))
        grads = backward(tape, 1.0, output=loss)
        assert w in grads

    def test_gradient_accumulates_across_uses(self):
        w = t2([[2.0]], trainable=True)
        with GradTape() as tape:
            out = add(scale(w, 1.0), scale(w, 1.0))
            loss = cross_entropy_cols(vstack([out, Tensor2.zeros(1, 1)]), np.array([1]))
        grads = backward(tape, 1.0, output=loss)
        assert grads[w].shape == (1, 1)

    def test_scalar_seed_needs_scalar_output(self):
        w = t2([[1.0, 2.0]], trainable=True)
        with GradTape() as tape:
            out = scale(w, 2.0)
        with pytest.raises(ShapeError):
            backward(tape, 1.0, output=out)
