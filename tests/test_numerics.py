"""Unit tests for the tensor type, primitives, and the gradient tape."""

import inspect
import multiprocessing
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convkv.attention import (
    AttentionParams,
    _block_mask,
    attend,
)
from convkv import attention, model, numerics
from convkv.cache import KvCache
from convkv.model import ModelConfig, ModelParams, forward_segmented, sequence_loss
from convkv.numerics import (
    ConvKernels,
    GradTape,
    NonFiniteError,
    NumericsError,
    ShapeError,
    TapeError,
    Tensor2,
    add,
    backward,
    conv1d,
    cross_entropy_cols,
    custom_op,
    hstack,
    matmul,
    relu,
    rms_norm_cols,
    row_normalize,
    select_cols,
    softmax_cols,
    transpose,
)
from convkv.policies import PolicySpec

import oracles
from oracles import merge_heads, qkv_at, rope_at, split_heads, vstack


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

    def test_takes_matrices_or_one_leading_axis_of_them(self):
        for shape in ((2, 3), (1, 2, 3), (4, 2, 3)):
            t = Tensor2(np.ones(shape))
            assert t.shape == shape and (t.rows, t.cols) == (2, 3)
            assert t.data.flags["C_CONTIGUOUS"]
        for shape in ((3,), (1, 1, 2, 3)):
            with pytest.raises(ShapeError, match="\\(rows, cols\\) or \\(n, rows, cols\\)"):
                Tensor2(np.zeros(shape))
        with pytest.raises(NonFiniteError):
            Tensor2(np.array([[[0.0, np.nan]]]))

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
        out = softmax_cols(t2([[0.0], [0.0]]), mask=np.array([[True], [False]]))
        assert out.data[0, 0] == 0.0
        assert out.data[1, 0] == 1.0

    def test_matches_scalar_oracle(self):
        col = np.array([1.0, 2.0, 3.0])
        out = softmax_cols(t2(col.reshape(3, 1)))
        assert np.max(np.abs(out.data[:, 0] - oracles.softmax_scalar(col))) < 1e-15

    def test_scale_is_applied_before_the_softmax(self):
        rng = np.random.default_rng(4)
        x = head_batched(rng, 2, 5, 3)
        mask = np.zeros((5, 3), dtype=bool)
        mask[4, 0] = True
        out = softmax_cols(x, 0.25, mask)
        col = x.data[1, :, 0] * 0.25
        assert np.max(np.abs(out.data[1, :4, 0] - oracles.softmax_scalar(col[:4]))) < 1e-15
        assert out.data[0, 4, 0] == out.data[1, 4, 0] == 0.0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_scores(self, bad):
        scores = custom_op([], np.array([[bad], [0.0]]), lambda g: ())
        for mask in (None, np.zeros((2, 1), dtype=bool)):
            with pytest.raises(NonFiniteError, match="softmax_cols"):
                softmax_cols(scores, mask=mask)

    def test_fully_masked_column_rejected(self):
        with pytest.raises(NumericsError, match="every entry masked"):
            softmax_cols(t2([[0.0], [0.0]]), mask=np.ones((2, 1), dtype=bool))

    @pytest.mark.parametrize("mask, got", [
        (np.zeros((3, 2), dtype=bool), "bool \\(3, 2\\)"),
        (np.zeros((2, 3)), "float64 \\(2, 3\\)"),  # numpy's TypeError before
        (np.full((2, 3), -np.inf), "float64 \\(2, 3\\)"),  # "every entry masked" before
        ([[False] * 3] * 2, "list \\(2, 3\\)"),
    ], ids=["shape", "float", "float-neg-inf", "list"])
    def test_mask_must_be_bool_of_the_scores_shape(self, mask, got):
        x = t2(np.zeros((2, 3)))
        with pytest.raises(ShapeError, match=f"bool array of shape \\(2, 3\\), got {got}"):
            softmax_cols(x, mask=mask)

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


def kernel_bank(kernels3d) -> ConvKernels:
    """The bank of (c_out, c_in, k) kernels, laid out tap-major."""
    k3 = np.asarray(kernels3d, dtype=np.float64)
    c_out, c_in, k = k3.shape
    return ConvKernels(Tensor2(k3.transpose(0, 2, 1).reshape(c_out, k * c_in)), c_in=c_in, k=k)


class TestConv1d:
    def test_delta_kernel_identity(self):
        kern = kernel_bank([[[0.0, 1.0, 0.0]]])
        out = conv1d(t2([[5.0, -2.0, 7.0]]), [kern])
        assert np.array_equal(out.data, [[5.0, -2.0, 7.0]])

    def test_box_kernel_zero_padding_edges(self):
        kern = kernel_bank([[[1.0, 1.0, 1.0]]])
        out = conv1d(t2([[1.0, 1.0, 1.0, 1.0]]), [kern])
        assert np.array_equal(out.data, [[2.0, 3.0, 3.0, 2.0]])

    def test_matches_sliding_window_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 9))
        k3 = rng.standard_normal((3, 2, 5))
        out = conv1d(t2(x), [kernel_bank(k3)])
        assert np.max(np.abs(out.data - oracles.conv1d_loops(x, k3))) < 1e-12

    def test_channel_mismatch(self):
        kern = kernel_bank([[[0.0, 1.0, 0.0]]])
        with pytest.raises(ShapeError):
            conv1d(t2(np.zeros((2, 4))), [kern])

    def test_no_columns_rejected(self):
        kern = kernel_bank([[[0.0, 1.0, 0.0]]])
        with pytest.raises(ShapeError, match="no columns"):
            conv1d(t2(np.zeros((1, 0))), [kern])

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError):
            ConvKernels(Tensor2(np.zeros((1, 4))), c_in=2, k=2)

    @pytest.mark.parametrize("c_in, k, match", [
        (2.0, 1, "c_in must be an integer, got 2.0"),
        (2, 1.0, "k must be an integer, got 1.0"),
        (2, True, "k must be an integer, got True"),
    ])
    def test_counts_must_be_integers(self, c_in, k, match):
        with pytest.raises(ShapeError, match=f"^{match}$"):
            ConvKernels(Tensor2(np.zeros((1, 2))), c_in=c_in, k=k)
        assert ConvKernels(Tensor2(np.zeros((1, 2))), c_in=np.int64(2), k=np.int64(1)).k == 1

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
        base = conv1d(t2(x), [kernel_bank(k3)]).data
        moved = conv1d(t2(shifted), [kernel_bank(k3)]).data
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
        assert np.array_equal(select_cols(cat, np.arange(1, 3)).data, b.data)

    def test_hstack_with_empty(self):
        empty = Tensor2.zeros(2, 0)
        cat = hstack([empty, t2([[1.0], [2.0]])])
        assert cat.shape == (2, 1)

    def test_vstack_stacks_rows(self):
        a, b = t2([[1.0, 2.0]]), t2([[3.0, 4.0]])
        cat = vstack([a, b])
        assert np.array_equal(cat.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_select_cols(self):
        x = t2([[1.0, 2.0, 3.0]])
        assert np.array_equal(select_cols(x, np.array([2, 0])).data, [[3.0, 1.0]])

    def test_row_mismatch(self):
        with pytest.raises(ShapeError):
            hstack([t2([[1.0]]), t2([[1.0], [2.0]])])


# primitives without a head axis; each gets a (2, 2, 3) head-batched operand
TWO_D_ONLY = {
    "rms_norm_cols": lambda x: rms_norm_cols(x, Tensor2(np.ones((2, 1)))),
    "cross_entropy_cols": lambda x: cross_entropy_cols(x, np.zeros(3, dtype=int)),
}


class TestRankGuard:
    @pytest.mark.parametrize("op", sorted(TWO_D_ONLY))
    def test_head_batched_operand_rejected(self, op):
        x = head_batched(np.random.default_rng(13), 2, 2, 3)
        with pytest.raises(ShapeError, match=f"{op}: needs 2-D"):
            TWO_D_ONLY[op](x)


# primitives that take (n, rows, cols) as n sequences: op(batch)[i] == op(batch[i])
PER_SEQUENCE = {
    "vstack": lambda x: vstack([x, x]),
    "row_normalize": lambda x: row_normalize(relu(x)),
    # the same row of indices for every sequence; a lone sequence takes it 1-D
    "select_cols": lambda x: select_cols(x, np.tile([2, 0, 2], x.shape[:-2] + (1,))),
    "conv1d": lambda x: conv1d(x, [ConvKernels(Tensor2(np.arange(6.0).reshape(1, 6)), c_in=2, k=3)]),
}


def only_sequence(x: Tensor2) -> Tensor2:
    """The (rows, cols) matrix of a (1, rows, cols) batch of one, as an op."""
    return custom_op([x], x.data[0], lambda g: (g[None],))


def weighted_sum(out: Tensor2, weights: np.ndarray) -> Tensor2:
    """sum(out * weights) as a 1x1 op, to pull a gradient through ``out``."""
    return custom_op([out], np.array([[np.sum(out.data * weights)]]), lambda g: (g[0, 0] * weights,))


class TestSequenceAxis:
    @pytest.mark.parametrize("op", sorted(PER_SEQUENCE))
    def test_each_sequence_runs_as_if_alone(self, op):
        rng = np.random.default_rng(14)
        batch = head_batched(rng, 3, 2, 4, trainable=True)
        weights = rng.standard_normal(PER_SEQUENCE[op](batch).shape)
        with GradTape() as tape:
            out = PER_SEQUENCE[op](batch)
            loss = weighted_sum(out, weights)
        grad = backward(tape, loss)[batch]
        for i in range(3):
            alone = t2(batch.data[i], trainable=True)
            with GradTape() as tape:
                one = PER_SEQUENCE[op](alone)
                loss = weighted_sum(one, weights[i])
            assert np.array_equal(one.data, out.data[i])
            np.testing.assert_allclose(backward(tape, loss)[alone], grad[i], rtol=1e-12, atol=1e-12)

    def test_select_cols_picks_a_row_of_indices_per_sequence(self):
        rng = np.random.default_rng(15)
        batch = head_batched(rng, 2, 3, 4, trainable=True)
        weights = rng.standard_normal((2, 3, 2))
        # a repeated column adds up its gradients; rows out of order that repeat
        # nothing, as a merge's block-first columns, need no adding up
        for picks in (np.array([[3, 1], [0, 0]]), np.array([[3, 1], [2, 0]])):
            with GradTape() as tape:
                out = select_cols(batch, picks)
                loss = weighted_sum(out, weights)
            grad = backward(tape, loss)[batch]
            for i in range(2):
                assert np.array_equal(out.data[i], batch.data[i][:, picks[i]])
                want = np.zeros((3, 4))
                np.add.at(want.T, picks[i], weights[i].T)
                assert np.array_equal(grad[i], want)
        # a row for each sequence: one row that every sequence would share is rejected
        for bad in (np.zeros((3, 1), dtype=int), np.zeros((1, 2), dtype=int),
                    np.zeros(1, dtype=int)):
            with pytest.raises(ShapeError, match="select_cols: indices must be 1-D or \\(n, k\\)"):
                select_cols(batch, bad)


# one call per shape or range error of a primitive, with the start of its message
BAD_OPERANDS = {
    "add_shapes_differ": (lambda: add(t2([[1.0]]), t2([[1.0, 2.0]])), "add: shapes differ"),
    "softmax_cols_empty": (lambda: softmax_cols(Tensor2.zeros(0, 2)), "softmax_cols: empty"),
    "conv_kernels_columns": (lambda: ConvKernels(Tensor2.zeros(1, 5), c_in=2, k=3),
                             "kernel bank has 5 columns, expected c_in\\*k = 6"),
    "row_normalize_no_columns": (lambda: row_normalize(Tensor2.zeros(2, 0)),
                                 "row_normalize: no columns"),
    "hstack_nothing": (lambda: hstack([]), "hstack: nothing"),
    "vstack_nothing": (lambda: vstack([]), "vstack: nothing"),
    "vstack_columns_differ": (lambda: vstack([t2([[1.0]]), t2([[1.0, 2.0]])]),
                              "vstack: column counts differ"),
    "select_cols_2d_indices": (lambda: select_cols(t2([[1.0]]), np.zeros((1, 1))),
                               "select_cols: indices must be 1-D"),
    "select_cols_range": (lambda: select_cols(t2([[1.0, 2.0]]), np.array([2])),
                          "select_cols: index out of range"),
    "select_cols_negative": (lambda: select_cols(t2([[1.0, 2.0]]), np.array([-1])),
                             "select_cols: index out of range"),
    "rms_norm_cols_gain": (lambda: rms_norm_cols(t2([[1.0], [2.0]]), t2([[1.0]])),
                           "rms_norm_cols: gain must be 2x1"),
    "cross_entropy_target_count": (lambda: cross_entropy_cols(t2([[1.0, 2.0]]), np.array([0])),
                                   "cross_entropy_cols: need 2 targets"),
    "cross_entropy_no_targets": (lambda: cross_entropy_cols(Tensor2.zeros(2, 0), np.zeros(0)),
                                 "cross_entropy_cols: empty targets"),
    "cross_entropy_target_range": (lambda: cross_entropy_cols(t2([[1.0]]), np.array([1])),
                                   "cross_entropy_cols: target id out of range"),
}


@pytest.mark.parametrize("case", sorted(BAD_OPERANDS))
def test_bad_operands_raise_shape_error(case):
    call, match = BAD_OPERANDS[case]
    with pytest.raises(ShapeError, match=match):
        call()


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

    @pytest.mark.parametrize("row", [[1e308, 1e308], [np.inf, 1.0], [np.nan, 1.0]])
    def test_non_finite_row_sum_rejected(self, row):
        # a row that sums past the float64 range would normalize to 0 or NaN
        x = custom_op([], np.array([[1.0, 3.0], row]), lambda g: ())
        with pytest.raises(NonFiniteError, match="row_normalize: a row sum is not finite"):
            row_normalize(x)


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
        out = select_cols(table, np.array([2, 0, 2]))
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
    grads = backward(tape, loss)
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
            probs = softmax_cols(matmul(transpose(k), q), 0.5)
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
            raw = relu(conv1d(x, [kern]))
            weights = row_normalize(raw)
            return cross_entropy_cols(weights, np.array([0, 1, 2, 0, 1, 2, 0]))

        fd_check(loss, [w])

    def test_rms_norm_and_embedding(self):
        rng = np.random.default_rng(3)
        table = rand(rng, 4, 7, trainable=True)
        gain = Tensor2(np.ones((4, 1)), requires_grad=True)
        ids = np.array([0, 3, 6, 3])

        def loss():
            emb = select_cols(table, ids)
            normed = rms_norm_cols(emb, gain)
            return cross_entropy_cols(normed, np.array([1, 2, 0, 3]))

        fd_check(loss, [table, gain], n_probe=10)

    @pytest.mark.parametrize("n_cached", [0, 3])
    def test_head_batched_attention(self, n_cached):
        # the layer step's path: cached keys/values plus a rotated new block,
        # which is masked when it has several columns and unmasked with one
        rng = np.random.default_rng(5)
        n_heads, head_dim = 2, 4
        d = n_heads * head_dim
        for b in (3, 1):
            q, k_new, v_new = (rand(rng, d, b, trainable=True) for _ in range(3))
            k_cached, v_cached = (rand(rng, d, n_cached, trainable=True) for _ in range(2))
            positions = n_cached + np.arange(b)

            def loss():
                qh, kc, kn, vc, vn = (
                    split_heads(x, n_heads, head_dim)
                    for x in (q, k_cached, k_new, v_cached, v_new)
                )
                out, _ = attend(
                    rope_at(qh, positions),
                    hstack([kc, rope_at(kn, positions)]),
                    hstack([vc, vn]),
                    _block_mask(n_cached, b, b),
                )
                return cross_entropy_cols(only_sequence(merge_heads(out)), np.array([1, 6, 3])[:b])

            fd_check(loss, [q, k_new, v_new, k_cached, v_cached])

    @pytest.mark.parametrize("n_cached", [0, 3])
    def test_context_buffer_extension(self, n_cached):
        # the decode path: the cycle's open, then two chunks extend layer 1's rows
        # of one in-place cycle buffer
        rng = np.random.default_rng(6)
        n_heads, head_dim, chunks = 2, 4, (2, 1)
        d = n_heads * head_dim
        params = ModelParams.zeros(ModelConfig(n_layers=2, n_heads=n_heads, head_dim=head_dim))
        k_cached, v_cached = (Tensor2(rng.standard_normal((2, d, n_cached)), requires_grad=True)
                              for _ in range(2))
        qs, ks, vs = ([rand(rng, d, b, trainable=True) for b in chunks] for _ in range(3))

        def loss():
            stream = model._Streams(params, PolicySpec("concat"), sum(chunks))
            stream.cache = KvCache(k_cached, v_cached)
            stream.open_cycle()
            outs, n_context = [], n_cached
            for q, k, v in zip(qs, ks, vs):
                context_k, context_v = stream.extend_context(
                    1, split_heads(k, n_heads, head_dim), split_heads(v, n_heads, head_dim)
                )
                outs.append(attend(split_heads(q, n_heads, head_dim), context_k, context_v,
                                   _block_mask(n_context, q.cols, q.cols))[0])
                n_context += q.cols
            return cross_entropy_cols(only_sequence(merge_heads(hstack(outs))), np.array([1, 6, 3]))

        fd_check(loss, [k_cached, v_cached, *qs, *ks, *vs])

    def test_slot_relative_open(self):
        # a sink_window open of two sequences turns every layer's cached keys by
        # slot in one rotation; layer 1 of 2 attends, so layer 0's rows get 0
        rng = np.random.default_rng(8)
        n_seq, n_heads, head_dim, n_cached, b = 2, 2, 4, 3, 2
        d = n_heads * head_dim
        params = ModelParams.zeros(ModelConfig(n_layers=2, n_heads=n_heads, head_dim=head_dim))
        k_cached, v_cached = (Tensor2(rng.standard_normal((2 * n_seq, d, n_cached)),
                                      requires_grad=True) for _ in range(2))
        q, k, v = (head_batched(rng, n_seq * n_heads, head_dim, b, trainable=True)
                   for _ in range(3))
        weights = rng.standard_normal((n_seq * n_heads, head_dim, b))

        def loss():
            stream = model._Streams(params, PolicySpec("sink_window", capacity=8, n_sink=2), b,
                                    n_seq=n_seq)
            stream.cache = KvCache(k_cached, v_cached)
            stream.open_cycle()
            context_k, context_v = stream.extend_context(1, k, v)
            return weighted_sum(attend(q, context_k, context_v, _block_mask(n_cached, b, b))[0],
                                weights)

        fd_check(loss, [k_cached, v_cached, q, k, v])
        with GradTape() as tape:
            value = loss()
        grads = backward(tape, value)
        assert not grads[k_cached][:n_seq].any() and grads[k_cached][n_seq:].any()

    @pytest.mark.parametrize("output", ["q_rot", "k_rot", "k", "v"])
    def test_project_qkv_output(self, output):
        rng = np.random.default_rng(7)
        x = rand(rng, 8, 3, trainable=True)
        w_q, w_k, w_v, w_o = (rand(rng, 8, 8, trainable=True) for _ in range(4))
        params = AttentionParams(w_q, w_k, w_v, w_o, n_heads=2, head_dim=4)
        index = ("q_rot", "k_rot", "k", "v").index(output)
        weight = (w_q, w_k, w_k, w_v)[index]

        def loss():
            out = qkv_at(x, params, np.array([3, 4, 5]))[index]
            return cross_entropy_cols(only_sequence(merge_heads(out)), np.array([1, 6, 3]))

        fd_check(loss, [x, weight])
        with GradTape() as tape:
            value = loss()
        assert set(backward(tape, value)) == {x, weight}

    def test_relu_vstack_select(self):
        rng = np.random.default_rng(4)
        a = rand(rng, 2, 5, trainable=True)
        b = rand(rng, 3, 5, trainable=True)

        def loss():
            cat = vstack([relu(a), b])
            picked = select_cols(cat, np.array([0, 2, 2, 4]))
            return cross_entropy_cols(picked, np.array([0, 1, 2, 3]))

        fd_check(loss, [a, b])


class TestFrozenOperandVjp:
    """A two-operand vjp computes no gradient for an operand that needs none."""

    OPS = {
        "matmul": (matmul, (3, 4), (4, 5)),
        "conv1d": (lambda x, w: conv1d(x, [ConvKernels(w, c_in=2, k=3)]), (2, 6), (4, 6)),
        "rms_norm_cols": (rms_norm_cols, (3, 5), (3, 1)),
        "attention scores": (attention._scores, (2, 4, 5), (2, 4, 3)),
    }

    @pytest.mark.parametrize("frozen", [0, 1])
    @pytest.mark.parametrize("op", sorted(OPS))
    def test_frozen_operand_gets_none_and_the_other_the_same_gradient(self, op, frozen):
        build, *shapes = self.OPS[op]
        rng = np.random.default_rng(4)
        data = [rng.standard_normal(shape) for shape in shapes]

        def vjp_with(trainable):
            with GradTape() as tape:
                out = build(*(t2(d, trainable=f) for d, f in zip(data, trainable)))
            ((_, _, vjp),) = tape._entries
            return vjp(np.random.default_rng(5).standard_normal(out.shape))

        both = vjp_with((True, True))
        one = vjp_with(tuple(i != frozen for i in range(2)))
        assert one[frozen] is None
        assert np.array_equal(one[1 - frozen], both[1 - frozen])


    @pytest.mark.parametrize("frozen", ["x", "w_q", "w_k", "w_v"])
    def test_project_qkv_frozen_operand_gets_none(self, frozen):
        rng = np.random.default_rng(4)
        tensors = {name: rand(rng, 8, 8) for name in ("w_q", "w_k", "w_v")}
        tensors["x"] = rand(rng, 8, 3)
        params = AttentionParams(tensors["w_q"], tensors["w_k"], tensors["w_v"],
                                 rand(rng, 8, 8), n_heads=2, head_dim=4)

        def vjps_with(frozen_name):
            for name, t in tensors.items():
                t.requires_grad = name != frozen_name
            with GradTape() as tape:
                qkv_at(tensors["x"], params, np.array([3, 4, 5]))
            g = np.random.default_rng(5).standard_normal((2, 4, 3))
            return [(inputs, vjp(g)) for inputs, _, vjp in tape._entries]

        both, one = vjps_with(None), vjps_with(frozen)
        assert len(both) == len(one) == 4
        for (keys, grads), (_, ref) in zip(one, both):
            for key, gt, gref in zip(keys, grads, ref, strict=True):
                if key is None:  # the tape keys a frozen leaf by None
                    assert gt is None
                else:
                    assert key is not tensors[frozen] and np.array_equal(gt, gref)
        assert any(key is None for keys, _ in one for key in keys)


class TestConvTaps:
    """The forward's one GEMM per tap equals the direct sliding-window sum, and
    the one GEMM over a channel-major im2col that it replaced, to rounding."""

    @pytest.mark.parametrize("side_by_side", [False, True], ids=["inline", "side_by_side"])
    @pytest.mark.parametrize("groups", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("k", [1, 5, 21])
    def test_forward_equals_the_sliding_window_loops(self, k, n, groups, side_by_side):
        rng = np.random.default_rng(k + n + groups)
        c_in, c_out, t_len = 4, 3, 12  # at k = 21 the padding is wider than the input
        x = rng.standard_normal((groups * n, c_in, t_len))
        k3 = rng.standard_normal((groups, c_out, c_in, k))
        with numerics._side_by_side(side_by_side):
            out = conv1d(t2(x), [kernel_bank(bank) for bank in k3])
        for s in range(groups * n):
            assert np.max(np.abs(out.data[s] - oracles.conv1d_loops(x[s], k3[s // n]))) < 1e-12

    @pytest.mark.parametrize("groups", [1, 2])
    @pytest.mark.parametrize("n", [1, 4])
    def test_forward_equals_the_channel_major_im2col_gemm(self, n, groups):
        # the benchmark's merge shape: 64 slots over 128 channels, 80 columns, k = 21
        rng = np.random.default_rng(n + groups)
        x = rng.standard_normal((groups, n, 128, 80))
        k3 = rng.standard_normal((groups, 64, 128, 21))
        with numerics._side_by_side(True):
            out = conv1d(t2(x.reshape(groups * n, 128, 80)), [kernel_bank(bank) for bank in k3])
        for g in range(groups):
            want = oracles.conv1d_channel_major_im2col(x[g], k3[g])
            got = out.data[g * n:(g + 1) * n]
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestConv1dVjp:
    """The kernel gradient, from an im2col rebuilt in the backward pass, and the
    input gradient equal the formulas over one stored im2col bit for bit."""

    @staticmethod
    def vjp_of_conv(x, w, k, g):
        with GradTape() as tape:
            conv1d(x, [ConvKernels(w, c_in=x.rows, k=k)])
        ((_, _, vjp),) = tape._entries
        return vjp(g)

    @pytest.mark.parametrize("k", [1, 21])
    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("c_out", [64, 60])
    @pytest.mark.parametrize("c_in", [128, 20])
    def test_gradients_equal_the_stored_im2col_formulas(self, c_in, c_out, n, k):
        rng = np.random.default_rng(c_in + c_out + n + k)
        t_len = 80

        def inputs(x_trainable, w_trainable):
            x = head_batched(rng, n, c_in, t_len, x_trainable) if n > 1 else rand(rng, c_in, t_len, x_trainable)
            return x, rand(rng, c_out, c_in * k, w_trainable)

        x, w = inputs(True, True)
        g = rng.standard_normal(x.shape[:-2] + (c_out, t_len))
        gx, gw = self.vjp_of_conv(x, w, k, g)
        want_gw, want_gx = oracles.conv1d_vjp_stored_im2col(
            x.data.reshape(n, c_in, t_len), w.data, k, g.reshape(n, c_out, t_len))
        assert np.array_equal(gw, want_gw)
        assert np.array_equal(gx, want_gx.reshape(x.shape))
        x, w = inputs(False, True)
        assert self.vjp_of_conv(x, w, k, g)[0] is None
        x, w = inputs(True, False)
        assert self.vjp_of_conv(x, w, k, g)[1] is None


def helper_threads(monkeypatch, name: str) -> set[int]:
    """The ids of the threads that run the private conv helper ``name`` from now
    on (cleared by the caller): ``_conv_taps`` for the forward, ``_im2col`` for
    the gradients."""
    threads, helper = set(), getattr(numerics, name)

    def spy(*args):
        threads.add(threading.get_ident())
        return helper(*args)

    monkeypatch.setattr(numerics, name, spy)
    return threads


class TestGroupedConv1d:
    """One kernel bank per equal group of the leading axis gives, bit for bit, what
    each group's own call and the stored-im2col vjp formulas give, inline and
    side by side."""

    @pytest.mark.parametrize("side_by_side", [False, True], ids=["inline", "side_by_side"])
    @pytest.mark.parametrize("frozen", [None, "input", "kernels"])
    @pytest.mark.parametrize("groups", [1, 2, 3])
    def test_groups_equal_per_group_calls(self, monkeypatch, groups, frozen, side_by_side):
        rng = np.random.default_rng(groups)
        n, c_in, c_out, k, t_len = 2, 6, 4, 5, 9
        x = head_batched(rng, groups * n, c_in, t_len, trainable=frozen != "input")
        banks = [ConvKernels(rand(rng, c_out, c_in * k, trainable=frozen != "kernels"), c_in=c_in, k=k)
                 for _ in range(groups)]
        g = rng.standard_normal((groups * n, c_out, t_len))
        with GradTape() as tape, numerics._side_by_side(side_by_side):
            out = conv1d(x, banks)
        ((keys, _, vjp),) = tape._entries
        assert len(keys) == 1 + groups  # the input, then each bank's weights
        threads = helper_threads(monkeypatch, "_im2col")
        gx, *gw = vjp(g)  # outside the context: the vjp keeps the forward's choice
        monkeypatch.undo()
        assert len(threads) == (2 if side_by_side and groups > 1 else 1)
        if frozen == "input":
            assert gx is None
        for j, bank in enumerate(banks):
            rows = slice(j * n, (j + 1) * n)
            alone = conv1d(t2(x.data[rows]), [ConvKernels(t2(bank.weights.data), c_in=c_in, k=k)])
            assert np.array_equal(out.data[rows], alone.data)
            want_gw, want_gx = oracles.conv1d_vjp_stored_im2col(x.data[rows], bank.weights.data, k, g[rows])
            if frozen == "kernels":
                assert gw[j] is None
            else:
                assert np.array_equal(gw[j], want_gw)
            if frozen != "input":
                assert np.array_equal(gx[rows], want_gx)

    def test_leading_axis_must_split_into_the_groups(self):
        rng = np.random.default_rng(0)
        banks = [ConvKernels(rand(rng, 4, 6 * 3), c_in=6, k=3) for _ in range(2)]
        with pytest.raises(ShapeError, match="3 sequences do not split into 2 equal groups"):
            conv1d(head_batched(rng, 3, 6, 5), banks)
        with pytest.raises(ShapeError, match="1 sequences do not split into 2 equal groups"):
            conv1d(rand(rng, 6, 5), banks)

    def test_banks_must_share_one_shape(self):
        rng = np.random.default_rng(1)
        banks = [ConvKernels(rand(rng, 4, 6 * 3), c_in=6, k=3), ConvKernels(rand(rng, 4, 6 * 5), c_in=6, k=5)]
        with pytest.raises(ShapeError, match="kernel banks differ in shape"):
            conv1d(head_batched(rng, 2, 6, 5), banks)


class TestConvThreads:
    """Grouped convs run their GEMMs on a pool worker, and nothing public leaves the caller."""

    def test_public_numerics_run_on_the_calling_thread(self, monkeypatch):
        threads: dict[str, set[int]] = {}

        def on_thread(name, fn):
            def wrapped(*args, **kwargs):
                threads.setdefault(name, set()).add(threading.get_ident())
                return fn(*args, **kwargs)
            return wrapped

        public = {fn: name for name, fn in vars(numerics).items()
                  if inspect.isfunction(fn) and fn.__module__ == numerics.__name__
                  and not name.startswith("_")}
        for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "convkv"]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in public:
                    monkeypatch.setattr(module, attr, on_thread(public[value], value))
        for helper in ("_im2col", "_conv_taps"):
            monkeypatch.setattr(numerics, helper, on_thread(helper, getattr(numerics, helper)))
        params, tokens, policy, block = TestTapeMemory.calibration_step()
        assert params.config.n_layers == 2
        with GradTape() as tape:
            loss = sequence_loss(params, tokens, policy, block)
        numerics.backward(tape, loss)
        assert {"conv1d", "backward", "row_normalize"} <= set(threads)
        # only the private conv helpers ran off the caller, on the pool's one worker
        off_main = {name for name, ids in threads.items() if ids != {threading.get_ident()}}
        assert off_main == {"_im2col", "_conv_taps"}
        assert len(threads["_im2col"]) == len(threads["_conv_taps"]) == 2

    def test_multi_token_feeds_merge_side_by_side(self, monkeypatch):
        # a one-sequence prefill's flushes run the layers' convs on two threads; a
        # flush in a one-token feed, a decode step, keeps them on the caller
        params = ModelParams.init(ModelConfig(n_heads=2, head_dim=8), seed=0)
        policy = PolicySpec("lococo", capacity=8)
        params.install_conv_heads(slots=policy.merge_slots, kernel_size=5, seed=0)
        tokens = np.random.default_rng(3).integers(0, 256, size=33)
        threads = helper_threads(monkeypatch, "_conv_taps")
        streams = model._Streams(params, policy, 4)
        streams.feed(tokens[:32])  # 7 flushes, the last block staged
        assert len(threads) == 2
        threads.clear()
        streams.feed(tokens[32:])  # flushes that block
        assert threads == {threading.get_ident()}

    def test_pool_task_error_comes_out_of_conv1d_as_itself(self, monkeypatch):
        rng = np.random.default_rng(2)
        x = head_batched(rng, 4, 6, 7)
        banks = [ConvKernels(rand(rng, 4, 6 * 3), c_in=6, k=3) for _ in range(2)]
        main, raised, conv_taps = threading.get_ident(), [], numerics._conv_taps

        def failing_off_main(*args):
            if threading.get_ident() != main:
                raised.append(RuntimeError("a tap GEMM failed on the worker"))
                raise raised[-1]
            return conv_taps(*args)

        monkeypatch.setattr(numerics, "_conv_taps", failing_off_main)
        with pytest.raises(RuntimeError) as info, numerics._side_by_side(True):
            conv1d(x, banks)
        assert len(raised) == 1 and info.value is raised[0]
        monkeypatch.undo()
        with numerics._side_by_side(True):
            out = conv1d(x, banks)
        for j, bank in enumerate(banks):
            assert np.array_equal(out.data[2 * j:2 * j + 2], conv1d(t2(x.data[2 * j:2 * j + 2]), [bank]).data)


def lococo_prefills() -> list[np.ndarray]:
    """Logits and caches of a 4 x 128 lococo prefill at the benchmark model's merge
    shape (M = 64, B = 16, k = 21: 55M multiply-adds a layer's GEMM), whose grouped
    convs run side by side, then of a one-sequence prefill."""
    params = ModelParams.init(ModelConfig(), seed=0)
    policy = PolicySpec("lococo", capacity=64)
    params.install_conv_heads(slots=policy.merge_slots, kernel_size=21, seed=0)
    rng, out = np.random.default_rng(19), []
    for tokens in (rng.integers(0, 256, size=(4, 128)), rng.integers(0, 256, size=160)):
        logits, caches = forward_segmented(params, tokens, policy, 16)
        out += [logits.data, *(t.data for c in caches for t in (c.keys, c.values))]
    return out


def send_lococo_prefills(conn) -> None:
    conn.send(lococo_prefills())
    conn.close()


class TestForkedChild:
    TIMEOUT_S = 60  # the child's prefills take about a second

    def test_forked_child_runs_side_by_side_convs(self):
        # the parent's worker thread does not survive fork; the child's pool must not wait for it
        want = lococo_prefills()
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)
        child = context.Process(target=send_lococo_prefills, args=(send,))
        child.start()
        send.close()
        try:
            got = receive.recv() if receive.poll(self.TIMEOUT_S) else None
            if got is not None:
                child.join(self.TIMEOUT_S)
        finally:
            if child.is_alive():
                child.terminate()
                child.join()
            receive.close()
        assert got is not None, f"the forked child's prefills did not finish in {self.TIMEOUT_S} s"
        assert child.exitcode == 0
        assert len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))


def traced_allocation(build):
    """(result of ``build()``, bytes it still holds, bytes at its peak), as tracemalloc
    counts them; numpy reports its buffers, so the counts do not depend on timing."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return result, held - base, peak - base


class TestTapeMemory:
    MIB = 2 ** 20

    def test_recorded_conv_keeps_no_im2col(self):
        # the (c_in * k, n * T) im2col is 6.6 MiB, the output 0.16 MiB; the input is made outside
        rng = np.random.default_rng(16)
        x = head_batched(rng, 4, 128, 80)
        kernels = ConvKernels(rand(rng, 64, 128 * 21, trainable=True), c_in=128, k=21)
        with GradTape() as tape:
            out, held, _ = traced_allocation(lambda: conv1d(x, [kernels]))
        assert len(tape) == 1 and out.shape == (4, 64, 80)
        assert held <= 1 * self.MIB

    def test_untaped_forward_builds_no_im2col(self):
        # 2 groups of 4 x (128, 80) at k = 21, inline: one group's im2col would be 6.6 MiB;
        # the output is 0.31 MiB, a group's padded input 0.39 MiB and its tap product 0.16 MiB
        rng = np.random.default_rng(20)
        x = head_batched(rng, 8, 128, 80)
        banks = [ConvKernels(rand(rng, 64, 21 * 128), c_in=128, k=21) for _ in range(2)]
        out, _, peak = traced_allocation(lambda: conv1d(x, banks))
        assert out.shape == (8, 64, 80)
        assert peak <= 1 * self.MIB

    @staticmethod
    def calibration_step():
        """One lococo step of 4 x 128 tokens, B = 16, M = 64, k = 21, conv heads trainable:
        (params, tokens, policy, block size)."""
        params = ModelParams.init(ModelConfig(), seed=0)
        policy = PolicySpec("lococo", capacity=64)
        params.install_conv_heads(slots=policy.merge_slots, kernel_size=21, seed=0)
        for _, t in params.named_conv():
            t.requires_grad = True
        return params, np.random.default_rng(17).integers(0, 256, size=(4, 128)), policy, 16

    @staticmethod
    def pretrain_step():
        """One concat step of 8 x 64 tokens, every base weight trainable."""
        params = ModelParams.init(ModelConfig(), seed=0)
        for _, t in params.named_base():
            t.requires_grad = True
        return params, np.random.default_rng(18).integers(0, 256, size=(8, 64)), PolicySpec("concat"), 64

    @pytest.mark.parametrize("step, bound_mib", [("calibration_step", 12), ("pretrain_step", 11)])
    def test_forward_holds_what_the_vjps_read(self, step, bound_mib):
        # 7.5 and 9.4 MiB; 28.0 and 19.2 MiB with a tape that pins every op output
        params, tokens, policy, block = getattr(self, step)()
        tape = GradTape()

        def forward():
            with tape:
                return sequence_loss(params, tokens, policy, block)

        loss, held, _ = traced_allocation(forward)
        assert held <= bound_mib * self.MIB
        trainable = {t for _, t in params.named_base() + params.named_conv() if t.requires_grad}
        assert set(backward(tape, loss)) == trainable

    @pytest.mark.parametrize("step", ["calibration_step", "pretrain_step"])
    def test_no_vjp_keeps_an_operand_tensor(self, step):
        params, tokens, policy, block = getattr(self, step)()
        with GradTape() as tape:
            sequence_loss(params, tokens, policy, block)
        for _, _, vjp in tape._entries:
            for cell in vjp.__closure__ or ():
                kept = cell.cell_contents
                kept = kept if isinstance(kept, (tuple, list)) else [kept]
                assert not any(isinstance(t, Tensor2) for t in kept), vjp.__qualname__

    def test_calibration_step_peak(self):
        # forward and backward: 27.3 MiB, as each layer's conv gradients run beside the
        # other's (20.1 MiB one after another); 40.4 MiB with a tape that pins every op output
        params, tokens, policy, block = self.calibration_step()

        def step():
            with GradTape() as tape:
                loss = sequence_loss(params, tokens, policy, block)
            return backward(tape, loss)

        grads, _, peak = traced_allocation(step)
        assert {id(t) for t in grads} == {id(t) for _, t in params.named_conv()}
        assert peak <= 28 * self.MIB


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
            out = matmul(w, t2([[2.0]]))
        backward(tape, out)
        with pytest.raises(TapeError, match="record a new tape"):
            backward(tape, out)

    def test_zero_upstream_contributes_zero(self):
        w = t2([[1.0]], trainable=True)
        with GradTape() as tape:
            used = matmul(w, t2([[3.0]]))
            matmul(used, t2([[10.0]]))  # dangling op, never reaches the loss
            loss = cross_entropy_cols(vstack([used, matmul(used, t2([[0.0]]))]), np.array([0]))
        grads = backward(tape, loss)
        assert w in grads

    def test_gradient_accumulates_across_uses(self):
        w = t2([[2.0]], trainable=True)
        with GradTape() as tape:
            out = add(relu(w), relu(w))
            loss = cross_entropy_cols(vstack([out, Tensor2.zeros(1, 1)]), np.array([1]))
        grads = backward(tape, loss)
        assert grads[w].shape == (1, 1)

    @pytest.mark.parametrize("frozen_weight_beside", [False, True])
    def test_output_no_vjp_reads_is_freed_while_recording(self, frozen_weight_beside):
        # relu keeps its mask, and a frozen weight's product keeps only the weight
        rng = np.random.default_rng(6)
        w, x, frozen = rand(rng, 3, 4, trainable=True), rand(rng, 4, 5), rand(rng, 2, 3)
        outputs = []

        def loss():
            h = relu(matmul(w, x)) if frozen_weight_beside else matmul(w, x)
            outputs.append(weakref.ref(h.data))
            return cross_entropy_cols(matmul(frozen, h) if frozen_weight_beside else relu(h),
                                      np.arange(5) % 2)

        with GradTape():
            loss()
            assert outputs[0]() is None
        fd_check(loss, [w])

    def test_result_of_an_earlier_tape_is_a_leaf(self):
        w = t2([[2.0, -1.0]], trainable=True)
        with GradTape():
            h = relu(w)
        with GradTape() as tape:
            loss = cross_entropy_cols(vstack([h, Tensor2.zeros(1, 2)]), np.array([1, 1]))
        grads = backward(tape, loss)
        assert set(grads) == {h}  # w, behind the earlier tape, gets none
        # the loss averages 2 columns; d loss / d h is row 0's softmax weight against the zero row, halved
        assert np.allclose(grads[h], 1 / (1 + np.exp(-h.data)) / 2)
        assert not hasattr(h, "grad")  # the returned dict is the one place gradients live

    def test_empty_tape_cannot_be_replayed(self):
        with GradTape() as tape:
            out = t2([[1.0]], trainable=True)
        with pytest.raises(TapeError, match="tape is empty"):
            backward(tape, out)

    def test_tape_exited_out_of_order(self):
        outer, inner = GradTape(), GradTape()
        with outer:
            inner.__enter__()
            with pytest.raises(TapeError, match="out of order"):
                outer.__exit__(None, None, None)
            inner.__exit__(None, None, None)

    def test_scalar_seed_needs_scalar_output(self):
        w = t2([[1.0, 2.0]], trainable=True)
        with GradTape() as tape:
            out = relu(w)
        with pytest.raises(ShapeError):
            backward(tape, out)
