"""Tiny byte-level decoder-only transformer that hosts the cache policies.

Pre-norm residual blocks with rotary attention and a ReLU MLP, a byte
vocabulary of 256, and a tied input/output embedding. Long inputs are
processed block by block against per-layer KV caches, so the attention
working set stays at block x (cache + block) regardless of sequence length;
which cache columns survive between blocks is entirely the policy's call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import (
    AttentionParams,
    RopeConfig,
    apply_rope,
    attend,
    merge_heads,
    project_qkv,
    split_heads,
)
from .cache import CacheError, KvCache
from .compressor import ConvHead, new_conv_head
from .numerics import (
    NonFiniteError,
    ShapeError,
    Tensor2,
    add,
    cross_entropy_cols,
    custom_op,
    hstack,
    matmul,
    relu,
    rms_norm_cols,
    select_cols,
    slice_cols,
    transpose,
)
from .policies import LayerPolicy, PolicySpec

BYTE_VOCAB = 256


@dataclass(frozen=True)
class ModelConfig:
    """Architecture knobs; defaults are the desk-scale test model."""

    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 2
    head_dim: int = 32
    vocab_size: int = BYTE_VOCAB
    max_context: int = 4096
    mlp_ratio: int = 4
    rope_base: float = 10000.0
    interpolation_scale: float = 1.0

    def __post_init__(self):
        if self.vocab_size != BYTE_VOCAB:
            raise ValueError(f"vocab is byte-level, must be {BYTE_VOCAB}")
        if self.d_model != self.n_heads * self.head_dim:
            raise ValueError(
                f"d_model ({self.d_model}) must equal n_heads*head_dim "
                f"({self.n_heads}*{self.head_dim})"
            )
        if self.head_dim % 2 != 0:
            raise ValueError("head_dim must be even for rotary embedding")
        if min(self.n_layers, self.max_context, self.mlp_ratio) < 1:
            raise ValueError("n_layers, max_context and mlp_ratio must be positive")
        if self.interpolation_scale < 1.0:
            raise ValueError("interpolation_scale must be >= 1")

    @property
    def rope(self) -> RopeConfig:
        return RopeConfig(self.rope_base, self.interpolation_scale)

    @property
    def context_limit(self) -> int:
        return int(self.max_context * self.interpolation_scale)


@dataclass
class LayerParams:
    attn: AttentionParams
    attn_gain: Tensor2
    mlp_gain: Tensor2
    mlp_in: Tensor2
    mlp_out: Tensor2


@dataclass
class ModelParams:
    """All weights, plus the optional per-layer compression heads."""

    config: ModelConfig
    embed: Tensor2
    layers: list[LayerParams]
    final_gain: Tensor2
    conv_heads: list[ConvHead] | None = None

    @classmethod
    def init(cls, config: ModelConfig, seed: int = 0) -> "ModelParams":
        rng = np.random.default_rng(seed)
        scale = 0.02

        def w(rows, cols):
            return Tensor2(rng.normal(0.0, scale, size=(rows, cols)))

        def gain(rows):
            return Tensor2(np.ones((rows, 1)))

        d, hidden = config.d_model, config.d_model * config.mlp_ratio
        layers = []
        for _ in range(config.n_layers):
            attn = AttentionParams(
                w(d, d), w(d, d), w(d, d), w(d, d),
                n_heads=config.n_heads, head_dim=config.head_dim,
            )
            layers.append(LayerParams(attn, gain(d), gain(d), w(hidden, d), w(d, hidden)))
        return cls(config, w(d, config.vocab_size), layers, gain(d))

    def named_base(self) -> list[tuple[str, Tensor2]]:
        """Deterministic (name, tensor) listing of the base weights."""
        out = [("embed", self.embed)]
        for i, layer in enumerate(self.layers):
            prefix = f"layers.{i}"
            out.append((f"{prefix}.attn_gain", layer.attn_gain))
            for name, tensor in layer.attn.tensors():
                out.append((f"{prefix}.attn.{name}", tensor))
            out.append((f"{prefix}.mlp_gain", layer.mlp_gain))
            out.append((f"{prefix}.mlp_in", layer.mlp_in))
            out.append((f"{prefix}.mlp_out", layer.mlp_out))
        out.append(("final_gain", self.final_gain))
        return out

    def named_conv(self) -> list[tuple[str, Tensor2]]:
        if self.conv_heads is None:
            return []
        return [
            (f"conv_heads.{i}.kernels", head.kernels.weights)
            for i, head in enumerate(self.conv_heads)
        ]

    def base_fingerprint(self) -> bytes:
        return b"".join(t.data.tobytes() for _, t in self.named_base())

    def set_trainable(self, which: str) -> list[tuple[str, Tensor2]]:
        """Mark 'base', 'conv', or 'none' tensors trainable; returns that set."""
        for _, t in self.named_base():
            t.requires_grad = False
        for _, t in self.named_conv():
            t.requires_grad = False
        chosen: list[tuple[str, Tensor2]] = []
        if which == "base":
            chosen = self.named_base()
        elif which == "conv":
            if self.conv_heads is None:
                raise CacheError("no conv heads to train")
            chosen = self.named_conv()
        elif which != "none":
            raise ValueError(f"unknown trainable set {which!r}")
        for _, t in chosen:
            t.requires_grad = True
        return chosen

    def install_conv_heads(
        self,
        slots: int,
        kernel_size: int,
        seed: int = 0,
        relu_position: str = "post",
    ) -> None:
        rng = np.random.default_rng(seed)
        self.conv_heads = [
            new_conv_head(
                self.config.d_model, slots, kernel_size,
                rng=rng, relu_position=relu_position, layer_index=i,
            )
            for i in range(self.config.n_layers)
        ]

    def drop_conv_heads(self) -> None:
        self.conv_heads = None


def build_layer_policies(
    params: ModelParams, spec: PolicySpec, block_size: int
) -> list[LayerPolicy]:
    spec.check_block_size(block_size)
    if spec.needs_conv_head:
        if params.conv_heads is None:
            raise CacheError(
                f"policy {spec.name!r} needs conv heads but the model has none; "
                "calibrate first or pick an eviction policy"
            )
        if len(params.conv_heads) != params.config.n_layers:
            raise CacheError(
                f"policy {spec.name!r} needs one conv head per layer: the model has "
                f"{params.config.n_layers} layers and {len(params.conv_heads)} heads"
            )
        return [spec.build(head) for head in params.conv_heads]
    return [spec.build() for _ in range(params.config.n_layers)]


def _extend_cols(context: Tensor2, buffer: np.ndarray, x: Tensor2) -> Tensor2:
    """``hstack([context, x])`` as a view of ``buffer``, which holds ``context``.

    The columns of ``x`` are written just past ``context``, so no earlier view
    of ``buffer`` changes; the vjp is hstack's.
    """
    n, b = context.cols, x.cols
    buffer[..., n:n + b] = x.data

    def vjp(g):
        return g[..., :n], g[..., n:]

    return custom_op([context, x], buffer[..., :n + b], vjp)


class LayerStream:
    """One layer's streaming state: the policy's cache plus staged columns.

    Up to B raw key/value columns wait in the staging buffer, head-batched as
    (H, head_dim, b) chunks, until a flush hands them to the policy as one
    (H * head_dim, B) block, so the cache changes once per block however the
    tokens arrive. Queries attend to cache + staged columns + their own
    chunk: at most M + B columns per head for a bounded policy. ``context``
    is one (keys, values) pair of (H, head_dim, n) tensors holding the cache
    + staged columns, keys rotated as attention sees them. Both are views
    into one buffer per tensor of n_cached + B columns, filled from the cache
    once per flush and extended in place by each chunk, so a decode step
    copies its own column only. ``mass``, for policies that keep keys by it,
    is allocated beside the buffers with n_cached + B zeros and sums the
    attention each context column drew from the staged queries, over heads.
    """

    def __init__(self, policy: LayerPolicy, cache: KvCache, block_size: int):
        self.policy = policy
        self.cache = cache
        self.block_size = block_size
        self.staged_k: list[Tensor2] = []
        self.staged_v: list[Tensor2] = []
        self.mass: np.ndarray | None = None
        self.context: tuple[Tensor2, Tensor2] | None = None
        self._buffers: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def n_staged(self) -> int:
        return sum(k.cols for k in self.staged_k)

    def open_context(self, keys: Tensor2, values: Tensor2) -> None:
        """Start a flush cycle's context from the cache's (H, head_dim, n) columns."""
        self.context = (keys, values)
        self._buffers = tuple(
            np.empty(c.shape[:-1] + (c.cols + self.block_size,)) for c in self.context
        )
        for buffer, c in zip(self._buffers, self.context):
            buffer[..., :c.cols] = c.data
        if self.policy.needs_probs:
            self.mass = np.zeros(keys.cols + self.block_size)

    def extend_context(self, keys: Tensor2, values: Tensor2) -> tuple[Tensor2, Tensor2]:
        """Append a chunk's keys (rotated) and values to the context, in place."""
        self.context = tuple(
            _extend_cols(c, buffer, x)
            for c, buffer, x in zip(self.context, self._buffers, (keys, values))
        )
        return self.context

    def stage(self, k: Tensor2, v: Tensor2, attn_probs: np.ndarray | None) -> None:
        """Add one chunk; the rows of ``attn_probs`` span cache + staged + chunk
        columns."""
        self.staged_k.append(k)
        self.staged_v.append(v)
        if attn_probs is not None:
            self.mass[:len(attn_probs)] += attn_probs.sum(axis=1)

    def flush(self, detach_cache: bool) -> None:
        """Hand the staged columns to the policy as one block."""
        k, v = (
            merge_heads(parts[0] if len(parts) == 1 else hstack(parts))
            for parts in (self.staged_k, self.staged_v)
        )
        probs = None if self.mass is None else self.mass[:self.context[0].cols, None]
        cache = self.policy.update(self.cache, k, v, attn_probs=probs)
        self.cache = cache.detach() if detach_cache else cache
        self.staged_k, self.staged_v, self.mass = [], [], None
        self.context = self._buffers = None


def _layer_step(
    layer: LayerParams,
    h: Tensor2,
    stream: LayerStream,
    positions: np.ndarray,
    rope: RopeConfig,
    flush: bool,
    detach_cache: bool,
) -> tuple[Tensor2, int]:
    """One residual block over one chunk of tokens; returns attn matrix entries.

    The chunk attends to the layer's cache and staged columns, then joins the
    staged columns; ``flush`` hands them to the policy. Every head runs in
    the same op calls, on a leading head axis.
    """
    n_heads, head_dim = layer.attn.n_heads, layer.attn.head_dim
    policy = stream.policy
    b = h.cols
    n_cached = stream.cache.live_entries
    n_context = n_cached + stream.n_staged

    normed = rms_norm_cols(h, layer.attn_gain)
    q, k, v = (split_heads(x, n_heads, head_dim) for x in project_qkv(normed, layer.attn))

    if stream.context is None:
        cached_keys = split_heads(stream.cache.keys, n_heads, head_dim)
        if policy.slot_relative_positions and n_cached:
            # rolling positions: everything is rotated by its cache slot index
            cached_keys = apply_rope(cached_keys, np.arange(n_cached), rope)
        stream.open_context(cached_keys, split_heads(stream.cache.values, n_heads, head_dim))
    if policy.slot_relative_positions:
        q_pos = n_context + np.arange(b)
        k_rot = apply_rope(k, q_pos, rope)
        k_for_cache = k  # unrotated; slots get fresh positions every block
    else:
        q_pos = positions  # cached keys are already rotated at their absolute positions
        k_rot = apply_rope(k, positions, rope)
        k_for_cache = k_rot
    q_rot = apply_rope(q, q_pos, rope)

    context_k, context_v = stream.extend_context(k_rot, v)
    mass = None
    if policy.needs_probs:
        out, probs = attend(q_rot, context_k, context_v, n_context, return_probs=True)
        mass = probs.data.sum(axis=0)
    else:
        out = attend(q_rot, context_k, context_v, n_context)
    h = add(h, matmul(layer.attn.w_o, merge_heads(out)))

    mlp_normed = rms_norm_cols(h, layer.mlp_gain)
    h = add(h, matmul(layer.mlp_out, relu(matmul(layer.mlp_in, mlp_normed))))

    stream.stage(k_for_cache, v, mass)
    if flush:
        stream.flush(detach_cache)
    return h, (n_context + b) * b


def _forward_chunk(
    params: ModelParams,
    streams: list[LayerStream],
    tokens: np.ndarray,
    positions: np.ndarray,
    block: int,
    flush: bool,
    detach_cache: bool = False,
    unembed: Tensor2 | None = None,
) -> tuple[Tensor2, list[int]]:
    """Logits of one chunk that stays within ``block``, plus attn entries per layer.

    ``unembed`` is ``transpose(params.embed)`` when the caller already made
    it. A NonFiniteError inside a layer, or a layer output that overflows, is
    raised again naming the block and the layer.
    """
    rope = params.config.rope
    h = select_cols(params.embed, tokens)
    attn_entries = []
    for index, (layer, stream) in enumerate(zip(params.layers, streams)):
        try:
            h, entries = _layer_step(layer, h, stream, positions, rope, flush, detach_cache)
            # NaN/inf, or an entry whose square overflows (the next RMS norm would
            # silently zero its column), makes the sum of squares non-finite
            if not np.isfinite(np.vdot(h.data, h.data)):
                raise NonFiniteError("residual stream overflowed")
        except NonFiniteError as exc:
            raise NonFiniteError(f"{exc} at block {block}, layer {index}") from exc
        attn_entries.append(entries)
    final = rms_norm_cols(h, params.final_gain)
    if unembed is None:
        unembed = transpose(params.embed)
    return matmul(unembed, final), attn_entries


def _open_streams(params: ModelParams, policy: PolicySpec, block_size: int) -> list[LayerStream]:
    return [
        LayerStream(lp, lp.empty_cache(params.config.d_model), block_size)
        for lp in build_layer_policies(params, policy, block_size)
    ]


def _token_ids(params: ModelParams, tokens: np.ndarray, what: str) -> np.ndarray:
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim != 1:
        raise ShapeError(f"{what} must be a 1-D sequence of token ids")
    if tokens.size == 0:
        raise ValueError(f"{what} must not be empty")
    if tokens.max() >= params.config.vocab_size:
        raise ValueError(f"token id {tokens.max()} out of range for byte vocab")
    if tokens.min() < 0:
        raise ValueError("negative token id")
    return tokens


def _blocks(n_tokens: int, block_size: int):
    """(start, stop, absolute positions) of each block of ``block_size`` tokens.

    The last block may come up short. Checks run on the call.
    """
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")

    def blocks():
        for start in range(0, n_tokens, block_size):
            stop = min(start + block_size, n_tokens)
            yield start, stop, np.arange(start, stop)

    return blocks()


def forward_segmented(
    params: ModelParams,
    tokens: np.ndarray,
    policy: PolicySpec,
    block_size: int,
    *,
    trace=None,
    block_offset: int = 0,
    detach_cache: bool = False,
) -> tuple[Tensor2, list[KvCache]]:
    """Run the model over ``tokens`` in blocks, returning logits per position.

    Every block, a short final one included, goes through the policy once it
    has been attended to; the returned caches hold the whole sequence. When
    ``trace`` is given, one record per (block, layer) of live cache entries
    and allocated attention-score entries is appended via its
    ``record_block`` hook. ``detach_cache`` cuts the gradient graph at block
    boundaries during calibration. A layer output that overflows raises
    NonFiniteError naming the block (counted from ``block_offset``, as in the
    trace) and the layer.
    """
    tokens = _token_ids(params, tokens, "token sequence")
    blocks = _blocks(tokens.size, block_size)
    streams = _open_streams(params, policy, block_size)
    logit_blocks = []
    for block_index, (start, stop, positions) in enumerate(blocks):
        block = block_offset + block_index
        logits, attn_entries = _forward_chunk(
            params, streams, tokens[start:stop], positions, block, True, detach_cache
        )
        logit_blocks.append(logits)
        if trace is not None:
            caches = [s.cache for s in streams]
            trace.record_block(block, caches, attn_entries, stop)
    logits = logit_blocks[0] if len(logit_blocks) == 1 else hstack(logit_blocks)
    return logits, [s.cache for s in streams]


def sequence_loss(
    params: ModelParams,
    tokens: np.ndarray,
    policy: PolicySpec,
    block_size: int,
    *,
    detach_cache: bool = False,
) -> Tensor2:
    """Mean next-token cross entropy over one sequence."""
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.size < 2:
        raise ValueError("need at least two tokens for a next-token loss")
    logits, _ = forward_segmented(params, tokens, policy, block_size, detach_cache=detach_cache)
    return cross_entropy_cols(slice_cols(logits, 0, tokens.size - 1), tokens[1:])


def generate(
    params: ModelParams,
    prompt: np.ndarray,
    n_new: int,
    policy: PolicySpec,
    block_size: int,
) -> np.ndarray:
    """Greedy block-buffered decoding.

    The layer policies are built once. The prompt's full blocks are
    pre-filled; its ragged tail and then each new token are staged, and every
    layer's cache is updated once per ``block_size`` tokens, as in
    ``forward_segmented``. Queries attend to the cache plus the staged columns,
    so a bounded policy holds at most M + B columns per head, and the logits
    equal those of ``forward_segmented(prompt + generated[:-1], policy,
    block_size)`` up to summation order. A decode step writes its one key
    and value column into each layer's context buffer (see ``LayerStream``)
    and reuses the unembedding made once per call.

    Ties in the argmax resolve to the lowest byte, so decoding is
    deterministic. The total context must fit max_context * interpolation_scale.
    """
    prompt = _token_ids(params, prompt, "prompt")
    if n_new < 0:
        raise ValueError("n_new must be nonnegative")
    if prompt.size + n_new > params.config.context_limit:
        raise ValueError(
            f"context {prompt.size + n_new} exceeds limit {params.config.context_limit}"
        )
    if n_new == 0:
        return prompt.copy()
    blocks = _blocks(prompt.size, block_size)
    streams = _open_streams(params, policy, block_size)
    unembed = transpose(params.embed)
    for start, stop, positions in blocks:
        logits, _ = _forward_chunk(
            params, streams, prompt[start:stop], positions, start // block_size,
            stop % block_size == 0, unembed=unembed,
        )
    out = list(prompt)
    out.append(int(np.argmax(logits.data[:, -1])))
    for position in range(prompt.size, prompt.size + n_new - 1):
        logits, _ = _forward_chunk(
            params, streams, np.array([out[-1]]), np.array([position]),
            position // block_size, (position + 1) % block_size == 0, unembed=unembed,
        )
        out.append(int(np.argmax(logits.data[:, -1])))
    return np.array(out, dtype=np.int64)


def perplexity(
    params: ModelParams,
    corpus_ids: np.ndarray,
    policy: PolicySpec,
    eval_context_length: int,
    block_size: int,
    *,
    trace=None,
) -> float:
    """exp(mean next-token NLL) over non-overlapping windows of the corpus."""
    ids = np.asarray(corpus_ids, dtype=np.int64)
    if ids.size == 0:
        raise ValueError("empty corpus")
    if eval_context_length < 2:
        raise ValueError("eval_context_length must be at least 2")
    n_windows = ids.size // eval_context_length
    if n_windows == 0:
        raise ValueError(
            f"corpus of {ids.size} tokens is shorter than one window of {eval_context_length}"
        )
    total_nll = 0.0
    total_predictions = 0
    block_offset = 0
    for w in range(n_windows):
        window = ids[w * eval_context_length:(w + 1) * eval_context_length]
        logits, _ = forward_segmented(
            params, window, policy, block_size, trace=trace, block_offset=block_offset
        )
        block_offset += -(-window.size // block_size)
        d = logits.data[:, :-1]
        targets = window[1:]
        m = d.max(axis=0)
        nll = np.log(np.exp(d - m).sum(axis=0)) + m - d[targets, np.arange(targets.size)]
        total_nll += nll.sum()
        total_predictions += targets.size
    return float(np.exp(total_nll / total_predictions))
