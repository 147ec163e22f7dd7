"""Tiny byte-level decoder-only transformer that hosts the cache policies.

Pre-norm residual blocks with rotary attention and a ReLU MLP, a byte
vocabulary of 256, and a tied input/output embedding. Long inputs stream
block by block through per-layer KV caches, so the attention working set
stays at block x (cache + block) regardless of sequence length; which cache
columns survive between blocks is the policy's call. Prefill, the training
loss and decoding all feed one ``_Streams``; prefill, perplexity's windows and
the loss run a batch of sequences side by side, one sequence being a batch of
one, so every cache holds (n, d, cols) keys and values and a batch shares
every op and update. The layers' caches are stacked too, layer after layer,
so one policy update per block serves every layer, and a merging policy's
convs run one GEMM per layer. Between two updates every layer's context
(cache plus the block so far) lives in one key and one value buffer, which the
cycle's first chunk opens for every layer at once; the block the policy gets is
joined from the chunks staged since. A full block reaches the policy when the
next token arrives. When it arrives in a feed of more than one token per sequence
(prefill, a decode prompt, eval windows, calibration), the merges come close
together and the layers' GEMMs run side by side on two threads; in a one-token
feed, a decode step, they run inline. Perplexity and the loss share one
next-token cross entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .attention import (
    AttentionParams,
    _block_mask,
    _rope_table,
    apply_rope,
    attend,
    project_qkv,
)
from .cache import KvCache
from .compressor import ConvHead, new_conv_head
from .numerics import (
    NonFiniteError,
    ShapeError,
    Tensor2,
    _is_integer,
    _side_by_side,
    add,
    cross_entropy_cols,
    custom_op,
    hstack,
    matmul,
    relu,
    rms_norm_cols,
    select_cols,
    transpose,
)
from .policies import PolicySpec

BYTE_VOCAB = 256
_EVAL_GROUP_TOKENS = 4096  # per ``perplexity`` group; a sweep found 8192 no faster


@dataclass(frozen=True)
class ModelConfig:
    """Architecture knobs; defaults are the desk-scale test model. The counts
    are integers, not bools, numpy's taken as Python ints; ``d_model``
    (n_heads * head_dim) and ``vocab_size`` (bytes) are no inputs, fields only
    so that a checkpoint header's ``asdict`` lists them. ``interpolation_scale``
    > 1 squeezes rotary positions into the pretrained range (target_context /
    pretrained_context).
    """

    d_model: int = field(init=False)
    n_layers: int = 2
    n_heads: int = 2
    head_dim: int = 32
    vocab_size: int = field(init=False, default=BYTE_VOCAB)
    max_context: int = 4096
    mlp_ratio: int = 4
    rope_base: float = 10000.0
    interpolation_scale: float = 1.0

    def __post_init__(self):
        for name in ("n_layers", "n_heads", "head_dim", "max_context", "mlp_ratio"):
            value = getattr(self, name)
            if not _is_integer(value) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # as a checkpoint's JSON header needs it
        if self.head_dim % 2 != 0:
            raise ValueError("head_dim must be even for rotary embedding")
        if not 0 < self.rope_base < math.inf:  # NaN fails too
            raise ValueError(f"rope base must be positive and finite, got {self.rope_base}")
        if not 1.0 <= self.interpolation_scale < math.inf:
            raise ValueError(f"interpolation_scale must be >= 1 and finite, "
                             f"got {self.interpolation_scale}")
        object.__setattr__(self, "d_model", self.n_heads * self.head_dim)

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
        return cls._build(config, lambda rows, cols: Tensor2(rng.normal(0.0, 0.02, (rows, cols))))

    @classmethod
    def zeros(cls, config: ModelConfig) -> "ModelParams":
        """The layout of ``init`` with every weight 0 (gains 1), drawing nothing."""
        return cls._build(config, Tensor2.zeros)

    @classmethod
    def _build(cls, config: ModelConfig, w) -> "ModelParams":
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


def _rows(x: Tensor2, rows: slice, data: np.ndarray) -> Tensor2:
    """Rows ``rows`` of a stacked (L * n, d, cols) tensor, one layer's, as ``data``,
    which holds them, in that shape or another; the vjp puts the gradient back
    in those rows."""
    full = x.shape

    def vjp(g):
        gx = np.zeros(full)
        gx[rows] = g.reshape(gx[rows].shape)
        return (gx,)

    return custom_op([x], data, vjp)


def _stack_blocks(chunks: list[list[Tensor2]], n_rows: int) -> Tensor2:
    """Every layer's staged (n * H, head_dim, b_i) chunks joined into the one
    (n_rows, d, b) block, n_rows = L * n: a layer's chunks side by side, layer
    after layer. The vjp gives each chunk its part of the gradient."""
    n_layers, first = len(chunks), chunks[0]
    edges = np.cumsum([0] + [c.cols for c in first])
    shape = (n_layers,) + first[0].shape[:-1] + (edges[-1],)
    data = np.empty(shape)
    for layer, parts in zip(data, chunks):
        np.concatenate([c.data for c in parts], axis=-1, out=layer)

    def vjp(g):
        g = g.reshape(shape)
        return tuple(g[i, ..., a:b] for i in range(n_layers) for a, b in zip(edges[:-1], edges[1:]))

    return custom_op([c for parts in chunks for c in parts], data.reshape(n_rows, -1, edges[-1]),
                     vjp)


def _layer_step(
    layer: LayerParams,
    h: Tensor2,
    stream: "_Streams",
    index: int,
    table: tuple[np.ndarray, np.ndarray],
    mask: np.ndarray | None,
) -> Tensor2:
    """One residual block, layer ``index``, over one chunk of tokens.

    One ``project_qkv`` (one QKV GEMM, q and k rotated together) and one
    ``attend`` over the layer's context (its cache and staged columns, which the
    chunk extends), on a leading head axis, then the MLP. The chunk joins the
    staged columns. Per layer it makes only what depends on the layer's input:
    the stacked QKV weights and the open context are the stream's, and the
    rotary ``table`` and causal ``mask`` the chunk's.
    """
    relative = stream.policy.spec.slot_relative
    q_rot, k_rot, k, v = project_qkv(rms_norm_cols(h, layer.attn_gain), layer.attn,
                                     stream.w_qkv[index], table, raw_k=relative)
    context_k, context_v = stream.extend_context(index, k_rot, v)
    out, probs = attend(q_rot, context_k, context_v, mask)
    h = add(h, matmul(layer.attn.w_o, _merge_to_cols(out, stream.n_seq)))

    mlp_normed = rms_norm_cols(h, layer.mlp_gain)
    h = add(h, matmul(layer.mlp_out, relu(matmul(layer.mlp_in, mlp_normed))))

    stream.stage(index, k if relative else k_rot, v, probs)
    return h


def _merge_to_cols(x: Tensor2, n_seq: int) -> Tensor2:
    """(n_seq * n_heads, head_dim, T) attention outputs as (n_heads * head_dim, n_seq * T)
    residual columns, one sequence after another."""
    (n, hd, t), d = x.shape, x.shape[0] // n_seq * x.shape[1]
    return custom_op([x], x.data.reshape(n_seq, d, t).swapaxes(0, 1).reshape(d, n_seq * t),
                     lambda g: (g.reshape(d, n_seq, t).swapaxes(0, 1).reshape(n, hd, t),))


def _forward_chunk(stream: "_Streams", tokens: np.ndarray, block: int) -> Tensor2:
    """Final residual stream of one chunk within ``block``, the stream's next b
    tokens of each sequence, one sequence after another.

    The cycle's first chunk opens it (``_Streams.open_cycle``). What every
    layer of the chunk shares is made once here: the positions, which continue
    the stream's, or the cache's slots for a slot-relative policy (it caches
    keys unrotated), their rotary table, and the causal mask of the chunk
    against its context (None for one token). A NonFiniteError inside a
    layer, or a layer output that overflows, is raised again naming the block
    and the layer.
    """
    params, config, b = stream.params, stream.params.config, tokens.size // stream.n_seq
    n_context = stream.cache.live_entries + stream.n_staged
    if not stream.n_staged:
        stream.open_cycle()
    start = n_context if stream.policy.spec.slot_relative else stream.position
    table = _rope_table(start + np.arange(b), config.head_dim, config.rope_base,
                        config.interpolation_scale)
    mask = _block_mask(n_context, b, b)
    h = select_cols(params.embed, tokens)
    for index, layer in enumerate(params.layers):
        try:
            h = _layer_step(layer, h, stream, index, table, mask)
            # NaN/inf, or an entry whose square overflows (the next RMS norm would
            # silently zero its column), makes the sum of squares non-finite
            if not np.isfinite(np.vdot(h.data, h.data)):
                raise NonFiniteError("residual stream overflowed")
        except NonFiniteError as exc:
            raise NonFiniteError(f"{exc} at block {block}, layer {index}") from exc
    return h


class _Streams:
    """One call's stream of ``n_seq`` sequences, side by side, through every layer:
    feed tokens, get their logits; each op serves every sequence, and each
    policy update every sequence of every layer.

    ``cache`` stacks every layer's cache, (n_layers * n_seq, d, cols), layer
    after layer, and is kept across flushes; ``layer_caches`` shows each
    layer's rows, keys, values and heavy-hitter scores, as an (n_seq, d,
    cols) ``KvCache``. Up to B staged columns wait between flushes: they go
    to the policy when the next token arrives, or when the caller flushes.
    ``feed`` cuts its tokens at block boundaries
    and flushes before a chunk that starts a new block, so the cache changes
    once per block however the tokens arrive, and the last block fed stays
    staged until ``flush``. A flush made in a feed of more than one token per
    sequence runs a merging policy's per-layer convs side by side on two
    threads; one made in a one-token feed, a decode step, or by the caller
    outside ``feed`` runs them inline.

    The policy is bound to the model's heads by ``PolicySpec.build``. What
    depends only on the weights is made once per stream: ``w_qkv``, each
    layer's stacked w_q/w_k/w_v, which ``project_qkv`` multiplies every chunk
    by. The weights do not change within a stream; training updates them
    between streams, and the next stream stacks them again.

    A flush cycle is opened once, for every layer, by ``open_cycle`` when its
    first chunk arrives: its key and value buffers hold every layer's context
    and serve attention only. Each chunk's ``project_qkv`` output then extends
    layer l's context in place (``extend_context``), so a decode step copies
    its own column only, and ``stage`` keeps the chunk's keys, as the cache
    holds them, and values. At flush the staged chunks are joined into the
    block the policy gets, (n_layers * n_seq, H * head_dim, b). Queries attend
    to cache + staged columns + their own chunk: at most M + B columns per
    head for a bounded policy.

    The unembedding is made at its first use and reused; logits that overflow
    raise NonFiniteError naming the block. ``detach_cache`` cuts the gradient
    graph at each flush; ``trace`` gets one ``record_block`` per flush, with
    the attention entries of the block's last chunk, the same for every
    layer: one record per (block, layer) of all sequences.
    """

    def __init__(self, params: ModelParams, policy: PolicySpec, block_size: int, *,
                 n_seq: int = 1, detach_cache: bool = False, trace=None):
        self.params = params
        self.policy = policy.build(params.conv_heads, params.config.n_layers, block_size)
        self.n_seq, self.n_layers = n_seq, params.config.n_layers
        self.cache = self.policy.empty_cache(params.config.d_model, self.n_layers * n_seq)
        self.position = 0
        self.block_size = block_size
        self.detach_cache = detach_cache
        self.trace = trace
        self.unembed: Tensor2 | None = None
        self.w_qkv = [layer.attn.stacked_qkv() for layer in params.layers]
        self._attn_entries = 0
        self._start_cycle()

    def _start_cycle(self) -> None:
        """Nothing staged: the next chunk opens a new cycle."""
        self.n_staged = 0
        self.staged_k: list[list[Tensor2]] = [[] for _ in range(self.n_layers)]
        self.staged_v: list[list[Tensor2]] = [[] for _ in range(self.n_layers)]

    def layer_caches(self) -> list[KvCache]:
        """Every layer's rows of the stacked cache, as views: one (n_seq, d, cols)
        ``KvCache`` per layer."""
        stacked, n = self.cache, self.n_seq
        caches = []
        for rows in (slice(i * n, (i + 1) * n) for i in range(self.n_layers)):
            keys, values = (_rows(t, rows, t.data[rows]) for t in (stacked.keys, stacked.values))
            scores = None if stacked.scores is None else stacked.scores[rows]
            caches.append(KvCache(keys, values, stacked.capacity, stacked.rule, scores))
        return caches

    def open_cycle(self) -> None:
        """Open a flush cycle for every layer: one key and one value buffer of
        (n_layers * n_seq * H, head_dim, n_cached + B), and layer l's context,
        the (n_seq * H, head_dim, n_cached) keys (rotated as attention sees
        them) and values of its rows, as views of them.

        The stacked cache's keys and values reach the buffers in one assignment
        each, through an (n_layers * n_seq, d, cols) view; a slot-relative
        policy's keys first turn by cache slot, every layer's rows in one
        ``apply_rope``. ``mass``, for policies that keep keys by it, is
        (n_layers * n_seq, n_cached + B) and sums the attention each context
        column draws from the staged queries, over heads; its first n_cached + b
        columns are the policy's ``attn_mass``.
        """
        cache, config, layers = self.cache, self.params.config, self.n_layers
        n_cached, n_rows = cache.live_entries, len(cache.keys.data)
        shape = (n_rows * config.n_heads, config.head_dim, n_cached + self.block_size)
        self.buffers = (np.empty(shape), np.empty(shape))
        self.layer_buffers = list(zip(*(np.split(b, layers) for b in self.buffers)))
        self.mass = np.zeros((n_rows, shape[-1])) if self.policy.needs_mass else None
        keys = cache.keys
        if self.policy.spec.slot_relative and n_cached:
            table = _rope_table(np.arange(n_cached), config.head_dim, config.rope_base,
                                config.interpolation_scale)
            keys = apply_rope(_rows(keys, slice(None), keys.data.reshape(shape[:-1] + (-1,))),
                              table)
        for t, buffer in zip((keys, cache.values), self.buffers):
            buffer.reshape(t.shape[:-1] + (-1,))[..., :n_cached] = t.data
        self.contexts = [  # layer l's rows of keys and values, as views of its buffer rows
            [_rows(t, slice(i * len(t.data) // layers, (i + 1) * len(t.data) // layers),
                   b[..., :n_cached]) for t, b in zip((keys, cache.values), buffers)]
            for i, buffers in enumerate(self.layer_buffers)
        ]

    def extend_context(self, index: int, keys: Tensor2, values: Tensor2) -> tuple[Tensor2, Tensor2]:
        """Layer ``index``'s context with a chunk's keys (rotated) and values
        appended in place."""
        self.contexts[index] = context = tuple(
            _extend_cols(c, buffer, x)
            for c, buffer, x in zip(self.contexts[index], self.layer_buffers[index], (keys, values))
        )
        return context

    def stage(self, index: int, k: Tensor2, v: Tensor2, probs: Tensor2) -> None:
        """Add layer ``index``'s chunk, keys as the cache holds them; ``probs``, its
        (n_seq * H, context, queries) attention, adds to the mass when kept."""
        self.staged_k[index].append(k)
        self.staged_v[index].append(v)
        if self.mass is not None:
            n = self.n_seq
            drawn = probs.data.reshape((n, -1) + probs.shape[-2:]).sum(axis=-3)  # over heads
            self.mass[index * n:(index + 1) * n, :drawn.shape[-2]] += drawn.sum(axis=-1)

    def feed(self, tokens: np.ndarray) -> Tensor2:
        """Logits of ``tokens``, (n_seq, T) or (T,), which continue the tokens fed so
        far: chunk after chunk, each chunk's columns one sequence after another."""
        tokens = np.atleast_2d(tokens)
        logits = []
        start, t_len = 0, tokens.shape[1]
        while start < t_len:
            offset = self.position % self.block_size
            if offset == 0 and self.n_staged:
                # a multi-token feed flushes its blocks close together, and a second
                # thread gains; a decode step flushes B feeds after the last flush,
                # when waking the idle conv worker costs more than it saves
                with _side_by_side(t_len > 1):
                    self.flush()
            stop = min(start + self.block_size - offset, t_len)
            b = stop - start
            block = self.position // self.block_size
            h = _forward_chunk(self, tokens[:, start:stop].ravel(), block)
            self._attn_entries = (self.cache.live_entries + self.n_staged + b) * b
            self.n_staged += b
            if self.unembed is None:
                self.unembed = transpose(self.params.embed)
            # the final norm or the unembedding may overflow, which the check below reports
            with np.errstate(over="ignore", invalid="ignore"):
                chunk = matmul(self.unembed, rms_norm_cols(h, self.params.final_gain))
            if not np.isfinite(chunk.data).all():
                raise NonFiniteError(f"logits overflowed at block {block}")
            logits.append(chunk)
            self.position, start = self.position + b, stop
        return logits[0] if len(logits) == 1 else hstack(logits)

    def flush(self) -> None:
        """Hand every layer's staged columns to the policy in one stacked update.

        The block's keys and values, joined from the staged chunks, and for
        policies that keep keys by it the attention mass are stacked as the
        cache is, layer after layer. A NonFiniteError is raised again naming
        the block and, from the row at fault, the layer, as in ``_forward_chunk``.
        """
        block = (self.position - 1) // self.block_size
        k, v = (_stack_blocks(c, len(self.cache.keys.data)) for c in (self.staged_k, self.staged_v))
        mass = None if self.mass is None else self.mass[:, :self.cache.live_entries + self.n_staged]
        try:
            cache = self.policy.update(self.cache, k, v, attn_mass=mass)
        except NonFiniteError as exc:
            layer = "" if exc.index is None else f", layer {exc.index // self.n_seq}"
            raise NonFiniteError(f"{exc} at block {block}{layer}") from exc
        self.cache = cache.detach() if self.detach_cache else cache
        self._start_cycle()
        if self.trace is not None:
            self.trace.record_block(block, self.layer_caches(),
                                    [self._attn_entries] * self.n_layers, self.position)


def _token_ids(params: ModelParams, tokens: np.ndarray, what: str, ndim: int = 1) -> np.ndarray:
    tokens = np.asarray(tokens)
    if tokens.ndim != ndim:
        raise ShapeError(f"{what} must be a {ndim}-D sequence of token ids")
    if tokens.size == 0:
        raise ValueError(f"{what} must not be empty")
    if tokens.dtype.kind not in "iu":  # a float or bool array is no byte sequence
        raise ValueError(f"{what} must hold integer token ids, got dtype {tokens.dtype}")
    tokens = tokens.astype(np.int64, copy=False)
    if tokens.max() >= params.config.vocab_size:
        raise ValueError(f"token id {tokens.max()} out of range for byte vocab")
    if tokens.min() < 0:
        raise ValueError("negative token id")
    return tokens


def forward_segmented(
    params: ModelParams,
    tokens: np.ndarray,
    policy: PolicySpec,
    block_size: int,
    *,
    trace=None,
) -> tuple[Tensor2, list[KvCache]]:
    """Run the model over ``tokens``, (T,) or (n, T), in blocks, returning
    logits per position in ``_Streams.feed``'s column order.

    One stream is fed the sequences side by side and then flushed, so every block,
    a short final one included, goes through the policy once it has been
    attended to; the returned caches, (n, d, cols) per layer, hold the whole
    sequences. The final flush is made outside ``feed``, so its merges run
    inline (see ``_Streams``). When ``trace`` is given, one record per
    (block, layer) of live cache entries and allocated attention-score entries
    is appended via its ``record_block`` hook. A layer output that overflows
    raises NonFiniteError naming the block (counted within the sequence, as in
    the trace) and the layer.
    """
    batch = _token_ids(params, np.atleast_2d(tokens), "token sequence", ndim=2)
    streams = _Streams(params, policy, block_size, n_seq=len(batch), trace=trace)
    logits = streams.feed(batch)
    streams.flush()
    return logits, streams.layer_caches()


def _next_token_nll(logits: Tensor2, batch: np.ndarray, block_size: int) -> Tensor2:
    """Mean next-token cross entropy of an (n, T) ``batch`` from logits in ``feed``'s order."""
    # the flat (sequence, position) index of each logits column: block after block
    order = np.argsort(np.broadcast_to(np.arange(batch.shape[1]) // block_size, batch.shape),
                       axis=None, kind="stable")
    cols = np.flatnonzero(order % batch.shape[1] != batch.shape[1] - 1)  # a next token follows
    return cross_entropy_cols(select_cols(logits, cols), batch.ravel()[order[cols] + 1])


def sequence_loss(
    params: ModelParams,
    tokens: np.ndarray,
    policy: PolicySpec,
    block_size: int,
    *,
    detach_cache: bool = False,
) -> Tensor2:
    """Mean next-token cross entropy over one sequence, or over every
    prediction of an (n, T) batch of sequences that run side by side.

    The logits are ``forward_segmented``'s, from a stream that is fed the
    sequences but never flushed: the last block does not reach the policy, as
    nothing reads the caches after it, so that merge or eviction, and its
    entries on an active gradient tape, would be dead work.
    """
    batch = _token_ids(params, np.atleast_2d(tokens), "token batch", ndim=2)
    if batch.shape[1] < 2:
        raise ValueError("need at least two tokens for a next-token loss")
    streams = _Streams(params, policy, block_size, n_seq=len(batch), detach_cache=detach_cache)
    return _next_token_nll(streams.feed(batch), batch, block_size)


def generate(
    params: ModelParams,
    prompt: np.ndarray,
    n_new: int,
    policy: PolicySpec,
    block_size: int,
) -> np.ndarray:
    """Greedy block-buffered decoding.

    One stream is fed the prompt, then each new token but the last, so every
    layer's cache is updated once per ``block_size`` tokens, when the token
    after a full block arrives, as in ``forward_segmented``. Queries attend
    to the cache plus the staged columns, so a bounded policy holds at most
    M + B columns per head, and the logits equal those of
    ``forward_segmented(prompt + generated[:-1], policy, block_size)`` up to
    summation order. A decode step runs one ``_layer_step`` per layer,
    writes one key and value column per layer into the flush cycle's buffers
    (see ``_Streams``) and reuses the stream's one unembedding and stacked
    QKV weights; its one rotary table serves every layer.

    Ties in the argmax resolve to the lowest byte, so decoding is
    deterministic. The total context must fit max_context * interpolation_scale.
    """
    prompt = _token_ids(params, prompt, "prompt")
    if not _is_integer(n_new):
        raise ValueError(f"n_new must be an integer, got {n_new!r}")
    if n_new < 0:
        raise ValueError("n_new must be nonnegative")
    if prompt.size + n_new > params.config.context_limit:
        raise ValueError(
            f"context {prompt.size + n_new} exceeds limit {params.config.context_limit}"
        )
    streams = _Streams(params, policy, block_size)
    out, fed = list(prompt), prompt
    for _ in range(n_new):
        out.append(int(np.argmax(streams.feed(fed).data[:, -1])))
        fed = np.array(out[-1:])
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
    """exp(mean next-token NLL) over non-overlapping windows of a 1-D corpus,
    dropping a ragged tail. ``max(1, _EVAL_GROUP_TOKENS // eval_context_length)``
    windows run side by side per ``forward_segmented`` call, so ``trace`` gets one
    record per (block, layer) of a group, blocks counted within the window. The
    constant bounds memory: concat holds every window's keys, the logits 2 KiB a token.
    """
    ids = _token_ids(params, corpus_ids, "corpus")
    if not _is_integer(eval_context_length):
        raise ValueError(f"eval_context_length must be an integer, got {eval_context_length!r}")
    if eval_context_length < 2:
        raise ValueError("eval_context_length must be at least 2")
    n_windows = ids.size // eval_context_length
    if n_windows == 0:
        raise ValueError(
            f"corpus of {ids.size} tokens is shorter than one window of {eval_context_length}"
        )
    windows = ids[:n_windows * eval_context_length].reshape(n_windows, eval_context_length)
    per_group = max(1, _EVAL_GROUP_TOKENS // eval_context_length)
    nll = 0.0
    for group in np.split(windows, np.arange(per_group, n_windows, per_group)):
        logits, _ = forward_segmented(params, group, policy, block_size, trace=trace)
        nll += _next_token_nll(logits, group, block_size).data.item() * (len(group) / n_windows)
    return float(np.exp(nll))
