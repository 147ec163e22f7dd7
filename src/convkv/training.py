"""Pretraining and drop-in calibration of the compression heads.

Two regimes share one loop: (a) pretrain the base weights on a toy corpus
with the unbounded concat policy; (b) calibrate, which keeps every base
weight frozen and trains only the per-layer conv kernels while the
merging policy is live. A step's ``batch_size`` windows run side by side
through one ``sequence_loss``; gradients flow through weight synthesis,
fusion and attention across all blocks of each window, or within one block
when ``detach_cache_between_blocks`` is set. A regime marks the tensors it
trains ``requires_grad`` only while its loop runs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cache import CacheError
from .model import ModelConfig, ModelParams, sequence_loss
from .numerics import GradTape, NonFiniteError, Tensor2, _is_integer, backward
from .policies import PolicySpec

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


class TrainingDivergedError(RuntimeError):
    """The forward pass hit non-finite values; names the offending step."""


@dataclass
class TrainConfig:
    """Optimization knobs.

    The conv-head learning rate keeps its 1000x ratio over the base rate by
    default; desk-scale pretraining passes an explicit base rate instead of
    relying on the (deliberately conservative) default. The counts (steps,
    batch size, seed, context length) are integers, not bools; numpy's are taken
    as Python ints.
    """

    learning_rate_base: float = 5e-5
    learning_rate_conv: float = 5e-2
    steps: int = 200
    batch_size: int = 16
    seed: int = 0
    context_length: int = 64
    detach_cache_between_blocks: bool = False

    def __post_init__(self):
        for name in ("steps", "batch_size", "seed", "context_length"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            setattr(self, name, int(value))
        for name, above in (("batch_size", 0), ("steps", -1), ("seed", -1), ("context_length", 1),
                            ("learning_rate_base", 0), ("learning_rate_conv", 0)):
            if not getattr(self, name) > above:  # NaN fails too
                raise ValueError(f"{name} must be > {above}, got {getattr(self, name)}")


@dataclass
class AdamState:
    """First/second moment buffers keyed by parameter name."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adam_step(
    params: list[tuple[str, Tensor2]],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> AdamState:
    """One bias-corrected Adam update, in place on the parameter tensors; an overflowed
    second moment raises TrainingDivergedError (steps count from 0, as in the trace)."""
    if not lr > 0:  # NaN fails too
        raise ValueError(f"learning rate must be positive, got {lr}")
    state.t += 1
    b1, b2 = ADAM_BETAS
    bias1 = 1.0 - b1 ** state.t
    bias2 = 1.0 - b2 ** state.t
    for name, tensor in params:
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(tensor.data)
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(tensor.data)
            state.m[name] = m
            state.v[name] = np.zeros_like(tensor.data)
        v = state.v[name]
        # in place, two temporaries, each product in the order of the textbook formula
        a = np.multiply(g, 1 - b1)
        m *= b1
        m += a
        v *= b2
        with np.errstate(over="ignore"):  # raised below, where numpy would only warn
            np.multiply(g, 1 - b2, out=a)
            a *= g
            v += a
            np.divide(v, bias2, out=a)  # v_hat
        if not np.isfinite(a.max()):  # v_hat >= 0, so its max is inf or NaN when any entry is
            raise TrainingDivergedError(f"{name}: Adam's second moment overflowed at step {state.t - 1}")
        np.sqrt(a, out=a)
        a += ADAM_EPS
        step = np.divide(m, bias1)
        step *= lr
        step /= a
        tensor.data -= step
    return state


def _sample_windows(rng, corpus_len: int, cfg: TrainConfig) -> np.ndarray:
    span = corpus_len - cfg.context_length
    if span < 0:
        raise ValueError(
            f"corpus of {corpus_len} tokens is shorter than context {cfg.context_length}"
        )
    return rng.integers(0, span + 1, size=cfg.batch_size)[:, None] + np.arange(cfg.context_length)


def _train_loop(
    params: ModelParams,
    corpus_ids: np.ndarray,
    policy: PolicySpec,
    block_size: int,
    cfg: TrainConfig,
    trainable: list[tuple[str, Tensor2]],
    base_lr: float,
) -> list[tuple[int, float, float]]:
    """Adam on the ``trainable`` (name, tensor) pairs, marked ``requires_grad`` until the
    loop ends or raises, other tensors left as they are; returns (step, loss, lr) rows."""
    rng = np.random.default_rng(cfg.seed)
    state = AdamState()
    trace: list[tuple[int, float, float]] = []
    by_tensor = {id(t): name for name, t in trainable}
    for _, t in trainable:
        t.requires_grad = True
    try:
        for step in range(cfg.steps):
            lr = base_lr * (1.0 - step / cfg.steps)  # linear decay to 0
            windows = corpus_ids[_sample_windows(rng, corpus_ids.size, cfg)]
            try:
                with GradTape() as tape:
                    mean_loss = sequence_loss(
                        params, windows, policy, block_size,
                        detach_cache=cfg.detach_cache_between_blocks,
                    )
            except NonFiniteError as exc:
                raise TrainingDivergedError(
                    f"non-finite values in the forward pass at step {step} (lr={lr:.3g}): {exc}"
                ) from exc
            grads = backward(tape, mean_loss)
            named_grads = {by_tensor[id(t)]: g for t, g in grads.items() if id(t) in by_tensor}
            adam_step(trainable, named_grads, state, lr)
            trace.append((step, float(mean_loss.data[0, 0]), lr))
    finally:
        for _, t in trainable:
            t.requires_grad = False
    return trace


def pretrain(
    corpus_ids: np.ndarray,
    model_config: ModelConfig,
    cfg: TrainConfig,
) -> tuple[ModelParams, list[tuple[int, float, float]]]:
    """Train a fresh base model with the concat policy; returns (params, trace)."""
    if corpus_ids.size == 0:
        raise ValueError("empty corpus")
    params = ModelParams.init(model_config, seed=cfg.seed)
    return params, _train_loop(
        params, corpus_ids, PolicySpec("concat"), cfg.context_length, cfg,
        params.named_base(), cfg.learning_rate_base,
    )


def check_calibration(policy: PolicySpec, block_size: int, context_length: int) -> None:
    """Reject a calibration that cannot train: the policy must merge and take the
    block size, the context must split into whole blocks and exceed capacity +
    block size, as the last block never reaches the cache and a shorter
    context never merges."""
    if not policy.needs_conv_head:
        raise CacheError(f"calibration needs a merging policy, got {policy.name!r}")
    policy.check_block_size(block_size)
    if context_length % block_size != 0:
        raise ValueError(f"context {context_length} must be a multiple of block size {block_size}")
    if context_length <= policy.capacity + block_size:
        raise CacheError(f"context {context_length} never merges: it must exceed capacity "
                         f"{policy.capacity} + block size {block_size}")


def check_heads(params: ModelParams, kernel_size: int, relu_position: str) -> None:
    """Reject calibrating conv heads the model has, which are trained as they are,
    when they have another ``kernel_size`` or ``relu_position`` than asked for."""
    for layer, head in enumerate(params.conv_heads or ()):
        if (head.kernel_size, head.relu_position) != (kernel_size, relu_position):
            raise CacheError(f"calibration asks for heads of kernel size {kernel_size} and "
                             f"relu_position {relu_position!r}, but the model's head at layer "
                             f"{layer} has {head.kernel_size} and {head.relu_position!r}")


def calibrate_conv_heads(
    params: ModelParams,
    corpus_ids: np.ndarray,
    policy: PolicySpec,
    block_size: int,
    cfg: TrainConfig,
    kernel_size: int = 21,
    relu_position: str = "post",
) -> list[tuple[int, float, float]]:
    """Drop in conv heads and train only their kernels; the base weights stay frozen.

    Heads are installed at a seeded init when the model has none yet, so a
    0-step run leaves them at initialization; heads it has are trained as they
    are. ``check_calibration`` and ``check_heads`` first reject a setting that
    cannot train or that the model's heads do not have.
    """
    check_calibration(policy, block_size, cfg.context_length)
    check_heads(params, kernel_size, relu_position)
    if params.conv_heads is None:
        params.install_conv_heads(
            slots=policy.merge_slots, kernel_size=kernel_size,
            seed=cfg.seed, relu_position=relu_position,
        )
    return _train_loop(
        params, corpus_ids, policy, block_size, cfg, params.named_conv(), cfg.learning_rate_conv
    )


def write_loss_trace(path: str | Path, trace: list[tuple[int, float, float]]) -> None:
    """CSV of (step, loss, lr); float formatting is shortest round-trip."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss", "lr"])
        for step, loss, lr in trace:
            writer.writerow([step, repr(float(loss)), repr(float(lr))])
