"""Pretraining and drop-in calibration of the compression heads.

Two regimes share one loop: (a) pretrain the base weights on a toy corpus
with the unbounded concat policy; (b) calibrate, which freezes every base
weight and trains only the per-layer conv kernels while the merging policy
is live, so gradients flow through weight synthesis, fusion, and attention
across all blocks of each training sequence (optionally detached at block
boundaries).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cache import CacheError
from .model import ModelConfig, ModelParams, sequence_loss
from .numerics import GradTape, NonFiniteError, Tensor2, add, backward, scale
from .policies import PolicySpec

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


class TrainingDivergedError(RuntimeError):
    """Loss went NaN; aborts with the offending step in the message."""


@dataclass
class TrainConfig:
    """Optimization knobs.

    The conv-head learning rate keeps its 1000x ratio over the base rate by
    default; desk-scale pretraining passes an explicit base rate instead of
    relying on the (deliberately conservative) default.
    """

    learning_rate_base: float = 5e-5
    learning_rate_conv: float = 5e-2
    steps: int = 200
    batch_size: int = 16
    seed: int = 0
    context_length: int = 64
    detach_cache_between_blocks: bool = False


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
    """One bias-corrected Adam update, in place on the parameter tensors."""
    if lr <= 0:
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
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        tensor.data -= lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
    return state


def _sample_starts(rng, corpus_len: int, cfg: TrainConfig) -> np.ndarray:
    span = corpus_len - cfg.context_length
    if span < 0:
        raise ValueError(
            f"corpus of {corpus_len} tokens is shorter than context {cfg.context_length}"
        )
    return rng.integers(0, span + 1, size=cfg.batch_size)


def _train_loop(
    params: ModelParams,
    corpus_ids: np.ndarray,
    policy: PolicySpec,
    block_size: int,
    cfg: TrainConfig,
    trainable: list[tuple[str, Tensor2]],
    base_lr: float,
) -> list[tuple[int, float, float]]:
    rng = np.random.default_rng(cfg.seed)
    state = AdamState()
    trace: list[tuple[int, float, float]] = []
    by_tensor = {id(t): name for name, t in trainable}
    for step in range(cfg.steps):
        lr = base_lr * (1.0 - step / cfg.steps)  # linear decay to 0
        starts = _sample_starts(rng, corpus_ids.size, cfg)
        try:
            with GradTape() as tape:
                total = None
                for s in starts:
                    window = corpus_ids[s:s + cfg.context_length]
                    loss = sequence_loss(
                        params, window, policy, block_size,
                        detach_cache=cfg.detach_cache_between_blocks,
                    )
                    total = loss if total is None else add(total, loss)
                mean_loss = scale(total, 1.0 / cfg.batch_size)
        except NonFiniteError as exc:
            raise TrainingDivergedError(
                f"non-finite values in the forward pass at step {step} (lr={lr:.3g}): {exc}"
            ) from exc
        loss_value = float(mean_loss.data[0, 0])
        if np.isnan(loss_value):
            raise TrainingDivergedError(
                f"loss is NaN at step {step} (lr={lr:.3g}); "
                "lower the learning rate or check the corpus"
            )
        grads = backward(tape, mean_loss)
        named_grads = {
            by_tensor[id(t)]: g for t, g in grads.items() if id(t) in by_tensor
        }
        adam_step(trainable, named_grads, state, lr)
        trace.append((step, loss_value, lr))
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
    trainable = params.set_trainable("base")
    trace = _train_loop(
        params, corpus_ids, PolicySpec("concat"), cfg.context_length, cfg,
        trainable, cfg.learning_rate_base,
    )
    params.set_trainable("none")
    return params, trace


def calibrate_conv_heads(
    params: ModelParams,
    corpus_ids: np.ndarray,
    policy: PolicySpec,
    block_size: int,
    cfg: TrainConfig,
    kernel_size: int = 21,
    relu_position: str = "post",
) -> list[tuple[int, float, float]]:
    """Freeze the base model, drop in conv heads, train only their kernels.

    The policy must be one of the merging family; heads are installed at a
    seeded init when the model has none yet, so a 0-step run leaves them at
    initialization. Block size must divide the context and fit the budget.
    """
    if not policy.needs_conv_head:
        raise CacheError(f"calibration needs a merging policy, got {policy.name!r}")
    policy.check_block_size(block_size)
    if cfg.context_length % block_size != 0:
        raise ValueError(
            f"context {cfg.context_length} must be a multiple of block size {block_size}"
        )
    if params.conv_heads is None:
        params.install_conv_heads(
            slots=policy.merge_slots, kernel_size=kernel_size,
            seed=cfg.seed, relu_position=relu_position,
        )
    trainable = params.set_trainable("conv")
    trace = _train_loop(
        params, corpus_ids, policy, block_size, cfg, trainable, cfg.learning_rate_conv
    )
    params.set_trainable("none")
    return trace


def write_loss_trace(path: str | Path, trace: list[tuple[int, float, float]]) -> None:
    """CSV of (step, loss, lr); float formatting is shortest round-trip."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss", "lr"])
        for step, loss, lr in trace:
            writer.writerow([step, repr(float(loss)), repr(float(lr))])
