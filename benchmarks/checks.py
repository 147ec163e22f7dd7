"""Output checks: each returns None when the output is right, else a reason.

Every check holds for any correct implementation, not only for the numbers
the package gives today, so a change that alters decode outputs or merge
weights without breaking a contract does not trip them.
"""

from __future__ import annotations

import math

import numpy as np


def perplexity_finite(ppl: float) -> str | None:
    if not math.isfinite(ppl) or ppl <= 0:
        return f"perplexity {ppl!r} is not a finite positive number"
    return None


def live_entries_bounded(peak: int, capacity: int) -> str | None:
    if peak > capacity:
        return f"cache held {peak} live entries, more than its capacity {capacity}"
    return None


def block_size_invariant(ppl_block: float, ppl_whole: float, rel: float = 1e-9) -> str | None:
    """Concat sees every key whatever the block size, so perplexity must not move."""
    if not abs(ppl_block - ppl_whole) <= rel * abs(ppl_whole):
        return f"concat perplexity {ppl_block!r} differs from whole-window {ppl_whole!r}"
    return None


def generated_well_formed(out: np.ndarray, prompt: np.ndarray, n_new: int) -> str | None:
    out = np.asarray(out)
    if out.shape != (prompt.size + n_new,):
        return f"generate returned shape {out.shape}, expected {(prompt.size + n_new,)}"
    if not np.array_equal(out[:prompt.size], prompt):
        return "generate changed the prompt"
    if out.min() < 0 or out.max() > 255:
        return "generate emitted a token outside the byte vocabulary"
    return None


def decode_matches_teacher(generated: np.ndarray, teacher_argmax: np.ndarray) -> str | None:
    """Greedy decode with an unbounded cache must equal the teacher-forced argmax."""
    differ = np.flatnonzero(np.asarray(generated) != np.asarray(teacher_argmax))
    if differ.size:
        return f"decode differs from the teacher-forced argmax at {differ.size} positions"
    return None


def calibration_sound(
    fingerprint_before: bytes,
    fingerprint_after: bytes,
    kernels_before: list[np.ndarray],
    kernels_after: list[np.ndarray],
    losses: list[float],
    steps: int,
) -> str | None:
    """Calibration trains every conv head and nothing of the frozen base."""
    if len(losses) != steps:
        return f"calibration returned {len(losses)} losses for {steps} steps"
    if not all(math.isfinite(loss) for loss in losses):
        return "calibration loss is not finite"
    if fingerprint_after != fingerprint_before:
        return "calibration changed the frozen base weights"
    if len(kernels_after) != len(kernels_before):
        return f"{len(kernels_after)} conv heads after calibration, {len(kernels_before)} before"
    unchanged = [
        i for i, (a, b) in enumerate(zip(kernels_before, kernels_after)) if np.array_equal(a, b)
    ]
    if unchanged:
        return f"calibration left the kernels of conv heads {unchanged} unchanged"
    return None
