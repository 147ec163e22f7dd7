"""Seeded benchmark inputs, generated here so the program only sees token ids.

The documents follow the recall format ``K:<payload>|<filler>|R:<payload>\\n``
(64 bytes each), but the bytes come from this file rather than from
``convkv.corpus``: a change to the package cannot change what is measured.
The training corpus and the held-out text come from independent child seeds
of the workload seed, so the same seed always yields byte-identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DOC_LEN = 64
KEY_LEN = 8
PAYLOAD_ALPHABET = b"ABCDEFGHIJKLMNOP"
FILLER_ALPHABET = b"abcdefghijklmnop"

TRAIN_DOCS = 256
WINDOW = 1024
N_WINDOWS = 4
PROMPT_LEN = 64
N_PROMPTS = 2


def recall_bytes(rng: np.random.Generator, n_docs: int) -> bytes:
    """``n_docs`` recall documents of exactly ``DOC_LEN`` bytes."""
    filler_len = DOC_LEN - (2 + KEY_LEN + 1 + 1 + 2 + KEY_LEN + 1)
    payload_alpha = np.frombuffer(PAYLOAD_ALPHABET, dtype=np.uint8)
    filler_alpha = np.frombuffer(FILLER_ALPHABET, dtype=np.uint8)
    payload = payload_alpha[rng.integers(0, len(payload_alpha), (n_docs, KEY_LEN))]
    filler = filler_alpha[rng.integers(0, len(filler_alpha), (n_docs, filler_len))]

    def marker(text: bytes) -> np.ndarray:
        return np.broadcast_to(np.frombuffer(text, dtype=np.uint8), (n_docs, len(text)))

    docs = np.hstack([
        marker(b"K:"), payload, marker(b"|"), filler, marker(b"|R:"), payload, marker(b"\n"),
    ])
    return docs.tobytes()


def _ids(data: bytes) -> np.ndarray:
    return np.frombuffer(data, dtype=np.uint8).astype(np.int64)


def _child_rngs(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    train, held_out = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(train), np.random.default_rng(held_out)


def training_ids(seed: int) -> np.ndarray:
    """Corpus for pretraining and calibration (part of the timed set-up)."""
    return _ids(recall_bytes(_child_rngs(seed)[0], TRAIN_DOCS))


@dataclass(frozen=True)
class HeldOut:
    """Evaluation inputs: ``windows`` is (N_WINDOWS, WINDOW), ``prompts`` (N_PROMPTS, PROMPT_LEN)."""

    windows: np.ndarray
    prompts: np.ndarray


def held_out(seed: int) -> HeldOut:
    n_window_docs = N_WINDOWS * WINDOW // DOC_LEN
    n_prompt_docs = N_PROMPTS * PROMPT_LEN // DOC_LEN
    ids = _ids(recall_bytes(_child_rngs(seed)[1], n_window_docs + n_prompt_docs))
    cut = N_WINDOWS * WINDOW
    return HeldOut(
        windows=ids[:cut].reshape(N_WINDOWS, WINDOW),
        prompts=ids[cut:].reshape(N_PROMPTS, PROMPT_LEN),
    )
