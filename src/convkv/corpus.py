"""Byte corpora as token ids: one byte is one token of the 256-entry vocabulary."""

from __future__ import annotations

from pathlib import Path

import numpy as np


def corpus_to_ids(data: bytes) -> np.ndarray:
    return np.frombuffer(data, dtype=np.uint8).astype(np.int64)


def load_corpus(path: str | Path) -> np.ndarray:
    data = Path(path).read_bytes()
    if not data:
        raise ValueError(f"corpus file {path} is empty")
    return corpus_to_ids(data)
