"""Synthetic byte corpora for the tests: a long-range recall task plus degenerate helpers.

The recall corpus is built from fixed-width documents that plant an uppercase
payload early, pad with lowercase filler, and ask for the payload back at the
end. Predicting the recall section is only possible if information from the
start of the window survives whatever the cache policy did in between, which
is exactly the axis the compression policies differ on.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

PAYLOAD_ALPHABET = b"ABCDEFGHIJKLMNOP"
FILLER_ALPHABET = b"abcdefghijklmnop"


def make_recall_corpus(
    n_docs: int,
    doc_len: int = 64,
    key_len: int = 8,
    seed: int = 0,
) -> bytes:
    """Documents of exactly ``doc_len`` bytes: K:<payload>|<filler>|R:<payload>\\n."""
    overhead = 2 + key_len + 1 + 1 + 2 + key_len + 1  # markers, separators, newline
    filler_len = doc_len - overhead
    if filler_len < 1:
        raise ValueError(f"doc_len {doc_len} too small for key_len {key_len}")
    rng = np.random.default_rng(seed)
    payload_bytes = np.frombuffer(PAYLOAD_ALPHABET, dtype=np.uint8)
    filler_bytes = np.frombuffer(FILLER_ALPHABET, dtype=np.uint8)
    docs = []
    for _ in range(n_docs):
        payload = payload_bytes[rng.integers(0, len(payload_bytes), key_len)]
        filler = filler_bytes[rng.integers(0, len(filler_bytes), filler_len)]
        doc = b"K:" + payload.tobytes() + b"|" + filler.tobytes() + b"|R:" + payload.tobytes() + b"\n"
        assert len(doc) == doc_len
        docs.append(doc)
    return b"".join(docs)


def make_repeated_byte_corpus(n_bytes: int, byte: int = ord("a")) -> bytes:
    return bytes([byte]) * n_bytes


def write_corpus(path: str | Path, data: bytes) -> None:
    Path(path).write_bytes(data)
