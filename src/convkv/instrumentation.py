"""Deterministic memory accounting plus per-policy evaluation reports.

Memory is measured by counting live KV entries and allocated attention-score
entries, not by OS-level RSS: the counts are exact, reproducible, and map
one-to-one onto the bounds the cache policies are supposed to enforce
(block x (cache + block) attention working set, at most M live columns per
layer-head for bounded policies).
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .model import ModelParams, perplexity
from .policies import PolicySpec

TRACE_CSV_HEADER = ["block", "layer", "live_entries", "attn_entries", "tokens_seen"]


@dataclass(frozen=True)
class BlockRecord:
    """One (block, layer) snapshot; entries are per-layer-head KV slots."""

    block: int
    layer: int
    live_entries: int
    attn_entries: int
    tokens_seen: int


class MemoryTrace:
    """Per-session record of cache occupancy and attention allocations."""

    def __init__(self):
        self.records: list[BlockRecord] = []

    def record_block(self, block_index, caches, attn_entries, tokens_seen) -> None:
        for layer, (cache, entries) in enumerate(zip(caches, attn_entries)):
            self.records.append(
                BlockRecord(block_index, layer, cache.live_entries, entries, tokens_seen)
            )

    @property
    def peak_live_entries(self) -> int:
        return max((r.live_entries for r in self.records), default=0)

    @property
    def peak_attn_entries(self) -> int:
        return max((r.attn_entries for r in self.records), default=0)

    def live_entries_by_block(self, layer: int = 0) -> list[int]:
        return [r.live_entries for r in self.records if r.layer == layer]

    def merge(self, other: "MemoryTrace") -> "MemoryTrace":
        """Explicit reduce step for combining per-session traces."""
        merged = MemoryTrace()
        merged.records = list(self.records) + list(other.records)
        return merged

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(TRACE_CSV_HEADER)
        for r in self.records:
            writer.writerow([r.block, r.layer, r.live_entries, r.attn_entries, r.tokens_seen])
        return buf.getvalue()

    def write_csv(self, path: str | Path) -> None:
        Path(path).write_text(self.to_csv_text())


@dataclass(frozen=True)
class PolicyReport:
    """One evaluation run: quality, memory, throughput, and provenance."""

    policy: str
    config: dict
    perplexity: float
    peak_live_entries: int
    tokens_per_second: float
    timestamp: str

    def to_json_dict(self) -> dict:
        return {
            "policy": self.policy,
            "config": self.config,
            "perplexity": self.perplexity,
            "peak_live_entries": self.peak_live_entries,
            "tokens_per_second": self.tokens_per_second,
            "timestamp": self.timestamp,
        }


def write_reports_json(path: str | Path, reports: list[PolicyReport]) -> None:
    payload = [r.to_json_dict() for r in reports]
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def compare_policies(
    params: ModelParams,
    corpus_ids: np.ndarray,
    specs: list[PolicySpec],
    eval_context_length: int,
    block_size: int,
    config_echo: dict | None = None,
) -> list[PolicyReport]:
    """Evaluate every policy on the same corpus; one report per policy.

    Perplexity and peak memory are deterministic; tokens/second and the
    timestamp are wall-clock observations and vary run to run.
    """
    reports = []
    n_tokens = (corpus_ids.size // eval_context_length) * eval_context_length
    for spec in specs:
        trace = MemoryTrace()
        started = time.perf_counter()
        ppl = perplexity(
            params, corpus_ids, spec, eval_context_length, block_size, trace=trace
        )
        elapsed = max(time.perf_counter() - started, 1e-9)
        echo = {"eval_context_length": eval_context_length, "block_size": block_size}
        if spec.capacity is not None:
            echo["capacity"] = spec.capacity
        if config_echo:
            echo.update(config_echo)
        reports.append(
            PolicyReport(
                policy=spec.name,
                config=echo,
                perplexity=ppl,
                peak_live_entries=trace.peak_live_entries,
                tokens_per_second=n_tokens / elapsed,
                timestamp=datetime.now(timezone.utc).isoformat(),
            )
        )
    return reports
