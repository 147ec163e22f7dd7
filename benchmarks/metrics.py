"""Every metric the benchmark reports, with the figure it is expected to move.

Times are scaled to a machine on which the reference kernel in ``workloads.py``
takes ``REFERENCE_SECONDS``; see ``Op.scaled_seconds``.

``END_TO_END`` is what a run with ``--trace 0`` prints and ``PER_LAYER`` what
a run with ``--trace 1`` prints, on every workload; ``BENCHMARK.json`` lists
the same names, units and directions. A per-layer metric for a layer that a
workload does not exercise reads 0 there.
"""

from __future__ import annotations

from dataclasses import dataclass

POLICY_NAMES = ("concat", "lococo", "h2o", "sink_window", "lococo+h2o", "lococo+sink")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    moves: str


END_TO_END = (
    Metric("setup_s", "s", "lower",
           "all: median scaled wall time of 3 set-ups (corpus, 30-step pretrain, "
           "checkpoint round trip, seeded conv heads)"),
    Metric("tok_s", "tokens/s", "higher",
           "prefill_long: tokens scored/s (prefill_tok_s); decode_stream: new tokens/s "
           "(decode_tok_s); calibrate: trained tokens/s (512 per step, so "
           "calib_step_s = 512/tok_s); each operation's median scaled time over the passes"),
    Metric("peak_rss_mb", "MiB", "lower", "all: peak resident set of the benchmark process"),
)


PER_LAYER = (
    Metric("numerics.ops.calls", "count", "lower",
           "tok_s on decode_stream (~33k op calls per 256-token request); little on prefill_long"),
    Metric("numerics.ops_per_token", "ops/token", "lower", "tok_s on decode_stream"),
    Metric("numerics.matmul.s", "s", "lower", "tok_s on all workloads"),
    Metric("numerics.conv1d.s", "s", "lower", "tok_s on calibrate and on decode_stream (lococo)"),
    Metric("numerics.softmax_cols.s", "s", "lower", "tok_s on prefill_long"),
    Metric("numerics.hstack.s", "s", "lower", "tok_s on decode_stream"),
    Metric("numerics.backward.s", "s", "lower", "tok_s on calibrate; 0 elsewhere"),
    Metric("attention.project_qkv.s", "s", "lower", "tok_s on all workloads"),
    Metric("attention.apply_rope.calls", "count", "lower",
           "tok_s on decode_stream (rotary tables rebuilt per head and call)"),
    Metric("attention.apply_rope.s", "s", "lower", "tok_s on decode_stream"),
    Metric("attention.attend.calls", "count", "lower", "tok_s on decode_stream"),
    Metric("attention.attend.s", "s", "lower", "tok_s on prefill_long (concat share)"),
    Metric("attention.peak_score_entries", "entries", "lower",
           "peak_rss_mb on prefill_long; bounded by B x (M + B) except for concat"),
    Metric("policies.update.calls", "count", "lower", "tok_s on decode_stream"),
    Metric("policies.update.s", "s", "lower", "tok_s on all workloads"),
    Metric("policies.build.calls", "count", "lower",
           "tok_s on decode_stream (policies rebuilt every token)"),
    Metric("policies.ppl", "perplexity", "lower",
           "guards output quality: prefill_long held-out perplexity pooled over the "
           "policies; decode_stream perplexity of the emitted tokens under each policy's "
           "teacher-forced pass; calibrate exp(mean step loss)"),
    Metric("policies.decode_agreement", "share", "higher",
           "decode_stream: share of emitted tokens equal to the teacher-forced argmax "
           "(1 once decode matches prefill); 0 elsewhere"),
    *(
        Metric(f"policies.{p.replace('+', '-')}.tok_s", "tokens/s", "higher",
               f"tok_s on every workload that runs {p}; 0 where it does not run")
        for p in POLICY_NAMES
    ),
    *(
        Metric(f"policies.{p.replace('+', '-')}.ppl", "perplexity", "lower",
               f"guards output quality for {p}; 0 where the workload does not run it")
        for p in POLICY_NAMES
    ),
    Metric("compressor.synthesize_weights.calls", "count", "lower", "tok_s on decode_stream"),
    Metric("compressor.synthesize_weights.s", "s", "lower",
           "tok_s on prefill_long and decode_stream"),
    Metric("compressor.fuse.s", "s", "lower", "tok_s on prefill_long and decode_stream"),
    Metric("compressor.merges_per_token", "merges/token", "lower",
           "tok_s on decode_stream (block-buffered decode divides it by B); "
           "no change on prefill_long"),
    Metric("compressor.new_block_weight_share", "share", "higher",
           "guards output quality: mean fusion-weight mass on the incoming block"),
    Metric("compressor.effective_sources", "sources", "higher",
           "guards output quality: mean exp-entropy of each slot's fusion weights"),
    Metric("cache.update_concat.s", "s", "lower", "tok_s (small share)"),
    Metric("cache.update_h2o.s", "s", "lower", "tok_s (small share)"),
    Metric("cache.update_sink_window.s", "s", "lower", "tok_s (small share)"),
    Metric("cache.evicted_cols", "count", "lower",
           "columns dropped by h2o and sink_window eviction; changes only with policy behaviour"),
    Metric("cache.peak_live_entries", "entries", "lower",
           "peak_rss_mb; at most M = 64 for bounded policies (an output check)"),
    Metric("model.forward_segmented.calls", "count", "lower",
           "tok_s on decode_stream (one call per token)"),
    Metric("model.forward_segmented.self_s", "s", "lower", "tok_s on decode_stream"),
    Metric("model.sequence_loss.s", "s", "lower", "tok_s on calibrate"),
    Metric("training.adam_step.s", "s", "lower", "tok_s on calibrate; 0 elsewhere"),
    Metric("training.tape_entries_per_step", "entries/step", "lower",
           "tok_s on calibrate; 0 on prefill_long and decode_stream"),
    Metric("training.pretrain.s", "s", "lower", "setup_s on all workloads"),
    Metric("checkpoint.save_checkpoint.s", "s", "lower", "setup_s on all workloads"),
    Metric("checkpoint.load_checkpoint.s", "s", "lower", "setup_s on all workloads"),
    Metric("trace.overhead", "ratio", "lower",
           "traced / untraced wall time of one pass; the cost of this tracing"),
)
