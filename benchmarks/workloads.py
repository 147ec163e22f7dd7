"""Set-up and the three closed-loop workloads, driven through the public API.

One process, one caller: each call starts after the previous one returns.
A pass runs every operation of a workload once, for every policy; the
runner repeats passes to fill the measured time. An operation is one window
(prefill_long), one request (decode_stream) or one calibration run
(calibrate). Timed regions hold the package call and nothing else; checks,
reference passes and head copies run untimed. Package functions are called
as ``convkv.<name>`` so that the tracer's wrappers on the package are seen.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import inputs
import convkv
from convkv import (
    ConvHead,
    ConvKernels,
    MemoryTrace,
    ModelConfig,
    ModelParams,
    PolicySpec,
    Tensor2,
    TrainConfig,
)
from metrics import POLICY_NAMES
from tracing import SETUP, WORKLOAD, SpanRecorder

MERGING = ("lococo", "lococo+h2o", "lococo+sink")
CAPACITY = 64
BLOCK = 16
KERNEL = 21
DECODE_NEW = 256
PRETRAIN = dict(learning_rate_base=2e-2, steps=30, batch_size=8, context_length=64)
CALIBRATION = dict(steps=8, batch_size=4, context_length=128)


# A fixed attention-shaped numpy kernel timed between operations. On a shared
# 2-vCPU virtual machine (Intel Xeon, 2.1 GHz) the CPU ran up to ~1.6x slower
# for seconds to minutes at a time; operation times followed the kernel's time
# with a log-log slope of 0.8 (prefill_long) to 0.95 (decode_stream), so
# dividing by it removes most of that drift. It uses numpy only, so no change
# to the package can change it.
REFERENCE_SECONDS = 0.01
_REF_RNG = np.random.default_rng(20240607)
_REF_KEYS = _REF_RNG.normal(size=(64, 1024))
_REF_QUERIES = _REF_RNG.normal(size=(64, 16))


def reference_seconds() -> float:
    """Wall time of the reference kernel right now."""
    started = perf_counter()
    for _ in range(40):
        scores = _REF_KEYS.T @ _REF_QUERIES
        probs = np.exp(scores - scores.max(axis=0))
        _REF_KEYS @ (probs / probs.sum(axis=0))
    return perf_counter() - started


def policy_spec(name: str) -> PolicySpec:
    return PolicySpec(name) if name == "concat" else PolicySpec(name, capacity=CAPACITY)


@contextmanager
def operation(rec: SpanRecorder | None, phase: str, name: str):
    """Mark one operation so its spans share an id; a no-op when not tracing."""
    if rec is None:
        yield
        return
    rec.begin_op(phase)
    with rec.span(name):
        yield


@dataclass
class Model:
    """The set-up's result: a pretrained base plus seeded conv heads per policy."""

    params: ModelParams
    corpus: np.ndarray
    heads: dict[str, list[ConvHead]]
    fingerprint: bytes

    def bind(self, policy: str) -> PolicySpec:
        self.params.conv_heads = self.heads.get(policy)
        return policy_spec(policy)


def set_up(seed: int, workdir: Path, rec: SpanRecorder | None = None) -> Model:
    """Corpus, seeded pretrain, checkpoint round trip, seeded conv heads."""
    with operation(rec, SETUP, "bench.setup"):
        corpus = inputs.training_ids(seed)
        params, _ = convkv.pretrain(corpus, ModelConfig(), TrainConfig(seed=seed, **PRETRAIN))
        path = workdir / "base.ckpt"
        convkv.save_checkpoint(params, path)
        params = convkv.load_checkpoint(path)
        heads_by_slots = {}
        for slots in sorted({policy_spec(p).merge_slots for p in MERGING}):
            params.install_conv_heads(slots=slots, kernel_size=KERNEL, seed=seed)
            heads_by_slots[slots] = params.conv_heads
        params.drop_conv_heads()
    heads = {p: heads_by_slots[policy_spec(p).merge_slots] for p in MERGING}
    return Model(params, corpus, heads, params.base_fingerprint())


def copy_heads(heads: list[ConvHead]) -> list[ConvHead]:
    return [
        ConvHead(
            ConvKernels(Tensor2(h.kernels.weights.data), c_in=h.kernels.c_in, k=h.kernels.k),
            layer_index=h.layer_index,
            relu_position=h.relu_position,
        )
        for h in heads
    ]


@dataclass(eq=False)
class Op:
    """One timed operation and what it returned (or why it failed).

    ``reference`` is the mean reference-kernel time just before and just after.
    """

    policy: str
    index: int
    seconds: float
    tokens: int
    reference: float
    output: object = None
    error: str | None = None

    @property
    def scaled_seconds(self) -> float:
        """The operation's time on a machine where the reference takes REFERENCE_SECONDS."""
        return self.seconds * REFERENCE_SECONDS / self.reference


class Workload:
    """A fixed list of operations per policy; subclasses say what one does."""

    name = ""
    op_span = ""
    policies: tuple[str, ...] = POLICY_NAMES
    n_ops = 0
    op_tokens = 0

    def __init__(self, model: Model, data: inputs.HeldOut, seed: int):
        self.model = model
        self.data = data
        self.seed = seed

    def prepare(self, policy: str) -> None:
        """Untimed step before each operation."""

    def call(self, spec: PolicySpec, index: int):
        raise NotImplementedError

    def after(self, policy: str, output):
        """Untimed capture of whatever the checks need beyond the return value."""
        return output

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_pass(self, rec: SpanRecorder | None = None) -> list[Op]:
        ops = []
        before = reference_seconds()
        for policy in self.policies:
            spec = self.model.bind(policy)
            for index in range(self.n_ops):
                self.prepare(policy)
                output, error = None, None
                started = perf_counter()
                try:
                    with operation(rec, WORKLOAD, self.op_span):
                        output = self.call(spec, index)
                except Exception as exc:  # counted as a failed operation
                    error = f"{type(exc).__name__}: {exc}"
                seconds = perf_counter() - started
                after = reference_seconds()
                if error is None:
                    output = self.after(policy, output)
                ops.append(Op(policy, index, seconds, self.op_tokens, (before + after) / 2,
                              output, error))
                before = after
        return ops

    def check(self, op: Op) -> str | None:
        raise NotImplementedError

    def quality(self, op: Op) -> tuple[float, int]:
        """(total NLL in nats, predictions) behind the workload's perplexity."""
        raise NotImplementedError

    def agreement(self, ops: list[Op]) -> float:
        """Share of emitted tokens equal to the teacher-forced argmax; 0 if none emitted."""
        return 0.0

    def report(self, ops: list[Op], tok_s: float) -> list[tuple[str, float, str]]:
        """The workload's own figures, by their own names: (name, value, unit)."""
        raise NotImplementedError


class PrefillLong(Workload):
    """``perplexity`` over held-out windows of 1024 tokens, blocks of 16."""

    name = "prefill_long"
    op_span = "bench.window"
    n_ops = inputs.N_WINDOWS
    op_tokens = inputs.WINDOW

    def __init__(self, model, data, seed):
        super().__init__(model, data, seed)
        self._whole_window: dict[int, float] = {}

    def call(self, spec, index):
        trace = MemoryTrace()
        ppl = convkv.perplexity(
            self.model.params, self.data.windows[index], spec, inputs.WINDOW, BLOCK, trace=trace
        )
        return ppl, trace

    def after(self, policy, output):
        ppl, trace = output
        return ppl, trace.peak_live_entries

    def warm_up(self):
        short = self.data.windows[0][:8 * BLOCK]
        for policy in self.policies:
            convkv.perplexity(self.model.params, short, self.model.bind(policy), short.size, BLOCK)

    def _whole_window_ppl(self, index: int) -> float:
        if index not in self._whole_window:
            self._whole_window[index] = convkv.perplexity(
                self.model.params, self.data.windows[index], self.model.bind("concat"),
                inputs.WINDOW, inputs.WINDOW,
            )
        return self._whole_window[index]

    def check(self, op):
        ppl, peak = op.output
        if op.policy == "concat":
            return checks.perplexity_finite(ppl) or checks.block_size_invariant(
                ppl, self._whole_window_ppl(op.index)
            )
        return checks.perplexity_finite(ppl) or checks.live_entries_bounded(peak, CAPACITY)

    def quality(self, op):
        ppl, _ = op.output
        return math.log(ppl) * (inputs.WINDOW - 1), inputs.WINDOW - 1

    def report(self, ops, tok_s):
        return [("prefill_tok_s", tok_s, "tokens/s")]


@dataclass(frozen=True)
class Teacher:
    """Teacher-forced pass over a finished request: argmax and NLL per new token."""

    argmax: np.ndarray
    nll: np.ndarray
    peak_live_entries: int


class DecodeStream(Workload):
    """Greedy ``generate`` of 256 tokens after each 64-token held-out prompt."""

    name = "decode_stream"
    op_span = "bench.request"
    n_ops = inputs.N_PROMPTS
    op_tokens = DECODE_NEW

    def __init__(self, model, data, seed):
        super().__init__(model, data, seed)
        self._teacher: dict[tuple[str, bytes], Teacher] = {}

    def call(self, spec, index):
        return convkv.generate(self.model.params, self.data.prompts[index], DECODE_NEW, spec, BLOCK)

    def warm_up(self):
        prompt = self.data.prompts[0]
        for policy in self.policies:
            convkv.generate(self.model.params, prompt, 8, self.model.bind(policy), BLOCK)

    def teacher(self, policy: str, out: np.ndarray) -> Teacher:
        """Same policy, same block size, over prompt + generated[:-1]; cached per output."""
        key = (policy, np.asarray(out, dtype=np.int64).tobytes())
        if key not in self._teacher:
            trace = MemoryTrace()
            logits, _ = convkv.forward_segmented(
                self.model.params, out[:-1], self.model.bind(policy), BLOCK, trace=trace
            )
            p = inputs.PROMPT_LEN
            d = logits.data[:, p - 1:]
            targets = out[p:]
            m = d.max(axis=0)
            nll = np.log(np.exp(d - m).sum(axis=0)) + m - d[targets, np.arange(targets.size)]
            self._teacher[key] = Teacher(d.argmax(axis=0), nll, trace.peak_live_entries)
        return self._teacher[key]

    def check(self, op):
        prompt = self.data.prompts[op.index]
        bad = checks.generated_well_formed(op.output, prompt, DECODE_NEW)
        if bad:
            return bad
        teacher = self.teacher(op.policy, op.output)
        if not np.isfinite(teacher.nll).all():
            return "teacher-forced NLL is not finite"
        if op.policy == "concat":
            return checks.decode_matches_teacher(op.output[prompt.size:], teacher.argmax)
        return checks.live_entries_bounded(teacher.peak_live_entries, CAPACITY)

    def agreement(self, ops):
        if not ops:
            return 0.0
        return float(np.mean([
            op.output[inputs.PROMPT_LEN:] == self.teacher(op.policy, op.output).argmax
            for op in ops
        ]))

    def quality(self, op):
        nll = self.teacher(op.policy, op.output).nll
        return float(nll.sum()), nll.size

    def report(self, ops, tok_s):
        return [
            ("decode_tok_s", tok_s, "tokens/s"),
            ("decode_agreement", self.agreement(ops), "share"),
        ]


class Calibrate(Workload):
    """``calibrate_conv_heads``, 8 steps of 4 x 128 tokens, for each merging policy."""

    name = "calibrate"
    op_span = "bench.calibration"
    policies = MERGING
    n_ops = 1
    op_tokens = CALIBRATION["steps"] * CALIBRATION["batch_size"] * CALIBRATION["context_length"]

    def prepare(self, policy):
        self.model.params.conv_heads = copy_heads(self.model.heads[policy])

    def config(self, **overrides) -> TrainConfig:
        return TrainConfig(seed=self.seed, **{**CALIBRATION, **overrides})

    def call(self, spec, index):
        return convkv.calibrate_conv_heads(
            self.model.params, self.model.corpus, spec, BLOCK, self.config(), kernel_size=KERNEL
        )

    def after(self, policy, output):
        """Losses, and the calibration check run now rather than keeping every kernel."""
        losses = [loss for _, loss, _ in output]
        params = self.model.params
        verdict = checks.calibration_sound(
            self.model.fingerprint,
            params.base_fingerprint(),
            [h.kernels.weights.data for h in self.model.heads[policy]],
            [h.kernels.weights.data for h in params.conv_heads or []],
            losses,
            CALIBRATION["steps"],
        )
        return losses, verdict

    def warm_up(self):
        for policy in self.policies:
            self.prepare(policy)
            convkv.calibrate_conv_heads(
                self.model.params, self.model.corpus, policy_spec(policy), BLOCK,
                self.config(steps=1, batch_size=1), kernel_size=KERNEL,
            )

    def check(self, op):
        return op.output[1]

    def quality(self, op):
        losses = op.output[0]
        return float(sum(losses)), len(losses)

    def report(self, ops, tok_s):
        losses = [loss for op in ops for loss in op.output[0]]
        return [
            ("calib_step_s", self.op_tokens / CALIBRATION["steps"] / tok_s, "s/step"),
            ("calib_loss", float(np.mean(losses)), "nats"),
        ]


WORKLOADS = {w.name: w for w in (PrefillLong, DecodeStream, Calibrate)}
