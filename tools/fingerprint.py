"""Print one sha256 over the package's outputs, and the tape entries of a calibration step.

    PYTHONPATH=src python tools/fingerprint.py

A refactor that claims to keep every output bit prints the same digest
before and after. The digest covers, for each of the six policies on
seeded 2- and 3-layer default-width models at M = 32, B = 16 and conv
kernel 5: the prefill logits of a 2 x 200 token batch and every layer's
keys, values and heavy-hitter scores after it, 40 greedy tokens after a
40-token prompt, and for the three merging policies the losses and heads
of a 3-step 4 x 128 calibration. The second line is a sha256 over the
logits that ``generate`` computes for those decodes, feed by feed, so a
change that moves decode by rounding only, with the same greedy tokens and
so the same first digest, shows apart from one that moves nothing. The
third line is a sha256 over the ``MemoryTrace`` CSV of each policy's
prefill of that batch, so the live and attention entries the trace counts
per (block, layer) show apart from the logits. The fourth line gives the
tape entries that one 4 x 128 step records for each merging policy on the
benchmark's shape (default model, M = 64, B = 16, kernel 21). The fifth
line is a sha256 over the bytes of a saved checkpoint of the seeded 2-layer
model with lococo's conv heads, so a change to the config or the header
shows even where every output stays. The package is the one on
``PYTHONPATH``, so pointing it at another checkout's ``src`` fingerprints
that checkout. It needs only numpy and takes a few seconds.
"""

import hashlib
import tempfile
from pathlib import Path

import numpy as np

from convkv import model as model_module

from convkv import (
    POLICY_NAMES,
    GradTape,
    MemoryTrace,
    ModelConfig,
    ModelParams,
    PolicySpec,
    TrainConfig,
    calibrate_conv_heads,
    forward_segmented,
    generate,
    save_checkpoint,
    sequence_loss,
)

MERGING = ("lococo", "lococo+h2o", "lococo+sink")


def spec(name: str, capacity: int) -> PolicySpec:
    return PolicySpec(name) if name == "concat" else PolicySpec(name, capacity=capacity)


def model(n_layers: int, policy: PolicySpec, kernel_size: int) -> ModelParams:
    params = ModelParams.init(ModelConfig(n_layers=n_layers), seed=n_layers)
    if policy.needs_conv_head:
        params.install_conv_heads(policy.merge_slots, kernel_size, seed=n_layers)
    return params


def digests() -> tuple[str, str]:
    """The sha256 over every output, and the one over the decode logits."""
    rng = np.random.default_rng(0)
    batch = rng.integers(0, 256, size=(2, 200))
    prompt = rng.integers(0, 256, size=40)
    corpus = rng.integers(0, 256, size=4096)
    h, decode = hashlib.sha256(), hashlib.sha256()
    feed = model_module._Streams.feed

    def recording_feed(self, tokens):
        logits = feed(self, tokens)
        decode.update(logits.data.tobytes())
        return logits

    for n_layers in (2, 3):
        for name in POLICY_NAMES:
            policy = spec(name, 32)
            params = model(n_layers, policy, 5)
            logits, caches = forward_segmented(params, batch, policy, 16)
            h.update(logits.data.tobytes())
            for cache in caches:
                h.update(cache.keys.data.tobytes())
                h.update(cache.values.data.tobytes())
                if cache.scores is not None:
                    h.update(cache.scores.tobytes())
            model_module._Streams.feed = recording_feed
            try:
                h.update(generate(params, prompt, 40, policy, 16).tobytes())
            finally:
                model_module._Streams.feed = feed
            if policy.needs_conv_head:
                cfg = TrainConfig(steps=3, batch_size=4, context_length=128, seed=n_layers)
                trace = calibrate_conv_heads(params, corpus, policy, 16, cfg, kernel_size=5)
                h.update(np.array([loss for _, loss, _ in trace]).tobytes())
                for head in params.conv_heads:
                    h.update(head.kernels.weights.data.tobytes())
    return h.hexdigest(), decode.hexdigest()


def trace_digest() -> str:
    """The sha256 over the memory trace CSVs of every policy's traced prefill."""
    batch = np.random.default_rng(0).integers(0, 256, size=(2, 200))
    h = hashlib.sha256()
    for n_layers in (2, 3):
        for name in POLICY_NAMES:
            policy = spec(name, 32)
            trace = MemoryTrace()
            forward_segmented(model(n_layers, policy, 5), batch, policy, 16, trace=trace)
            h.update(trace.to_csv_text().encode())
    return h.hexdigest()


def tape_entries(name: str) -> int:
    policy = spec(name, 64)
    params = model(2, policy, 21)
    for _, weights in params.named_conv():
        weights.requires_grad = True
    windows = np.random.default_rng(1).integers(0, 256, size=(4, 128))
    with GradTape() as tape:
        sequence_loss(params, windows, policy, 16)
    return len(tape)


def checkpoint_digest() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(model(2, spec("lococo", 32), 5), path)
        return hashlib.sha256(path.read_bytes()).hexdigest()


if __name__ == "__main__":
    every, decode = digests()
    print(f"sha256 {every}")
    print(f"decode logits sha256 {decode}")
    print(f"memory trace sha256 {trace_digest()}")
    print("tape entries per 4 x 128 step at M = 64: "
          + " / ".join(f"{name} {tape_entries(name)}" for name in MERGING))
    print(f"checkpoint sha256 {checkpoint_digest()}")
