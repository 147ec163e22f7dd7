"""Benchmark of the ``convkv`` package, driven from outside through its public API.

    python3 benchmarks/run.py --workload prefill_long --seed 1 --seconds 20 --trace 0

Workloads: ``prefill_long``, ``decode_stream``, ``calibrate`` (see
``workloads.py``). With ``--trace 0`` the run times whole passes of the
workload for about ``--seconds`` seconds and reports the end-to-end metrics;
with ``--trace 1`` it times one untraced pass, then one pass with every
traced function wrapped, and reports the per-layer metrics (see
``metrics.py``). Every operation's output is checked in both modes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same figures by their per-workload names, and the environment.
The package is imported from ``src/`` next to this directory; without it the
run exits with code 2 and prints no result.
"""

import os

# One BLAS thread, pinned before numpy loads and the same on every commit: the
# matrices are at most 64 x 1088, so a second thread buys little (about 13% on
# calibrate) and makes the other workloads noisier on a 2-vCPU box.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
from collections import defaultdict  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
N_SETUPS = 3
WORKLOAD_NAMES = ("prefill_long", "decode_stream", "calibrate")


def import_package() -> None:
    """Import ``convkv`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import convkv

    if not Path(convkv.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"convkv was found at {convkv.__file__}, outside {SRC}")


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def scaled_rate(passes, scaled: bool = True) -> float:
    """Tokens of one pass over the sum of each operation's median (scaled) time."""
    times = defaultdict(list)
    tokens = {}
    for ops in passes:
        for op in ops:
            if op.error is None:
                times[op.policy, op.index].append(op.scaled_seconds if scaled else op.seconds)
                tokens[op.policy, op.index] = op.tokens
    seconds = sum(statistics.median(t) for t in times.values())
    return sum(tokens.values()) / seconds if seconds else 0.0


def pooled_ppl(workload, ops) -> float:
    parts = [workload.quality(op) for op in ops]
    n = sum(count for _, count in parts)
    return math.exp(sum(nll for nll, _ in parts) / n) if n else 0.0


def verdicts(workload, ops) -> tuple[list, list[str]]:
    """Operations that passed every check, and one line per failed one."""
    good, failures = [], []
    for op in ops:
        reason = op.error or workload.check(op)
        if reason:
            failures.append(f"{workload.name} {op.policy} #{op.index}: {reason}")
        else:
            good.append(op)
    return good, failures


def run_untraced(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    import inputs
    from workloads import REFERENCE_SECONDS, WORKLOADS, reference_seconds, set_up

    reference_seconds()  # first BLAS call of the process
    setups = []
    for _ in range(N_SETUPS):
        gc.collect()
        before = reference_seconds()
        started = perf_counter()
        model = set_up(seed, workdir)
        took = perf_counter() - started
        reference = (before + reference_seconds()) / 2
        setups.append(took * REFERENCE_SECONDS / reference)
    workload = WORKLOADS[name](model, inputs.held_out(seed), seed)
    workload.warm_up()

    passes = []
    started = perf_counter()
    while True:
        gc.collect()
        passes.append(workload.run_pass())
        elapsed = perf_counter() - started
        if elapsed + elapsed / len(passes) / 2 >= seconds:  # stop nearest to `seconds`
            break
    rss = peak_rss_mb()

    ops = [op for ops in passes for op in ops]
    good, failures = verdicts(workload, ops)
    tok_s = scaled_rate(passes)
    first = [op for op in good if op in passes[0]]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "tok_s": (tok_s, "tokens/s"),
        "peak_rss_mb": (rss, "MiB"),
    }
    report = [
        ("setup_s", metrics["setup_s"][0], "s"),
        ("tok_s", tok_s, "tokens/s"),
        ("unscaled_tok_s", scaled_rate(passes, scaled=False), "tokens/s"),
        *workload.report(first, tok_s),
        ("ppl", pooled_ppl(workload, first), "perplexity"),
        ("peak_rss_mb", rss, "MiB"),
        ("error_rate", len(failures) / len(ops), "share"),
        ("passes", len(passes), "count"),
    ]
    return {"ops": len(ops), "failures": failures, "metrics": metrics, "report": report}


def run_traced(name: str, seed: int, workdir: Path) -> dict:
    import inputs
    from metrics import PER_LAYER, POLICY_NAMES
    from tracing import SpanRecorder, Tracer, summarize
    from workloads import CAPACITY, WORKLOADS, set_up

    rec = SpanRecorder()
    with Tracer(rec) as tracer:
        model = set_up(seed, workdir, rec)
    workload = WORKLOADS[name](model, inputs.held_out(seed), seed)
    workload.warm_up()
    gc.collect()
    untraced = workload.run_pass()
    gc.collect()
    with Tracer(rec):
        traced = workload.run_pass(rec)

    good, failures = verdicts(workload, untraced + traced)
    layer = summarize(rec, sum(op.tokens for op in traced))
    if layer["cache.peak_live_entries"] > CAPACITY:
        failures.append(f"{name}: traced cache held {layer['cache.peak_live_entries']} entries")
    layer["trace.overhead"] = (
        sum(op.scaled_seconds for op in traced) / sum(op.scaled_seconds for op in untraced)
    )
    checked = [op for op in good if op in untraced]
    layer["policies.ppl"] = pooled_ppl(workload, checked)
    layer["policies.decode_agreement"] = workload.agreement(checked)
    for policy in POLICY_NAMES:
        key = f"policies.{policy.replace('+', '-')}"
        layer[f"{key}.tok_s"] = scaled_rate([[op for op in untraced if op.policy == policy]])
        layer[f"{key}.ppl"] = pooled_ppl(workload, [op for op in checked if op.policy == policy])

    rec.write(OUT / f"spans_{name}_seed{seed}.npz")
    metrics = {m.name: (layer[m.name], m.unit) for m in PER_LAYER}
    report = [(m.name, layer[m.name], m.unit) for m in PER_LAYER]
    if tracer.missing:
        report.append(("not_traced:" + ",".join(tracer.missing), len(tracer.missing), "count"))
    return {
        "ops": len(untraced) + len(traced),
        "failures": failures,
        "metrics": metrics,
        "report": report,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        import_package()
    except ImportError as exc:
        print(f"run.py: cannot import the convkv package from {SRC}: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT))
    try:
        if args.trace:
            result = run_traced(args.workload, args.seed, workdir)
        else:
            result = run_untraced(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in result["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for metric, value, unit in result["report"]:
        print(f"  {metric:<40} {value:>14.6g} {unit}")
    print("environment " + json.dumps(environment(args.seed), sort_keys=True))
    failed = len(result["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["ops"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
