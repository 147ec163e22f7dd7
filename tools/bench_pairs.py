"""Run the benchmark as parent/change pairs and write the figures to one JSON file.

    python tools/bench_pairs.py --parent <commit> [--change HEAD] [--pairs 10]
        [--seconds 33] [--first-seed 1] [--workloads calibrate,eval,...] [--out BENCH_17.json]

Each side is the committed tree of its commit, unpacked with ``git archive``
into a temporary directory, so files that are not committed never reach a
run and the repository's ``.git`` is left as it is. For every workload the
script runs ``benchmarks/run.py --trace 0`` once per side for each of
``--pairs`` seeds, alternating which side goes first, then one
``--trace 1`` run per side. Each run also records the minor page faults
and CPU seconds of its process, from ``getrusage(RUSAGE_CHILDREN)`` taken
before and after it, its wall seconds, and their ratio ``cpu_per_wall``,
the mean number of busy threads: a second thread that gets no CPU shows as
a lower ratio, which the scaled figures, timed against a one-thread
reference kernel, do not correct for. The output, written at the
repository root, holds every result line, each side's median and q1-q3 of
every end-to-end metric in ``BENCHMARK.json`` and of those four run
figures, the pairs the change won on each, each side's operations
attempted and failed and its runs that exited nonzero, the traced result
lines, the ``environment`` line and both commit ids. It needs only the
standard library and git; a 33 s run takes about 40 s.

The ``eval`` workload is not one of ``benchmarks/run.py``'s: each of its runs
is a fresh process of this script (``--eval-once <seed>``) in the side's tree.
It builds the benchmark's set-up model, warms up, then times
``compare_policies`` over ``EVAL_WINDOWS`` held-out windows of 1024 tokens for
each of the six policies at the benchmark's capacity and block size, and
reports the seconds per policy and their sum (``eval_s``), each scaled by
``benchmarks/workloads.py::reference_seconds`` as the benchmark scales its
operations. Each policy is one operation of the run's ``attempted`` and
``failed`` counts, checked by ``benchmarks/checks.py``. ``--seconds`` and
``--trace`` do not apply to it; a run takes about 7 s.
"""

import argparse
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("prefill_long", "decode_stream", "calibrate", "eval")
EVAL_WINDOWS = 8
# figures of each run's process; more busy threads per wall second reads as better
RUN_FIGURES = [{"name": "minflt", "better": "lower"}, {"name": "cpu_s", "better": "lower"},
               {"name": "wall_s", "better": "lower"}, {"name": "cpu_per_wall", "better": "higher"}]


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def unpack(commit: str, into: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        tar.extractall(into, filter="data")


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run: its result JSON, its report lines by name, its environment,
    and the minor page faults, CPU seconds and wall seconds of its process."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if workload == "eval":
        cmd = [sys.executable, str(Path(__file__).resolve()), "--eval-once", str(seed)]
    before, started = resource.getrusage(resource.RUSAGE_CHILDREN), time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    wall_s, after = time.perf_counter() - started, resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = proc.stdout.splitlines()
    cpu_s = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    out = {"seed": seed, "returncode": proc.returncode, "stderr": proc.stderr[-2000:],
           "minflt": after.ru_minflt - before.ru_minflt, "cpu_s": cpu_s, "wall_s": wall_s,
           "cpu_per_wall": cpu_s / wall_s}
    if proc.returncode == 0 and lines:
        out["result"] = json.loads(lines[-1])
        out["report"] = {
            parts[0]: float(parts[1])
            for parts in (line.split() for line in lines if line.startswith("  "))
            if len(parts) >= 2
        }
        env = [line for line in lines if line.startswith("environment ")]
        out["environment"] = json.loads(env[0][len("environment "):]) if env else None
    return out


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric, and per ``RUN_FIGURES`` figure of a run: each side's
    spread, the change's wins and the median difference against the parent's
    q1-q3 width."""
    summary = {}
    for metric in metrics + RUN_FIGURES:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {
            side: [p[side][name] if metric in RUN_FIGURES else p[side]["result"]["metrics"][name]["value"]
                   for p in pairs if "result" in p[side]]
            for side in ("parent", "change")
        }
        if not all(values.values()):
            continue
        parent, change = spread(values["parent"]), spread(values["change"])
        wins = sum(
            (c > p) if higher else (c < p)
            for p, c in zip(values["parent"], values["change"])
        )
        summary[name] = {
            "parent": parent,
            "change": change,
            "values": values,
            "ratio_of_medians": change["median"] / parent["median"] if parent["median"] else None,
            "change_wins": wins,
            "pairs": min(len(v) for v in values.values()),
            "median_gap_exceeds_parent_iqr":
                abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"],
        }
    return summary


def outcomes(pairs: list[dict]) -> dict:
    """Per side, over its paired runs: the operations they attempted and failed (one
    per policy for the ``eval`` workload) and how many runs exited nonzero."""
    return {
        side: {
            "attempted": sum(p[side].get("result", {}).get("attempted", 0) for p in pairs),
            "failed": sum(p[side].get("result", {}).get("failed", 0) for p in pairs),
            "nonzero_exits": sum(p[side]["returncode"] != 0 for p in pairs),
        }
        for side in ("parent", "change")
    }


def eval_once(seed: int) -> dict:
    """One ``eval`` run in the current directory, a benchmark tree: the scaled
    seconds of ``compare_policies`` per policy and in all, and what it reported.
    Each policy is one attempted operation, failed when its perplexity is not
    finite or a bounded policy's cache held more than its capacity."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # as benchmarks/run.py pins them, before numpy loads
    sys.path[:0] = ["src", "benchmarks"]
    import numpy as np

    import checks
    import convkv
    import inputs
    from metrics import POLICY_NAMES
    from workloads import BLOCK, REFERENCE_SECONDS, reference_seconds, set_up

    with tempfile.TemporaryDirectory() as workdir:
        model = set_up(seed, Path(workdir))
    docs = EVAL_WINDOWS * inputs.WINDOW // inputs.DOC_LEN
    text = inputs.recall_bytes(np.random.default_rng([seed, EVAL_WINDOWS]), docs)
    corpus = np.frombuffer(text, dtype=np.uint8).astype(np.int64)
    for policy in POLICY_NAMES:  # warm-up, as the benchmark's prefill_long does
        convkv.compare_policies(model.params, corpus[:8 * BLOCK], [model.bind(policy)],
                                8 * BLOCK, BLOCK)
    metrics, reports, failures = {}, {}, []
    for policy in POLICY_NAMES:
        spec = model.bind(policy)
        gc.collect()
        before = reference_seconds()
        started = time.perf_counter()
        [report] = convkv.compare_policies(model.params, corpus, [spec], inputs.WINDOW, BLOCK)
        seconds = time.perf_counter() - started
        reference = (before + reference_seconds()) / 2
        metrics[f"eval_s.{policy}"] = {"value": seconds * REFERENCE_SECONDS / reference, "unit": "s"}
        reports[policy] = {"perplexity": report.perplexity,
                           "peak_live_entries": report.peak_live_entries}
        reason = checks.perplexity_finite(report.perplexity) or (
            spec.capacity is not None
            and checks.live_entries_bounded(report.peak_live_entries, spec.capacity))
        if reason:
            failures.append(f"eval {policy}: {reason}")
    metrics["eval_s"] = {"value": sum(m["value"] for m in metrics.values()), "unit": "s"}
    return {"metrics": metrics, "reports": reports, "attempted": len(POLICY_NAMES),
            "failed": len(failures), "failures": failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=33.0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out", default="BENCH.json")
    parser.add_argument("--eval-once", type=int, metavar="SEED",
                        help="print one eval run's JSON line (see the module docstring)")
    args = parser.parse_args(argv)
    if args.eval_once is not None:
        print(json.dumps(eval_once(args.eval_once), sort_keys=True))
        return 0
    if args.parent is None:
        parser.error("--parent is required")

    commits = {side: git("rev-parse", ref).decode().strip()
               for side, ref in (("parent", args.parent), ("change", args.change))}
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    report = {"commits": commits, "pairs": args.pairs, "seconds": args.seconds,
              "environment": None, "workloads": {}}
    try:
        trees = {side: tmp / side for side in commits}
        for side, commit in commits.items():
            unpack(commit, trees[side])
        for workload in args.workloads.split(","):
            pairs = []
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run(trees[side], workload, seed, args.seconds, 0)
                    report["environment"] = report["environment"] or pair[side].get("environment")
                    figures = pair[side].get("result", {}).get("metrics", {})
                    figure = figures.get("eval_s" if workload == "eval" else "tok_s", {})
                    print(f"{workload} seed {seed} {side}: {figure.get('value')} "
                          f"minflt {pair[side]['minflt']} cpu_s {pair[side]['cpu_s']:.1f} "
                          f"wall_s {pair[side]['wall_s']:.1f} "
                          f"failed {pair[side].get('result', {}).get('failed')} "
                          f"exit {pair[side]['returncode']}", file=sys.stderr)
                pairs.append(pair)
            if workload == "eval":
                traced = None
                names = sorted({name for p in pairs for side in commits
                                for name in p[side].get("result", {}).get("metrics", {})})
                measured = [{"name": name, "better": "lower"} for name in names]
            else:
                traced = {side: run(trees[side], workload, args.first_seed, args.seconds, 1)
                          for side in commits}
                measured = metrics
            report["workloads"][workload] = {
                "summary": summarize(pairs, measured),
                "outcomes": outcomes(pairs),
                "pairs": pairs,
                "trace": traced,
            }
            (ROOT / args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"wrote {ROOT / args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
