"""Command-line harness: pretrain, calibrate, eval, generate, ablate.

Configuration is a plain key=value file overridden by command-line flags; the
parsed config is echoed into every run's output directory for provenance.
Users are scripts and CI: no interactive mode, artifacts are CSV/JSON, and
exit codes are 0 (success), 1 (validation error), 2 (runtime error).

The perplexity/memory CSVs are byte-reproducible for a fixed seed; wall-clock
fields (tokens/sec, timestamps) only appear in the JSON reports and on stdout.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .compressor import RELU_POSITIONS
from .corpus import corpus_to_ids, load_corpus
from .instrumentation import compare_policies, write_reports_json
from .model import ModelConfig, ModelParams, generate, perplexity
from .policies import PolicySpec
from .training import (TrainConfig, calibrate_conv_heads, check_calibration, check_heads, pretrain,
                       write_loss_trace)

ABLATE_AXES = ("kernel_size", "memory_size", "policy")


class ConfigError(ValueError):
    """Bad flags, config keys, or inconsistent settings; exits with code 1."""


def _checked(build, *args, **kwargs):
    """``build(*args, **kwargs)``, raising the ValueError of a setting that
    cannot work as a ConfigError."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass
class RunConfig:
    """Every knob the CLI understands; also the provenance record."""

    # paths
    corpus: str | None = None
    checkpoint: str | None = None
    out_dir: str = "runs"
    # cache policy
    policy: str = "lococo"
    capacity: int = 16
    block_size: int = 8
    kernel_size: int = 21
    relu_position: str = "post"
    n_sink: int = 4
    recent_budget: int | None = None
    reserved: int = 4
    # training
    seed: int = 0
    steps: int = 200
    batch_size: int = 16
    learning_rate_base: float = 2e-2
    learning_rate_conv: float = 5e-2
    context_length: int = 64
    detach_cache: bool = False
    # evaluation
    eval_context_length: int = 64
    policies: str | None = None  # comma list for eval sweeps
    capacities: str | None = None  # comma list for eval sweeps
    # model architecture
    n_layers: int = 2
    n_heads: int = 2
    head_dim: int = 32
    max_context: int = 4096
    mlp_ratio: int = 4
    rope_base: float = 10000.0
    interpolation_scale: float = 1.0
    # generation
    prompt: str = ""
    prompt_file: str | None = None
    n_new: int = 0
    # ablation
    axis: str = "memory_size"
    values: str = ""

    # these raise ConfigError for settings that cannot work; commands call them first

    def model_config(self) -> ModelConfig:
        """The architecture knobs, each named as its ModelConfig field."""
        names = [f.name for f in dataclasses.fields(ModelConfig) if f.name in _FIELD_TYPES]
        return _checked(ModelConfig, **{name: getattr(self, name) for name in names})

    def train_config(self, seed: int | None = None) -> TrainConfig:
        """The training knobs; also checks the conv heads' ``relu_position``."""
        if self.relu_position not in RELU_POSITIONS:
            raise ConfigError(f"relu_position must be one of {RELU_POSITIONS}")
        return _checked(
            TrainConfig,
            learning_rate_base=self.learning_rate_base,
            learning_rate_conv=self.learning_rate_conv,
            steps=self.steps,
            batch_size=self.batch_size,
            seed=self.seed if seed is None else seed,
            context_length=self.context_length,
            detach_cache_between_blocks=self.detach_cache,
        )

    def calibration_config(self, spec: PolicySpec, kernel_size: int | None = None) -> TrainConfig:
        """``train_config`` for calibrating ``spec`` with heads of ``kernel_size`` taps
        (default ``self.kernel_size``), rejecting a setting that cannot train."""
        kernel_size = self.kernel_size if kernel_size is None else kernel_size
        if kernel_size < 1 or kernel_size % 2 == 0:
            raise ConfigError(f"kernel_size must be odd and positive, got {kernel_size}")
        _checked(check_calibration, spec, self.block_size, self.context_length)
        return self.train_config()

    def policy_spec(self, name: str | None = None, capacity: int | None = None) -> PolicySpec:
        """The named policy, checked against ``block_size``."""
        spec = _checked(
            PolicySpec,
            name=self.policy if name is None else name,
            capacity=self.capacity if capacity is None else capacity,
            n_sink=self.n_sink,
            recent_budget=self.recent_budget,
            reserved=self.reserved,
        )
        _checked(spec.check_block_size, self.block_size)
        return spec


_FIELD_TYPES = {f.name: f for f in dataclasses.fields(RunConfig)}


def _coerce(key: str, raw: str):
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    text = raw.strip()
    ftype = _FIELD_TYPES[key].type
    if "None" in ftype and text.lower() in ("none", ""):
        return None
    if "bool" in ftype:
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"config key {key!r} expects a boolean, got {raw!r}")
    if "int" in ftype:
        try:
            return int(text)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r} expects an integer, got {raw!r}") from exc
    if "float" in ftype:
        try:
            return float(text)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r} expects a number, got {raw!r}") from exc
    return text


def read_config_file(path: str | Path) -> dict:
    """Parse `key=value` lines; '#' starts a comment, unknown keys are errors."""
    values = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, raw = stripped.split("=", 1)
        values[key.strip()] = _coerce(key.strip(), raw)
    return values


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        raise ConfigError(message)


def _add_common(parser):
    parser.add_argument("--config", help="key=value config file")
    for f in dataclasses.fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        if "bool" in f.type:
            parser.add_argument(flag, action=argparse.BooleanOptionalAction, default=None)
        else:
            parser.add_argument(flag, default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="convkv", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("pretrain", "train a base model on a byte corpus"),
        ("calibrate", "freeze the base model and train compression heads"),
        ("eval", "perplexity, memory and throughput for policy/capacity settings"),
        ("generate", "greedy block-buffered decoding from a prompt: each layer's "
                     "cache is updated once per --block-size tokens, so a bounded "
                     "policy holds at most capacity + block-size columns per head"),
        ("ablate", "sweep kernel size, memory size, or policy"),
    ]:
        _add_common(sub.add_parser(name, help=help_text))
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        for key, value in read_config_file(args.config).items():
            setattr(cfg, key, value)
    for f in dataclasses.fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is None:
            continue
        setattr(cfg, f.name, value if not isinstance(value, str) else _coerce(f.name, value))
    return cfg


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        value = getattr(cfg, name)
        if not value:
            raise ConfigError(f"this command requires --{name.replace('_', '-')}")
        if name in ("corpus", "checkpoint", "prompt_file") and not Path(value).is_file():
            raise ConfigError(f"{name} file not found: {value}")


def _require_at_least(cfg: RunConfig, name: str, low: int) -> None:
    if getattr(cfg, name) < low:
        raise ConfigError(f"{name} must be at least {low}, got {getattr(cfg, name)}")


def _serving(params: ModelParams, specs: list[PolicySpec], block_size: int) -> ModelParams:
    """``params``, once ``PolicySpec.build`` has checked that its conv heads and
    layers serve each of ``specs`` at ``block_size``."""
    for spec in specs:
        _checked(spec.build, params.conv_heads, params.config.n_layers, block_size)
    return params


def _calibratable(params: ModelParams, runs: list[tuple[PolicySpec, int]],
                  cfg: RunConfig) -> ModelParams:
    """``params``, once the conv heads it has, which calibration trains as they
    are, are checked to serve each (spec, kernel size) run."""
    for spec, kernel_size in runs if params.conv_heads is not None else ():
        _serving(params, [spec], cfg.block_size)
        _checked(check_heads, params, kernel_size, cfg.relu_position)
    return params


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo_config(cfg: RunConfig, out: Path, command: str) -> None:
    payload = {"command": command, **dataclasses.asdict(cfg)}
    (out / f"{command}_config.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n"
    )


def _parse_list(text: str, kind, what: str) -> list:
    items = [v.strip() for v in text.split(",") if v.strip()]
    if not items:
        raise ConfigError(f"empty {what} list")
    try:
        return [kind(v) for v in items]
    except ValueError as exc:
        raise ConfigError(f"bad {what} value in {text!r}") from exc


def _write_rows_csv(path: Path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def cmd_pretrain(cfg: RunConfig) -> int:
    _require(cfg, "corpus")
    model_config, train_config = cfg.model_config(), cfg.train_config()
    out = _out_dir(cfg)
    _echo_config(cfg, out, "pretrain")
    ids = load_corpus(cfg.corpus)
    params, trace = pretrain(ids, model_config, train_config)
    ckpt = Path(cfg.checkpoint) if cfg.checkpoint else out / "model.ckpt"
    save_checkpoint(params, ckpt)
    write_loss_trace(out / "pretrain_trace.csv", trace)
    final = trace[-1][1] if trace else float("nan")
    print(f"pretrained {len(trace)} steps, final loss {final:.4f}, saved {ckpt}")
    return 0


def cmd_calibrate(cfg: RunConfig) -> int:
    _require(cfg, "corpus", "checkpoint")
    spec = cfg.policy_spec()
    train_config = cfg.calibration_config(spec)
    params = _calibratable(load_checkpoint(cfg.checkpoint), [(spec, cfg.kernel_size)], cfg)
    out = _out_dir(cfg)
    _echo_config(cfg, out, "calibrate")
    ids = load_corpus(cfg.corpus)
    trace = calibrate_conv_heads(
        params, ids, spec, cfg.block_size, train_config,
        kernel_size=cfg.kernel_size, relu_position=cfg.relu_position,
    )
    ckpt = out / "calibrated.ckpt"
    save_checkpoint(params, ckpt)
    write_loss_trace(out / "calibrate_trace.csv", trace)
    final = trace[-1][1] if trace else float("nan")
    print(f"calibrated {len(trace)} steps, final loss {final:.4f}, saved {ckpt}")
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    _require(cfg, "corpus", "checkpoint")
    names = _parse_list(cfg.policies, str, "policy") if cfg.policies else [cfg.policy]
    caps = _parse_list(cfg.capacities, int, "capacity") if cfg.capacities else [cfg.capacity]
    # concat ignores capacity, so a sweep may name one spec more than once: run it once
    specs = list(dict.fromkeys(cfg.policy_spec(n, c) for n in names for c in caps))
    _require_at_least(cfg, "eval_context_length", 2)
    params = _serving(load_checkpoint(cfg.checkpoint), specs, cfg.block_size)
    out = _out_dir(cfg)
    _echo_config(cfg, out, "eval")
    ids = load_corpus(cfg.corpus)
    reports = compare_policies(
        params, ids, specs, cfg.eval_context_length, cfg.block_size,
        config_echo={"seed": cfg.seed},
    )
    rows = [
        {
            "policy": spec.name,
            "capacity": "" if spec.capacity is None else spec.capacity,
            "block_size": cfg.block_size,
            "eval_context_length": cfg.eval_context_length,
            "seed": cfg.seed,
            "perplexity": repr(report.perplexity),
            "peak_live_entries": report.peak_live_entries,
        }
        for spec, report in zip(specs, reports)
    ]
    _write_rows_csv(out / "eval.csv", rows)
    write_reports_json(out / "eval_report.json", reports)
    for row, report in zip(rows, reports):
        print(
            f"policy={row['policy']} capacity={row['capacity']} "
            f"perplexity={report.perplexity:.4f} peak_live={row['peak_live_entries']} "
            f"tokens/s={report.tokens_per_second:.0f}"
        )
    return 0


def cmd_generate(cfg: RunConfig) -> int:
    _require(cfg, "checkpoint")
    spec = cfg.policy_spec()
    _require_at_least(cfg, "n_new", 0)
    if cfg.prompt_file:
        _require(cfg, "prompt_file")
        prompt_bytes = Path(cfg.prompt_file).read_bytes()
    else:
        prompt_bytes = cfg.prompt.encode("utf-8")
    if not prompt_bytes:
        raise ConfigError("empty prompt; pass --prompt or --prompt-file")
    params = _serving(load_checkpoint(cfg.checkpoint), [spec], cfg.block_size)
    out = _out_dir(cfg)
    _echo_config(cfg, out, "generate")
    result = generate(params, corpus_to_ids(prompt_bytes), cfg.n_new, spec, cfg.block_size)
    text = bytes(int(t) for t in result)
    (out / "generated.txt").write_bytes(text)
    sys.stdout.write(text.decode("latin-1"))
    sys.stdout.write("\n")
    return 0


def cmd_ablate(cfg: RunConfig) -> int:
    _require(cfg, "corpus", "checkpoint")
    if cfg.axis not in ABLATE_AXES:
        raise ConfigError(f"axis must be one of {ABLATE_AXES}, got {cfg.axis!r}")
    if not cfg.values.strip():
        raise ConfigError("ablation needs a non-empty --values list")
    values = _parse_list(cfg.values, str if cfg.axis == "policy" else int, "ablation")
    cfg.train_config()
    _require_at_least(cfg, "eval_context_length", 2)
    runs = []  # (value, policy, kernel size)
    for value in values:
        spec = cfg.policy_spec(value if cfg.axis == "policy" else None,
                               value if cfg.axis == "memory_size" else None)
        kernel = value if cfg.axis == "kernel_size" else cfg.kernel_size
        if spec.needs_conv_head:
            cfg.calibration_config(spec, kernel)
        runs.append((value, spec, kernel))
    _calibratable(load_checkpoint(cfg.checkpoint),
                  [(spec, kernel) for _, spec, kernel in runs if spec.needs_conv_head], cfg)
    out = _out_dir(cfg)
    _echo_config(cfg, out, "ablate")
    ids = load_corpus(cfg.corpus)

    rows = []
    uncalibrated = {}  # perplexity by spec, for each spec that needs no conv head: one pass each
    for index, (value, spec, kernel) in enumerate(runs):
        if spec in uncalibrated:
            ppl = uncalibrated[spec]
        else:
            params = load_checkpoint(cfg.checkpoint)
            if spec.needs_conv_head:
                run_seed = int(np.random.SeedSequence([cfg.seed, index]).generate_state(1)[0])
                calibrate_conv_heads(
                    params, ids, spec, cfg.block_size,
                    cfg.train_config(seed=run_seed),
                    kernel_size=kernel, relu_position=cfg.relu_position,
                )
            ppl = perplexity(params, ids, spec, cfg.eval_context_length, cfg.block_size)
            if not spec.needs_conv_head:
                uncalibrated[spec] = ppl
        rows.append({"value": value, "perplexity": repr(ppl)})
        print(f"{cfg.axis}={value} perplexity={ppl:.4f}")
    _write_rows_csv(out / "ablate.csv", rows)
    return 0


COMMANDS = {
    "pretrain": cmd_pretrain,
    "calibrate": cmd_calibrate,
    "eval": cmd_eval,
    "generate": cmd_generate,
    "ablate": cmd_ablate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = resolve_config(args)
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure: report and exit 2
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
