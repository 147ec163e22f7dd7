"""End-to-end command-line runs against tiny corpora and checkpoints."""

import json

import numpy as np
import pytest

from convkv.checkpoint import load_checkpoint, save_checkpoint
from convkv.cli import ConfigError, main, read_config_file, resolve_config, build_parser
from convkv.corpus import make_recall_corpus, write_corpus
from convkv.model import ModelConfig, ModelParams

TINY_ARGS = [
    "--d-model", "8", "--n-layers", "1", "--n-heads", "1", "--head-dim", "8",
    "--max-context", "256",
]


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.txt"
    write_corpus(path, make_recall_corpus(48, seed=5))
    return str(path)


@pytest.fixture(scope="module")
def base_ckpt(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "base.ckpt"
    config = ModelConfig(d_model=8, n_layers=1, n_heads=1, head_dim=8, max_context=256)
    save_checkpoint(ModelParams.init(config, seed=1), path)
    return str(path)


class TestConfigParsing:
    def test_key_value_file_with_comments(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# a comment\nseed=7\nblock_size = 4  # trailing\npolicy=h2o\n")
        values = read_config_file(p)
        assert values == {"seed": 7, "block_size": 4, "policy": "h2o"}

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("blocksize=4\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            read_config_file(p)

    def test_cli_overrides_config_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("seed=7\ncapacity=32\n")
        args = build_parser().parse_args(["eval", "--config", str(p), "--seed", "9"])
        cfg = resolve_config(args)
        assert cfg.seed == 9 and cfg.capacity == 32

    def test_unknown_flag_rejected(self):
        assert main(["eval", "--no-such-flag", "1"]) == 1

    def test_bad_type_rejected(self):
        assert main(["eval", "--seed", "not-a-number"]) == 1


class TestPretrainCommand:
    def test_writes_checkpoint_trace_and_config_echo(self, corpus_file, tmp_path):
        out = tmp_path / "run"
        code = main([
            "pretrain", "--corpus", corpus_file, "--out-dir", str(out),
            "--steps", "2", "--batch-size", "2", "--context-length", "16",
            *TINY_ARGS,
        ])
        assert code == 0
        assert (out / "model.ckpt").exists()
        assert (out / "pretrain_trace.csv").read_text().startswith("step,loss,lr")
        echo = json.loads((out / "pretrain_config.json").read_text())
        assert echo["command"] == "pretrain" and echo["steps"] == 2

    def test_missing_corpus_is_validation_error(self, tmp_path):
        assert main(["pretrain", "--out-dir", str(tmp_path)]) == 1

    def test_nonexistent_corpus_path(self, tmp_path):
        assert main(["pretrain", "--corpus", "/nope.txt", "--out-dir", str(tmp_path)]) == 1


class TestCalibrateCommand:
    def test_produces_calibrated_checkpoint(self, corpus_file, base_ckpt, tmp_path):
        out = tmp_path / "cal"
        code = main([
            "calibrate", "--corpus", corpus_file, "--checkpoint", base_ckpt,
            "--out-dir", str(out), "--steps", "2", "--batch-size", "2",
            "--capacity", "8", "--block-size", "4", "--kernel-size", "5",
            "--context-length", "16",
        ])
        assert code == 0
        params = load_checkpoint(out / "calibrated.ckpt")
        assert params.conv_heads is not None
        assert params.conv_heads[0].slots == 8

    def test_eviction_policy_rejected(self, corpus_file, base_ckpt, tmp_path):
        code = main([
            "calibrate", "--corpus", corpus_file, "--checkpoint", base_ckpt,
            "--out-dir", str(tmp_path), "--policy", "h2o",
        ])
        assert code == 1


@pytest.fixture(scope="module")
def wide_head_ckpt(base_ckpt, tmp_path_factory):
    """Base model plus 64-slot heads: merging never leaves the fill branch."""
    path = tmp_path_factory.mktemp("wide") / "wide.ckpt"
    params = load_checkpoint(base_ckpt)
    params.install_conv_heads(slots=64, kernel_size=5, seed=2)
    save_checkpoint(params, path)
    return str(path)


@pytest.fixture(scope="module")
def calibrated_ckpt(corpus_file, base_ckpt, tmp_path_factory):
    out = tmp_path_factory.mktemp("cal")
    code = main([
        "calibrate", "--corpus", corpus_file, "--checkpoint", base_ckpt,
        "--out-dir", str(out), "--steps", "2", "--batch-size", "2",
        "--capacity", "8", "--block-size", "4", "--kernel-size", "5",
        "--context-length", "16",
    ])
    assert code == 0
    return str(out / "calibrated.ckpt")


class TestEvalCommand:
    def test_multi_policy_rows_and_equivalence(self, corpus_file, wide_head_ckpt, tmp_path):
        out = tmp_path / "eval"
        code = main([
            "eval", "--corpus", corpus_file, "--checkpoint", wide_head_ckpt,
            "--out-dir", str(out), "--policies", "concat,lococo",
            "--capacity", "64", "--block-size", "4", "--eval-context-length", "64",
        ])
        assert code == 0
        lines = (out / "eval.csv").read_text().strip().splitlines()
        assert lines[0] == (
            "policy,capacity,block_size,eval_context_length,seed,perplexity,peak_live_entries"
        )
        assert len(lines) == 3
        # capacity >= window: the merging cache never compresses, same perplexity
        ppl = [line.split(",")[5] for line in lines[1:]]
        assert ppl[0] == ppl[1]

    def test_capacity_sweep_emits_one_row_per_value(self, corpus_file, calibrated_ckpt, tmp_path):
        out = tmp_path / "sweep"
        code = main([
            "eval", "--corpus", corpus_file, "--checkpoint", calibrated_ckpt,
            "--out-dir", str(out), "--policy", "h2o",
            "--capacities", "8,16,32,64", "--block-size", "4",
        ])
        assert code == 0
        lines = (out / "eval.csv").read_text().strip().splitlines()
        assert len(lines) == 5
        report = json.loads((out / "eval_report.json").read_text())
        assert len(report) == 4 and all("tokens_per_second" in r for r in report)

    def test_checkpoint_with_trailing_bytes_is_runtime_error(self, corpus_file, base_ckpt, tmp_path):
        padded = tmp_path / "padded.ckpt"
        with open(base_ckpt, "rb") as fh:
            padded.write_bytes(fh.read() + bytes(8))
        code = main([
            "eval", "--corpus", corpus_file, "--checkpoint", str(padded),
            "--out-dir", str(tmp_path), "--policy", "concat",
        ])
        assert code == 2

    def test_byte_identical_reruns(self, corpus_file, calibrated_ckpt, tmp_path):
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main([
                "eval", "--corpus", corpus_file, "--checkpoint", calibrated_ckpt,
                "--out-dir", str(out), "--policies", "lococo,h2o,sink_window",
                "--capacity", "8", "--block-size", "4", "--seed", "3",
            ]) == 0
            outs.append((out / "eval.csv").read_bytes())
        assert outs[0] == outs[1]


class TestGenerateCommand:
    def test_zero_new_tokens_echoes_prompt(self, calibrated_ckpt, tmp_path, capsys):
        out = tmp_path / "gen"
        code = main([
            "generate", "--checkpoint", calibrated_ckpt, "--out-dir", str(out),
            "--prompt", "K:ABCD|", "--n-new", "0", "--policy", "concat",
        ])
        assert code == 0
        assert capsys.readouterr().out == "K:ABCD|\n"
        assert (out / "generated.txt").read_bytes() == b"K:ABCD|"

    def test_generates_requested_count(self, calibrated_ckpt, tmp_path, capsys):
        out = tmp_path / "gen2"
        code = main([
            "generate", "--checkpoint", calibrated_ckpt, "--out-dir", str(out),
            "--prompt", "K:AB", "--n-new", "5", "--policy", "lococo",
            "--capacity", "8", "--block-size", "4",
        ])
        assert code == 0
        assert len((out / "generated.txt").read_bytes()) == 4 + 5


class TestAblateCommand:
    def test_kernel_size_axis(self, corpus_file, base_ckpt, tmp_path):
        out = tmp_path / "ab"
        code = main([
            "ablate", "--corpus", corpus_file, "--checkpoint", base_ckpt,
            "--out-dir", str(out), "--axis", "kernel_size", "--values", "3,5",
            "--capacity", "8", "--block-size", "4", "--steps", "1",
            "--batch-size", "2", "--context-length", "16",
        ])
        assert code == 0
        lines = (out / "ablate.csv").read_text().strip().splitlines()
        assert lines[0] == "value,perplexity"
        assert len(lines) == 3

    def test_policy_axis_skips_calibration_for_eviction(self, corpus_file, base_ckpt, tmp_path):
        out = tmp_path / "ab2"
        code = main([
            "ablate", "--corpus", corpus_file, "--checkpoint", base_ckpt,
            "--out-dir", str(out), "--axis", "policy", "--values", "h2o,sink_window",
            "--capacity", "8", "--block-size", "4",
        ])
        assert code == 0
        assert len((out / "ablate.csv").read_text().strip().splitlines()) == 3

    def test_empty_values_rejected(self, corpus_file, base_ckpt, tmp_path):
        code = main([
            "ablate", "--corpus", corpus_file, "--checkpoint", base_ckpt,
            "--out-dir", str(tmp_path), "--axis", "memory_size", "--values", "",
        ])
        assert code == 1

    def test_bad_axis_rejected(self, corpus_file, base_ckpt, tmp_path):
        code = main([
            "ablate", "--corpus", corpus_file, "--checkpoint", base_ckpt,
            "--out-dir", str(tmp_path), "--axis", "dropout", "--values", "1",
        ])
        assert code == 1


class TestReportCommand:
    def test_reports_csv_and_json(self, corpus_file, calibrated_ckpt, tmp_path, capsys):
        out = tmp_path / "rep"
        code = main([
            "eval", "--corpus", corpus_file, "--checkpoint", calibrated_ckpt,
            "--out-dir", str(out), "--policies", "concat,lococo", "--capacity", "8",
            "--block-size", "4",
        ])
        assert code == 0
        assert (out / "eval.csv").exists()
        payload = json.loads((out / "eval_report.json").read_text())
        assert [r["policy"] for r in payload] == ["concat", "lococo"]
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2 and all("tokens/s=" in line for line in lines)

    def test_runtime_error_exit_code(self, corpus_file, tmp_path):
        # checkpoint exists but is garbage: passes validation then fails at load
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint")
        code = main([
            "eval", "--corpus", corpus_file, "--checkpoint", str(bad),
            "--out-dir", str(tmp_path),
        ])
        assert code == 2
