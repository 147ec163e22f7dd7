"""End-to-end command-line runs against tiny corpora and checkpoints."""

import json

import numpy as np
import pytest

from convkv import cli
from convkv.checkpoint import load_checkpoint, save_checkpoint
from convkv.cli import ConfigError, main, read_config_file, resolve_config, build_parser
from convkv.model import ModelConfig, ModelParams, perplexity

from corpora import make_recall_corpus, write_corpus

TINY_ARGS = ["--n-layers", "1", "--n-heads", "1", "--head-dim", "8", "--max-context", "256"]


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.txt"
    write_corpus(path, make_recall_corpus(48, seed=5))
    return str(path)


@pytest.fixture(scope="module")
def base_ckpt(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "base.ckpt"
    config = ModelConfig(n_layers=1, n_heads=1, head_dim=8, max_context=256)
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

    def test_bool_none_and_float_values(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("detach_cache=yes\nrecent_budget=none\ncheckpoint=\nrope_base=500\n")
        assert read_config_file(p) == {
            "detach_cache": True, "recent_budget": None, "checkpoint": None, "rope_base": 500.0,
        }
        p.write_text("detach_cache=False\n")
        assert read_config_file(p) == {"detach_cache": False}

    @pytest.mark.parametrize("line, match", [
        ("detach_cache=maybe", "expects a boolean"),
        ("rope_base=big", "expects a number"),
        ("seed 7", "run.cfg:1: expected key=value"),
    ], ids=["bool", "float", "no-equals"])
    def test_bad_line_rejected(self, tmp_path, line, match):
        p = tmp_path / "run.cfg"
        p.write_text(line + "\n")
        with pytest.raises(ConfigError, match=match):
            read_config_file(p)

    def test_unreadable_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            read_config_file(tmp_path / "missing.cfg")

    def test_unknown_flag_rejected(self):
        assert main(["eval", "--no-such-flag", "1"]) == 1

    def test_bad_type_rejected(self):
        assert main(["eval", "--seed", "not-a-number"]) == 1


# settings that cannot work, each rejected before any file is read
UNWORKABLE = {
    "eval_capacity_0": ["eval", "--capacity", "0", "--policy", "lococo"],
    "eval_block_size_0": ["eval", "--block-size", "0"],
    "eval_block_beyond_capacity": ["eval", "--block-size", "40", "--policy", "h2o"],
    "eval_recent_budget_99": ["eval", "--policy", "h2o", "--recent-budget", "99"],
    "calibrate_relu_position_bogus": ["calibrate", "--relu-position", "bogus"],
    "calibrate_batch_size_0": ["calibrate", "--batch-size", "0"],
    "generate_block_size_0": ["generate", "--block-size", "0", "--prompt", "ab"],
    "pretrain_odd_head_dim": ["pretrain", "--n-heads", "2", "--head-dim", "3"],
    "pretrain_heads_negative": ["pretrain", "--n-heads", "-2", "--head-dim", "-32"],
    "pretrain_heads_0": ["pretrain", "--n-heads", "0", "--head-dim", "0"],
    "pretrain_d_model_is_no_flag": ["pretrain", "--d-model", "64"],  # n_heads * head_dim
    "pretrain_seed_negative": ["pretrain", "--seed", "-1"],
    "calibrate_seed_negative": ["calibrate", "--seed", "-1"],
    "generate_n_new_negative": ["generate", "--n-new", "-1", "--prompt", "ab"],
    "calibrate_context_not_block_multiple": ["calibrate", "--context-length", "20",
                                             "--block-size", "8"],
    "eval_context_length_1": ["eval", "--eval-context-length", "1"],
    "ablate_context_not_block_multiple": ["ablate", "--values", "16", "--context-length", "20"],
    "ablate_eval_context_length_1": ["ablate", "--values", "16", "--eval-context-length", "1"],
    "pretrain_rope_base_negative": ["pretrain", "--rope-base", "-1"],
    "pretrain_rope_base_nan": ["pretrain", "--rope-base", "nan"],
    "pretrain_interpolation_scale_nan": ["pretrain", "--interpolation-scale", "nan"],
    "pretrain_rope_base_inf": ["pretrain", "--rope-base", "inf"],
    "pretrain_interpolation_scale_inf": ["pretrain", "--interpolation-scale", "inf"],
    "calibrate_kernel_size_4": ["calibrate", "--kernel-size", "4"],
    "calibrate_kernel_size_0": ["calibrate", "--kernel-size", "0"],
    "ablate_kernel_size_4_after_3": ["ablate", "--axis", "kernel_size", "--values", "3,4"],
    "eval_policies_empty": ["eval", "--policies", ","],
    "eval_capacities_bad": ["eval", "--capacities", "8,x"],
    "generate_empty_prompt": ["generate", "--prompt", ""],
    "calibrate_context_never_merges": ["calibrate", "--context-length", "24"],
    "ablate_context_never_merges": ["ablate", "--values", "16", "--context-length", "24"],
}


@pytest.mark.parametrize("args, knob", [
    (["--policy", "sink_window", "--n-sink", "20"], "n_sink"),
    (["--policy", "h2o", "--recent-budget", "20"], "recent_budget"),
    (["--policy", "h2o", "--recent-budget", "16"], "recent_budget"),  # no heavy hitter left
    (["--policy", "lococo+h2o", "--reserved", "20"], "reserved"),
], ids=["n_sink", "recent_budget", "recent_budget_at_capacity", "reserved"])
def test_knob_beyond_capacity_is_named(args, knob, tmp_path, capsys):
    garbage = tmp_path / "garbage"
    garbage.write_bytes(b"not a checkpoint")
    code = main(["eval", "--capacity", "16", *args, "--corpus", str(garbage),
                 "--checkpoint", str(garbage), "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert f"needs 0 <= {knob} < capacity 16" in capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(UNWORKABLE))
def test_unworkable_setting_exits_1_before_reading_files(case, tmp_path, capsys):
    # a garbage checkpoint would exit 2 if it were read
    garbage = tmp_path / "garbage"
    garbage.write_bytes(b"not a checkpoint")
    out = tmp_path / "out"
    code = main([*UNWORKABLE[case], "--corpus", str(garbage), "--checkpoint", str(garbage),
                 "--out-dir", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


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

    @pytest.mark.parametrize("args", [
        ["pretrain", "--corpus", "{dir}"],
        ["generate", "--checkpoint", "{dir}", "--prompt", "ab"],
        ["generate", "--checkpoint", "{ckpt}", "--prompt-file", "{dir}"],
    ], ids=["corpus", "checkpoint", "prompt_file"])
    def test_directory_for_a_file_is_validation_error(self, base_ckpt, tmp_path, capsys, args):
        out = tmp_path / "out"
        args = [a.format(dir=tmp_path, ckpt=base_ckpt) for a in args]
        assert main([*args, "--out-dir", str(out)]) == 1
        assert "file not found" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_steps_saves_init_and_reports_nan_loss(self, corpus_file, tmp_path, capsys):
        out = tmp_path / "run"
        code = main([
            "pretrain", "--corpus", corpus_file, "--out-dir", str(out),
            "--steps", "0", "--batch-size", "2", "--context-length", "16", *TINY_ARGS,
        ])
        assert code == 0
        assert "pretrained 0 steps, final loss nan" in capsys.readouterr().out
        config = ModelConfig(n_layers=1, n_heads=1, head_dim=8, max_context=256)
        loaded = load_checkpoint(out / "model.ckpt")
        assert loaded.base_fingerprint() == ModelParams.init(config, seed=0).base_fingerprint()


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

    def test_sweep_evaluates_each_distinct_policy_once(self, corpus_file, base_ckpt, tmp_path):
        # concat ignores capacity: its three specs are one, and make one row
        csvs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main([
                "eval", "--corpus", corpus_file, "--checkpoint", base_ckpt,
                "--out-dir", str(out), "--policies", "concat,h2o",
                "--capacities", "8,16,32", "--block-size", "4", "--seed", "3",
            ]) == 0
            lines = (out / "eval.csv").read_text().strip().splitlines()
            assert [line.split(",")[:2] for line in lines[1:]] == [
                ["concat", ""], ["h2o", "8"], ["h2o", "16"], ["h2o", "32"]]
            report = json.loads((out / "eval_report.json").read_text())
            assert [(r["policy"], r["config"].get("capacity")) for r in report] == [
                ("concat", None), ("h2o", 8), ("h2o", 16), ("h2o", 32)]
            csvs.append((out / "eval.csv").read_bytes())
        assert csvs[0] == csvs[1]

    def test_checkpoint_with_trailing_bytes_is_runtime_error(self, corpus_file, base_ckpt, tmp_path):
        padded = tmp_path / "padded.ckpt"
        with open(base_ckpt, "rb") as fh:
            padded.write_bytes(fh.read() + bytes(8))
        code = main([
            "eval", "--corpus", corpus_file, "--checkpoint", str(padded),
            "--out-dir", str(tmp_path), "--policy", "concat",
        ])
        assert code == 2

    def test_overflowing_weights_are_runtime_error(self, corpus_file, tmp_path, capsys):
        config = ModelConfig(n_layers=1, n_heads=1, head_dim=8, max_context=256)
        params = ModelParams.init(config, seed=1)
        params.layers[0].mlp_out.data = params.layers[0].mlp_out.data * 1e200
        path = tmp_path / "overflow.ckpt"
        save_checkpoint(params, path)
        code = main([
            "eval", "--corpus", corpus_file, "--checkpoint", str(path),
            "--out-dir", str(tmp_path), "--policy", "concat",
        ])
        assert code == 2
        assert "NonFiniteError" in capsys.readouterr().err

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

    def test_prompt_file(self, calibrated_ckpt, tmp_path, capsys):
        prompt = tmp_path / "prompt.txt"
        prompt.write_bytes(b"K:AB")
        args = ["generate", "--checkpoint", calibrated_ckpt, "--out-dir", str(tmp_path / "gen"),
                "--n-new", "0", "--policy", "concat"]
        assert main([*args, "--prompt-file", str(prompt)]) == 0
        assert capsys.readouterr().out == "K:AB\n"
        assert main([*args, "--prompt-file", str(tmp_path / "missing.txt")]) == 1
        assert "prompt_file file not found" in capsys.readouterr().err

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

    def test_one_row_per_value_where_the_specs_are_one(self, corpus_file, base_ckpt, tmp_path):
        # concat ignores the swept capacity; ablate still reports every value
        out = tmp_path / "ab3"
        assert main([
            "ablate", "--corpus", corpus_file, "--checkpoint", base_ckpt,
            "--out-dir", str(out), "--axis", "memory_size", "--values", "8,16",
            "--policy", "concat", "--block-size", "4",
        ]) == 0
        lines = (out / "ablate.csv").read_text().strip().splitlines()
        assert [line.split(",")[0] for line in lines] == ["value", "8", "16"]

    @pytest.mark.parametrize("axis, values, policy", [
        ("memory_size", "8,16,32", ["--policy", "concat"]),
        ("kernel_size", "3,5,7", ["--policy", "h2o", "--capacity", "8"]),
    ], ids=["concat_memory_size", "h2o_kernel_size"])
    def test_a_spec_without_conv_heads_is_evaluated_once(self, corpus_file, base_ckpt, tmp_path,
                                                         monkeypatch, axis, values, policy):
        # the policy ignores the swept axis: three equal rows from one perplexity pass
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return perplexity(*args, **kwargs)

        monkeypatch.setattr(cli, "perplexity", counted)
        out = tmp_path / "ab4"
        assert main([
            "ablate", "--corpus", corpus_file, "--checkpoint", base_ckpt,
            "--out-dir", str(out), "--axis", axis, "--values", values, *policy, "--block-size", "4",
        ]) == 0
        rows = [line.split(",") for line in (out / "ablate.csv").read_text().strip().splitlines()[1:]]
        assert [value for value, _ in rows] == values.split(",")
        assert len({ppl for _, ppl in rows}) == 1
        assert [spec.name for spec in calls] == [policy[1]]

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


# each command with a spec that the 8-slot heads of ``calibrated_ckpt`` cannot serve
HEADS_MISMATCH = {
    "eval": ["eval", "--policies", "h2o,lococo", "--capacities", "8,16"],
    "generate": ["generate", "--policy", "lococo", "--capacity", "16", "--prompt", "ab"],
    "calibrate": ["calibrate", "--capacity", "12", "--context-length", "32"],
    "ablate": ["ablate", "--axis", "memory_size", "--values", "8,12", "--context-length", "32"],
}


class TestHeadsThatCannotServe:
    """A checkpoint whose conv heads cannot serve a requested policy is a validation
    error found before any artifact is written, not a runtime error after some."""

    @pytest.mark.parametrize("command", sorted(HEADS_MISMATCH))
    def test_exits_1_and_writes_nothing(self, command, corpus_file, calibrated_ckpt, tmp_path,
                                        capsys):
        out = tmp_path / "out"
        code = main([*HEADS_MISMATCH[command], "--corpus", corpus_file, "--checkpoint",
                     calibrated_ckpt, "--out-dir", str(out), "--block-size", "4",
                     "--steps", "1", "--batch-size", "2", "--kernel-size", "5"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "got 8" in err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["calibrate", "--kernel-size", "7"],
        ["calibrate"],  # the default kernel size, 21
        ["calibrate", "--kernel-size", "5", "--relu-position", "pre"],
        ["ablate", "--axis", "kernel_size", "--values", "3,7"],
        ["ablate", "--axis", "policy", "--values", "h2o,lococo"],  # lococo at the default 21
    ], ids=["calibrate_7", "calibrate_default", "calibrate_pre", "ablate_3_7", "ablate_policy"])
    def test_calibrating_heads_of_another_shape_exits_1(self, args, corpus_file, calibrated_ckpt,
                                                        tmp_path, capsys):
        # the 5-tap heads would be trained as they are, and the run labelled otherwise
        out = tmp_path / "out"
        code = main([*args, "--corpus", corpus_file, "--checkpoint", calibrated_ckpt,
                     "--out-dir", str(out), "--capacity", "8", "--block-size", "4",
                     "--context-length", "16", "--steps", "1", "--batch-size", "2"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: calibration asks for heads of kernel size")
        assert "the model's head at layer 0 has 5 and 'post'" in err
        assert not out.exists()

    def test_calibrate_trains_heads_that_fit(self, corpus_file, calibrated_ckpt, tmp_path):
        out = tmp_path / "again"
        code = main(["calibrate", "--corpus", corpus_file, "--checkpoint", calibrated_ckpt,
                     "--out-dir", str(out), "--capacity", "8", "--block-size", "4",
                     "--kernel-size", "5", "--context-length", "16", "--steps", "1",
                     "--batch-size", "2"])
        assert code == 0
        assert load_checkpoint(out / "calibrated.ckpt").conv_heads[0].slots == 8


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
