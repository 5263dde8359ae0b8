"""Tests for the CLI and the low-bit memory model."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.models import build_cnn


class TestCLI:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["partition", "--model", "vgg11"])
        assert args.command == "partition"

    def test_partition_command_runs(self, capsys):
        rc = main([
            "partition", "--model", "cnn3", "--image-size", "16",
            "--batch-size", "8", "--r-min-fraction", "0.5",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "modules" in out and "MemReq" in out

    def test_partition_low_bit_fewer_or_equal_modules(self, capsys):
        main(["partition", "--model", "vgg16", "--r-min-mb", "60"])
        fp32 = capsys.readouterr().out
        main(["partition", "--model", "vgg16", "--r-min-mb", "60", "--bytes-per-scalar", "2"])
        fp16 = capsys.readouterr().out

        def count(out):
            return int(out.split(" modules")[0].rsplit(" ", 1)[-1])

        assert count(fp16) <= count(fp32)

    def test_devices_command_runs(self, capsys):
        rc = main(["devices", "--pool", "cifar10", "--samples", "20"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "TX2" in out and "avail mem" in out

    def test_train_command_tiny_run(self, capsys):
        rc = main([
            "train", "--method", "jfat", "--rounds", "1", "--clients", "4",
            "--clients-per-round", "2", "--local-iters", "1",
            "--train-per-class", "10", "--pgd-steps", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "clean" in out and "PGD" in out

    def test_train_choices_are_the_engine_tables(self):
        # The flags' choices are the config fields' declared tables, which
        # are the ones the engine validates against.
        from repro.flsim.population import MATERIALISATIONS, POPULATION_SCHEMES
        from repro.flsim.robust_agg import AGGREGATION_RULES

        train = next(
            action for action in build_parser()._actions
            if isinstance(action.choices, dict)
        ).choices["train"]
        choices = {a.dest: a.choices for a in train._actions}
        assert tuple(choices["aggregation_rule"]) == AGGREGATION_RULES
        assert tuple(choices["population_scheme"]) == POPULATION_SCHEMES
        assert tuple(choices["client_materialisation"]) == MATERIALISATIONS

    @pytest.mark.fault_tolerance
    @pytest.mark.docs
    @pytest.mark.parametrize("flags, field", [
        (["--checkpoint-every", "2"], "checkpoint_every"),
        (["--eval-every-merge", "2"], "eval_every_merge"),
        (["--pipeline-depth", "0"], "pipeline_depth"),
        (["--fault-plan", '{"bogus": 1}'], "bogus"),
        (["--client-timeout", "inf"], "client_timeout"),
    ])
    def test_a_refused_config_is_an_error_line_before_the_task(
            self, flags, field, capsys, monkeypatch):
        import repro.data

        def no_task(**kwargs):
            raise AssertionError("the task was built before the config")

        monkeypatch.setattr(repro.data, "make_cifar10_like", no_task)
        rc = main(["train", "--rounds", "1", *flags])
        captured = capsys.readouterr()
        assert rc == 2
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and field in lines[0]
        assert captured.out == ""

    @pytest.mark.round_engine
    @pytest.mark.fault_tolerance
    @pytest.mark.parametrize("flags, words", [
        (["--aggregation-mode", "async", "--pipeline-depth", "2"], "pipeline_depth > 1"),
        (["--method", "jfat", "--samples-per-client", "5"], "samples_per_client=5"),
    ])
    def test_a_refused_experiment_is_an_error_line(self, flags, words, capsys):
        rc = main(["train", "--rounds", "1", *flags])
        captured = capsys.readouterr()
        assert rc == 2
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and words in lines[0]
        assert captured.out == ""

    @pytest.mark.round_engine
    @pytest.mark.fault_tolerance
    def test_a_replay_under_another_config_is_an_error_line(self, tmp_path, capsys):
        run = ["train", "--method", "jfat", "--rounds", "1", "--clients", "2",
               "--clients-per-round", "2", "--local-iters", "1", "--batch-size", "8",
               "--train-per-class", "10", "--journal", str(tmp_path / "run.jsonl")]
        assert main(run) == 0
        assert main([*run, "--replay"]) == 0
        capsys.readouterr()
        rc = main([*run, "--replay", "--lr", "0.1"])
        captured = capsys.readouterr()
        assert rc == 2
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "fingerprint" in lines[0]
        assert captured.out == ""

    @pytest.mark.docs
    @pytest.mark.parametrize("flags", [
        ["--checkpoint-every", "2"],
        ["--aggregation-mode", "async", "--pipeline-depth", "2"],
    ], ids=["config", "experiment"])
    def test_a_refusal_ends_the_process_with_one_error_line_and_exit_2(self, flags):
        # The real entry point, not main(): the exit status, one error
        # line and no traceback are what a shell sees.
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "train", *flags, "--rounds", "1"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert sum(line.startswith("error:") for line in proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stdout + proc.stderr


class TestLowBitMemoryModel:
    def test_half_precision_halves_footprint(self):
        from repro.hardware import MemoryModel

        m = build_cnn(2, 4, (3, 8, 8), base_channels=4, rng=np.random.default_rng(0))
        fp32 = MemoryModel(batch_size=8, bytes_per_scalar=4).bytes_for(m, (3, 8, 8))
        fp16 = MemoryModel(batch_size=8, bytes_per_scalar=2).bytes_for(m, (3, 8, 8))
        assert fp16 * 2 == fp32

    def test_validation(self):
        from repro.hardware import MemoryModel

        with pytest.raises(ValueError):
            MemoryModel(batch_size=0)
        with pytest.raises(ValueError):
            MemoryModel(bytes_per_scalar=0)
