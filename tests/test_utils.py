"""Tests for the CLI and the low-bit memory model."""

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
        # cli.py spells the lists out so that building the parser imports
        # nothing; this ties each copy to the table the engine validates
        # against.
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
