"""Tests for the memory-constrained model partitioner (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.partitioner import (
    Partition,
    aux_head_bytes,
    full_model_mem_bytes,
    partition_model,
    partition_summary,
    segment_mem_bytes,
)
from repro.hardware.memory import MemoryModel
from repro.models import build_model, build_vgg

RNG = np.random.default_rng(0)
MEM = MemoryModel(batch_size=16)


def _model():
    return build_vgg("vgg11", 10, (3, 16, 16), width_mult=0.25, rng=RNG)


class TestPartitionModel:
    def test_ranges_cover_all_atoms_contiguously(self):
        model = _model()
        r_max = full_model_mem_bytes(model, MEM)
        part = partition_model(model, 0.3 * r_max, MEM)
        assert part.ranges[0][0] == 0
        assert part.ranges[-1][1] == len(model.atoms)
        for (a, b), (c, d) in zip(part.ranges, part.ranges[1:]):
            assert b == c and a < b

    def test_every_module_nonempty(self):
        model = _model()
        part = partition_model(model, 1, MEM)  # tiny budget: one atom per module
        assert all(b - a >= 1 for a, b in part.ranges)
        assert part.num_modules == len(model.atoms)

    def test_generous_budget_single_module(self):
        model = _model()
        r_max = full_model_mem_bytes(model, MEM)
        part = partition_model(model, 10 * r_max, MEM)
        assert part.num_modules == 1

    def test_smaller_rmin_more_modules(self):
        """Fig. 9's x-axis behaviour: #modules decreases with R_min."""
        model = _model()
        r_max = full_model_mem_bytes(model, MEM)
        counts = [
            partition_model(model, frac * r_max, MEM).num_modules
            for frac in (0.1, 0.3, 0.6, 1.1)
        ]
        assert counts == sorted(counts, reverse=True)
        assert counts[-1] == 1

    def test_modules_respect_budget_where_possible(self):
        """Multi-atom modules must fit in R_min (solo oversized atoms may not)."""
        model = _model()
        r_max = full_model_mem_bytes(model, MEM)
        r_min = 0.3 * r_max
        part = partition_model(model, r_min, MEM)
        for a, b in part.ranges:
            if b - a > 1:
                assert segment_mem_bytes(model, a, b, MEM) < r_min

    def test_vgg16_paper_scale_partitions_into_several_modules(self):
        """Paper: R_min = 20% of R_max partitions VGG16 into 7 modules; our
        memory model differs in small constants, so assert the ballpark."""
        model = build_vgg("vgg16", 10, (3, 32, 32))  # profiled only
        mem = MemoryModel(batch_size=64)
        r_max = full_model_mem_bytes(model, mem)
        part = partition_model(model, 0.2 * r_max, mem)
        assert 5 <= part.num_modules <= 9

    def test_invalid_rmin(self):
        with pytest.raises(ValueError):
            partition_model(_model(), 0, MEM)


class TestPartitionHelpers:
    def test_module_of_atom(self):
        part = Partition(ranges=((0, 2), (2, 5)))
        assert part.module_of_atom(0) == 0
        assert part.module_of_atom(4) == 1
        with pytest.raises(IndexError):
            part.module_of_atom(5)

    def test_getitem_and_len(self):
        part = Partition(ranges=((0, 2), (2, 5)))
        assert len(part) == 2
        assert part[1] == (2, 5)

    def test_aux_head_bytes_formula(self):
        got = aux_head_bytes(head_in_dim=100, num_classes=10, mem=MEM)
        params = 100 * 10 + 10
        expected = 4 * (params * 3 + 16 * (100 + 10))
        assert got == expected

    def test_segment_mem_additivity_direction(self):
        model = _model()
        one = segment_mem_bytes(model, 0, 1, MEM, include_head=False)
        two = segment_mem_bytes(model, 0, 2, MEM, include_head=False)
        assert two > one

    def test_partition_summary_rows(self):
        model = _model()
        r_max = full_model_mem_bytes(model, MEM)
        part = partition_model(model, 0.4 * r_max, MEM)
        rows = partition_summary(model, part, MEM)
        assert len(rows) == part.num_modules
        assert sum(len(r["atoms"]) for r in rows) == len(model.atoms)
        assert all(r["flops_fwd"] > 0 and r["mem_bytes"] > 0 for r in rows)
