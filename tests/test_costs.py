"""Parameter and FLOP accounting for genomes."""

import pytest

from cfsearch.configs import default_toy_spec
from cfsearch.costs import (
    CostReport,
    genome_cost,
    operator_cost,
    satisfies_constraints,
    unit_cost,
)
from cfsearch.errors import GenomeError
from cfsearch.space import (
    ArchitectureGenome,
    UnitSpec,
    enumerate_genomes,
    operator_kind,
    spec_from_dict,
)

from conftest import build_spec, resampling_spec_dict, super_resolution_spec


def test_conv_unit_frozen_example():
    # One 3x3 conv, 4 -> 8 channels over 64 sites: params 4*8*9 = 288
    # weights plus 8 biases, flops 2*4*8*9*64 = 36864 (multiply plus
    # accumulate per tap).
    unit = UnitSpec("conv", kernel=3, src="in", dst="out")
    params, flops = unit_cost(unit, c_in=4, c_out=8, sites=64)
    assert params == 288 + 8
    assert flops == 36864


def test_depthwise_and_residual_units():
    dw = UnitSpec("dwconv", kernel=3, src="in", dst="in")
    params, flops = unit_cost(dw, c_in=6, c_out=8, sites=10)
    assert params == 6 * 9 + 6
    assert flops == 2 * 6 * 9 * 10
    res = UnitSpec("residual", dst="out")
    params, flops = unit_cost(res, c_in=6, c_out=8, sites=10)
    assert params == 0
    assert flops == 8 * 10


def test_doubling_widths_quadruples_conv_flops():
    op = operator_kind("conv3x3")
    _, base = operator_cost(op, 4, 8, sites=16)
    _, wide = operator_cost(op, 8, 16, sites=16)
    assert wide == 4 * base


def test_genome_cost_chains_widths():
    # Layer widths chain: layer 1 consumes layer 0's width.  Widening only
    # layer 0 must therefore change layer 1's cost too.  Each layer is one
    # 3x3 conv: weights, biases and a scale vector of its output width.
    spec = build_spec(n_layers=2, channels=(2, 4))
    narrow = genome_cost(spec, ArchitectureGenome(0, (0, 0), (0, 0)))
    wider_first = genome_cost(spec, ArchitectureGenome(0, (0, 0), (1, 0)))
    assert narrow.params == 2 * (2 * 2 * 9 + 2 + 2)
    assert wider_first.params == (4 * 4 * 9 + 4 + 4) + (4 * 2 * 9 + 2 + 2)
    assert wider_first.flops == 2 * 9 * 4 * (4 * 4 + 4 * 2)


def test_genome_cost_rejects_invalid_genome():
    spec = build_spec()
    with pytest.raises(GenomeError):
        genome_cost(spec, ArchitectureGenome(0, (0, 0, 0), (0, 0, 0)))


def test_affine_accounting_adds_scale_vector():
    # Two 3x3 convs, 4 -> 4 channels over 4 sites: each layer has 4*4*9
    # weights, 4 biases and 4 normalization scales; biases and scales add
    # no FLOPs.
    spec = build_spec(n_layers=2, channels=(2, 4))
    report = genome_cost(spec, ArchitectureGenome(0, (0, 0), (1, 1)))
    assert report == CostReport(params=2 * (4 * 4 * 9 + 4 + 4), flops=2 * (2 * 4 * 4 * 9 * 4))


def test_constraint_boundaries_are_open():
    spec = build_spec()
    report = genome_cost(spec, ArchitectureGenome(0, (0, 0), (0, 0)))
    assert satisfies_constraints(report, report.params + 1, report.flops + 1)
    assert not satisfies_constraints(report, report.params, report.flops + 1)
    assert not satisfies_constraints(report, report.params + 1, report.flops)


def table_free_cost(spec, genome):
    """``genome_cost`` as it was before cost rows: every unit costed, sites from Fractions."""
    path = spec.paths[genome.path_index]
    total_params = total_flops = 0
    prev_width = spec.channel_choices[genome.channel_assignment[0]]
    for l, layer in enumerate(path.layers):
        width = spec.channel_choices[genome.channel_assignment[l]]
        op = layer.operator_candidates[genome.operator_assignment[l]]
        sites = int(path.resolution_schedule[l] * spec.input_sites)
        params, flops = operator_cost(op, prev_width, width, sites)
        total_params += params + width
        total_flops += flops
        prev_width = width
    return CostReport(params=total_params, flops=total_flops)


COST_SPECS = {
    "default": default_toy_spec,
    "super_resolution": super_resolution_spec,
    "resampling": lambda: spec_from_dict(resampling_spec_dict()),
}


@pytest.mark.parametrize("name", list(COST_SPECS))
def test_cost_rows_equal_a_table_free_computation_for_every_genome(name):
    spec = COST_SPECS[name]()
    genomes = list(enumerate_genomes(spec))
    assert not spec.cost_rows
    for genome in genomes:
        assert genome_cost(spec, genome) == table_free_cost(spec, genome)
    rows = spec.cost_rows
    assert 0 < len(rows) < len(genomes)
    for key, row in rows.items():
        assert len(key) == 5 and all(type(v) is int for v in key)
        assert len(row) == 2 and all(type(v) is int for v in row)
    # A second spec built from the same description starts with its own table.
    assert COST_SPECS[name]() == spec and not COST_SPECS[name]().cost_rows


def test_cost_rows_are_keyed_by_widths_not_by_channel_index():
    narrow = build_spec(channels=(2, 3))
    wide = build_spec(channels=(4, 6))
    genome = ArchitectureGenome(0, (0, 1), (0, 1))
    assert genome_cost(narrow, genome) == table_free_cost(narrow, genome)
    assert genome_cost(wide, genome) == table_free_cost(wide, genome)
    assert genome_cost(wide, genome).params > genome_cost(narrow, genome).params


def test_invalid_genome_raises_even_after_its_rows_are_cached():
    spec = build_spec()
    genome_cost(spec, ArchitectureGenome(0, (0, 0), (0, 0)))
    with pytest.raises(GenomeError):
        genome_cost(spec, ArchitectureGenome(0, (0, 2), (0, 0)))
