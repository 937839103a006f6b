"""Parameter and FLOP accounting for genomes."""

import pytest

from cfsearch.configs import default_toy_spec
from cfsearch.costs import (
    CostReport,
    LayerCost,
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
    # One 3x3 conv, 4 -> 8 channels over 64 sites: params 4*8*9 = 288,
    # flops 2*4*8*9*64 = 36864 (multiply plus accumulate per tap).
    unit = UnitSpec("conv", kernel=3, src="in", dst="out")
    params, flops = unit_cost(unit, c_in=4, c_out=8, sites=64, include_affine=False)
    assert params == 288
    assert flops == 36864
    with_bias, _ = unit_cost(unit, c_in=4, c_out=8, sites=64, include_affine=True)
    assert with_bias == 288 + 8


def test_depthwise_and_residual_units():
    dw = UnitSpec("dwconv", kernel=3, src="in", dst="in")
    params, flops = unit_cost(dw, c_in=6, c_out=8, sites=10, include_affine=False)
    assert params == 6 * 9
    assert flops == 2 * 6 * 9 * 10
    res = UnitSpec("residual", dst="out")
    params, flops = unit_cost(res, c_in=6, c_out=8, sites=10, include_affine=False)
    assert params == 0
    assert flops == 8 * 10


def test_doubling_widths_quadruples_conv_flops():
    op = operator_kind("conv3x3")
    _, base = operator_cost(op, 4, 8, sites=16, include_affine=False)
    _, wide = operator_cost(op, 8, 16, sites=16, include_affine=False)
    assert wide == 4 * base


def test_genome_cost_rows_sum_to_totals():
    spec = build_spec(n_paths=2, n_layers=3, n_operators=2, channels=(2, 3, 4))
    genome = ArchitectureGenome(1, (0, 1, 0), (2, 0, 1))
    report = genome_cost(spec, genome)
    assert sum(row.params for row in report.per_layer) == report.params
    assert sum(row.flops for row in report.per_layer) == report.flops
    assert [row.layer for row in report.per_layer] == [0, 1, 2]
    assert report.params > 0 and report.flops > 0


def test_genome_cost_chains_widths():
    # Layer widths chain: layer 1 consumes layer 0's width.  Widening only
    # layer 0 must therefore change layer 1's cost too.
    spec = build_spec(n_layers=2, channels=(2, 4))
    narrow = genome_cost(spec, ArchitectureGenome(0, (0, 0), (0, 0)), include_affine=False)
    wider_first = genome_cost(spec, ArchitectureGenome(0, (0, 0), (1, 0)), include_affine=False)
    assert wider_first.per_layer[1].params > narrow.per_layer[1].params


def test_genome_cost_rejects_invalid_genome():
    spec = build_spec()
    with pytest.raises(GenomeError):
        genome_cost(spec, ArchitectureGenome(0, (0, 0, 0), (0, 0, 0)))


def test_affine_accounting_adds_scale_vector():
    spec = build_spec(n_layers=2, channels=(2, 4))
    g = ArchitectureGenome(0, (0, 0), (1, 1))
    bare = genome_cost(spec, g, include_affine=False)
    dressed = genome_cost(spec, g)
    assert dressed.params > bare.params
    assert dressed.flops == bare.flops


def test_constraint_boundaries_are_open():
    spec = build_spec()
    report = genome_cost(spec, ArchitectureGenome(0, (0, 0), (0, 0)))
    assert satisfies_constraints(report, report.params + 1, report.flops + 1)
    assert not satisfies_constraints(report, report.params, report.flops + 1)
    assert not satisfies_constraints(report, report.params + 1, report.flops)


def test_cost_report_record_format():
    spec = build_spec()
    report = genome_cost(spec, ArchitectureGenome(0, (0, 0), (0, 0)))
    record = report.to_record()
    assert str(report.params) in record
    assert str(report.flops) in record


def table_free_cost(spec, genome, include_affine):
    """``genome_cost`` as it was before cost rows: every unit costed, sites from Fractions."""
    path = spec.paths[genome.path_index]
    rows = []
    prev_width = spec.channel_choices[genome.channel_assignment[0]]
    for l, layer in enumerate(path.layers):
        width = spec.channel_choices[genome.channel_assignment[l]]
        op = layer.operator_candidates[genome.operator_assignment[l]]
        sites = int(path.resolution_schedule[l] * spec.input_sites)
        params, flops = operator_cost(op, prev_width, width, sites, include_affine)
        if include_affine:
            params += width
        rows.append(LayerCost(layer=l, params=params, flops=flops))
        prev_width = width
    return CostReport(
        params=sum(r.params for r in rows), flops=sum(r.flops for r in rows), per_layer=tuple(rows)
    )


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
    for include_affine in (True, False):
        for genome in genomes:
            expected = table_free_cost(spec, genome, include_affine)
            assert genome_cost(spec, genome, include_affine) == expected
            assert genome_cost(spec, genome, include_affine=include_affine) == expected
    rows = spec.cost_rows
    assert 0 < len(rows) < len(genomes)
    for key, row in rows.items():
        assert len(key) == 6 and all(type(v) in (int, bool) for v in key)
        assert row.layer == key[1]
    # A second spec built from the same description starts with its own table.
    assert COST_SPECS[name]() == spec and not COST_SPECS[name]().cost_rows


def test_cost_rows_are_keyed_by_widths_not_by_channel_index():
    narrow = build_spec(channels=(2, 3))
    wide = build_spec(channels=(4, 6))
    genome = ArchitectureGenome(0, (0, 1), (0, 1))
    assert genome_cost(narrow, genome) == table_free_cost(narrow, genome, True)
    assert genome_cost(wide, genome) == table_free_cost(wide, genome, True)
    assert genome_cost(wide, genome).params > genome_cost(narrow, genome).params


def test_invalid_genome_raises_even_after_its_rows_are_cached():
    spec = build_spec()
    genome_cost(spec, ArchitectureGenome(0, (0, 0), (0, 0)))
    with pytest.raises(GenomeError):
        genome_cost(spec, ArchitectureGenome(0, (0, 2), (0, 0)))
