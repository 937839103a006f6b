"""Analytic parameter and FLOP accounting for genomes.

The model treats every conv unit as a k x k kernel applied at each
spatial site, with a multiply-add counted as 2 FLOPs:

    conv   flops = 2 * c_src * c_dst * k^2 * sites
    dwconv flops = 2 * c * k^2 * sites
    resid  flops = c_dst * sites

Parameter counts mirror the same shapes; biases and per-layer
normalization scales add ``c_dst`` each and their FLOPs are ignored.

Accounting covers the searchable layers only.  The fixed input stem and
output head are deliberately outside the report so that per-layer rows
sum exactly to the totals and so that doubling every searched width
scales weight parameters and conv FLOPs by exactly 4.

A layer's row depends only on plain ints: (path, layer, operator index,
c_in, c_out, include_affine).  ``genome_cost`` looks each row up in
the spec's own table, ``SupernetSpec.cost_rows``, and computes it there on
first use, so the table lives exactly as long as its spec and a few
hundred rows serve every genome of a space.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GenomeError
from .space import (
    ArchitectureGenome,
    OperatorKind,
    SupernetSpec,
    UnitSpec,
    require_valid,
)


@dataclass(frozen=True)
class LayerCost:
    layer: int
    params: int
    flops: int


@dataclass(frozen=True)
class CostReport:
    """Totals plus a per-layer breakdown that sums exactly to them."""

    params: int
    flops: int
    per_layer: tuple[LayerCost, ...]

    def to_record(self) -> str:
        rows = ";".join(f"{c.layer}:{c.params}:{c.flops}" for c in self.per_layer)
        return f"params={self.params} flops={self.flops} layers={rows}"


def unit_cost(
    unit: UnitSpec, c_in: int, c_out: int, sites: int, include_affine: bool
) -> tuple[int, int]:
    """(params, flops) of one primitive unit at the given widths."""
    src, dst = unit.widths(c_in, c_out)
    if unit.kind == "conv":
        params = src * dst * unit.kernel**2
        if include_affine:
            params += dst  # bias
        flops = 2 * src * dst * unit.kernel**2 * sites
        return params, flops
    if unit.kind == "dwconv":
        params = src * unit.kernel**2
        if include_affine:
            params += src
        flops = 2 * src * unit.kernel**2 * sites
        return params, flops
    if unit.kind == "residual":
        return 0, dst * sites
    raise ValueError(f"unknown unit kind {unit.kind!r}")


def operator_cost(
    op: OperatorKind,
    c_in: int,
    c_out: int,
    sites: int,
    include_affine: bool = True,
) -> tuple[int, int]:
    """(params, flops) for one layer running ``op`` at the given widths."""
    params = 0
    flops = 0
    for unit in op.units:
        p, f = unit_cost(unit, c_in, c_out, sites, include_affine)
        params += p
        flops += f
    return params, flops


def genome_cost(
    spec: SupernetSpec,
    genome: ArchitectureGenome,
    include_affine: bool = True,
) -> CostReport:
    """Cost report for a genome over ``spec``.

    Layer l maps the previous layer's width to its own; the first layer
    runs at its own width on both sides (the stem has already projected
    the input there).  Spatial sites come from the path's resolution
    schedule applied to ``spec.input_sites``.  ``include_affine`` counts
    biases and normalization scales; switch it off for pure weight
    accounting.

    The genome is validated by ``space.require_valid``, which checks a
    valid genome once per spec; its layer rows come from
    ``spec.cost_rows`` (see the module docstring).
    """
    try:
        require_valid(spec, genome)
    except GenomeError as exc:
        raise GenomeError(f"cannot cost invalid genome: {exc}") from None
    p = genome.path_index
    channels = spec.channel_choices
    table = spec.cost_rows
    affine = bool(include_affine)
    rows: list[LayerCost] = []
    params = flops = 0
    prev_width = channels[genome.channel_assignment[0]]
    for l, (m, c) in enumerate(zip(genome.operator_assignment, genome.channel_assignment)):
        width = channels[c]
        key = (p, l, m, prev_width, width, affine)
        row = table.get(key)
        if row is None:
            row = table[key] = _layer_cost(spec, *key)
        rows.append(row)
        params += row.params
        flops += row.flops
        prev_width = width
    return CostReport(params, flops, tuple(rows))


def _layer_cost(
    spec: SupernetSpec,
    path_index: int,
    layer: int,
    operator: int,
    c_in: int,
    c_out: int,
    include_affine: bool,
) -> LayerCost:
    """Cost row of one layer running ``operator`` from ``c_in`` to ``c_out``."""
    op = spec.paths[path_index].layers[layer].operator_candidates[operator]
    sites = spec.sites(path_index, layer)
    params, flops = operator_cost(op, c_in, c_out, sites, include_affine)
    if include_affine:
        params += c_out  # normalization scale vector
    return LayerCost(layer=layer, params=params, flops=flops)


def satisfies_constraints(report: CostReport, params_limit: int, flops_limit: int) -> bool:
    """Strict feasibility: both totals must be under their limits.

    A genome exactly on a boundary is infeasible; the search treats the
    limits as open bounds.
    """
    return report.params < params_limit and report.flops < flops_limit
