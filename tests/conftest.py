"""Shared helpers: compact search spaces, kept tiny so the suite stays fast."""

from pathlib import Path

from cfsearch.cli import load_config
from cfsearch.fairness import EpochPlan, FairnessLedger
from cfsearch.space import SupernetSpec, spec_from_dict

SUPER_RESOLUTION_YAML = Path(__file__).resolve().parents[1] / "perfbench" / "super_resolution.yaml"

OPERATOR_POOL = ["conv3x3", "res_block", "dws_block", "context_res_block"]


def tiny_spec_dict(
    n_paths: int = 1,
    n_layers: int = 2,
    n_operators: int = 2,
    channels: tuple[int, ...] = (2, 3),
    input_sites: int = 4,
    input_channels: int = 1,
) -> dict:
    ops = OPERATOR_POOL[:n_operators]
    return {
        "input_channels": input_channels,
        "input_sites": input_sites,
        "channel_choices": list(channels),
        "paths": [
            {
                "resolution_schedule": [1] * n_layers,
                "operators": [list(ops) for _ in range(n_layers)],
            }
            for _ in range(n_paths)
        ],
    }


def build_spec(
    n_paths: int = 1,
    n_layers: int = 2,
    n_operators: int = 2,
    channels: tuple[int, ...] = (2, 3),
    input_sites: int = 4,
    input_channels: int = 1,
) -> SupernetSpec:
    return spec_from_dict(
        tiny_spec_dict(n_paths, n_layers, n_operators, channels, input_sites, input_channels)
    )


def super_resolution_spec() -> SupernetSpec:
    """The space of the benchmark's super-resolution config: 4 sites in, 16 out."""
    return spec_from_dict(load_config(str(SUPER_RESOLUTION_YAML))["space"])


def resampling_spec_dict() -> dict:
    """Two paths of residual and depthwise blocks, with down- and upsampling."""
    return {
        "input_channels": 1,
        "input_sites": 4,
        "channel_choices": [2, 3, 5],
        "paths": [
            {
                "resolution_schedule": [1, "1/2", 1],
                "operators": [["res_block", "shrink_res_block"]] * 3,
            },
            {
                "resolution_schedule": [4, 1],
                "operators": [["dws_block", "context_res_block"]] * 2,
            },
        ],
    }


def record_fair_epoch(ledger: FairnessLedger, plan: EpochPlan) -> None:
    """Apply one planned epoch's counts, as pretraining records them: each
    cycle updates its whole grid and its path's discriminator once."""
    for p in plan.path_order:
        ledger.record_generator_cycle(p)
        ledger.record_discriminator_update(p)


def max_imbalance(ledger: FairnessLedger) -> int:
    """Largest spread max-min over any layer's operator counters."""
    worst = 0
    for counts in ledger.operator_counts:
        if counts.size:
            spread = int((counts.max(axis=1) - counts.min(axis=1)).max())
            worst = max(worst, spread)
    return worst
