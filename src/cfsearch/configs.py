"""Built-in run configurations and benchmark search spaces.

``default_config`` is the configuration the CLI falls back to when no
file is given: a three-path translation supernet small enough that the
whole pipeline finishes in minutes on one core.  ``evolution_bench_spec``
is a single-path, single-operator space of exactly 256 channel
configurations used to benchmark the channel-shrinking stage in
isolation.
"""

from __future__ import annotations

import copy
from typing import Mapping

from .space import SupernetSpec, spec_from_dict

DEFAULT_CONFIG: Mapping = {
    "seed": 7,
    "task": "translation",
    "dataset": {"samples": 256, "val_fraction": 0.25},
    "space": {
        "input_channels": 2,
        "input_sites": 1,
        "channel_choices": [4, 6, 8, 12],
        "paths": [
            {
                "resolution_schedule": [1, 1],
                "operators": [
                    ["conv3x3", "dws_block"],
                    ["conv3x3", "dws_block"],
                ],
            },
            {
                "resolution_schedule": [1, 1, 1],
                "operators": [
                    ["conv3x3", "res_block"],
                    ["conv3x3", "res_block"],
                    ["conv3x3", "res_block"],
                ],
            },
            {
                "resolution_schedule": [1, 1, 1],
                "operators": [
                    ["shrink_res_block", "context_res_block"],
                    ["shrink_res_block", "context_res_block"],
                    ["shrink_res_block", "context_res_block"],
                ],
            },
        ],
    },
    "train": {
        "epochs": 30,
        "batch_size": 16,
        "lambda_recon": 10.0,
        "lambda_perceptual": 100.0,
        "lambda_sparsity": 1e-3,
        "lr_weights": 0.001,
        "lr_gamma": 0.002,
        "lr_decay": 1.0,
    },
    "search": {
        "finetune_epochs": 10,
    },
    "evolution": {
        "population": 12,
        "elites": 4,
        "generations": 40,
        "eval_budget": 40,
        "params_limit": 3000,
        "flops_limit": 6000,
        "epsilon": 1e-8,
        "mutation": "directional",
        "rg_refresh": "on_elite_change",
    },
}

EVOLUTION_BENCH_SPEC: Mapping = {
    "input_channels": 1,
    "input_sites": 4,
    "channel_choices": [2, 4, 6, 8],
    "paths": [
        {
            "resolution_schedule": [1, 1, 1, 1],
            "operators": [["conv3x3"], ["conv3x3"], ["conv3x3"], ["conv3x3"]],
        }
    ],
}


def default_config() -> dict:
    return copy.deepcopy(DEFAULT_CONFIG)  # type: ignore[arg-type]


def default_toy_spec() -> SupernetSpec:
    return spec_from_dict(DEFAULT_CONFIG["space"])


def evolution_bench_spec() -> SupernetSpec:
    return spec_from_dict(EVOLUTION_BENCH_SPEC)
