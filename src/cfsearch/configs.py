"""The table of config keys, the built-in run configuration, benchmark spaces.

``CONFIG_KEYS`` defines each flat config key once: its type, allowed
values, default and meaning.  ``load_config``, ``TrainConfig`` and
``EvoConfig`` check values against it, and ``DEFAULT_CONFIG`` takes its
defaults from it; ``space.spec_from_dict`` parses the structured
``space`` section.  ``default_config`` is what the CLI runs without a
file: a three-path translation supernet small enough that the whole
pipeline finishes in minutes on one core.  ``evolution_bench_spec`` is a
single-path, single-operator space of exactly 256 channel configurations
used to benchmark the channel-shrinking stage in isolation.
"""

from __future__ import annotations

import copy
import dataclasses
from typing import Mapping, NamedTuple

from .errors import ConfigError
from .space import SupernetSpec, spec_from_dict
from .util import config_number

TASK_TRANSLATION = "translation"
TASK_SUPER_RESOLUTION = "super_resolution"
TASKS = (TASK_TRANSLATION, TASK_SUPER_RESOLUTION)

MUTATION_DIRECTIONAL = "directional"
MUTATION_RANDOM = "random"
MUTATION_MODES = (MUTATION_DIRECTIONAL, MUTATION_RANDOM)

RG_REFRESH_ON_ELITE_CHANGE = "on_elite_change"
RG_REFRESH_ONCE = "once"
RG_REFRESH_MODES = (RG_REFRESH_ON_ELITE_CHANGE, RG_REFRESH_ONCE)


class Key(NamedTuple):
    """One flat config key.

    ``allowed`` lists a ``str`` key's choices.  For a number it is ``None``
    or a range such as ``in (0, 1]``, optionally prefixed ``even``; a
    closed ``inf`` end admits infinity, an open one makes the value finite.
    """

    kind: type
    allowed: str | tuple[str, ...] | None
    default: object
    doc: str


CONFIG_KEYS: dict[str, Key] = {
    "seed": Key(int, None, 7, "root of every per-stage child seed"),
    "task": Key(str, TASKS, TASK_TRANSLATION, "the paired toy task"),
    "dataset.samples": Key(int, "in [4, 65536]", 256, "samples before the validation split"),
    "dataset.val_fraction": Key(float, "in (0, 1)", 0.25, "share held out for validation"),
    "train.epochs": Key(int, "in [1, inf)", 30, "fair pretraining epochs"),
    "train.batch_size": Key(int, "in [1, inf)", 16, "samples per step"),
    "train.lambda_recon": Key(float, "in [0, inf)", 10.0, "weight of the mean absolute error"),
    "train.lambda_mse": Key(float, "in [0, inf)", 100.0, "weight of the mean squared error"),
    "train.lr_weights": Key(float, "in (0, inf)", 0.001, "descent stepsize of the weights"),
    "train.lr_gamma": Key(float, "in (0, inf)", 0.002, "descent stepsize of the scale factors"),
    "train.lr_decay": Key(float, "in (0, 1]", 1.0, "per-epoch factor of both stepsizes"),
    "search.finetune_epochs": Key(int, "in [0, inf)", 10, "fine-tuning epochs of the genome"),
    "evolution.population": Key(int, "even in [2, inf)", 12, "genomes per generation"),
    "evolution.elites": Key(int, "in [1, inf)", 4, "survivors, at most population // 2"),
    "evolution.generations": Key(int, "in [1, inf)", 40, "generations at most"),
    "evolution.eval_budget": Key(int, "in [1, inf)", 40, "unique oracle evaluations, hard cap"),
    "evolution.params_limit": Key(float, "in (0, inf]", 3000.0, "strict parameter limit"),
    "evolution.flops_limit": Key(float, "in (0, inf]", 6000.0, "strict FLOP limit"),
    "evolution.mutation": Key(str, MUTATION_MODES, MUTATION_DIRECTIONAL, "how widths mutate"),
    "evolution.rg_refresh": Key(
        str, RG_REFRESH_MODES, RG_REFRESH_ON_ELITE_CHANGE, "when replacement gains are re-measured"
    ),
}
SECTIONS = tuple(dict.fromkeys(key.split(".")[0] for key in CONFIG_KEYS if "." in key))


def _allows(allowed: str, number) -> bool:
    """Whether ``number`` satisfies a range such as ``in (0, 1]``."""
    interval = allowed.split("in ")[-1]
    low, high = (float(end) for end in interval[1:-1].split(","))
    above = low < number if interval[0] == "(" else low <= number
    below = number < high if interval[-1] == ")" else number <= high
    return above and below and not (allowed.startswith("even") and number % 2)


def config_value(key: str, value):
    """``value`` converted to ``key``'s type, or a ``ConfigError`` naming ``key``."""
    row = CONFIG_KEYS[key]
    if row.kind is str:
        if value not in row.allowed:
            raise ConfigError(f"{key} must be one of {row.allowed}, got {value!r}")
        return value
    number = config_number(value, row.kind, key)
    if row.allowed is not None and not _allows(row.allowed, number):
        raise ConfigError(f"{key} must be {row.allowed}, got {value!r}")
    return number


def section_values(section: str, raw) -> dict:
    """A section's values checked against ``CONFIG_KEYS``, refusing unlisted keys."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config section {section} must be a mapping, got {raw!r}")
    values = {}
    for name, value in raw.items():
        key = f"{section}.{name}"
        if key not in CONFIG_KEYS:
            hint = "; set the top-level seed" if name == "seed" else ""
            raise ConfigError(f"unknown config key {key}{hint}")
        values[name] = config_value(key, value)
    return values


def check_fields(holder, section: str) -> None:
    """Check and convert each field of a frozen dataclass against its key."""
    for f in dataclasses.fields(holder):
        value = config_value(f"{section}.{f.name}", getattr(holder, f.name))
        object.__setattr__(holder, f.name, value)


def _flat_defaults() -> dict:
    config: dict = {section: {} for section in SECTIONS}
    for key, row in CONFIG_KEYS.items():
        section, _, name = key.rpartition(".")
        (config[section] if section else config)[name] = row.default
    return config


DEFAULT_CONFIG: Mapping = {
    **_flat_defaults(),
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
