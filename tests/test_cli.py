"""Command-line interface: outputs, exit codes, report wiring."""

import json
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import given, strategies as st

from cfsearch import cli, pipeline, trainer
from cfsearch.cli import load_config, main
from cfsearch.configs import CONFIG_KEYS, config_value, default_config, default_toy_spec
from cfsearch.errors import ConfigError
from cfsearch.evolution import EvoConfig
from cfsearch.fairness import FairnessLedger, plan_epoch
from cfsearch.network import SupernetWeights
from cfsearch.space import spec_from_dict
from cfsearch.trainer import TrainConfig

from conftest import record_fair_epoch


FAST_OVERLAY = {
    "seed": 3,
    "dataset": {"samples": 32},
    "train": {"epochs": 2, "batch_size": 4},
    "search": {"finetune_epochs": 2},
    "evolution": {"population": 4, "elites": 1, "generations": 3, "eval_budget": 8},
}


def write_config(tmp_path, overlay=None, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(overlay if overlay is not None else FAST_OVERLAY))
    return str(path)


def test_enumerate_formula_mode(capsys):
    assert main(["enumerate", "--M", "3", "--L", "4"]) == 0
    assert capsys.readouterr().out.strip() == "216"


def test_enumerate_default_space(capsys):
    assert main(["enumerate"]) == 0
    out = capsys.readouterr().out
    assert "paths: 3" in out
    assert "genomes: 1088" in out
    assert "specializations=" in out


def test_analyze_uniform_value(capsys):
    assert main(["analyze-uniform", "--M", "2", "--t", "4"]) == 0
    assert capsys.readouterr().out.strip() == "0.375"
    assert main(["analyze-uniform", "--M", "2", "--t", "3"]) == 0
    assert capsys.readouterr().out.strip() == "0.0"


def test_analyze_uniform_table(capsys):
    assert main(["analyze-uniform", "--M", "2", "--t", "6", "--table"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "# t\tprobability"
    assert lines[1] == "2\t0.5"
    assert lines[2] == "4\t0.375"
    assert lines[3] == "6\t0.3125"


@pytest.mark.parametrize("m, t", [(0, 4), (2, -2)])
def test_analyze_uniform_refuses_a_count_below_one(capsys, m, t):
    assert main(["analyze-uniform", "--M", str(m), "--t", str(t)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "--M" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["pretrain", "shrink", "run-all"])
def test_an_out_that_cannot_be_a_directory_exits_2_before_training(
    tmp_path, capsys, monkeypatch, command
):
    def no_pretraining(*args, **kwargs):
        raise AssertionError("pretraining ran before --out was made")

    monkeypatch.setattr(cli, "pretrain_supernet", no_pretraining)
    monkeypatch.setattr(pipeline, "pretrain_supernet", no_pretraining)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "sub")
    assert main([command, "--config", write_config(tmp_path), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and out in err
    assert "Traceback" not in err


def test_load_config_overlay_and_unknown_keys(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg["seed"] == 3
    assert cfg["train"]["epochs"] == 2
    # Untouched sections keep their defaults.
    assert cfg["train"]["lambda_recon"] == default_config()["train"]["lambda_recon"]
    assert cfg["evolution"]["population"] == 4
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"sede": 3}, name="typo.yaml"))


def test_load_config_seed_override(tmp_path):
    cfg = load_config(write_config(tmp_path), seed=99)
    assert cfg["seed"] == 99


def test_unknown_config_key_exits_2(tmp_path, capsys):
    code = main(["enumerate", "--config", write_config(tmp_path, {"sede": 1})])
    assert code == 2
    assert "config error:" in capsys.readouterr().err


def test_missing_config_file_exits_2(capsys):
    code = main(["enumerate", "--config", "/nonexistent/nope.yaml"])
    assert code == 2
    assert "config error:" in capsys.readouterr().err


def test_bad_train_key_exits_2(tmp_path, capsys):
    overlay = dict(FAST_OVERLAY)
    overlay["train"] = {"epochs": 2, "warmup": 1}
    code = main(["run-all", "--config", write_config(tmp_path, overlay)])
    assert code == 2
    assert "config error:" in capsys.readouterr().err


def test_evolution_seed_key_exits_2(tmp_path, capsys):
    # The search seed comes from the top-level seed; a nested one would be ignored.
    overlay = json.loads(json.dumps(FAST_OVERLAY))
    overlay["evolution"]["seed"] = 3
    code = main(["run-all", "--config", write_config(tmp_path, overlay)])
    assert code == 2
    assert "top-level seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("evolution", "generations", None),
        ("dataset", "samples", "abc"),
        ("dataset", "val_fraction", "lots"),
        (None, "seed", "abc"),
        ("search", "finetune_epochs", "x"),
        (None, "dataset", 5),
        (None, "search", None),
        ("train", "epochs", True),
        (None, "seed", 7.9),
        ("search", "finetune_epochs", True),
        ("evolution", "generations", True),
        ("train", "perceptual_seed", -3),
        ("dataset", "val_fraction", -0.5),
        ("search", "finetune_epochs", -1),
        ("dataset", "foo", 1),
        ("search", "foo", 1),
        ("train", "foo", 1),
        (None, "train.epochs", 2),
        ("dataset", "samples", 3),
        ("dataset", "samples", 1000000000000000),
    ],
)
def test_malformed_config_value_exits_2_before_pretraining(
    tmp_path, capsys, monkeypatch, section, key, value
):
    overlay = json.loads(json.dumps(FAST_OVERLAY))
    if section is None:
        overlay[key] = value
    else:
        overlay[section][key] = value

    def no_pretraining(*args, **kwargs):
        raise AssertionError("pretraining ran before the config was read")

    monkeypatch.setattr(pipeline, "pretrain_supernet", no_pretraining)
    code = main(["run-all", "--config", write_config(tmp_path, overlay)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and key in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "key, value", [("population", 5), ("generations", True), ("epsilon", float("inf"))]
)
def test_malformed_evolution_value_exits_2_naming_the_key(
    tmp_path, capsys, monkeypatch, key, value
):
    overlay = json.loads(json.dumps(FAST_OVERLAY))
    overlay["evolution"][key] = value

    def no_pretraining(*args, **kwargs):
        raise AssertionError("pretraining ran before the config was read")

    monkeypatch.setattr(pipeline, "pretrain_supernet", no_pretraining)
    code = main(["run-all", "--config", write_config(tmp_path, overlay)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and f"evolution.{key}" in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("epochs", 2.5),
        ("batch_size", 2.5),
        ("perceptual_features", 2.5),
        ("perceptual_seed", 2.5),
        ("epochs", "abc"),
        ("lambda_recon", float("nan")),
        ("lr_weights", float("inf")),
        ("lr_decay", 0),
        ("lr_gamma", 0),
        ("perceptual_features", 1025),
        ("perceptual_features", 1000000000),  # a 14.9 GiB projection
    ],
)
def test_malformed_train_value_exits_2_naming_the_key(tmp_path, capsys, monkeypatch, key, value):
    overlay = json.loads(json.dumps(FAST_OVERLAY))
    overlay["train"][key] = value

    def no_pretraining(*args, **kwargs):
        raise AssertionError("pretraining ran before the config was read")

    monkeypatch.setattr(cli, "pretrain_supernet", no_pretraining)
    code = main(["pretrain", "--config", write_config(tmp_path, overlay)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and f"train.{key}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value, ok", [(1, True), (1024, True), (0, False), (1025, False)])
def test_perceptual_features_are_bounded_to_1_through_1024(value, ok):
    # The width sizes the perceptual projection, so an unbounded one could ask for GiBs.
    key = "train.perceptual_features"
    if ok:
        assert config_value(key, value) == value
    else:
        with pytest.raises(ConfigError, match=r"train\.perceptual_features must be in \[1, 1024\]"):
            config_value(key, value)


_YAML_SCALAR = st.one_of(
    st.integers(),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(st.characters(blacklist_categories=("Cs",))),
)


@given(st.sampled_from(sorted(CONFIG_KEYS)), _YAML_SCALAR)
def test_one_flat_value_replaced_loads_or_names_its_key(key, value):
    # load_config alone, so a huge samples or epochs value builds nothing.
    config = default_config()
    section, _, name = key.rpartition(".")
    (config[section] if section else config)[name] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(config, fh)
        try:
            cfg = load_config(path)
            TrainConfig(**cfg["train"])
            EvoConfig.from_mapping(cfg["evolution"])
        except ConfigError as exc:
            assert key in str(exc)


def test_infeasible_constraints_exit_3(tmp_path, capsys):
    overlay = json.loads(json.dumps(FAST_OVERLAY))
    overlay["evolution"]["params_limit"] = 1
    out = tmp_path / "broken_run"
    code = main([
        "run-all",
        "--config", write_config(tmp_path, overlay),
        "--out", str(out),
    ])
    assert code == 3
    assert "infeasible:" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "incomplete"


def test_pretrain_writes_checkpoint_and_ledger(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "pre"
    assert main(["pretrain", "--config", config, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "fair: 1" in text
    assert (out / "checkpoint.bin").exists()
    assert (out / "fairness_ledger.txt").exists()
    assert (out / "pretrain_metrics.csv").exists()

    # The checkpoint feeds the later stages without retraining.
    assert main([
        "search-path", "--config", config,
        "--checkpoint", str(out / "checkpoint.bin"),
    ]) == 0
    assert "chosen path:" in capsys.readouterr().out


def test_verify_fairness_good_and_tampered(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "pre2"
    main(["pretrain", "--config", config, "--out", str(out)])
    capsys.readouterr()
    ledger = out / "fairness_ledger.txt"
    assert main(["verify-fairness", str(ledger)]) == 0
    assert "fair after" in capsys.readouterr().out

    lines = ledger.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("op "):
            parts = line.split()
            parts[-1] = str(int(parts[-1]) + 1)
            lines[i] = " ".join(parts)
            break
    tampered = tmp_path / "tampered.txt"
    tampered.write_text("\n".join(lines) + "\n")
    assert main(["verify-fairness", str(tampered)]) == 4
    assert "violation" in capsys.readouterr().out


def test_verify_fairness_unreadable_exits_2(capsys):
    assert main(["verify-fairness", "/nonexistent/ledger.txt"]) == 2
    assert "config error:" in capsys.readouterr().err


def test_search_operator_prints_choice(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["search-operator", "--config", config]) == 0
    out = capsys.readouterr().out
    assert "chosen operators: path:" in out
    assert "# genome\tfitness\tparams\tflops" in out
    assert "sampled specializations" not in out


def test_shrink_reports_costs(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["shrink", "--config", config]) == 0
    out = capsys.readouterr().out
    assert "best genome: path:" in out
    assert "params:" in out and "flops:" in out


def test_run_all_report_and_reproducibility(tmp_path, capsys):
    config = write_config(tmp_path)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["run-all", "--config", config, "--out", str(out1)]) == 0
    first = capsys.readouterr().out
    assert "genome: path:" in first
    assert "oracle calls:" in first
    assert main(["run-all", "--config", config, "--out", str(out2)]) == 0
    capsys.readouterr()

    names = [
        "checkpoint.bin", "fairness_ledger.txt", "pretrain_metrics.csv",
        "trace.txt", "evolution.csv", "genome.txt",
        "finetuned.bin", "finetune_metrics.csv",
    ]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    for key in ("created_at", "finished_at"):
        m1.pop(key)
        m2.pop(key)
    assert m1 == m2


def test_baseline_joint_prints_ratio(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["baseline-joint", "--config", config]) == 0
    out = capsys.readouterr().out
    assert "evaluation ratio:" in out
    assert "joint" in out
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert 0 < float(lines["coarse-to-fine percentile"]) <= 1
    assert float(lines["coarse-to-fine gap"]) >= 0


def test_no_subcommand_is_a_usage_error(capsys):
    code = main([])
    assert code == 2


@pytest.fixture(scope="module")
def pretrained(tmp_path_factory):
    """(config path, checkpoint path) of one fast pretraining run."""
    root = tmp_path_factory.mktemp("pretrained")
    config = write_config(root)
    assert main(["pretrain", "--config", config, "--out", str(root / "run")]) == 0
    return config, root / "run" / "checkpoint.bin"


@pytest.mark.parametrize(
    "cut",
    [lambda b: b[:10], lambda b: b[:200], lambda b: b[:-8], lambda b: b + bytes(8)],
    ids=["header", "table", "data", "trailing"],
)
def test_corrupt_checkpoint_exits_2(pretrained, tmp_path, capsys, cut):
    config, checkpoint = pretrained
    broken = tmp_path / "broken.bin"
    broken.write_bytes(cut(checkpoint.read_bytes()))
    assert main(["search-path", "--config", config, "--checkpoint", str(broken)]) == 2
    assert f"checkpoint {broken}" in capsys.readouterr().err


def test_missing_checkpoint_exits_2(tmp_path, capsys):
    config, missing = write_config(tmp_path), tmp_path / "missing.bin"
    assert main(["search-path", "--config", config, "--checkpoint", str(missing)]) == 2
    assert f"cannot load checkpoint {missing}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["search-path", "shrink"])
@pytest.mark.parametrize(
    "task, input_channels, input_sites, schedule, message",
    [
        ("translation", 2, 1, [2], "path 0 produces 2 sites but targets have 1"),
        ("super_resolution", 1, 4, [1], "path 0 produces 4 sites but targets have 16"),
    ],
    ids=["translation", "super_resolution"],
)
def test_a_checkpoint_whose_outputs_do_not_fit_the_targets_exits_2(
    tmp_path, capsys, command, task, input_channels, input_sites, schedule, message
):
    overlay = {
        "task": task,
        "space": {
            "input_channels": input_channels,
            "input_sites": input_sites,
            "channel_choices": [2, 3],
            "paths": [{"resolution_schedule": schedule, "operators": [["conv3x3"]]}],
        },
    }
    config = write_config(tmp_path, overlay)
    checkpoint = str(tmp_path / "checkpoint.bin")
    SupernetWeights.create(spec_from_dict(overlay["space"]), seed=0).save(checkpoint)
    assert main(["pretrain", "--config", config]) == 2
    assert message in capsys.readouterr().err
    assert main([command, "--config", config, "--checkpoint", checkpoint]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert "Traceback" not in err


def test_non_finite_fitness_exits_4(pretrained, tmp_path, capsys):
    config, checkpoint = pretrained
    # A head weight of nan, and one so large but finite that path 0's
    # outputs square past the float range.
    for name, poison in (("nan", np.nan), ("huge", 1e200)):
        weights = SupernetWeights.load(
            spec_from_dict(load_config(config)["space"]), str(checkpoint)
        )
        weights["g/p0/head/w"].data *= poison
        poisoned = tmp_path / f"{name}.bin"
        weights.save(str(poisoned))
        for command in ("search-path", "shrink"):
            assert main([command, "--config", config, "--checkpoint", str(poisoned)]) == 4
            captured = capsys.readouterr()
            assert "non-finite fitness nan for path 0" in captured.err, name
            assert "Traceback" not in captured.err
            assert "chosen" not in captured.out


@pytest.mark.parametrize(
    "epochs, lr_weights, finetune_epochs, poison_discriminator, message",
    [
        (2, 0.5, 3, True, "non-finite loss during fine-tune epoch 2 discriminator: d_loss=nan"),
        (3, 0.5, 5, False, "non-finite fitness nan for fine-tuned genome path:"),
    ],
    ids=["discriminator-loss", "fitness"],
)
def test_non_finite_fine_tuning_exits_4_with_an_incomplete_report(
    tmp_path, capsys, monkeypatch, epochs, lr_weights, finetune_epochs, poison_discriminator,
    message,
):
    if poison_discriminator:
        # The discriminator scores the fakes whose generator loss was just
        # found finite, so only its own weights can make its loss NaN:
        # poison them before its third fine-tuning step.
        step = trainer._discriminator_step

        def poisoned(disc, real, fake, lr, context):
            if context == "fine-tune epoch 2 discriminator":
                disc.weights[f"d/{disc.disc_index}/out/b"].data[:] = np.nan
            return step(disc, real, fake, lr, context)

        monkeypatch.setattr(trainer, "_discriminator_step", poisoned)
    overlay = {
        "train": {"epochs": epochs, "lr_weights": lr_weights},
        "search": {"finetune_epochs": finetune_epochs},
    }
    config, out = write_config(tmp_path, overlay), tmp_path / "run"
    assert main(["run-all", "--config", config, "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert message in captured.err
    assert "fine-tuned fitness" not in captured.out
    text = (out / "manifest.json").read_text()
    assert "NaN" not in text
    assert json.loads(text)["status"] == "incomplete"


@pytest.mark.parametrize("command", ["pretrain", "shrink", "run-all"])
def test_diverging_run_exits_4_quietly_with_an_incomplete_report(tmp_path, capsys, command):
    config = write_config(tmp_path, {"train": {"epochs": 30, "lr_weights": 50.0}})
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", config, "--out", str(out)]) == 4
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert "non-finite loss during epoch 4" in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["status"] == "incomplete"


def test_importing_the_cli_leaves_yaml_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = "import sys, cfsearch.cli; print('yaml' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert done.stdout.strip() == "False", done.stderr


def test_verify_fairness_checks_the_whole_identity(tmp_path, capsys):
    spec = default_toy_spec()
    ledger = FairnessLedger.for_spec(spec)
    rng = np.random.default_rng(0)
    for _ in range(30):
        record_fair_epoch(ledger, plan_epoch(spec, rng))
    good = tmp_path / "good.txt"
    good.write_text(ledger.dump())
    assert main(["verify-fairness", str(good)]) == 0
    assert "fair after 30 epochs" in capsys.readouterr().out

    no_ops = tmp_path / "no_ops.txt"
    no_ops.write_text(
        "".join(f"{line}\n" for line in ledger.dump().splitlines() if not line.startswith("op "))
    )
    assert main(["verify-fairness", str(no_ops)]) == 4
    assert "violation: path 0: no operator rows" in capsys.readouterr().out

    for counts in ledger.operator_counts:
        counts += 2
    mismatch = tmp_path / "mismatch.txt"
    mismatch.write_text(ledger.dump())
    assert main(["verify-fairness", str(mismatch)]) == 4
    assert "!= generator updates 30" in capsys.readouterr().out


GOOD_LEDGER = "# fairness ledger v1\ntrials 2\nop 0 0 0 2\nop 0 0 1 2\npath 0 2 2\n"


@pytest.mark.parametrize(
    "lineno, row",
    [
        (5, "path -1 2 2"),
        (3, "op 0 -1 0 2"),
        (4, "op 0 0 1 99999999999999999999999"),
        (5, "path 999999999 2 2"),
        (4, "op 0 99999 99999 2"),
    ],
    ids=["negative-path", "negative-layer", "count-overflow", "path-past-rows", "grid-past-rows"],
)
def test_malformed_ledger_exits_2_naming_the_line(tmp_path, capsys, lineno, row):
    lines = GOOD_LEDGER.splitlines()
    lines[lineno - 1] = row
    ledger = tmp_path / "ledger.txt"
    ledger.write_text("\n".join(lines) + "\n")
    assert main(["verify-fairness", str(ledger)]) == 2
    assert f"ledger line {lineno}: {row!r}" in capsys.readouterr().err


def set_space_value(space, where, value):
    """Replace the value that the key path ``where`` names inside ``space``."""
    *parents, last = where
    for key in parents:
        space = space[key]
    space[last] = value


@pytest.mark.parametrize(
    "where, value, key",
    [
        (("paths",), [5], "paths"),
        (("paths", 0, "operators"), 7, "operators"),
        (("channel_choices",), "abc", "channel_choices"),
        (("channel_choices",), [4, 1025], "channel_choices must be strictly increasing ints in"),
        (("channel_choices",), [4, 200000], "channel_choices"),  # 894 GiB of weights
        (("input_sites",), "abc", "input_sites"),
        (("paths", 0, "recursion_choices"), [["x"]], "recursion_choices"),
        (("discriminators",), [5], "discriminators"),
        (("foo",), 3, "space key foo"),
        (("paths", 0, "bogus"), 1, "paths[0].bogus"),
        (
            ("discriminators",),
            [{"resolution_schedule": [1, 1], "foo": 1}],
            "space key discriminators",
        ),
        (
            ("discriminators",),
            [{"resolution_schedule": [1, 1], "width": 8}],
            "unknown space key discriminators",
        ),
        (
            ("paths", 0, "matched_discriminator"),
            0,
            "unknown space key paths[0].matched_discriminator",
        ),
    ],
    ids=[
        "path-entry", "operators", "channel_choices", "channel-wide", "channel-huge",
        "input_sites", "recursion", "discriminator", "space-foo", "path-bogus",
        "discriminator-foo", "discriminators", "matched-discriminator",
    ],
)
def test_malformed_space_value_exits_2_naming_the_key(tmp_path, capsys, where, value, key):
    overlay = json.loads(json.dumps(FAST_OVERLAY))
    overlay["space"] = default_config()["space"]
    set_space_value(overlay["space"], where, value)
    config = write_config(tmp_path, overlay)
    code = main(["search-path", "--config", config, "--checkpoint", str(tmp_path / "none.bin")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and key in err
    assert "Traceback" not in err


def test_repeated_ledger_row_exits_2_naming_both_lines(tmp_path, capsys):
    spec = default_toy_spec()
    ledger = FairnessLedger.for_spec(spec)
    rng = np.random.default_rng(0)
    for _ in range(3):
        record_fair_epoch(ledger, plan_epoch(spec, rng))
    lines = ledger.dump().splitlines()
    fair = lines[2]
    assert fair.startswith("op ")
    tampered = fair.rsplit(" ", 1)[0] + f" {int(fair.rsplit(' ', 1)[1]) + 5}"
    lines[2] = tampered
    path = tmp_path / "ledger.txt"

    path.write_text("\n".join(lines) + "\n")
    assert main(["verify-fairness", str(path)]) == 4
    capsys.readouterr()

    path.write_text("\n".join(lines + [fair]) + "\n")
    assert main(["verify-fairness", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"ledger line {len(lines) + 1}: {fair!r}" in err
    assert f"ledger line 3: {tampered!r}" in err

    for repeated in ("trials 3", lines[-1]):
        path.write_text("\n".join([*ledger.dump().splitlines(), repeated]) + "\n")
        assert main(["verify-fairness", str(path)]) == 2
        assert f"ledger line {len(lines) + 1}: {repeated!r}" in capsys.readouterr().err
