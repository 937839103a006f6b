"""Run reports: manifest, trace, genome files, CSV logs."""

import hashlib
import json

import numpy as np
import pytest

from cfsearch.configs import default_config
from cfsearch.costs import genome_cost
from cfsearch.errors import ConfigError
from cfsearch.evolution import EvoConfig, GenerationRow
from cfsearch.oracles import TabularOracle, build_landscape
from cfsearch.pipeline import run_search
from cfsearch.reporting import (
    EVOLUTION_COLUMNS,
    MANIFEST_NAME,
    RunManifest,
    _csv,
    format_genome_file,
    format_trace,
    write_run_report,
)
from cfsearch.space import ArchitectureGenome

from conftest import build_spec


def searched_trace():
    spec = build_spec(n_paths=2, n_layers=2, n_operators=2, channels=(2, 3))
    oracle = TabularOracle(build_landscape(spec, "random_seeded", seed=40))
    cfg = EvoConfig(population=4, elites=1, generations=4, eval_budget=10)
    genome, trace, shrink = run_search(oracle, cfg, np.random.default_rng(0))
    return spec, genome, trace, shrink


def test_trace_format_sections():
    _, genome, trace, _ = searched_trace()
    text = format_trace(trace)
    assert text.startswith("# search trace v1\n")
    assert f"[stage path] calls=2 chosen=path:{trace.chosen_path}" in text
    assert "[stage operator] calls=4" in text
    assert f"chosen={trace.g_optr}\n" in text
    assert "[stage channel]" in text
    assert f"chosen={genome.to_record()}" in text
    assert text.rstrip().endswith(f"total calls: {trace.total_oracle_calls}")


def test_genome_file_round_trip(tmp_path):
    spec = build_spec()
    genome = ArchitectureGenome(0, (0, 1), (1, 0))
    cost = genome_cost(spec, genome)
    text = format_genome_file(genome, fitness=-0.25, cost=cost)
    target = tmp_path / "genome.txt"
    target.write_text(text)
    assert text.splitlines()[-1] == genome.to_record()
    assert f"# params {cost.params}" in text
    assert "# fitness -0.25" in text


def test_csv_formats_floats_by_repr():
    rows = [
        {"generation": 0, "best_fitness": 0.1, "mean_fitness": 0.05,
         "oracle_calls": 3, "feasible_fraction": 1.0},
        GenerationRow(1, 0.30000000000000004, 0.2, 5, 0.75),
    ]
    text = _csv(EVOLUTION_COLUMNS, rows)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(EVOLUTION_COLUMNS)
    assert lines[1] == "0,0.1,0.05,3,1.0"
    # repr keeps the bits: no silent rounding of float cells.
    assert lines[2].split(",")[1] == "0.30000000000000004"


def test_manifest_round_trip(tmp_path):
    manifest = RunManifest(
        version="0.1.0",
        seed=7,
        status="complete",
        created_at="2026-01-01T00:00:00Z",
        finished_at="2026-01-01T00:00:05Z",
        config={"seed": 7},
        stages={"path": 3},
        artifacts={"genome.txt": "abc"},
    )
    path = tmp_path / MANIFEST_NAME
    path.write_text(manifest.to_json())
    loaded = RunManifest.load(str(path))
    assert loaded == manifest
    # Stable serialization: keys sorted, trailing newline.
    assert manifest.to_json().endswith("\n")
    assert manifest.to_json() == manifest.to_json()


def test_manifest_load_rejects_broken_files(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        RunManifest.load(str(bad))
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"version": "0.1.0"}))
    with pytest.raises(ConfigError):
        RunManifest.load(str(missing))
    with pytest.raises(ConfigError):
        RunManifest.load(str(tmp_path / "absent.json"))


def test_write_run_report_artifacts_and_hashes(tmp_path):
    spec, genome, trace, shrink = searched_trace()
    out = tmp_path / "report"
    write_run_report(
        str(out),
        config=default_config(),
        seed=7,
        trace=trace,
        evolution_history=shrink.history,
        genome=genome,
        genome_fitness=shrink.best_fitness,
        genome_cost=shrink.best_cost,
        created_at="2026-01-01T00:00:00Z",
    )
    manifest = RunManifest.load(str(out / MANIFEST_NAME))
    assert manifest.status == "complete"
    assert manifest.seed == 7
    assert set(manifest.artifacts) == {"trace.txt", "evolution.csv", "genome.txt"}
    for name, digest in manifest.artifacts.items():
        blob = (out / name).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest
    # Only the manifest carries timestamps.
    for name in manifest.artifacts:
        content = (out / name).read_text()
        assert "2026-01-01" not in content
    record = (out / "genome.txt").read_text().splitlines()[-1]
    assert record == genome.to_record()


def test_write_run_report_incomplete_status(tmp_path):
    out = tmp_path / "partial"
    write_run_report(str(out), config={}, seed=0, status="incomplete")
    manifest = RunManifest.load(str(out / MANIFEST_NAME))
    assert manifest.status == "incomplete"
    assert manifest.artifacts == {}
