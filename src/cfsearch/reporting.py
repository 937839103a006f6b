"""Run reports: per-stage tables, CSV logs, and the manifest.

A run directory is the durable record of one invocation: fairness
ledger, training curves, the search trace with every scored candidate,
the per-generation evolution log, the final genome, and weight
checkpoints.  Every file is byte-stable under a fixed config and seed.
The manifest is written last and is the only place timestamps live; it
carries a sha256 for each artifact so a report can be checked for
tampering or truncation.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from typing import Sequence

from .costs import CostReport
from .errors import ConfigError
from .evolution import GenerationRow
from .pipeline import PipelineResult, SearchTrace
from .space import ArchitectureGenome
from .trainer import PretrainResult
from .util import format_float, sha256_file

MANIFEST_NAME = "manifest.json"

PRETRAIN_COLUMNS = (
    "epoch",
    "path",
    "loss_total",
    "loss_gan",
    "loss_recon",
    "loss_perceptual",
    "loss_sparsity",
    "d_loss",
    "gamma_zero_fraction",
)
FINETUNE_COLUMNS = ("epoch", "loss_total", "d_loss")
EVOLUTION_COLUMNS = (
    "generation",
    "best_fitness",
    "mean_fitness",
    "oracle_calls",
    "feasible_fraction",
)


@dataclass
class RunManifest:
    """Reproducibility record of a run directory."""

    version: str
    seed: int
    status: str
    created_at: str
    finished_at: str
    config: dict
    stages: dict
    artifacts: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    @staticmethod
    def load(path: str) -> "RunManifest":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read manifest {path}: {exc}") from exc
        try:
            return RunManifest(**{f.name: payload[f.name] for f in fields(RunManifest)})
        except KeyError as exc:
            raise ConfigError(f"manifest {path} is missing field {exc}") from None


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _cell(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def _csv(columns: Sequence[str], rows: Sequence) -> str:
    lines = [",".join(columns)]
    for row in rows:
        if isinstance(row, dict):
            values = [row[c] for c in columns]
        else:
            values = [getattr(row, c) for c in columns]
        lines.append(",".join(_cell(v) for v in values))
    return "\n".join(lines) + "\n"


def format_trace(trace: SearchTrace) -> str:
    """The per-stage tables as one plain-text report."""
    lines = ["# search trace v1"]
    if trace.path_records:
        chosen = f"path:{trace.chosen_path}"
        lines.append(f"[stage path] calls={len(trace.path_records)} chosen={chosen}")
        lines.append("# label\tfitness")
        for rec in trace.path_records:
            lines.append(f"{rec.label}\t{format_float(rec.fitness)}")
    for stage, records, chosen in (
        ("operator", trace.operator_records, trace.g_optr),
        ("channel", trace.channel_records, trace.g_channel),
    ):
        if records:
            lines.append(f"[stage {stage}] calls={len(records)} chosen={chosen}")
            lines.append("# genome\tfitness\tparams\tflops")
            lines.extend(
                f"{rec.label}\t{format_float(rec.fitness)}\t{rec.params}\t{rec.flops}"
                for rec in records
            )
    lines.append(f"total calls: {trace.total_oracle_calls}")
    return "\n".join(lines) + "\n"


def format_genome_file(
    genome: ArchitectureGenome,
    fitness: float | None = None,
    cost: CostReport | None = None,
) -> str:
    lines = ["# final genome v1"]
    if fitness is not None:
        lines.append(f"# fitness {format_float(fitness)}")
    if cost is not None:
        lines.append(f"# params {cost.params}")
        lines.append(f"# flops {cost.flops}")
    lines.append(genome.to_record())
    return "\n".join(lines) + "\n"


def read_genome_file(path: str) -> ArchitectureGenome:
    """Parse the first non-comment line of a genome file."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                return ArchitectureGenome.from_record(line)
    raise ConfigError(f"no genome record found in {path}")


def write_run_report(
    directory: str,
    config: dict,
    seed: int,
    *,
    pretrain: PretrainResult | None = None,
    trace: SearchTrace | None = None,
    evolution_history: Sequence[GenerationRow] = (),
    genome: ArchitectureGenome | None = None,
    genome_fitness: float | None = None,
    genome_cost: CostReport | None = None,
    finetuned_weights=None,
    finetune_metrics: Sequence[dict] = (),
    final_fitness: float | None = None,
    status: str = "complete",
    created_at: str | None = None,
) -> RunManifest:
    """Write whichever artifacts exist, then the manifest, last.

    The directory is created if missing.  Artifact files contain no
    timestamps, so two runs from the same config and seed produce
    byte-identical sets; the manifest alone differs, in its two
    timestamp fields.
    """
    os.makedirs(directory, exist_ok=True)
    created = created_at or _now()
    artifacts: dict[str, str] = {}
    stages: dict[str, dict] = {}

    def emit_text(name: str, text: str) -> None:
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        artifacts[name] = sha256_file(path)

    if pretrain is not None:
        emit_text("fairness_ledger.txt", pretrain.ledger.dump())
        emit_text("pretrain_metrics.csv", _csv(PRETRAIN_COLUMNS, pretrain.metrics))
        checkpoint = os.path.join(directory, "checkpoint.bin")
        pretrain.weights.save(checkpoint)
        artifacts["checkpoint.bin"] = sha256_file(checkpoint)
        stages["pretrain"] = {
            "epochs": len({row["epoch"] for row in pretrain.metrics}),
            "fair": pretrain.ledger.is_fair(),
        }
    if trace is not None:
        emit_text("trace.txt", format_trace(trace))
        stages["search"] = {
            "oracle_calls": dict(trace.oracle_calls),
            "total_oracle_calls": trace.total_oracle_calls,
            "chosen_path": trace.chosen_path,
            "g_optr": trace.g_optr,
            "g_channel": trace.g_channel,
        }
    if evolution_history:
        emit_text("evolution.csv", _csv(EVOLUTION_COLUMNS, evolution_history))
    if genome is not None:
        emit_text(
            "genome.txt", format_genome_file(genome, genome_fitness, genome_cost)
        )
    if finetuned_weights is not None:
        path = os.path.join(directory, "finetuned.bin")
        finetuned_weights.save(path)
        artifacts["finetuned.bin"] = sha256_file(path)
    if finetune_metrics:
        emit_text("finetune_metrics.csv", _csv(FINETUNE_COLUMNS, finetune_metrics))
    if final_fitness is not None:
        stages["finetune"] = {
            "epochs": len(finetune_metrics),
            "final_fitness": final_fitness,
        }

    manifest = RunManifest(
        version=_package_version(),
        seed=seed,
        status=status,
        created_at=created,
        finished_at=_now(),
        config=config,
        stages=stages,
        artifacts=artifacts,
    )
    with open(os.path.join(directory, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        fh.write(manifest.to_json())
    return manifest


def report_pipeline(
    result: PipelineResult, directory: str, created_at: str | None = None
) -> RunManifest:
    """Full report of a pipeline run."""
    return write_run_report(
        directory,
        dict(result.config),
        int(result.config["seed"]),
        pretrain=result.pretrain,
        trace=result.trace,
        evolution_history=result.shrink.history,
        genome=result.genome,
        genome_fitness=result.searched_fitness,
        genome_cost=result.shrink.best_cost,
        finetuned_weights=result.finetuned_weights,
        finetune_metrics=result.finetune_metrics,
        final_fitness=result.final_fitness,
        created_at=created_at,
    )


def _package_version() -> str:
    from . import __version__

    return __version__
