"""Coarse-to-fine architecture search over a toy adversarial supernet.

The package trains a weight-sharing super-generator with an exactly fair
schedule, then searches it in three narrowing stages: path, operator
assignment, and evolutionary channel shrinking driven by replacement
gains, with per-channel scale factors sparsified by proximal descent.
Tabular fitness landscapes with exhaustively known optima verify the
search machinery independently of training.
"""

from .configs import default_config, default_toy_spec, evolution_bench_spec
from .costs import CostReport, genome_cost, satisfies_constraints
from .errors import (
    CfSearchError,
    ConfigError,
    GenomeError,
    InfeasibleError,
    InvariantError,
)
from .evolution import EvoConfig, compute_rg, shrink_channels
from .fairness import FairnessLedger, uniform_equal_probability
from .network import SupernetWeights
from .oracles import (
    GanOracle,
    TabularLandscape,
    TabularOracle,
    build_landscape,
    shipped_landscape,
)
from .pipeline import (
    SearchTrace,
    joint_search_baseline,
    run_pipeline,
    run_search,
)
from .reporting import RunManifest, write_run_report
from .space import (
    ArchitectureGenome,
    SupernetSpec,
    enumerate_specializations,
    operator_specialization_count,
    spec_from_dict,
)
from .trainer import (
    ToyDataset,
    TrainConfig,
    evaluate_genome,
    make_dataset,
    pretrain_supernet,
)

__version__ = "0.1.0"

__all__ = [
    "ArchitectureGenome",
    "CfSearchError",
    "ConfigError",
    "CostReport",
    "EvoConfig",
    "FairnessLedger",
    "GanOracle",
    "GenomeError",
    "InfeasibleError",
    "InvariantError",
    "RunManifest",
    "SearchTrace",
    "SupernetSpec",
    "SupernetWeights",
    "TabularLandscape",
    "TabularOracle",
    "ToyDataset",
    "TrainConfig",
    "build_landscape",
    "compute_rg",
    "default_config",
    "default_toy_spec",
    "enumerate_specializations",
    "evaluate_genome",
    "evolution_bench_spec",
    "genome_cost",
    "joint_search_baseline",
    "make_dataset",
    "operator_specialization_count",
    "pretrain_supernet",
    "run_pipeline",
    "run_search",
    "satisfies_constraints",
    "shipped_landscape",
    "shrink_channels",
    "spec_from_dict",
    "uniform_equal_probability",
    "write_run_report",
    "__version__",
]
