"""The benchmark's workloads, correctness checks and behaviour fingerprints.

A run of one workload is: one set-up in a fresh process (timed from spawn to
exit), one untimed warm-up iteration, then timed iterations for the
requested seconds (and at least ``MIN_REPEATS`` of each seed), cycling over
``ITERATION_SEEDS`` iteration seeds derived from the workload seed.  The
other set-ups and ``SWEEPS`` joint sweeps are spread over the timed part.
With tracing on, a traced pass over the first ``TRACED_ITERATIONS`` seeds and
one more sweep follows and gives the per-layer metrics.

The program is driven only through its public API, and every call the
tracing must see goes through a module attribute (``pipeline.run_search``,
not a name bound at import), so that a wrapper installed on that name sees it.
"""

from __future__ import annotations

import copy
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict

from cfsearch import cli, pipeline, reporting, trainer
from cfsearch.costs import genome_cost, satisfies_constraints
from cfsearch.errors import CfSearchError
from cfsearch.evolution import EvoConfig
from cfsearch.network import SupernetWeights
from cfsearch.oracles import GanOracle
from cfsearch.reporting import MANIFEST_NAME, RunManifest
from cfsearch.space import enumerate_genomes, genome_space_size, require_valid, spec_from_dict
from cfsearch.trainer import TrainConfig, make_dataset
from cfsearch.util import as_rng, child_seed, format_float, sha256_file

from tracing import Tracer, install_layer_spans, layer_values

HERE = os.path.dirname(os.path.abspath(__file__))
SUPER_RESOLUTION_CONFIG = os.path.join(HERE, "super_resolution.yaml")
REFERENCE_FILE = os.path.join(HERE, "reference.json")

# Iteration seeds per run.  A run-all takes 1 to 1.6 s, so only 2 seeds, for
# five or more repeats of each in a 30 s run; a search takes under 0.1 s.
ITERATION_SEEDS = {"translation": 2, "super_resolution": 2, "search": 8}
MIN_REPEATS = 3
TRACED_ITERATIONS = 4
# Set-up repeats per run; setup_s is their median.  Search set-up pretrains,
# so it gets fewer repeats.
SETUP_REPEATS = {"translation": 7, "super_resolution": 7, "search": 5}
SWEEPS = 5
CHILD_TIMEOUT_S = 120

clock = time.perf_counter


class Checks:
    """Correctness checks, counted as operations attempted and failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def fail(self, what: str) -> None:
        self.check(False, what)


def iteration_seeds(name: str, seed: int) -> list[int]:
    return [child_seed(seed, f"iteration:{i}") for i in range(ITERATION_SEEDS[name])]


def ledger_identity_holds(ledger, epochs: int) -> bool:
    """Every operator, generator and discriminator counter equals ``epochs``.

    Each epoch runs one fair cycle per path, so this is the full identity the
    fairness module documents; ``violations()`` only compares rows.
    """
    return (
        all(bool((counts == epochs).all()) for counts in ledger.operator_counts)
        and bool((ledger.generator_counts == epochs).all())
        and bool((ledger.discriminator_counts == epochs).all())
    )


def check_ledger(checks: Checks, ledger, epochs: int, where: str) -> None:
    checks.check(not ledger.violations(), f"{where}: fairness ledger violations")
    checks.check(
        ledger_identity_holds(ledger, epochs),
        f"{where}: fairness counters differ from the epoch count {epochs}",
    )


def check_search(checks: Checks, spec, genome, trace, shrink, evo: EvoConfig, where: str):
    try:
        require_valid(spec, genome)
        valid = True
    except CfSearchError as exc:
        valid = False
        where = f"{where}: {exc}"
    checks.check(valid, f"{where}: chosen genome is not valid")
    checks.check(
        valid
        and satisfies_constraints(genome_cost(spec, genome), evo.params_limit, evo.flops_limit),
        f"{where}: chosen genome violates the cost limits",
    )
    checks.check(
        trace.oracle_calls["channel"] <= evo.eval_budget
        and shrink.oracle_calls <= evo.eval_budget,
        f"{where}: channel stage exceeded eval_budget {evo.eval_budget}",
    )
    values = [r.fitness for r in trace.path_records + trace.operator_records + trace.channel_records]
    values += [shrink.best_fitness]
    values += [v for row in shrink.history for v in (row.best_fitness, row.mean_fitness)]
    checks.check(all(math.isfinite(v) for v in values), f"{where}: non-finite fitness")


def search_fingerprint(trace, genome, searched: float) -> dict:
    return {
        "path": trace.chosen_path,
        "g_optr": trace.g_optr,
        "genome": genome.to_record(),
        "oracle_calls": dict(trace.oracle_calls),
        "searched_fitness": format_float(searched),
    }


def weights_bytes(weights: SupernetWeights) -> list[tuple[str, bytes]]:
    return [(name, t.data.tobytes()) for name, t in weights.tensors.items()]


class Workload:
    """Common bookkeeping: fingerprints, the determinism check, the joint sweep.

    The joint sweep scores every genome of the space once with
    ``joint_search_baseline`` on one pretrained supernet.  It is the same set
    of calls on every seed, so its latencies give ``eval_ms``, and its
    optimum bounds the staged fitness found on that supernet.
    """

    def __init__(self, name: str, seeds: list[int], evo: EvoConfig, scratch: str, checks: Checks):
        self.name = name
        self.seeds = seeds
        self.evo = evo
        self.scratch = scratch
        self.checks = checks
        self.seen: dict[int, tuple[dict, dict | None]] = {}
        self.joint: dict | None = None
        self.sweep_on = None  # (weights, dataset) of the supernet the sweep scores
        self.staged: dict[int, float] = {}  # staged fitness on that supernet, per seed

    def remember(self, it_seed: int, fingerprint: dict, artifacts: dict | None) -> None:
        """Store the first result of a seed; any repeat must match it exactly."""
        first = self.seen.get(it_seed)
        if first is None:
            self.seen[it_seed] = (fingerprint, artifacts)
            return
        self.checks.check(
            first == (fingerprint, artifacts),
            f"{self.name} iteration seed {it_seed}: repeat differs "
            f"(fingerprint {first[0]} vs {fingerprint})",
        )

    def sweep(self) -> None:
        weights, dataset = self.sweep_on
        joint = pipeline.joint_search_baseline(
            GanOracle(weights, dataset), self.evo.params_limit, self.evo.flops_limit
        )
        c = self.checks
        c.check(
            joint.evaluations == genome_space_size(weights.spec) and math.isfinite(joint.fitness),
            f"{self.name}: joint sweep did not score every genome with a finite fitness",
        )
        for it_seed, staged in self.staged.items():
            c.check(
                staged <= joint.fitness,
                f"{self.name} iteration seed {it_seed}: staged fitness {staged!r} "
                f"exceeds the joint optimum {joint.fitness!r}",
            )
        doc = {"genome": joint.genome.to_record(), "fitness": format_float(joint.fitness)}
        if self.joint is not None:
            c.check(doc == self.joint, f"{self.name}: joint sweep repeat differs: {self.joint} vs {doc}")
        self.joint = doc

    def fingerprint(self) -> dict | None:
        if any(s not in self.seen for s in self.seeds) or self.joint is None:
            return None
        return {"iterations": [self.seen[s][0] for s in self.seeds], "joint": self.joint}

    def quality(self) -> dict[str, tuple[float, str, int]]:
        """Behaviour, printed but not bounded: means over the iteration seeds."""
        fps = [self.seen[s][0] for s in self.seeds if s in self.seen]
        out = {
            "searched_fitness": (
                statistics.fmean(float(fp["searched_fitness"]) for fp in fps), "fitness", len(fps)
            ),
            "oracle_calls": (
                statistics.fmean(sum(fp["oracle_calls"].values()) for fp in fps), "count", len(fps)
            ),
        }
        if "final_fitness" in fps[0]:
            out["final_fitness"] = (
                statistics.fmean(float(fp["final_fitness"]) for fp in fps), "fitness", len(fps)
            )
        if self.joint is not None:
            gaps = [float(self.joint["fitness"]) - f for f in self.staged.values()]
            out["fitness_gap"] = (statistics.fmean(gaps), "fitness", len(gaps))
        return out


class RunAll(Workload):
    """run_pipeline plus report_pipeline into a scratch directory.

    The joint sweep scores the supernet pretrained for the first seed.
    """

    def __init__(self, name: str, seeds: list[int], scratch: str, checks: Checks) -> None:
        self.config = cli.load_config(RUN_ALL_CONFIGS[name])
        evo = EvoConfig.from_mapping(self.config["evolution"])
        super().__init__(name, seeds, evo, scratch, checks)

    @staticmethod
    def setup(name: str, checks: Checks) -> dict:
        """What a user's run-all pays before work starts: load and validate."""
        cfg = cli.load_config(RUN_ALL_CONFIGS[name])
        spec = spec_from_dict(cfg["space"])
        evo = EvoConfig.from_mapping(cfg["evolution"])
        TrainConfig(**cfg["train"])
        if name == "super_resolution":
            for genome in enumerate_genomes(spec):
                if any(genome.channel_assignment) or any(genome.recursion_assignment):
                    continue
                checks.check(
                    satisfies_constraints(
                        genome_cost(spec, genome), evo.params_limit, evo.flops_limit
                    ),
                    f"narrowest genome {genome.to_record()} is infeasible",
                )
        return {}

    def set_up(self, child: dict) -> None:
        """Use the result of one set-up process; nothing to carry over here."""

    def iterate(self, it_seed: int) -> tuple[float, float]:
        """One timed run-all, then its checks; returns its start and end times."""
        cfg = copy.deepcopy(self.config)
        cfg["seed"] = it_seed
        out = os.path.join(self.scratch, f"run-{it_seed}")
        start = clock()
        result = pipeline.run_pipeline(cfg)
        manifest = reporting.report_pipeline(result, out)
        end = clock()

        where = f"{self.name} iteration seed {it_seed}"
        c = self.checks
        check_ledger(c, result.pretrain.ledger, TrainConfig(**cfg["train"]).epochs, where)
        check_search(c, result.spec, result.genome, result.trace, result.shrink, self.evo, where)
        c.check(
            all(math.isfinite(v) for v in (result.searched_fitness, result.final_fitness)),
            f"{where}: non-finite searched or final fitness",
        )
        loaded = RunManifest.load(os.path.join(out, MANIFEST_NAME))
        c.check(
            bool(loaded.artifacts)
            and loaded.artifacts == manifest.artifacts
            and all(
                sha256_file(os.path.join(out, name)) == digest
                for name, digest in loaded.artifacts.items()
            ),
            f"{where}: manifest hashes do not match the artifacts",
        )
        fingerprint = search_fingerprint(result.trace, result.genome, result.searched_fitness)
        fingerprint["final_fitness"] = format_float(result.final_fitness)
        self.remember(it_seed, fingerprint, dict(loaded.artifacts))
        if it_seed == self.seeds[0]:
            self.sweep_on = (result.pretrain.weights, result.dataset)
            self.staged = {it_seed: result.searched_fitness}
        shutil.rmtree(out)
        return start, end


def supernet_inputs():
    """Config, spec and dataset of the built-in default config.

    The search workload searches the default supernet (config seed 7) in
    every run, so the workload seed changes only the search seeds and runs
    on different seeds do the same kind of work.
    """
    cfg = cli.load_config(None)
    root = int(cfg["seed"])
    spec = spec_from_dict(cfg["space"])
    dataset = make_dataset(
        cfg["task"],
        int(cfg["dataset"]["samples"]),
        float(cfg["dataset"]["val_fraction"]),
        child_seed(root, "dataset"),
    )
    return cfg, spec, dataset


def build_supernet(out_dir: str, checks: Checks) -> tuple[SupernetWeights, str]:
    """Pretrain the default supernet and round-trip it through a checkpoint.

    Returns the weights loaded back and the checkpoint's sha256.
    """
    cfg, spec, dataset = supernet_inputs()
    train_cfg = TrainConfig(**cfg["train"])
    result = trainer.pretrain_supernet(
        spec, dataset, train_cfg, child_seed(int(cfg["seed"]), "pretrain")
    )
    check_ledger(checks, result.ledger, train_cfg.epochs, "search set-up")
    path = os.path.join(out_dir, "supernet.bin")
    result.weights.save(path)
    loaded = SupernetWeights.load(spec, path)
    checks.check(
        weights_bytes(loaded) == weights_bytes(result.weights),
        "search set-up: checkpoint round trip is not bit-identical",
    )
    return loaded, sha256_file(path)


class Search(Workload):
    """run_search on a fresh GanOracle over one pretrained supernet."""

    def __init__(self, seeds: list[int], scratch: str, checks: Checks) -> None:
        cfg, self.spec, self.dataset = supernet_inputs()
        super().__init__("search", seeds, EvoConfig.from_mapping(cfg["evolution"]), scratch, checks)
        self.sha: str | None = None

    @staticmethod
    def setup(out_dir: str, checks: Checks) -> dict:
        return {
            "sha256": build_supernet(out_dir, checks)[1],
            "checkpoint": os.path.join(out_dir, "supernet.bin"),
        }

    def set_up(self, child: dict) -> None:
        """Load the first set-up's supernet; later set-ups must match it bit for bit."""
        if self.sha is not None:
            self.checks.check(
                child["sha256"] == self.sha,
                f"search set-up: checkpoints differ between processes: {self.sha} vs {child['sha256']}",
            )
            return
        self.sha = child["sha256"]
        self.use(SupernetWeights.load(self.spec, child["checkpoint"]))
        again = os.path.join(self.scratch, "resaved.bin")
        self.weights.save(again)
        self.checks.check(
            sha256_file(again) == self.sha, "search set-up: reloaded checkpoint saves differently"
        )

    def use(self, weights: SupernetWeights) -> None:
        self.weights = weights
        self.sweep_on = (weights, self.dataset)

    def rebuild(self) -> None:
        """Set up again in this process, so that the traced pass measures it."""
        directory = os.path.join(self.scratch, "traced-setup")
        os.makedirs(directory, exist_ok=True)
        weights, sha = build_supernet(directory, self.checks)
        self.checks.check(sha == self.sha, "search set-up: traced pretraining differs")
        self.use(weights)

    def iterate(self, it_seed: int) -> tuple[float, float]:
        """One timed search, then its checks; returns its start and end times."""
        oracle = GanOracle(self.weights, self.dataset)
        start = clock()
        genome, trace, shrink = pipeline.run_search(oracle, self.evo, as_rng(it_seed))
        end = clock()
        where = f"search iteration seed {it_seed}"
        check_search(self.checks, self.spec, genome, trace, shrink, self.evo, where)
        self.staged[it_seed] = shrink.best_fitness
        self.remember(it_seed, search_fingerprint(trace, genome, shrink.best_fitness), None)
        return start, end


RUN_ALL_CONFIGS = {"translation": None, "super_resolution": SUPER_RESOLUTION_CONFIG}


def make_workload(name: str, seeds: list[int], scratch: str, checks: Checks) -> Workload:
    if name == "search":
        return Search(seeds, scratch, checks)
    return RunAll(name, seeds, scratch, checks)


def setup_in_child(name: str, out_dir: str) -> dict:
    """Body of one set-up process; returns what the parent needs."""
    checks = Checks()
    if name == "search":
        extra = Search.setup(out_dir, checks)
    else:
        extra = RunAll.setup(name, checks)
    return {"attempted": checks.attempted, "failures": checks.failures, **extra}


# -- client-side timers, on in every run ------------------------------------


class Client:
    """What the benchmark times as the program's client.

    Uncached ``GanOracle.evaluate`` latency; per ``pipeline.run_search``
    call its wall time, the oracle's counters and the evolution counters;
    and marks, the times at which each pretraining epoch (``plan_epoch``)
    and each search start and end, which cut an iteration into segments.
    One wrapper per call on calls of a millisecond or more, so these stay on
    while end-to-end metrics are measured.
    """

    def __init__(self) -> None:
        self.patches = Tracer()
        self.reset()

    def reset(self) -> None:
        self.eval_s: list[float] = []
        self.searches: list[dict] = []
        self.marks: list[float] = []

    def install(self) -> None:
        def time_evaluate(fn):
            def evaluate(oracle, genome):
                before = oracle.genome_evaluations
                start = clock()
                result = fn(oracle, genome)
                elapsed = clock() - start
                if oracle.genome_evaluations != before:
                    self.eval_s.append(elapsed)
                return result

            return evaluate

        def time_search(fn):
            def run_search(oracle, *args, **kwargs):
                start = clock()
                out = fn(oracle, *args, **kwargs)
                end = clock()
                self.marks += [start, end]
                elapsed = end - start
                shrink = out[2]
                self.searches.append(
                    {
                        "s": elapsed,
                        "lookups": oracle.lookups,
                        "unique": oracle.genome_evaluations,
                        "paths": oracle.path_evaluations,
                        "staleness": shrink.rg_table.staleness if shrink.rg_table else 0,
                        "generations": shrink.generations_run,
                        "feasible": [row.feasible_fraction for row in shrink.history],
                    }
                )
                return out

            return run_search

        def mark_epoch(fn):
            def plan_epoch(*args, **kwargs):
                self.marks.append(clock())
                return fn(*args, **kwargs)

            return plan_epoch

        self.patches.patch(GanOracle, "evaluate", time_evaluate)
        self.patches.patch(pipeline, "run_search", time_search)
        self.patches.patch(trainer, "plan_epoch", mark_epoch)

    def restore(self) -> None:
        self.patches.restore()


# -- one run -------------------------------------------------------------------


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile of ``values`` (q in [0, 1])."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_setup_process(name: str, seed: int, scratch: str, checks: Checks) -> tuple[float, dict] | None:
    """One set-up in a fresh process, timed from spawn to exit."""
    out_dir = tempfile.mkdtemp(prefix="setup-", dir=scratch)
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--setup-child",
        "--workload", name, "--seed", str(seed), "--out", out_dir,
    ]
    start = clock()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    elapsed = clock() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        checks.fail(f"{name} set-up process exited with code {proc.returncode}")
        return None
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    checks.attempted += doc["attempted"]
    checks.failures += doc["failures"]
    return elapsed, doc


def load_reference() -> dict:
    try:
        with open(REFERENCE_FILE, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def timing_summary(reps: dict[int, list[tuple]], sweeps: list[list[float]]):
    """End-to-end timings, as (value, unit, samples).

    Every iteration seed is a fixed piece of work, run at least three times
    at different moments.  The client's marks cut each run of it into the
    same segments (one per pretraining epoch, the search, and the rest), and
    a seed's time is the sum over segments of the best repeat of each; each
    call of the joint sweep likewise keeps its best of the sweeps.  Other
    tenants' load on the host comes in bursts, and short segments let the
    best repeat drop it.  Each seed then counts once, so every run weighs the
    same work.
    """
    best_iter = [
        sum(min(segment) for segment in zip(*(r[0] for r in runs))) for runs in reps.values()
    ]
    best_search = [min(sum(x["s"] for x in r[1]) for r in runs) for runs in reps.values()]
    unique = sum(sum(x["unique"] + x["paths"] for x in runs[0][1]) for runs in reps.values())
    eval_ms = [1e3 * min(calls) for calls in zip(*sweeps)]
    raw = [sum(r[0]) for runs in reps.values() for r in runs]
    iterations = len(raw)
    return {
        "iter_s": (statistics.fmean(best_iter), "s", iterations),
        "iter_s.raw_median": (statistics.median(raw), "s", iterations),
        "search_s": (statistics.fmean(best_search), "s", iterations),
        "evals_per_s": (unique / sum(best_search), "1/s", iterations),
        "eval_ms.p50": (quantile(eval_ms, 0.5), "ms", len(eval_ms)),
        "eval_ms.p90": (quantile(eval_ms, 0.9), "ms", len(eval_ms)),
    }


def run(name: str, seed: int, seconds: float, trace: bool, scratch: str) -> dict:
    """Run one workload; returns end-to-end and per-layer values and the report."""
    checks = Checks()
    seeds = iteration_seeds(name, seed)
    workload = make_workload(name, seeds, scratch, checks)
    setup_times: list[float] = []
    setups_started = 0

    def set_up() -> None:
        nonlocal setups_started
        setups_started += 1
        done = run_setup_process(name, seed, scratch, checks)
        if done is not None:
            setup_times.append(done[0])
            workload.set_up(done[1])

    set_up()
    if not setup_times:
        raise RuntimeError("the first set-up process failed")

    client = Client()
    client.install()
    try:
        def attempt(step, label: str):
            """Run one step; a crash is a failed operation and measuring goes on."""
            try:
                return step()
            except Exception:
                checks.fail(f"{name} {label} raised:\n{traceback.format_exc()}")
                return None

        def sweep() -> list[float]:
            client.reset()
            attempt(workload.sweep, "joint sweep")
            return client.eval_s

        # Warm-up: lazy set-up and caches fill before timing.
        attempt(lambda: workload.iterate(seeds[0]), f"iteration seed {seeds[0]}")
        # The other set-ups and the sweeps are spread over the timed part, so
        # that one burst of load on the host cannot slow all of them.
        sweeps: list[list[float]] = []
        # seed -> one (segment seconds, run_search records) per repeat
        reps: dict[int, list[tuple]] = defaultdict(list)
        start = clock()
        i = 0
        while i < MIN_REPEATS * len(seeds) or clock() - start < seconds:
            done = (clock() - start) / seconds if seconds else 1.0
            if setups_started < SETUP_REPEATS[name] and done >= setups_started / SETUP_REPEATS[name]:
                set_up()
            if len(sweeps) < SWEEPS and done >= len(sweeps) / SWEEPS:
                sweeps.append(sweep())
            it_seed = seeds[i % len(seeds)]
            i += 1
            client.reset()
            span = attempt(lambda: workload.iterate(it_seed), f"iteration seed {it_seed}")
            if span is not None:
                cuts = [span[0], *client.marks, span[1]]
                segments = [b - a for a, b in zip(cuts, cuts[1:])]
                reps[it_seed].append((segments, client.searches))
        while setups_started < SETUP_REPEATS[name]:
            set_up()
        while len(sweeps) < SWEEPS:
            sweeps.append(sweep())
        end_to_end = {
            "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
            **timing_summary(reps, sweeps),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1
            ),
        }
        quality = workload.quality()

        layers = None
        if trace:
            client.reset()
            tracer = Tracer()
            install_layer_spans(tracer)
            try:
                if isinstance(workload, Search):
                    attempt(workload.rebuild, "traced set-up")
                traced = {
                    s: attempt(lambda: workload.iterate(s), f"iteration seed {s}")
                    for s in seeds[:TRACED_ITERATIONS]
                }
                attempt(workload.sweep, "joint sweep")
            finally:
                tracer.restore()
            if all(t is not None for t in traced.values()):
                untraced = sum(min(sum(r[0]) for r in reps[s]) for s in traced)
                overhead = sum(end - start for start, end in traced.values()) / untraced
            else:
                overhead = math.nan
            layers = layer_values(tracer, client.searches, overhead)
    finally:
        client.restore()

    reference = load_reference().get(name, {}).get(str(seed))
    fingerprint = workload.fingerprint()
    if reference is None:
        match = "no reference for this seed"
    else:
        match = "matches reference" if fingerprint == reference else "drifted from reference"
    return {
        "checks": checks,
        "end_to_end": end_to_end,
        "quality": quality,
        "layers": layers,
        "fingerprint": fingerprint,
        "fingerprint_match": match,
        "iterations": i,
        "traced_iterations": min(TRACED_ITERATIONS, len(seeds)),
    }
