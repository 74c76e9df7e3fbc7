"""Self-healing campaign integration tests: real pools, real deaths.

The acceptance property under test: a supervised process campaign in
which seeded :class:`~repro.robustness.chaos.ProcessChaos` faults kill
workers mid-cell completes anyway, and its journal is **byte-identical**
to the failure-free serial ``--deterministic`` run — crash recovery is
invisible in the campaign's output. A permanently poisonous iteration
is bisected out and quarantined instead of aborting the campaign.

These tests spawn and respawn process pools; the heavy ones are marked
``chaos`` (the CI fault-tolerance stage runs them explicitly; the fast
lane skips them).
"""

import json

import pytest

from repro.campaign.runner import deterministic_solvers, run_campaign
from repro.core.config import CampaignSpec, FusionConfig, YinYangConfig
from repro.core.parallel import (
    ShardTask,
    install_worker_state,
    reconstruct_iteration_script,
    run_worker_task,
    serialize_seeds,
)
from repro.robustness import (
    CampaignJournal,
    ContainmentPolicy,
    ProcessChaos,
    SupervisorPolicy,
)
from repro.seeds import build_corpus

CAMPAIGN = dict(
    iterations_per_cell=6,
    seed=6,
    performance_threshold=None,
    solver_factory=deterministic_solvers,
)

NO_BACKOFF = dict(backoff_base=0.0, backoff_cap=0.0)


def one_deterministic_solver():
    """A single-solver factory: halves the campaign's cell count."""
    return deterministic_solvers()[:1]


class SatOnly:
    """A corpus view exposing only the ``sat`` seeds (fewer cells)."""

    def __init__(self, corpus):
        self._corpus = corpus

    def by_oracle(self, oracle):
        return self._corpus.by_oracle(oracle) if oracle == "sat" else []


@pytest.fixture(scope="module")
def corpora():
    return {"QF_S": SatOnly(build_corpus("QF_S", scale=0.0015, seed=5))}


@pytest.fixture(scope="module")
def baseline(corpora, tmp_path_factory):
    path = tmp_path_factory.mktemp("journal") / "baseline.jsonl"
    result = run_campaign(
        corpora, journal=path, **dict(CAMPAIGN, solver_factory=one_deterministic_solver)
    )
    return result, path.read_bytes()


@pytest.mark.chaos
class TestChaosKillDeterminism:
    def test_seeded_worker_kills_leave_journal_byte_identical(
        self, corpora, baseline, tmp_path
    ):
        # Iterations 2 and 3 land in different shards at workers=2, so
        # the campaign survives two separate worker deaths (each shard
        # lease is killed once, charged via its heartbeat, respawned,
        # and resumed from its progress checkpoints).
        path = tmp_path / "supervised.jsonl"
        result = run_campaign(
            corpora,
            journal=path,
            mode="process",
            workers=2,
            supervise=SupervisorPolicy(max_worker_restarts=20, **NO_BACKOFF),
            chaos_process=ProcessChaos(kill_at=(2, 3)),
            **dict(CAMPAIGN, solver_factory=one_deterministic_solver),
        )
        assert result.supervision["restarts"] >= 1
        assert result.supervision["retries"] >= 1
        assert result.poisoned == []
        assert path.read_bytes() == baseline[1]
        # Leases' progress checkpoints are cleaned up with the sidecars.
        assert list(tmp_path.glob("*.lease-*")) == []


class _RaisesOnOneMutant:
    """Answers ``unknown`` except on one mutant, where it raises a plain
    Python exception — a harness bug, not a solver crash (picklable)."""

    name = "raiser"

    def __init__(self, target):
        self.target = target

    def check_script(self, script, directive=None, session=None):
        from repro.smtlib.printer import print_script
        from repro.solver.result import CheckOutcome, SolverResult

        if print_script(script) == self.target:
            raise RuntimeError("unexpected failure inside the solver adapter")
        return CheckOutcome(SolverResult.UNKNOWN)


def _raising_solvers(target):
    return [_RaisesOnOneMutant(target)]


class TestWorkerExceptions:
    def test_removed_modes_and_switches_are_rejected(self, corpora):
        with pytest.raises(ValueError, match="mode"):
            run_campaign(corpora, mode="thread", workers=2, **CAMPAIGN)
        with pytest.raises(TypeError, match="SupervisorPolicy"):
            run_campaign(corpora, mode="process", supervise=True, **CAMPAIGN)

    def test_worker_exception_is_poisoned_not_raised(self, corpora, tmp_path):
        # Under the default supervision every process campaign gets, an
        # exception raised inside a worker fails only its lease: the
        # lease is retried, then bisected down to the one iteration
        # that raises, which is quarantined while the campaign finishes.
        from functools import partial

        texts, logics = serialize_seeds(corpora["QF_S"].by_oracle("sat"))
        spec = CampaignSpec(config=YinYangConfig(seed=CAMPAIGN["seed"]))
        task = ShardTask(oracle="sat", seed_texts=texts, logics=logics, shard=0)
        mutants = [
            reconstruct_iteration_script(spec, task, index)
            for index in range(CAMPAIGN["iterations_per_cell"])
        ]
        killer = next(
            i for i, text in enumerate(mutants) if text and mutants.count(text) == 1
        )
        path = tmp_path / "raising.jsonl"
        result = run_campaign(
            corpora,
            journal=path,
            mode="process",
            workers=2,
            **dict(CAMPAIGN, solver_factory=partial(_raising_solvers, mutants[killer])),
        )
        [poison] = result.poisoned
        assert poison.iteration == killer
        assert poison.classification == "worker-error:RuntimeError"
        assert poison.script == mutants[killer]
        [entry] = CampaignJournal(path).poison_entries()
        assert entry["iteration"] == killer
        assert entry["classification"] == "worker-error:RuntimeError"
        assert f"{killer} (worker-error:RuntimeError)" in result.summary()
        [report] = list(result.reports.values())
        assert report.iterations == CAMPAIGN["iterations_per_cell"] - 1
        assert result.supervision["bisections"] >= 1

    def test_process_test_run_names_the_poisoned_iteration(self, corpora):
        # YinYang.test has no journal to quarantine into: it finishes
        # the other shards, then raises naming the iteration.
        from functools import partial

        from repro.core.yinyang import YinYang
        from repro.errors import ReproError

        seeds = corpora["QF_S"].by_oracle("sat")
        tool = YinYang(_RaisesOnOneMutant(None))
        texts, logics = serialize_seeds(seeds)
        target = reconstruct_iteration_script(
            CampaignSpec(config=tool.config),
            ShardTask(oracle="sat", seed_texts=texts, logics=logics, shard=0),
            1,
        )
        assert target is not None
        with pytest.raises(ReproError, match=r"1 \(worker-error:RuntimeError\)"):
            tool.test(
                "sat",
                seeds,
                iterations=4,
                mode="process",
                workers=2,
                solver_factory=partial(_raising_solvers, target),
            )


@pytest.mark.chaos
class TestPoisonQuarantine:
    def test_permanent_killer_iteration_is_quarantined(self, corpora, tmp_path):
        # Iteration 1 kills its worker on *every* attempt: the lease is
        # bisected down to the single killer index, which is quarantined
        # as a reproduction artifact while the rest of the cell (and the
        # campaign) completes normally.
        path = tmp_path / "poisoned.jsonl"
        result = run_campaign(
            corpora,
            journal=path,
            mode="process",
            workers=2,
            supervise=SupervisorPolicy(
                max_shard_retries=0, max_worker_restarts=50, **NO_BACKOFF
            ),
            chaos_process=ProcessChaos(kill_at=(1,), attempts=10**9),
            **dict(CAMPAIGN, solver_factory=one_deterministic_solver),
        )
        assert len(result.poisoned) == 1
        poison = result.poisoned[0]
        assert poison.iteration == 1
        assert poison.classification == "killed"
        assert poison.strategy == "fusion"
        assert poison.seed == CAMPAIGN["seed"]
        assert poison.script  # the killer formula, reconstructed
        assert "(check-sat)" in poison.script
        # The quarantine is durable: the journal carries a poison entry
        # alongside the completed cell.
        journal = CampaignJournal(path)
        [entry] = journal.poison_entries()
        assert entry["iteration"] == 1
        assert entry["classification"] == "killed"
        assert entry["script"] == poison.script
        # The cell completed minus exactly the poisoned iteration.
        [report] = list(result.reports.values())
        assert report.iterations == CAMPAIGN["iterations_per_cell"] - 1
        assert result.supervision["poisoned"] == 1
        assert result.supervision["bisections"] >= 1


class TestLeasedResume:
    """In-process coverage of the worker-side leased loop: no pools, so
    these run in the fast lane."""

    def _spec_and_task(self, tmp_path, **task_overrides):
        corpus = build_corpus("QF_S", scale=0.0015, seed=5)
        texts, logics = serialize_seeds(corpus.by_oracle("sat"))
        spec = CampaignSpec(
            config=YinYangConfig(fusion=FusionConfig(), seed=6),
            iterations_per_cell=5,
            solver_factory=one_deterministic_solver,
            mode="process",
        )
        task = dict(
            oracle="sat",
            seed_texts=texts,
            logics=logics,
            shard=0,
            cell=("z3-like", "QF_S", "sat"),
            lease_id=1,
            attempt=0,
            progress_path=str(tmp_path / "j.jsonl.lease-cell-0of1.jsonl"),
        )
        task.update(task_overrides)
        return spec, ShardTask(**task)

    def test_leased_run_matches_bare_run(self, tmp_path):
        # The reference arm is the in-process kernel over the lease's
        # indices: heartbeats and checkpoints must not change a thing.
        from repro.core.yinyang import YinYang
        from repro.robustness.journal import serialize_report
        from repro.smtlib.parser import parse_script

        spec, task = self._spec_and_task(tmp_path)
        install_worker_state(spec)
        leased = run_worker_task(task)
        tool = YinYang(one_deterministic_solver(), config=spec.config)
        bare = tool.run_iterations(
            task.oracle,
            [parse_script(text) for text in task.seed_texts],
            list(task.logics),
            range(spec.iterations_per_cell),
        )
        assert leased["report"] == serialize_report(bare, unknown_split=True)

    def test_truncated_progress_line_reruns_iteration_same_bytes(self, tmp_path):
        spec, task = self._spec_and_task(tmp_path)
        install_worker_state(spec)
        full = run_worker_task(task)
        progress_path = tmp_path / "j.jsonl.lease-cell-0of1.jsonl"
        lines = progress_path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert len(lines) == 1 + spec.iterations_per_cell  # meta + one per iteration
        # A worker died mid-append: the final line is half-written.
        progress_path.write_text(
            "".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2], encoding="utf-8"
        )
        from dataclasses import replace

        resumed = run_worker_task(replace(task, attempt=1))
        assert resumed["report"] == full["report"]
        # The torn iteration was re-executed and re-checkpointed.
        healed = progress_path.read_text(encoding="utf-8").splitlines()
        recorded = [json.loads(line)["i"] for line in healed[1:]]
        assert sorted(recorded) == list(range(spec.iterations_per_cell))

    def test_resume_replays_checkpoints_without_rerunning(self, tmp_path):
        spec, task = self._spec_and_task(tmp_path)
        install_worker_state(spec)
        full = run_worker_task(task)
        progress_path = tmp_path / "j.jsonl.lease-cell-0of1.jsonl"
        before = progress_path.read_text(encoding="utf-8")
        from dataclasses import replace

        resumed = run_worker_task(replace(task, attempt=1))
        assert resumed["report"] == full["report"]
        # Nothing was re-executed: the log gained no new lines.
        assert progress_path.read_text(encoding="utf-8") == before

    def test_bisected_child_lease_runs_exact_indices(self, tmp_path):
        spec, task = self._spec_and_task(tmp_path, indices=(1, 3))
        install_worker_state(spec)
        payload = run_worker_task(task)
        from repro.robustness.journal import deserialize_report

        report = deserialize_report(payload["report"])
        assert report.iterations == 2


@pytest.mark.chaos
class TestContainment:
    def test_oom_alloc_is_contained_and_retried(self, corpora, tmp_path):
        # RLIMIT_AS turns the planned 2 GiB allocation into an in-worker
        # MemoryError; the supervisor classifies it "oom", retries the
        # lease (the fault is attempt-gated), and the campaign's output
        # is unaffected. The worker never dies, so no respawns.
        result = run_campaign(
            corpora,
            mode="process",
            workers=1,
            supervise=SupervisorPolicy(max_worker_restarts=10, **NO_BACKOFF),
            containment=ContainmentPolicy(mem_limit_mb=1024),
            chaos_process=ProcessChaos(oom_at=(0,), oom_bytes=1 << 31),
            **dict(CAMPAIGN, solver_factory=one_deterministic_solver),
        )
        assert result.supervision["retries"] == 1
        assert result.supervision["restarts"] == 0
        assert result.poisoned == []
        [report] = list(result.reports.values())
        assert report.iterations == CAMPAIGN["iterations_per_cell"]
