"""Supervisor unit tests against a scripted fake backend.

The supervisor's contract — capped retries, heartbeat attribution,
innocent-bystander requeue, poison bisection, restart budget — is pure
coordination logic; a fake backend that resolves futures according to
a per-lease script exercises every path without spawning a single
process. Real-pool behavior is covered by
``tests/test_supervised_campaign.py``.
"""

import json
import signal
from concurrent.futures import Future
from dataclasses import dataclass

import pytest

from repro.core.config import CampaignSpec, YinYangConfig
from repro.core.parallel import ShardTask
from repro.robustness.chaos import ProcessChaos
from repro.robustness.containment import (
    CPU_KILL,
    HANG_KILL,
    OOM,
    OOM_KILL,
    WORKER_DEATH,
    ContainmentPolicy,
    classify_exception,
    classify_exit,
    is_teardown_exit,
)
from repro.robustness.journal import ShardProgress
from repro.robustness.supervisor import (
    SupervisionExhausted,
    Supervisor,
    SupervisorPolicy,
    read_heartbeat,
    write_heartbeat,
)


class FakeBroken(RuntimeError):
    pass


NO_SLEEP = SupervisorPolicy(sleep=lambda _s: None)


def campaign(**overrides):
    """A two-worker process campaign of 8 iterations per cell, seed 6:
    the spec a supervisor takes its policy, containment, strategy and
    seed from."""
    base = dict(
        config=YinYangConfig(seed=6),
        iterations_per_cell=8,
        solver_factory=list,
        mode="process",
        workers=2,
        supervise=NO_SLEEP,
    )
    base.update(overrides)
    return CampaignSpec(**base)


def make_task(**overrides):
    base = dict(
        oracle="sat",
        seed_texts=("(check-sat)",),
        logics=("",),
        shard=0,
        cell=("z3-like", "QF_S", "sat"),
    )
    base.update(overrides)
    return ShardTask(**base)


class FakeBackend:
    """Resolves each submitted task per a ``plan(task)`` script.

    Plan outcomes: ``("ok", payload)``, ``("broken", pid, exitcode)``
    (the pool breaks; the dead pid is reported by the next respawn and
    a heartbeat is left behind naming it), or ``("raise", exc)``.
    """

    broken_exceptions = (FakeBroken,)

    def __init__(self, plan, heartbeat_dir=None):
        self.plan = plan
        self.heartbeat_dir = heartbeat_dir
        self.respawns = 0
        self.killed = []
        self._dead = {}

    def submit(self, task):
        future = Future()
        outcome = self.plan(task)
        kind = outcome[0]
        if kind == "ok":
            future.set_result(outcome[1])
        elif kind == "broken":
            _, pid, exitcode = outcome
            if self.heartbeat_dir is not None:
                index = task.indices[0] if task.indices else task.shard
                write_heartbeat(
                    self.heartbeat_dir, task.lease_id, pid, task.attempt, index
                )
            self._dead[pid] = exitcode
            future.set_exception(FakeBroken("pool died"))
        elif kind == "raise":
            future.set_exception(outcome[1])
        else:  # pragma: no cover - bad test script
            raise AssertionError(kind)
        return future

    def respawn(self):
        self.respawns += 1
        dead, self._dead = self._dead, {}
        return dead

    def kill_worker(self, pid):
        self.killed.append(pid)


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            SupervisorPolicy(max_worker_restarts=-1)
        with pytest.raises(ValueError):
            SupervisorPolicy(max_shard_retries=-1)
        with pytest.raises(ValueError):
            SupervisorPolicy(heartbeat_timeout=0)
        with pytest.raises(ValueError):
            SupervisorPolicy(poll_interval=0)

    def test_backoff_is_capped_exponential(self):
        policy = SupervisorPolicy(backoff_base=0.1, backoff_cap=0.5)
        assert policy.backoff(0) == pytest.approx(0.1)
        assert policy.backoff(1) == pytest.approx(0.2)
        assert policy.backoff(10) == pytest.approx(0.5)


class TestClassification:
    def test_teardown_exits(self):
        assert is_teardown_exit(None)
        assert is_teardown_exit(0)
        assert is_teardown_exit(-signal.SIGTERM)
        assert not is_teardown_exit(-signal.SIGKILL)
        assert not is_teardown_exit(1)

    def test_classify_exit(self):
        mem = ContainmentPolicy(mem_limit_mb=64)
        assert classify_exit(None) == WORKER_DEATH
        assert classify_exit(3) == "exit:3"
        assert classify_exit(-signal.SIGXCPU) == CPU_KILL
        assert classify_exit(-signal.SIGKILL, mem) == OOM_KILL
        assert classify_exit(-signal.SIGKILL) == "killed"
        assert classify_exit(-signal.SIGSEGV) == "signal:SIGSEGV"

    def test_classify_exception(self):
        assert classify_exception(MemoryError()) == OOM
        assert classify_exception(RuntimeError()) == "worker-error:RuntimeError"


class TestHeartbeat:
    def test_roundtrip(self, tmp_path):
        write_heartbeat(tmp_path, 7, pid=123, attempt=2, index=41)
        record = read_heartbeat(tmp_path, 7)
        assert record["pid"] == 123
        assert record["attempt"] == 2
        assert record["i"] == 41
        assert record["ts"] > 0

    def test_missing_is_none(self, tmp_path):
        assert read_heartbeat(tmp_path, 99) is None


class TestSupervisorRun:
    def test_all_leases_succeed(self):
        backend = FakeBackend(lambda task: ("ok", {"shard": task.shard}))
        sup = Supervisor(backend, campaign())
        leases = [
            sup.lease(("cell", shard), make_task(shard=shard), (shard, shard + 2))
            for shard in range(2)
        ]
        results = sup.run(leases)
        assert set(results) == {("cell", 0), ("cell", 1)}
        assert sup.counters["restarts"] == 0
        assert sup.counters["retries"] == 0
        assert sup.poisoned == []

    def test_attributed_death_retries_then_succeeds(self, tmp_path):
        state = {"deaths": 0}

        def plan(task):
            if task.shard == 0 and task.attempt == 0:
                state["deaths"] += 1
                return ("broken", 111, -signal.SIGKILL)
            return ("ok", {"attempt": task.attempt})

        backend = FakeBackend(plan, heartbeat_dir=str(tmp_path))
        sup = Supervisor(backend, campaign())
        leases = [
            sup.lease(("cell", shard), make_task(shard=shard), (shard,))
            for shard in range(2)
        ]
        results = sup.run(leases)
        assert state["deaths"] == 1
        assert backend.respawns == 1
        assert sup.counters["restarts"] == 1
        assert sup.counters["retries"] == 1
        # The retried lease's payload came from attempt 1.
        [(lease, payload)] = results[("cell", 0)]
        assert payload["attempt"] == 1
        assert lease.last_classification == "killed"

    def test_innocent_teardown_requeues_for_free(self, tmp_path):
        state = {"broke": False}

        def plan(task):
            if not state["broke"]:
                state["broke"] = True
                return ("broken", 222, -signal.SIGTERM)  # teardown collateral
            return ("ok", {})

        backend = FakeBackend(plan, heartbeat_dir=str(tmp_path))
        sup = Supervisor(backend, campaign())
        results = sup.run([sup.lease("k", make_task(), (0, 2))])
        assert results["k"]
        assert sup.counters["requeues"] == 1
        assert sup.counters["retries"] == 0  # nobody was charged

    def test_worker_exception_is_retried_and_classified(self):
        state = {"raised": False}

        def plan(task):
            if not state["raised"]:
                state["raised"] = True
                return ("raise", MemoryError("rlimit"))
            return ("ok", {})

        backend = FakeBackend(plan)
        sup = Supervisor(
            backend, campaign(containment=ContainmentPolicy(mem_limit_mb=64))
        )
        results = sup.run([sup.lease("k", make_task(), (0,))])
        [(lease, _payload)] = results["k"]
        assert lease.last_classification == OOM
        assert sup.counters["retries"] == 1

    def test_bisection_isolates_poison_iteration(self, tmp_path):
        def plan(task):
            indices = (
                task.indices
                if task.indices is not None
                else tuple(range(task.shard, 8, 2))
            )
            if 5 in indices:
                return ("broken", 333, -signal.SIGKILL)
            return ("ok", {"indices": indices})

        backend = FakeBackend(plan, heartbeat_dir=str(tmp_path))
        artifacts = []
        sup = Supervisor(
            backend,
            campaign(
                supervise=SupervisorPolicy(
                    max_shard_retries=0, max_worker_restarts=20, sleep=lambda _s: None
                )
            ),
            poison_artifact=lambda task, index: f"script-{index}",
            on_poison=artifacts.append,
        )
        results = sup.run([sup.lease("k", make_task(shard=1), (1, 3, 5, 7))])
        assert len(sup.poisoned) == 1
        poison = sup.poisoned[0]
        assert poison.iteration == 5
        assert poison.classification == "killed"
        assert poison.script == "script-5"
        assert artifacts == [poison]
        assert sup.counters["bisections"] >= 1
        assert sup.counters["poisoned"] == 1
        # Every other iteration still produced a payload.
        covered = sorted(
            i for _lease, p in results["k"] for i in p["indices"]
        )
        assert covered == [1, 3, 7]

    def test_restart_budget_exhausted(self, tmp_path):
        backend = FakeBackend(
            lambda task: ("broken", 444, -signal.SIGKILL),
            heartbeat_dir=str(tmp_path),
        )
        sup = Supervisor(
            backend,
            campaign(
                supervise=SupervisorPolicy(max_worker_restarts=2, sleep=lambda _s: None)
            ),
        )
        with pytest.raises(SupervisionExhausted):
            sup.run([sup.lease("k", make_task(), (0,))])

    def test_poison_record_carries_reproduction_context(self, tmp_path):
        backend = FakeBackend(
            lambda task: ("broken", 555, -signal.SIGSEGV),
            heartbeat_dir=str(tmp_path),
        )
        sup = Supervisor(
            backend,
            campaign(
                supervise=SupervisorPolicy(
                    max_shard_retries=0, max_worker_restarts=20, sleep=lambda _s: None
                ),
                containment=ContainmentPolicy(mem_limit_mb=128, cpu_limit_seconds=30),
            ),
        )
        sup.run([sup.lease("k", make_task(), (4,))])
        [poison] = sup.poisoned
        data = poison.as_dict()
        assert data["iteration"] == 4
        assert data["classification"] == "signal:SIGSEGV"
        assert data["strategy"] == "fusion"
        assert data["seed"] == 6
        assert data["rlimits"] == {"mem_limit_mb": 128, "cpu_limit_seconds": 30}
        assert json.dumps(data)  # JSON-ready for the journal


class TestHangSweep:
    def test_stale_heartbeat_gets_worker_killed(self, tmp_path, monkeypatch):
        # A lease whose future never resolves and whose heartbeat is
        # old: the sweep must SIGKILL the recorded pid exactly once.
        class HangingBackend(FakeBackend):
            def submit(self, task):
                write_heartbeat(self.heartbeat_dir, task.lease_id, 666, task.attempt, 0)
                future = Future()  # never resolves
                self.pending = future
                return future

        backend = HangingBackend(None, heartbeat_dir=str(tmp_path))
        sup = Supervisor(
            backend,
            campaign(
                supervise=SupervisorPolicy(
                    heartbeat_timeout=0.01, poll_interval=0.01, sleep=lambda _s: None
                )
            ),
        )

        def kill_and_finish(pid):
            backend.killed.append(pid)
            backend.pending.set_result({"killed": pid})

        backend.kill_worker = kill_and_finish
        import time as time_mod

        time_mod.sleep(0.05)  # let the single heartbeat go stale
        results = sup.run([sup.lease("k", make_task(), (0,))])
        assert backend.killed == [666]
        assert sup.counters["heartbeat_kills"] == 1
        assert results["k"][0][1] == {"killed": 666}


class TestShardProgress:
    META = {"seed": 6, "iterations": 8, "shard": 0, "of": 2, "strategy": "fusion"}

    def test_records_survive_reload(self, tmp_path):
        path = tmp_path / "j.jsonl.lease-0.jsonl"
        progress = ShardProgress(path, meta=self.META)
        progress.record(0, {"iterations": 1})
        progress.record(2, {"iterations": 1, "fused": 1})
        again = ShardProgress(path, meta=self.META)
        assert again.completed == {
            0: {"iterations": 1},
            2: {"iterations": 1, "fused": 1},
        }

    def test_torn_final_line_is_discarded(self, tmp_path):
        path = tmp_path / "j.jsonl.lease-0.jsonl"
        progress = ShardProgress(path, meta=self.META)
        progress.record(0, {"iterations": 1})
        progress.record(2, {"iterations": 1})
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) - 9], encoding="utf-8")  # tear the tail
        again = ShardProgress(path, meta=self.META)
        assert again.completed == {0: {"iterations": 1}}  # 2 re-runs

    def test_mismatched_meta_resets_the_log(self, tmp_path):
        path = tmp_path / "j.jsonl.lease-0.jsonl"
        progress = ShardProgress(path, meta=self.META)
        progress.record(0, {"iterations": 1})
        fresh = ShardProgress(path, meta=dict(self.META, seed=7))
        assert fresh.completed == {}
        # And the stale records are durably gone, not just ignored.
        assert ShardProgress(path, meta=dict(self.META, seed=7)).completed == {}


class TestProcessChaos:
    def test_faults_gate_on_attempt(self):
        chaos = ProcessChaos(kill_at=(2,), hang_at=(3,), attempts=1)
        assert chaos.fault_for(2, 0) == "kill"
        assert chaos.fault_for(3, 0) == "proc-hang"
        assert chaos.fault_for(2, 1) is None  # retry sails through
        assert chaos.fault_for(4, 0) is None

    def test_permanent_poison_plan(self):
        chaos = ProcessChaos(kill_at=(5,), attempts=10**9)
        assert chaos.fault_for(5, 12345) == "kill"

    def test_picklable_in_worker_spec(self):
        import pickle

        spec = campaign(
            supervise=None,
            containment=ContainmentPolicy(mem_limit_mb=64, cpu_limit_seconds=10),
            chaos_process=ProcessChaos(kill_at=(1, 2)),
        )
        assert pickle.loads(pickle.dumps(spec)).chaos_process.kill_at == (1, 2)
