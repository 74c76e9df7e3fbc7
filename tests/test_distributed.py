"""Distributed fleet test matrix: the coordinator + worker-fleet layer.

The headline invariant under test: a deterministic campaign's journal
is **byte-identical for every fleet shape** — serial, or a process
campaign's socket worker fleet at any worker count, under any
work-stealing order, whether its fleet settings are left at their
defaults or spelled out. The fleet-shape matrix plus its two
fleet-settings shapes (``fleet_configured`` fixture in ``conftest.py``)
runs one cheap campaign per shape and diffs the bytes against the
serial baseline.

Around that center sit the layers the invariant rests on:

- the wire protocol (length-prefixed frames) survives arbitrary
  segmentation, duplication of whole frames, truncation, and garbage —
  property-tested with Hypothesis;
- the lease merge is blind to completion order, empty or stale lease
  logs, and
  workers that die before finishing a single iteration;
- planned mid-lease worker kills
  (:class:`~repro.robustness.ProcessChaos`) plus seeded
  :class:`~repro.distributed.NetChaos` frame faults (dropped status
  frames, duplicated results, delays) leave the journal
  byte-identical — crash recovery is invisible;
- :class:`~repro.distributed.TcpFleet` teardown is idempotent and
  exception-safe.

Socket-spawning tests are cheap (one cell, six iterations, a single
deterministic solver); the kill soaks are marked ``chaos`` and the
four-worker shape ``slow``, matching the CI lanes.
"""

import json
import os
import signal
import socket
import struct
import subprocess
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign.runner import deterministic_solvers, run_campaign
import dataclasses

from repro.core.config import CampaignSpec, FusionConfig, YinYangConfig
from repro.core.parallel import ShardTask
from repro.distributed import (
    FleetBroken,
    NetChaos,
    TcpFleet,
    parse_net_chaos,
)
from repro.distributed.netchaos import DELAY, DROP, DUP
from repro.distributed.worker import _lease_hook
from repro.distributed.protocol import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    ProtocolError,
    encode_frame,
    pack_blob,
    parse_address,
    task_from_wire,
    task_to_wire,
    unpack_blob,
)
from repro.observability.telemetry import Telemetry
from repro.robustness import ProcessChaos, ShardProgress, SupervisorPolicy
from repro.robustness.journal import lease_progress_path
from repro.seeds import build_corpus

CAMPAIGN = dict(
    iterations_per_cell=6,
    seed=6,
    performance_threshold=None,
)

NO_BACKOFF = dict(backoff_base=0.0, backoff_cap=0.0)

#: The lease meta stamped by every supervised run of CAMPAIGN at
#: workers=2 (see ``CampaignSpec.describe``; each log adds its shard) —
#: fabricated lease-log tests must match it exactly to exercise the
#: "matching but empty" path.
LEASE_META = dict(
    seed=6, iterations_per_cell=6, workers=2, strategy="fusion"
)


def one_deterministic_solver():
    """A single-solver factory: one campaign cell with SatOnly below."""
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
    path = tmp_path_factory.mktemp("journal") / "serial.jsonl"
    result = run_campaign(
        corpora,
        journal=path,
        solver_factory=one_deterministic_solver,
        **CAMPAIGN,
    )
    return result, path.read_bytes()


# ---------------------------------------------------------------------------
# 1. The fleet-shape determinism matrix (the headline invariant)
# ---------------------------------------------------------------------------


class TestFleetShapeDeterminism:
    """One deterministic campaign, every fleet shape, identical bytes."""

    def test_journal_bytes_are_shape_blind(
        self, corpora, baseline, tmp_path, fleet_configured, run_fleet_campaign
    ):
        path = tmp_path / "fleet.jsonl"
        result = run_fleet_campaign(
            corpora,
            fleet_configured,
            journal=path,
            solver_factory=one_deterministic_solver,
            **CAMPAIGN,
        )
        assert path.read_bytes() == baseline[1]
        assert result.summary_counters() == baseline[0].summary_counters()
        # Transient state (lease progress logs, the journal's .tmp) is
        # gone once the journal holds every cell.
        assert list(tmp_path.glob(path.name + ".*")) == []

    def test_tcp_campaign_reports_clean_supervision(
        self, corpora, baseline, tmp_path
    ):
        result = run_campaign(
            {"QF_S": corpora["QF_S"]},
            journal=tmp_path / "tcp.jsonl",
            mode="process",
            workers=2,
            solver_factory=one_deterministic_solver,
            **CAMPAIGN,
        )
        # A failure-free fleet run crosses the supervisor without
        # tripping any of its recovery machinery.
        assert result.supervision == {
            "restarts": 0,
            "retries": 0,
            "requeues": 0,
            "heartbeat_kills": 0,
            "bisections": 0,
            "poisoned": 0,
        }
        assert result.poisoned == []

    def test_fleet_telemetry_counts_the_wire(self, corpora, tmp_path):
        telemetry = Telemetry()
        try:
            run_campaign(
                corpora,
                journal=tmp_path / "tel.jsonl",
                mode="process",
                workers=2,
                telemetry=telemetry,
                solver_factory=one_deterministic_solver,
                **CAMPAIGN,
            )
            counters = telemetry.snapshot()["counters"]
        finally:
            telemetry.close()
        # One worker may steal both leases before the second finishes
        # connecting, so connects is 1 or 2 — never more.
        assert 1 <= counters["fleet.connects"] <= 2
        assert counters["fleet.leases"] == 2  # one per shard of the cell
        assert counters["fleet.results"] == 2
        assert counters["fleet.steals"] == 2
        assert counters.get("fleet.disconnects", 0) == 0

    def test_concurrent_wire_counts_lose_nothing(self):
        """Every connection's reader thread counts ``fleet.*`` into the
        campaign's one registry; counts racing from many threads must
        all land. Each round counts fresh names, since a name's first
        count (creating its counter) is where an unguarded race loses
        increments."""
        telemetry = Telemetry()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with TcpFleet(_fleet_spec(), telemetry=telemetry) as fleet:
                for round_ in range(20):
                    names = [f"fleet.race{round_}.{i}" for i in range(500)]
                    start = threading.Barrier(8)

                    def count():
                        start.wait()
                        for name in names:
                            fleet._count(name)

                    threads = [threading.Thread(target=count) for _ in range(8)]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=60)
                    assert not any(thread.is_alive() for thread in threads)
            counters = telemetry.snapshot()["counters"]
        finally:
            sys.setswitchinterval(switch)
            telemetry.close()
        races = {n: v for n, v in counters.items() if n.startswith("fleet.race")}
        assert len(races) == 20 * 500
        assert set(races.values()) == {8}

    def test_external_workers_serve_a_spawnless_fleet(
        self, corpora, baseline, tmp_path
    ):
        """The two-terminal setup: ``--spawn-workers 0`` plus two
        separately started ``yinyang worker --connect`` processes."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        procs = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.cli",
                    "worker",
                    "--connect",
                    f"127.0.0.1:{port}",
                ],
                env=env,
            )
            for _ in range(2)
        ]
        try:
            path = tmp_path / "external.jsonl"
            run_campaign(
                corpora,
                journal=path,
                mode="process",
                workers=2,
                listen=("127.0.0.1", port),
                spawn_workers=0,
                solver_factory=one_deterministic_solver,
                **CAMPAIGN,
            )
            assert path.read_bytes() == baseline[1]
            # The coordinator's teardown shuts both workers down cleanly.
            assert [proc.wait(timeout=10) for proc in procs] == [0, 0]
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()


# ---------------------------------------------------------------------------
# 2. The frame protocol (property-tested)
# ---------------------------------------------------------------------------

_MESSAGES = st.dictionaries(
    st.text(min_size=1, max_size=8),
    st.one_of(
        st.integers(min_value=-(2**31), max_value=2**31),
        st.text(max_size=32),
        st.none(),
        st.booleans(),
        st.lists(st.integers(min_value=0, max_value=9), max_size=4),
    ),
    max_size=5,
)


class TestFrameProtocol:
    @given(messages=st.lists(_MESSAGES, min_size=1, max_size=6), data=st.data())
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_round_trip_survives_any_segmentation(self, messages, data):
        wire = b"".join(encode_frame(m) for m in messages)
        decoder = FrameDecoder()
        decoded = []
        cursor = 0
        while cursor < len(wire):
            step = data.draw(
                st.integers(min_value=1, max_value=len(wire) - cursor),
                label="chunk",
            )
            decoded.extend(decoder.feed(wire[cursor : cursor + step]))
            cursor += step
        assert decoded == messages
        assert not decoder.pending

    @given(message=_MESSAGES, cut=st.integers(min_value=1, max_value=3))
    @settings(max_examples=40)
    def test_truncated_tail_is_pending_never_decoded(self, message, cut):
        wire = encode_frame(message)
        decoder = FrameDecoder()
        assert decoder.feed(wire[:-cut]) == []
        assert decoder.pending
        assert decoder.feed(wire[-cut:]) == [message]
        assert not decoder.pending

    @given(message=_MESSAGES)
    @settings(max_examples=25)
    def test_duplicated_frames_decode_twice(self, message):
        wire = encode_frame(message)
        assert FrameDecoder().feed(wire + wire) == [message, message]

    def test_oversize_length_prefix_is_rejected(self):
        wire = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError, match="ceiling"):
            FrameDecoder().feed(wire)

    @given(garbage=st.binary(min_size=1, max_size=64))
    @settings(max_examples=40)
    def test_garbage_payload_raises_or_stays_pending(self, garbage):
        """Arbitrary bytes after a valid length prefix either decode as
        JSON, raise ProtocolError, or await more input — never crash
        with anything else, never silently yield a non-object."""
        wire = struct.pack(">I", len(garbage)) + garbage
        decoder = FrameDecoder()
        try:
            for message in decoder.feed(wire):
                assert isinstance(message, dict)
        except ProtocolError:
            pass

    def test_non_object_payload_is_a_protocol_error(self):
        payload = b"[1,2,3]"
        wire = struct.pack(">I", len(payload)) + payload
        with pytest.raises(ProtocolError, match="object"):
            FrameDecoder().feed(wire)

    def test_blob_round_trip(self):
        blob = pack_blob({"nested": (1, 2), "config": YinYangConfig(seed=3)})
        restored = unpack_blob(blob)
        assert restored["nested"] == (1, 2)
        assert restored["config"].seed == 3

    def test_undecodable_blob_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="blob"):
            unpack_blob("not base64 pickle!")

    def test_parse_address(self):
        assert parse_address("127.0.0.1:7777") == ("127.0.0.1", 7777)
        assert parse_address("localhost:0") == ("localhost", 0)
        with pytest.raises(ValueError):
            parse_address("7777")
        with pytest.raises(ValueError):
            parse_address(":7777")


class TestTaskWireCodec:
    def _task(self, **overrides):
        task = dict(
            oracle="sat",
            seed_texts=("(assert true)", "(assert false)"),
            logics=("QF_S", "QF_S"),
            shard=1,
            cell=("z3-like", "QF_S", "sat"),
            solver_names=("z3-like",),
            quarantined=("cvc4-like",),
            indices=(1, 3, 5),
            attempt=2,
            lease_id=17,
            progress_path="/tmp/j.jsonl.lease-x-1of2.jsonl",
        )
        task.update(overrides)
        return ShardTask(**task)

    def test_round_trip_is_identity(self):
        task = self._task()
        wire = task_to_wire(task)
        restored = task_from_wire(wire)
        # Field by field, so a field the codec forgets fails here.
        for field in dataclasses.fields(ShardTask):
            assert field.name in wire
            assert getattr(restored, field.name) == getattr(task, field.name)

    def test_round_trip_preserves_optional_nones(self):
        task = self._task(
            cell=None,
            solver_names=None,
            indices=None,
            progress_path=None,
            quarantined=(),
        )
        restored = task_from_wire(task_to_wire(task))
        assert restored == task
        assert restored.indices is None  # bisection relies on the None

    def test_wire_form_is_json_clean(self):
        wire = task_to_wire(self._task())
        assert json.loads(json.dumps(wire)) == wire

    def test_json_round_trip_restores_tuples(self):
        wire = json.loads(json.dumps(task_to_wire(self._task())))
        restored = task_from_wire(wire)
        assert restored.cell == ("z3-like", "QF_S", "sat")
        assert restored.indices == (1, 3, 5)

    def test_malformed_lease_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="malformed"):
            task_from_wire({"oracle": "sat"})

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ShardTask)])
    def test_missing_field_is_a_protocol_error(self, name):
        wire = task_to_wire(self._task())
        del wire[name]
        with pytest.raises(ProtocolError, match="malformed"):
            task_from_wire(wire)


# ---------------------------------------------------------------------------
# 3. NetChaos: plan parsing, gating, and seeded reproducibility
# ---------------------------------------------------------------------------


class TestNetChaosPlan:
    def test_parse_full_spec(self):
        plan = parse_net_chaos(
            "drop=0.2;dup=0.25;delay=0.05;delay_seconds=0.001;seed=9"
        )
        assert plan == NetChaos(
            p_drop_status=0.2,
            p_dup_result=0.25,
            p_delay=0.05,
            delay_seconds=0.001,
            seed=9,
        )

    def test_parse_rejects_unknown_and_malformed_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            parse_net_chaos("teleport=1")
        # A planned worker death is a ProcessChaos kill, not a net fault.
        with pytest.raises(ValueError, match="unknown net-chaos field"):
            parse_net_chaos("disconnect=1")
        with pytest.raises(ValueError, match="key=value"):
            parse_net_chaos("drop")

    def test_probabilities_are_validated(self):
        with pytest.raises(ValueError, match="p_drop_status"):
            NetChaos(p_drop_status=1.5)

    def test_disconnects_are_attempt_gated(self):
        """A planned mid-lease disconnect is a ProcessChaos kill, fired
        by the fleet worker's lease hook with the lease's attempt: the
        first attempt dies at the planned iteration, the retry sails
        through. SIGUSR1 stands in for the kill signal so the death is
        observed, not suffered."""
        plan = ProcessChaos(kill_at=(4,), attempts=1, kill_signal=signal.SIGUSR1)
        spec = dataclasses.replace(_fleet_spec(), chaos_process=plan)
        deaths = []
        previous = signal.signal(signal.SIGUSR1, lambda *_: deaths.append(1))
        try:
            fired = []
            for attempt in (0, 1):
                task = ShardTask(**_TASK, lease_id=1, attempt=attempt)
                hook = _lease_hook(None, spec, task)  # no beats: no stream
                for index in range(6):
                    hook(index)
                    if deaths:
                        fired.append((attempt, index))
                        deaths.clear()
        finally:
            signal.signal(signal.SIGUSR1, previous)
        assert fired == [(0, 4)]

    def test_bound_faults_replay_per_worker(self):
        """Same seed, same frame sequence → the same injected faults;
        distinct worker ids → independent streams."""
        plan = NetChaos(p_drop_status=0.5, p_dup_result=0.5, seed=7)
        frames = [{"type": "status"}, {"type": "result"}] * 20

        class _Sink:
            def _send_raw(self, message):
                pass

        def decisions(worker_id):
            bound = plan.bind(worker_id)
            return (
                [bound.on_send(_Sink(), dict(f)) for f in frames],
                dict(bound.injected),
            )

        assert decisions(0) == decisions(0)
        assert decisions(0) != decisions(1)
        drops, injected = decisions(0)
        assert injected[DROP] == sum(drops)
        assert injected[DUP] > 0
        assert injected[DELAY] == 0  # p_delay=0: no sleeps injected


# ---------------------------------------------------------------------------
# 4. Merge edge cases: order, emptiness, and zero-progress deaths
# ---------------------------------------------------------------------------


class TestMergeEdgeCases:
    def _resume_fleet(self, corpora, path):
        run_campaign(
            corpora,
            journal=path,
            mode="process",
            workers=2,
            resume=True,
            solver_factory=one_deterministic_solver,
            **CAMPAIGN,
        )

    def test_empty_lease_log_with_matching_meta_is_harmless(
        self, corpora, baseline, tmp_path
    ):
        """A lease log holding meta but zero iterations — a worker that
        died before finishing its first one — neither breaks the resume
        nor shadows any iteration."""
        path = tmp_path / "resume.jsonl"
        cell = next(iter(baseline[0].reports))
        log = ShardProgress(
            lease_progress_path(path, cell, 0, 2), meta=dict(LEASE_META, shard=0)
        )
        assert log.completed == {}
        self._resume_fleet(corpora, path)
        assert path.read_bytes() == baseline[1]
        assert list(tmp_path.glob(path.name + ".*")) == []

    def test_mismatched_lease_log_meta_is_discarded_wholesale(
        self, corpora, baseline, tmp_path
    ):
        """A lease log of another partition sits at this lease's path
        with a forged iteration; replaying it would change the cell."""
        path = tmp_path / "resume.jsonl"
        cell = next(iter(baseline[0].reports))
        stale = dict(LEASE_META, shard=0, workers=3)  # stale partition
        ShardProgress(lease_progress_path(path, cell, 0, 2), meta=stale).record(
            0, {"iterations": 99}
        )
        self._resume_fleet(corpora, path)
        assert path.read_bytes() == baseline[1]
        assert list(tmp_path.glob(path.name + ".*")) == []

    @pytest.mark.parametrize("steal_seed", [0, 1, 2, 5])
    def test_out_of_order_lease_completion_merges_identically(
        self, corpora, baseline, tmp_path, steal_seed
    ):
        """One worker serving a two-shard cell completes the shards in
        whatever order the steal RNG picks — including shard 1 before
        shard 0 — and the merged journal cannot tell."""
        path = tmp_path / f"steal{steal_seed}.jsonl"
        run_campaign(
            corpora,
            journal=path,
            mode="process",
            workers=2,
            spawn_workers=1,
            steal_seed=steal_seed,
            solver_factory=one_deterministic_solver,
            **CAMPAIGN,
        )
        assert path.read_bytes() == baseline[1]

    def test_steal_seeds_cover_both_completion_orders(self):
        """The parametrization above is only meaningful if the seeds
        actually produce different first picks from a two-lease queue."""
        from random import Random

        picks = {
            Random(f"fleet-steal:{seed}").randrange(2) for seed in (0, 1, 2, 5)
        }
        assert picks == {0, 1}

    @pytest.mark.chaos
    def test_zero_iteration_disconnect_leaves_no_trace(
        self, corpora, baseline, tmp_path
    ):
        """A worker that dies before finishing a *single* iteration of
        its lease (a kill planned at each shard's first index)
        contributes nothing — no partial shard entry, no stale
        checkpoint shadowing — and the retried lease restores the exact
        bytes."""
        path = tmp_path / "zero.jsonl"
        result = run_campaign(
            corpora,
            journal=path,
            mode="process",
            workers=2,
            chaos_process=ProcessChaos(kill_at=(0, 1), attempts=1),
            supervise=SupervisorPolicy(max_worker_restarts=20, **NO_BACKOFF),
            solver_factory=one_deterministic_solver,
            **CAMPAIGN,
        )
        # Indices 0 and 1 open shards 0 and 1 at workers=2: both leases
        # die with zero iterations done, both retries succeed.
        assert result.supervision["retries"] == 2
        assert result.supervision["restarts"] == 0
        assert result.poisoned == []
        assert path.read_bytes() == baseline[1]
        assert list(tmp_path.glob(path.name + ".*")) == []


# ---------------------------------------------------------------------------
# 5. The chaos soak: worker kills plus frame noise, byte-identical output
# ---------------------------------------------------------------------------


@pytest.mark.chaos
class TestNetChaosSoak:
    def test_disconnects_and_frame_noise_are_invisible(
        self, corpora, baseline, tmp_path
    ):
        """Mid-lease worker kills at two iterations plus heavy seeded
        frame faults (half of status frames dropped, half of results
        duplicated, a fifth of frames delayed): the supervisor retries
        every dropped lease and the journal is byte-identical."""
        path = tmp_path / "soak.jsonl"
        telemetry = Telemetry()
        try:
            result = run_campaign(
                corpora,
                journal=path,
                mode="process",
                workers=2,
                chaos_process=ProcessChaos(kill_at=(1, 4), attempts=1),
                net_chaos=NetChaos(
                    p_drop_status=0.5,
                    p_dup_result=0.5,
                    p_delay=0.2,
                    delay_seconds=0.005,
                    seed=9,
                ),
                supervise=SupervisorPolicy(max_worker_restarts=20, **NO_BACKOFF),
                telemetry=telemetry,
                solver_factory=one_deterministic_solver,
                **CAMPAIGN,
            )
            counters = telemetry.snapshot()["counters"]
        finally:
            telemetry.close()
        assert path.read_bytes() == baseline[1]
        assert result.supervision["retries"] >= 2
        assert result.supervision["poisoned"] == 0
        assert result.poisoned == []
        # The wire actually saw the injected trouble: each planned
        # kill dropped a connection, and the fleet quietly
        # replaced the lost workers without a supervisor restart or a
        # whole-fleet respawn.
        assert counters["fleet.disconnects"] >= 2
        assert counters["fleet.worker_respawns"] >= 2
        assert counters.get("fleet.respawns", 0) == 0
        assert result.supervision["restarts"] == 0

    def test_steal_orders_agree_under_chaos(self, corpora, baseline, tmp_path):
        """Determinism × chaos × steal-order: a different steal seed
        shifts which worker dies holding which lease, and the journal
        still cannot tell."""
        path = tmp_path / "soak-steal.jsonl"
        run_campaign(
            corpora,
            journal=path,
            mode="process",
            workers=2,
            steal_seed=11,
            chaos_process=ProcessChaos(kill_at=(2,), attempts=1),
            supervise=SupervisorPolicy(max_worker_restarts=20, **NO_BACKOFF),
            solver_factory=one_deterministic_solver,
            **CAMPAIGN,
        )
        assert path.read_bytes() == baseline[1]


# ---------------------------------------------------------------------------
# 6. Teardown idempotence (the hardening satellite)
# ---------------------------------------------------------------------------


def _fleet_spec(workers=1):
    return CampaignSpec(
        config=YinYangConfig(fusion=FusionConfig(), seed=6),
        iterations_per_cell=1,
        solver_factory=one_deterministic_solver,
        mode="process",
        workers=workers,
        spawn_workers=0,
    )


_TASK = dict(oracle="sat", seed_texts=("(assert true)",), logics=("QF_S",), shard=0)


class TestTeardownIdempotence:
    def test_tcp_fleet_close_twice(self):
        fleet = TcpFleet(_fleet_spec(workers=2))
        address = fleet.address
        fleet.close()
        fleet.close()
        with pytest.raises(OSError):  # the listener is gone
            socket.create_connection(address, timeout=1).close()

    def test_tcp_fleet_rejects_submit_after_close(self):
        fleet = TcpFleet(_fleet_spec())
        fleet.close()
        task = ShardTask(**_TASK, lease_id=1)
        with pytest.raises(FleetBroken):
            fleet.submit(task)

    def test_tcp_fleet_requires_leases(self):
        with TcpFleet(_fleet_spec()) as fleet:
            task = ShardTask(**_TASK)
            with pytest.raises(ValueError, match="lease"):
                fleet.submit(task)

    def test_tcp_fleet_close_fails_inflight_leases(self):
        """A fleet closed with a lease in flight fails that lease's
        future instead of leaving a waiter hanging forever."""
        fleet = TcpFleet(_fleet_spec())
        try:
            task = ShardTask(**_TASK, lease_id=1)
            future = fleet.submit(task)  # queued: no worker will connect
        finally:
            fleet.close()
        assert future.cancelled() or isinstance(
            future.exception(timeout=1), FleetBroken
        )

    def test_handshake_rejects_wrong_protocol_version(self):
        """A peer speaking another protocol version — the previous one,
        whose leases carried the campaign constants, or a future one —
        is turned away at the door: its connection closes without ever
        joining the fleet."""
        with TcpFleet(_fleet_spec()) as fleet:
            host, port = fleet.address
            for protocol in (1, 999):
                with socket.create_connection((host, port), timeout=5) as sock:
                    sock.sendall(
                        encode_frame({"type": "hello", "pid": 1, "protocol": protocol})
                    )
                    assert sock.recv(1) == b""  # coordinator hung up
            assert fleet._remotes == {}


# ---------------------------------------------------------------------------
# 7. Worker setup: script-defined factories and undecodable specs
# ---------------------------------------------------------------------------

#: A campaign script whose solver factory lives in its ``__main__``.
#: ``process`` runs it on the spawned loopback fleet; ``external`` on one
#: worker started by hand, which is not told the script's path and so
#: cannot decode the spec.
_MAIN_FACTORY_SCRIPT = '''
import subprocess
import sys
import time

from repro.campaign.runner import deterministic_solvers, run_campaign
from repro.errors import WorkerSetupError
from repro.seeds import build_corpus


def my_factory():
    return deterministic_solvers()[:1]


class SatOnly:
    def __init__(self, corpus):
        self._corpus = corpus

    def by_oracle(self, oracle):
        return self._corpus.by_oracle(oracle) if oracle == "sat" else []


if __name__ == "__main__":
    how, port = sys.argv[1], int(sys.argv[2])
    corpora = {"QF_S": SatOnly(build_corpus("QF_S", scale=0.0015, seed=5))}
    campaign = dict(
        iterations_per_cell=4, seed=6, performance_threshold=None,
        solver_factory=my_factory,
    )
    if how == "process":
        result = run_campaign(corpora, mode="process", workers=2, **campaign)
        print("iterations", sum(r.iterations for r in result.reports.values()))
        sys.exit(0)
    worker = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "worker", "--connect", f"127.0.0.1:{port}"]
    )
    started = time.monotonic()
    try:
        run_campaign(
            corpora, mode="process", workers=1, listen=("127.0.0.1", port),
            spawn_workers=0, **campaign,
        )
    except WorkerSetupError as exc:
        print(f"setup error after {time.monotonic() - started:.1f} s: {exc}")
        sys.exit(3)
    finally:
        worker.wait(timeout=30)
    sys.exit(0)
'''


class TestWorkerSetup:
    def _run_script(self, tmp_path, how):
        script = tmp_path / "campaign_script.py"
        script.write_text(_MAIN_FACTORY_SCRIPT)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        return subprocess.run(
            [sys.executable, str(script), how, str(port)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    def test_main_defined_factory_runs_in_process_mode(self, tmp_path):
        """Spawned workers load the script as ``__mp_main__``, so a
        factory defined in it unpickles there."""
        done = self._run_script(tmp_path, "process")
        assert done.returncode == 0, done.stderr
        assert "iterations 4" in done.stdout

    def test_undecodable_spec_fails_the_campaign_at_once(self, tmp_path):
        """A worker that cannot decode the spec reports why, and the
        campaign stops with that error instead of waiting on (or
        respawning) workers that can only fail again."""
        done = self._run_script(tmp_path, "external")
        assert done.returncode == 3, done.stderr
        assert "my_factory" in done.stdout
        assert "undecodable blob" in done.stdout
        seconds = float(done.stdout.split("setup error after ")[1].split(" s")[0])
        assert seconds < 20

    def test_no_fleet_starts_while_a_worker_loads_the_main_script(self, monkeypatch):
        """A script that starts a campaign without an entry-point guard
        would start a fleet inside every worker that loads it, and so
        on down; the fleet refuses, and the worker reports the error."""
        from repro.distributed import worker

        monkeypatch.setattr(worker, "loading_main", True)
        with pytest.raises(RuntimeError, match="__name__"):
            TcpFleet(_fleet_spec())
