"""Distributed fleet test matrix: the coordinator + worker-fleet layer.

The headline invariant under test: a deterministic campaign's journal
is **byte-identical for every fleet shape** — serial, process pool,
or a TCP worker fleet, at any worker count, under any
work-stealing order. The fleet-shape matrix (``fleet`` fixture in
``conftest.py``) runs one cheap campaign per shape and diffs the bytes
against the serial baseline.

Around that center sit the layers the invariant rests on:

- the wire protocol (length-prefixed frames) survives arbitrary
  segmentation, duplication of whole frames, truncation, and garbage —
  property-tested with Hypothesis;
- the lease merge is blind to completion order, empty or stale lease
  logs, and
  workers that die before finishing a single iteration;
- seeded :class:`~repro.distributed.NetChaos` faults (mid-lease
  disconnects, dropped status frames, duplicated results, delays)
  leave the journal byte-identical — crash recovery is invisible;
- teardown of both backends (``SupervisedPoolBackend``, ``TcpFleet``)
  is idempotent and exception-safe.

Socket-spawning tests are cheap (one cell, six iterations, a single
deterministic solver); the disconnect soaks are marked ``chaos`` and
the four-worker shapes ``slow``, matching the CI lanes.
"""

import json
import os
import socket
import struct
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign.runner import deterministic_solvers, run_campaign
import dataclasses

from repro.core.config import CampaignSpec, FusionConfig, YinYangConfig
from repro.core.parallel import ShardTask, SupervisedPoolBackend
from repro.distributed import (
    FleetBroken,
    NetChaos,
    TcpFleet,
    parse_net_chaos,
)
from repro.distributed.netchaos import DELAY, DISCONNECT, DROP, DUP
from repro.distributed.protocol import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    ProtocolError,
    available_codecs,
    encode_frame,
    pack_blob,
    parse_address,
    task_from_wire,
    task_to_wire,
    unpack_blob,
)
from repro.observability.telemetry import Telemetry
from repro.robustness import SupervisorPolicy
from repro.robustness import ShardProgress
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
        self, corpora, baseline, tmp_path, fleet, run_fleet_campaign
    ):
        path = tmp_path / "fleet.jsonl"
        result = run_fleet_campaign(
            corpora,
            fleet,
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
            mode="tcp",
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
                mode="tcp",
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
                mode="tcp",
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

    def test_json_codec_is_always_available(self):
        assert "json" in available_codecs()

    def test_missing_msgpack_is_a_clean_error(self):
        if "msgpack" in available_codecs():
            pytest.skip("msgpack installed in this environment")
        with pytest.raises(ProtocolError, match="msgpack"):
            encode_frame({}, codec="msgpack")

    def test_unknown_codec_is_rejected(self):
        with pytest.raises(ProtocolError, match="unknown"):
            encode_frame({}, codec="pigeon")

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
            heartbeat_dir="/tmp/hb",
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
            heartbeat_dir=None,
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
            "disconnect=3,11;attempts=2;drop=0.2;dup=0.25;"
            "delay=0.05;delay_seconds=0.001;seed=9"
        )
        assert plan == NetChaos(
            disconnect_at=(3, 11),
            attempts=2,
            p_drop_status=0.2,
            p_dup_result=0.25,
            p_delay=0.05,
            delay_seconds=0.001,
            seed=9,
        )

    def test_parse_rejects_unknown_and_malformed_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            parse_net_chaos("teleport=1")
        with pytest.raises(ValueError, match="key=value"):
            parse_net_chaos("disconnect")

    def test_probabilities_are_validated(self):
        with pytest.raises(ValueError, match="p_drop_status"):
            NetChaos(p_drop_status=1.5)
        with pytest.raises(ValueError, match="attempts"):
            NetChaos(attempts=-1)

    def test_disconnects_are_attempt_gated(self):
        plan = NetChaos(disconnect_at=(4,), attempts=1)
        assert plan.fault_for(4, 0) == DISCONNECT
        assert plan.fault_for(4, 1) is None  # the retry sails through
        assert plan.fault_for(5, 0) is None

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
    def _resume_tcp(self, corpora, path):
        run_campaign(
            corpora,
            journal=path,
            mode="tcp",
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
        self._resume_tcp(corpora, path)
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
        self._resume_tcp(corpora, path)
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
            mode="tcp",
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
        its lease (disconnect planned at each shard's first index)
        contributes nothing — no partial shard entry, no stale
        checkpoint shadowing — and the retried lease restores the exact
        bytes."""
        path = tmp_path / "zero.jsonl"
        result = run_campaign(
            corpora,
            journal=path,
            mode="tcp",
            workers=2,
            net_chaos=NetChaos(disconnect_at=(0, 1), attempts=1),
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
# 5. The chaos soak: disconnects plus frame noise, byte-identical output
# ---------------------------------------------------------------------------


@pytest.mark.chaos
class TestNetChaosSoak:
    def test_disconnects_and_frame_noise_are_invisible(
        self, corpora, baseline, tmp_path
    ):
        """Mid-lease partitions at two iterations plus heavy seeded
        frame faults (half of status frames dropped, half of results
        duplicated, a fifth of frames delayed): the supervisor retries
        every dropped lease and the journal is byte-identical."""
        path = tmp_path / "soak.jsonl"
        telemetry = Telemetry()
        try:
            result = run_campaign(
                corpora,
                journal=path,
                mode="tcp",
                workers=2,
                net_chaos=NetChaos(
                    disconnect_at=(1, 4),
                    attempts=1,
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
        # disconnect dropped a connection, and the fleet quietly
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
            mode="tcp",
            workers=2,
            steal_seed=11,
            net_chaos=NetChaos(disconnect_at=(2,), attempts=1),
            supervise=SupervisorPolicy(max_worker_restarts=20, **NO_BACKOFF),
            solver_factory=one_deterministic_solver,
            **CAMPAIGN,
        )
        assert path.read_bytes() == baseline[1]


# ---------------------------------------------------------------------------
# 6. Teardown idempotence (the hardening satellite)
# ---------------------------------------------------------------------------


def _spec(mode="process", **overrides):
    return CampaignSpec(
        config=YinYangConfig(fusion=FusionConfig(), seed=6),
        iterations_per_cell=1,
        solver_factory=one_deterministic_solver,
        mode=mode,
        **overrides,
    )


def _tcp_spec(workers=1):
    return _spec("tcp", workers=workers, spawn_workers=0)


_TASK = dict(oracle="sat", seed_texts=("(assert true)",), logics=("QF_S",), shard=0)


class TestTeardownIdempotence:
    def test_sharded_pool_shutdown_twice(self):
        """The pool process shards run on closes cleanly after a respawn
        and a context-manager exit, and a later close is a no-op."""
        with SupervisedPoolBackend(_spec()) as backend:
            heartbeat_dir = backend.heartbeat_dir
            assert backend.respawn() is not None
        backend.close()  # must not raise
        assert not os.path.exists(heartbeat_dir)

    def test_supervised_backend_rejects_submit_after_close(self):
        backend = SupervisedPoolBackend(_spec())
        backend.close()
        task = ShardTask(**_TASK)
        with pytest.raises(RuntimeError, match="closed"):
            backend.submit(task)

    def test_supervised_backend_close_twice(self, tmp_path):
        backend = SupervisedPoolBackend(_spec())
        heartbeat_dir = backend.heartbeat_dir
        backend.close()
        backend.close()  # idempotent: no double-rmtree, no executor error
        assert not os.path.exists(heartbeat_dir)

    def test_supervised_backend_rejects_respawn_after_close(self):
        backend = SupervisedPoolBackend(_spec())
        backend.close()
        with pytest.raises(RuntimeError, match="closed"):
            backend.respawn()

    def test_tcp_fleet_close_twice(self):
        fleet = TcpFleet(_tcp_spec(workers=2))
        heartbeat_dir = fleet.heartbeat_dir
        fleet.close()
        fleet.close()
        assert not os.path.exists(heartbeat_dir)

    def test_tcp_fleet_rejects_submit_after_close(self):
        fleet = TcpFleet(_tcp_spec())
        fleet.close()
        task = ShardTask(**_TASK, lease_id=1)
        with pytest.raises(FleetBroken):
            fleet.submit(task)

    def test_tcp_fleet_requires_leases(self):
        with TcpFleet(_tcp_spec()) as fleet:
            task = ShardTask(**_TASK)
            with pytest.raises(ValueError, match="lease"):
                fleet.submit(task)

    def test_tcp_fleet_close_fails_inflight_leases(self):
        """A fleet closed with a lease in flight fails that lease's
        future instead of leaving a waiter hanging forever."""
        fleet = TcpFleet(_tcp_spec())
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
        with TcpFleet(_tcp_spec()) as fleet:
            host, port = fleet.address
            for protocol in (1, 999):
                with socket.create_connection((host, port), timeout=5) as sock:
                    sock.sendall(
                        encode_frame({"type": "hello", "pid": 1, "protocol": protocol})
                    )
                    assert sock.recv(1) == b""  # coordinator hung up
            assert fleet._remotes == {}
