"""Distributed campaigns: a coordinator and a work-stealing worker fleet.

Every process campaign runs on one transport: separate Python
processes on sockets (``yinyang worker --connect HOST:PORT``). By
default the fleet listens on 127.0.0.1 and spawns its own workers; it
may also listen elsewhere and serve workers started in other terminals
or on other hosts.

The pieces:

- :mod:`~repro.distributed.protocol` — the length-prefixed JSON frame
  format every coordinator/worker pair speaks, plus the wire codecs
  for :class:`~repro.core.parallel.ShardTask` and worker result
  payloads;
- :mod:`~repro.distributed.worker` — the worker side: connect, receive
  the campaign's :class:`~repro.core.config.CampaignSpec` once, then
  pull leases and run them through
  :func:`repro.core.parallel.run_worker_task` (sessions, triage,
  containment and progress checkpoints), sending ``beat`` frames when
  the supervisor watches for hangs, and shipping reports + telemetry
  snapshots back as frames;
- :mod:`~repro.distributed.endpoint` — the coordinator side of the
  transport: :class:`~repro.distributed.endpoint.TcpFleet` listens,
  hands queued leases to whichever worker asks first (pull-based work
  stealing, tie-broken by a seeded RNG so distinct steal orders are
  reproducible), and names each worker death in the supervisor's
  retry vocabulary;
- :mod:`~repro.distributed.coordinator` — the campaign plan owner:
  cells become iteration-range leases driven to completion by the
  :class:`~repro.robustness.supervisor.Supervisor` (retry/backoff,
  poison bisection) over the fleet;
- :mod:`~repro.distributed.netchaos` — seeded frame fault injection
  (drop/delay/duplicate) extending the chaos layer across the wire.

The headline invariant is inherited, not re-proven per backend:
deterministic-mode journals are byte-identical for any fleet shape —
serial or process, any worker count, any steal order (see
``tests/test_distributed.py``).
"""

from repro.distributed.coordinator import Coordinator
from repro.distributed.endpoint import FleetBroken, TcpFleet, WorkerDisconnected
from repro.distributed.netchaos import NetChaos, parse_net_chaos
from repro.distributed.protocol import (
    FrameDecoder,
    FrameStream,
    ProtocolError,
    encode_frame,
)
from repro.distributed.worker import run_worker

__all__ = [
    "Coordinator",
    "FleetBroken",
    "FrameDecoder",
    "FrameStream",
    "NetChaos",
    "ProtocolError",
    "TcpFleet",
    "WorkerDisconnected",
    "encode_frame",
    "parse_net_chaos",
    "run_worker",
]
