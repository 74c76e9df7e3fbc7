"""Seeded network fault injection for socket fleets.

:class:`~repro.robustness.chaos.ProcessChaos` makes worker *processes*
die on plan (a planned kill is, from the coordinator's side, a dropped
connection with a lease outstanding); :class:`NetChaos` extends the
same seeded discipline to the *wire*: per-frame coin flips (one
``random.Random`` per connection) that *drop*, *duplicate*, or *delay*
frames on the send path. Faults are restricted to frame types the
protocol is designed to survive — drops hit only best-effort
``status`` frames (nothing depends on them; a ``beat`` frame is never
dropped, since the hang watchdog reads silence as a hang), duplicates
hit only ``result`` frames (the coordinator dedupes by lease id), and
delays hit anything (TCP already reorders timing). A fault that the
protocol is *not* designed to survive (dropping a result) would just
be a hang, which is the beat watchdog's job, not this injector's.

The payoff is the same as every chaos layer here: the soak test can
assert that a campaign crossed by worker kills and frame noise merges
to the byte-identical deterministic journal.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

#: NetChaos fault kinds.
DROP, DUP, DELAY = "net-drop", "net-dup", "net-delay"


@dataclass(frozen=True)
class NetChaos:
    """A picklable plan of frame faults for one fleet campaign: the
    probabilities drive per-frame seeded coin flips on each
    connection's send path."""

    p_drop_status: float = 0.0
    p_dup_result: float = 0.0
    p_delay: float = 0.0
    delay_seconds: float = 0.01
    seed: int = 0

    def __post_init__(self):
        for label, p in (
            ("p_drop_status", self.p_drop_status),
            ("p_dup_result", self.p_dup_result),
            ("p_delay", self.p_delay),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{label} must be in [0, 1]")

    def bind(self, worker_id=0):
        """A per-connection injector (own RNG stream, own counters)."""
        return BoundNetChaos(self, worker_id)


class BoundNetChaos:
    """One connection's fault state: plugged into ``FrameStream.chaos``.

    ``on_send(stream, message)`` returns True when it consumed the
    frame (a drop) — the stream then skips its own send. Duplication
    sends the extra copy here and returns False so the normal send
    path delivers the second. The RNG stream is seeded per worker id,
    so two workers' fault sequences are independent but each replays
    exactly given the same frame sequence.
    """

    def __init__(self, plan, worker_id=0):
        self.plan = plan
        self.rng = random.Random(f"netchaos:{plan.seed}:{worker_id}")
        self.injected = {DROP: 0, DUP: 0, DELAY: 0}

    def on_send(self, stream, message):
        plan = self.plan
        if plan.p_delay > 0.0 and self.rng.random() < plan.p_delay:
            self.injected[DELAY] += 1
            time.sleep(plan.delay_seconds)
        kind = message.get("type")
        if (
            kind == "status"
            and plan.p_drop_status > 0.0
            and self.rng.random() < plan.p_drop_status
        ):
            self.injected[DROP] += 1
            return True
        if (
            kind == "result"
            and plan.p_dup_result > 0.0
            and self.rng.random() < plan.p_dup_result
        ):
            self.injected[DUP] += 1
            stream._send_raw(message)  # first copy; caller sends the second
        return False


#: The CLI key of each :class:`NetChaos` field, and its type.
_SPELLING = {
    "drop": ("p_drop_status", float),
    "dup": ("p_dup_result", float),
    "delay": ("p_delay", float),
    "delay_seconds": ("delay_seconds", float),
    "seed": ("seed", int),
}


def parse_net_chaos(spec):
    """A :class:`NetChaos` from its CLI spelling.

    ``spec`` is semicolon-separated ``key=value`` pairs. Example::

        drop=0.2;dup=0.2;delay=0.05;delay_seconds=0.005;seed=9

    Keys: ``drop`` (p of dropping a status frame), ``dup`` (p of
    duplicating a result frame), ``delay`` (p of delaying any frame),
    ``delay_seconds``, ``seed``. A planned worker death is a
    :class:`~repro.robustness.chaos.ProcessChaos` kill.
    """
    kwargs = {}
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(f"net-chaos field {part!r} is not key=value")
        if key not in _SPELLING:
            raise ValueError(f"unknown net-chaos field {key!r}")
        name, kind = _SPELLING[key]
        kwargs[name] = kind(value)
    return NetChaos(**kwargs)
