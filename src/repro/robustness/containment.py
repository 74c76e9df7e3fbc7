"""Resource containment for campaign workers: rlimits + death triage.

The paper's campaigns ran for months; at that scale a worker process
that leaks memory or spins forever is not an anomaly, it is Tuesday.
:class:`ContainmentPolicy` is the picklable recipe a worker applies to
itself at startup (``resource.setrlimit`` on RLIMIT_AS / RLIMIT_CPU),
turning runaway resource use into one of two *classifiable* deaths:

- an address-space overrun makes allocations fail, so the worker raises
  :class:`MemoryError` — which travels back to the parent as an
  ordinary future exception (the worker survives);
- a CPU overrun gets SIGXCPU from the kernel at the soft limit (the
  default action kills the process; the hard limit adds a SIGKILL
  backstop a few seconds later), so the worker's connection drops and
  the fleet reads the worker's negative exit code.

The parent-side half of the story lives in :func:`classify_exit` /
:func:`classify_exception`: given how a worker died (exit code or
surfaced exception) and the policy that was in force, name the death —
``oom`` / ``oom-kill`` / ``cpu-kill`` / ``hang-kill`` / plain crash —
so the supervisor's retry, telemetry, and poison-artifact records say
*why* a shard keeps dying, not just that it does.

``resource`` is POSIX-only; on platforms without it :meth:`apply` is a
no-op that reports itself as such, and classification degrades to the
signal-number spellings.
"""

from __future__ import annotations

import signal
from dataclasses import dataclass

#: Parent-side death classifications (stable strings: they appear in
#: poison artifacts, telemetry counter names, and the stats dashboard).
OOM = "oom"  # in-worker MemoryError under RLIMIT_AS
OOM_KILL = "oom-kill"  # SIGKILL with a memory limit in force
CPU_KILL = "cpu-kill"  # SIGXCPU from RLIMIT_CPU
HANG_KILL = "hang-kill"  # the supervisor ended a lease silent past its timeout
WORKER_DEATH = "worker-death"  # died without a usable exit code


@dataclass(frozen=True)
class ContainmentPolicy:
    """Per-worker resource limits (picklable; applied worker-side).

    - ``mem_limit_mb`` — RLIMIT_AS ceiling in megabytes. Exceeding it
      makes allocations raise :class:`MemoryError` inside the worker;
      a C-level overrun that the allocator cannot survive ends in the
      kernel's SIGKILL, which the parent classifies as ``oom-kill``.
    - ``cpu_limit_seconds`` — RLIMIT_CPU soft limit in CPU-seconds
      *per worker process lifetime* (not per shard). The kernel sends
      SIGXCPU at the soft limit; ``cpu_grace_seconds`` later the hard
      limit delivers an unignorable SIGKILL.
    """

    mem_limit_mb: float | None = None
    cpu_limit_seconds: float | None = None
    cpu_grace_seconds: int = 5

    def __post_init__(self):
        if self.mem_limit_mb is not None and self.mem_limit_mb <= 0:
            raise ValueError("mem_limit_mb must be positive (or None)")
        if self.cpu_limit_seconds is not None and self.cpu_limit_seconds <= 0:
            raise ValueError("cpu_limit_seconds must be positive (or None)")
        if self.cpu_grace_seconds < 0:
            raise ValueError("cpu_grace_seconds must be >= 0")

    @property
    def mem_limit_bytes(self):
        if self.mem_limit_mb is None:
            return None
        return int(self.mem_limit_mb * 1024 * 1024)

    def describe(self):
        """The rlimits as a JSON-ready dict (for poison artifacts)."""
        return {
            "mem_limit_mb": self.mem_limit_mb,
            "cpu_limit_seconds": self.cpu_limit_seconds,
        }

    def apply(self):
        """Install the rlimits on the calling process.

        Returns ``True`` when limits were installed, ``False`` on
        platforms without the ``resource`` module. Soft limits are
        clipped to the inherited hard limits — an unprivileged worker
        can lower its ceilings but never raise them.
        """
        try:
            import resource
        except ImportError:  # pragma: no cover - non-POSIX platforms
            return False
        if self.mem_limit_bytes is not None:
            _, hard = resource.getrlimit(resource.RLIMIT_AS)
            soft = self.mem_limit_bytes
            if hard != resource.RLIM_INFINITY:
                soft = min(soft, hard)
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
        if self.cpu_limit_seconds is not None:
            _, hard = resource.getrlimit(resource.RLIMIT_CPU)
            soft = max(1, int(self.cpu_limit_seconds))
            kill_at = soft + self.cpu_grace_seconds
            if hard != resource.RLIM_INFINITY:
                soft = min(soft, hard)
                kill_at = min(kill_at, hard)
            resource.setrlimit(resource.RLIMIT_CPU, (soft, kill_at))
        return True


def _signal_name(signum):
    try:
        return signal.Signals(signum).name
    except ValueError:
        return str(signum)


def classify_exit(exitcode, policy=None):
    """Name a worker's death from its exit code (parent side).

    ``policy`` is the :class:`ContainmentPolicy` in force (if any):
    a SIGKILL under a memory limit is almost always the allocator or
    the kernel OOM killer enforcing that limit, so it reads as
    ``oom-kill`` rather than an anonymous signal.
    """
    if exitcode is None:
        return WORKER_DEATH
    if exitcode >= 0:
        return f"exit:{exitcode}"
    signum = -exitcode
    if signum == signal.SIGXCPU:
        return CPU_KILL
    if signum == signal.SIGKILL:
        if policy is not None and policy.mem_limit_mb is not None:
            return OOM_KILL
        return "killed"
    return f"signal:{_signal_name(signum)}"


def classify_exception(exc):
    """Name an in-worker containment failure surfaced as an exception."""
    if isinstance(exc, MemoryError):
        return OOM
    return f"worker-error:{type(exc).__name__}"
