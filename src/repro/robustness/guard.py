"""Guarded solver execution: the crash containment layer of the harness.

:class:`GuardedSolver` wraps any solver under test and enforces a
:class:`~repro.robustness.policy.ResiliencePolicy`:

- a **watchdog** deadline on each ``check_script`` call (an in-process
  check that hangs is abandoned and reported as a timeout, exactly like
  :class:`~repro.solver.process.ProcessSolver` treats a hung binary);
- **retries with capped exponential backoff** for transient failures
  (spawn ``OSError``, flaky process starts);
- **containment** of any unexpected non-``SolverCrash`` exception as a
  structured :class:`HarnessError` (a bug record, not a dead campaign);
- a **circuit breaker** that quarantines the solver after N consecutive
  crashes/timeouts so a long campaign degrades gracefully to the
  remaining solvers.

The watchdog runs checks on a helper thread and waits with a deadline.
Python cannot kill a running thread, so a genuinely hung check leaks
one abandoned daemon thread; the guard then starts a fresh helper. This
mirrors how the paper's harness abandons hung solver processes — the
leak is bounded by the number of hangs, not the number of checks.
"""

from __future__ import annotations

import queue
import threading

from repro.robustness.policy import ResiliencePolicy
from repro.solver.result import CheckOutcome, SolverCrash, SolverResult

HARNESS_ERROR_KIND = "harness-error"
QUARANTINED_KIND = "quarantined"


class HarnessError(SolverCrash):
    """An unexpected exception from a solver, contained by the guard.

    Not a solver verdict and not a plain crash: the solver (or the glue
    around it) raised something Algorithm 1 does not know about. The
    guard turns it into this structured error so the campaign records a
    bug and moves on instead of dying.
    """

    def __init__(self, message, original=None):
        super().__init__(message, kind=HARNESS_ERROR_KIND)
        self.original = original


class _WatchdogTimeout(Exception):
    """Internal: the watchdog deadline elapsed (never escapes the guard)."""


class _Watchdog:
    """One helper thread executing checks with a wall-clock deadline.

    A fresh (queue, thread) pair is created lazily; when a check times
    out, the pair is abandoned (the stuck thread parks forever on an
    orphaned queue and dies with the process) and the next check gets a
    new pair.
    """

    def __init__(self):
        self._queue = None
        self._thread = None

    def run(self, fn, timeout):
        if self._thread is None or not self._thread.is_alive():
            self._queue = queue.Queue()
            self._thread = threading.Thread(
                target=self._serve, args=(self._queue,), daemon=True
            )
            self._thread.start()
        q = self._queue
        job = {"fn": fn, "done": threading.Event(), "result": None, "error": None}
        q.put(job)
        if not job["done"].wait(timeout):
            # Abandon the stuck helper; the next run() starts a new one.
            if self._queue is q:
                self._queue = None
                self._thread = None
            raise _WatchdogTimeout
        if job["error"] is not None:
            raise job["error"]
        return job["result"]

    def _serve(self, q):
        while True:
            job = q.get()
            try:
                job["result"] = job["fn"]()
            except BaseException as exc:  # delivered to the waiter
                job["error"] = exc
            job["done"].set()
            if self._queue is not q:
                return  # we were abandoned mid-job; don't linger


class GuardedSolver:
    """A solver under test wrapped in the harness's containment layer.

    Exposes the same ``name`` / ``check_script`` surface as any solver;
    unknown attributes (``active_faults``, ``triggered_faults``, ...)
    are delegated to the wrapped solver so the guard is transparent to
    the campaign and triage layers.

    Counters (cumulative, thread-safe):

    - ``stats["retries"]`` — transient failures retried,
    - ``stats["timeouts"]`` — checks abandoned by the watchdog,
    - ``stats["contained"]`` — non-``SolverCrash`` exceptions contained,
    - ``stats["crashes"]`` — ``SolverCrash`` outcomes observed.

    Per-check deltas also ride on the returned outcome
    (``outcome.stats["guard_retries"]``, ``["guard_timeout"]``) or on the
    raised crash (``crash.retries``) so the YinYang loop can surface
    them per report even when one guard spans many reports.
    """

    def __init__(self, solver, policy=None, telemetry=None):
        self.base = solver
        self.policy = policy or ResiliencePolicy()
        self.name = solver.name
        self.quarantined = False
        self.consecutive_failures = 0
        self.stats = {"retries": 0, "timeouts": 0, "contained": 0, "crashes": 0}
        # Observability hook (see repro.observability): when attached,
        # guard events also bump campaign-wide "guard.*" counters.
        # Declared explicitly so an unattached guard never falls
        # through __getattr__ to the wrapped solver's handle.
        self.telemetry = telemetry
        self._lock = threading.Lock()
        # One watchdog per calling thread: a campaign checks from one
        # thread, but a guard shared by two callers must not make their
        # checks queue behind a single helper.
        self._local = threading.local()

    def __getattr__(self, attr):
        return getattr(self.base, attr)

    # -- bookkeeping -----------------------------------------------------

    def _count(self, key, n=1):
        with self._lock:
            self.stats[key] += n
        tel = self.telemetry
        if tel is not None:
            tel.count("guard." + key, n)

    def _failure(self):
        """One crash/timeout/contained error; may trip the breaker."""
        tripped = False
        with self._lock:
            self.consecutive_failures += 1
            threshold = self.policy.quarantine_after
            if threshold is not None and self.consecutive_failures >= threshold:
                tripped = not self.quarantined
                self.quarantined = True
        if tripped:
            tel = self.telemetry
            if tel is not None:
                tel.count("guard.quarantine_trips")

    def _success(self):
        with self._lock:
            self.consecutive_failures = 0

    def force_quarantine(self):
        """Trip the breaker from outside the failure path.

        Process-sharded campaigns use this to aggregate quarantine
        state across workers: each worker owns its solver instances, so
        a breaker tripped in one worker is invisible to the others
        until the parent collects the merged shard reports and
        re-broadcasts the quarantined names into subsequent tasks —
        matching serial mode, where one guard spans the whole campaign.
        """
        with self._lock:
            self.quarantined = True

    def guard_state(self):
        """A picklable snapshot of the breaker and counters.

        Workers ship this back with their shard results so the parent
        can aggregate per-worker guard activity without sharing any
        live (lock-bearing, unpicklable) guard objects across the
        spawn boundary.
        """
        with self._lock:
            return {
                "name": self.name,
                "quarantined": self.quarantined,
                "consecutive_failures": self.consecutive_failures,
                "stats": dict(self.stats),
            }

    # -- the guarded check ----------------------------------------------

    def _call_base(self, script, directive=None, session=None):
        # The directive and session travel as explicit arguments (never
        # a thread-local): the watchdog runs the check on a helper
        # thread, where ambient state would silently not propagate.
        call = lambda: self.base.check_script(
            script, directive=directive, session=session
        )
        timeout = self.policy.check_timeout
        if timeout is None:
            return call()
        watchdog = getattr(self._local, "watchdog", None)
        if watchdog is None:
            watchdog = self._local.watchdog = _Watchdog()
        return watchdog.run(call, timeout)

    def _is_transient(self, exc):
        if isinstance(exc, SolverCrash):
            return exc.kind in self.policy.retryable_kinds
        return isinstance(exc, OSError)

    def check_script(self, script, directive=None, session=None):
        if self.quarantined:
            raise SolverQuarantined(self.name)
        policy = self.policy
        retries_used = 0
        while True:
            try:
                outcome = self._call_base(script, directive=directive, session=session)
            except _WatchdogTimeout:
                self._count("timeouts")
                self._failure()
                outcome = CheckOutcome(
                    SolverResult.UNKNOWN,
                    reason=f"guard: check exceeded {policy.check_timeout}s deadline",
                )
                outcome.stats["guard_timeout"] = True
                if retries_used:
                    outcome.stats["guard_retries"] = retries_used
                return outcome
            except (KeyboardInterrupt, SolverQuarantined):
                raise
            except BaseException as exc:
                if self._is_transient(exc) and retries_used < policy.retries:
                    policy.sleep(policy.backoff(retries_used))
                    retries_used += 1
                    self._count("retries")
                    continue
                if isinstance(exc, SolverCrash):
                    self._count("crashes")
                    self._failure()
                    exc.retries = retries_used
                    raise
                if not policy.contain_errors or not isinstance(exc, Exception):
                    raise
                self._count("contained")
                self._failure()
                contained = HarnessError(
                    f"{self.name}: contained {type(exc).__name__}: {exc}",
                    original=exc,
                )
                contained.retries = retries_used
                raise contained from exc
            self._success()
            if retries_used:
                outcome.stats["guard_retries"] = retries_used
            return outcome

    def check(self, source):
        from repro.smtlib.parser import parse_script

        script = parse_script(source) if isinstance(source, str) else source
        return self.check_script(script)


class SolverQuarantined(SolverCrash):
    """Raised when a check is attempted on a quarantined solver.

    Control flow, not a bug record: the YinYang loop consults
    ``solver.quarantined`` before checking and counts this as a
    quarantine skip (not a crash) when a race trips the breaker between
    that check and the call.
    """

    def __init__(self, name):
        super().__init__(f"solver {name} is quarantined", kind=QUARANTINED_KIND)
        self.solver_name = name
