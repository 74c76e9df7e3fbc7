"""Crash-safe campaign journaling: survive interrupts, resume cheaply.

The paper's campaign ran for four months; ours must survive a ^C or an
OOM-kill without losing completed work. :class:`CampaignJournal` is an
append-only JSONL log of per-``(solver, corpus, oracle)`` cell results:
each committed batch rewrites the journal to a temporary file, fsyncs
it, and atomically renames it over the old one, so the on-disk file is
*always* a complete, parseable JSONL snapshot — a torn write can only
lose the cell in flight, never corrupt history. ``run_campaign(...,
journal=..., resume=True)`` skips cells the journal already holds.

Bug records are serialized with their scripts printed back to SMT-LIB
text, so a resumed campaign's merged result is byte-for-byte identical
(on serialized records) to an uninterrupted run. Wall-clock ``elapsed``
is deliberately excluded from serialization — of records *and* of cell
reports: it is measurement noise, not bug identity, and keeping it
would break both replay equality and the stronger process-mode
guarantee that journals written at different worker counts are
byte-identical.

Process and tcp campaigns add one finer layer below the cell:
:class:`ShardProgress`, an *append-only* per-lease log of completed
iterations (``<path>.lease-*.jsonl``), written by whichever worker
runs the lease. Unlike the main journal it is not atomically
rewritten — each iteration appends one line — so a worker killed
mid-write can leave a torn final line; the loader discards it and the
iteration is simply re-executed. Because every iteration is a pure
function of ``(strategy, seed, index)``, replaying recorded iterations
and re-running the missing ones merges to the exact bytes of a
failure-free run (see ``tests/test_supervised_campaign.py``). The same
logs carry a campaign across a parent crash: a resumed campaign leases
the unjournaled cells again, and each lease replays its log. Logs are
keyed by ``(cell, shard, of)`` and stamped with the campaign's full
lease meta, so a resume at another worker count, or with any other
setting changed, recomputes the partial cell instead of splicing in
foreign iterations.
"""

from __future__ import annotations

import glob as _glob
import json
import os

from repro.core.yinyang import BugRecord, YinYangReport
from repro.errors import ReproError

JOURNAL_VERSION = 2

_REPORT_COUNTERS = (
    "iterations",
    "fused",
    "fusion_failures",
    "unknowns",
    "retries",
    "timeouts",
    "contained_errors",
    "quarantine_skips",
)

# The unknown-kind split is serialized only on request (triage
# campaigns, worker payloads and lease logs): legacy journals stay
# byte-identical, and the golden-diff tests keep pinning them.
_SPLIT_COUNTERS = ("unknowns_budget", "unknowns_genuine")


class JournalError(ReproError):
    """The journal is unusable (bad version, mismatched campaign params)."""


_ABSENT = object()

# What a meta key's absence means: opt-in settings (and any strategy
# but fusion, which predates the key) are stamped only when on.
_ABSENT_MEANS = {
    "strategy": "'fusion'",
    "triage": "off",
    "incremental": "off",
    "logic": "unrestricted",
}


def _setting(meta, key):
    """One meta setting as an error message names it."""
    if key in meta:
        return f"{key}={meta[key]!r}"
    return f"{key} {_ABSENT_MEANS.get(key, 'unset')}"


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def serialize_script(script):
    """A script as SMT-LIB text (identity on already-serialized text)."""
    if script is None or isinstance(script, str):
        return script
    from repro.smtlib.printer import print_script

    return print_script(script)


def serialize_bug_record(record):
    """A JSON-ready dict for one :class:`BugRecord` (``elapsed`` excluded)."""
    data = {
        "kind": record.kind,
        "solver": record.solver,
        "oracle": record.oracle,
        "reported": record.reported,
        "script": serialize_script(record.script),
        "seed_indices": list(record.seed_indices),
        "schemes": list(record.schemes),
        "logic": record.logic,
        "note": record.note,
        "iteration": record.iteration,
    }
    # Journal-format compatibility: fusion records predate the strategy
    # pipeline and must keep their exact bytes (the golden-diff tests
    # pin this), so the strategy key appears only for other workloads.
    if record.strategy != "fusion":
        data["strategy"] = record.strategy
    return data


def deserialize_bug_record(data):
    """Rebuild a :class:`BugRecord`; the script stays as SMT-LIB text."""
    return BugRecord(
        kind=data["kind"],
        solver=data["solver"],
        oracle=data["oracle"],
        reported=data["reported"],
        script=data["script"],
        seed_indices=tuple(data["seed_indices"]),
        schemes=tuple(data["schemes"]),
        logic=data["logic"],
        note=data["note"],
        iteration=data.get("iteration", -1),
        strategy=data.get("strategy", "fusion"),
    )


def serialize_report(report, unknown_split=False):
    data = {key: getattr(report, key) for key in _REPORT_COUNTERS}
    if unknown_split:
        for key in _SPLIT_COUNTERS:
            data[key] = getattr(report, key, 0)
    data["quarantined"] = sorted(report.quarantined)
    data["bugs"] = [serialize_bug_record(b) for b in report.bugs]
    return data


def deserialize_report(data):
    report = YinYangReport(
        **{key: data.get(key, 0) for key in _REPORT_COUNTERS}
    )
    for key in _SPLIT_COUNTERS:
        setattr(report, key, data.get(key, 0))
    report.quarantined = set(data.get("quarantined", ()))
    report.bugs = [deserialize_bug_record(b) for b in data.get("bugs", ())]
    return report


# ---------------------------------------------------------------------------
# The journal
# ---------------------------------------------------------------------------


class CampaignJournal:
    """An atomic, append-only JSONL journal of campaign progress.

    Entry types:

    - ``meta`` — campaign parameters, written once at the start; on
      resume a mismatch raises :class:`JournalError` (a journal from a
      different campaign must not silently poison a run);
    - ``cell`` — one completed ``(solver, family, oracle)`` cell with
      its serialized report and bug records;
    - ``poison`` — one quarantined poison iteration (see
      :meth:`record_poison`).
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        self.entries = []
        # Campaigns that track the unknown-kind split (triage) flip
        # this on so cell reports carry the split counters;
        # default off keeps legacy journals byte-identical.
        self.unknown_split = False
        if os.path.exists(self.path):
            self.entries = self._load(self.path)

    @staticmethod
    def _load(path):
        entries = []
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    # A torn trailing line from a crash mid-write (only
                    # possible for journals not written by us); older
                    # complete entries are still good.
                    break
                entries.append(entry)
        for entry in entries:
            if entry.get("type") == "meta" and entry.get("version") != JOURNAL_VERSION:
                raise JournalError(
                    f"journal version {entry.get('version')!r} != {JOURNAL_VERSION}"
                )
        return entries

    # -- writing ---------------------------------------------------------

    def _commit(self):
        """Atomically persist all entries: tmp write + fsync + rename."""
        directory = os.path.dirname(os.path.abspath(self.path))
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            for entry in self.entries:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        try:
            dir_fd = os.open(directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(dir_fd)
        except OSError:
            pass
        finally:
            os.close(dir_fd)

    def ensure_meta(self, **params):
        """Write the meta entry, or verify it matches on resume.

        Opt-in settings are stamped only when on, so a key present on
        one side only is a mismatch too: a triage journal resumed
        without triage (or a fusion journal resumed as opfuzz) would
        mix budgets, warm and cold cells, or workloads.
        """
        existing = self.meta()
        if existing is None:
            self.entries.insert(
                0, {"type": "meta", "version": JOURNAL_VERSION, **params}
            )
            self._commit()
            return
        recorded = {k: v for k, v in existing.items() if k not in ("type", "version")}
        for key in sorted(recorded.keys() | params.keys()):
            if recorded.get(key, _ABSENT) != params.get(key, _ABSENT):
                raise JournalError(
                    f"journal {self.path} was written by a campaign with "
                    f"{_setting(recorded, key)}, not {_setting(params, key)}; "
                    "refusing to mix"
                )

    def record_cell(self, key, report):
        """Append one completed cell and commit it durably."""
        solver, family, oracle = key
        self.entries.append(
            {
                "type": "cell",
                "solver": solver,
                "family": family,
                "oracle": oracle,
                "report": serialize_report(report, unknown_split=self.unknown_split),
            }
        )
        self._commit()

    def record_poison(self, cell, data):
        """Append one quarantined poison-iteration artifact.

        ``data`` is the JSON-ready artifact dict (iteration id,
        classification, attempts, strategy, seed, rlimits, formula
        text) produced by the supervisor when a shard kept dying past
        the retry cap and bisection isolated the killer iteration.
        Poison entries only ever appear in campaigns that met such an
        iteration — failure-free journals keep their exact bytes.
        """
        solver, family, oracle = cell
        self.entries.append(
            {
                "type": "poison",
                "solver": solver,
                "family": family,
                "oracle": oracle,
                **data,
            }
        )
        self._commit()

    # -- reading ---------------------------------------------------------

    def meta(self):
        for entry in self.entries:
            if entry.get("type") == "meta":
                return entry
        return None

    def completed_cells(self):
        """{(solver, family, oracle): deserialized YinYangReport}."""
        cells = {}
        for entry in self.entries:
            if entry.get("type") != "cell":
                continue
            key = (entry["solver"], entry["family"], entry["oracle"])
            cells[key] = deserialize_report(entry["report"])
        return cells

    def poison_entries(self):
        """All quarantined poison-iteration artifacts, in journal order."""
        return [e for e in self.entries if e.get("type") == "poison"]


# ---------------------------------------------------------------------------
# Per-lease iteration progress (supervised campaigns)
# ---------------------------------------------------------------------------


def _cell_slug(cell):
    import re

    return re.sub(r"[^A-Za-z0-9_.-]", "_", "-".join(str(part) for part in cell))


def lease_progress_path(journal_path, cell, shard, of):
    """The progress log of one shard lease (shared by its bisected
    descendants — records are keyed by iteration id, so disjoint child
    leases never collide)."""
    return (
        f"{os.fspath(journal_path)}.lease-{_cell_slug(cell)}-{shard}of{of}.jsonl"
    )


def lease_progress_paths(journal_path):
    """All lease progress logs next to ``journal_path``."""
    return sorted(_glob.glob(f"{os.fspath(journal_path)}.lease-*.jsonl"))


def remove_lease_logs(journal_path):
    """Delete all lease progress logs (the campaign completed; every
    cell is durably in the main journal)."""
    for path in lease_progress_paths(journal_path):
        try:
            os.remove(path)
        except OSError:
            pass


class ShardProgress:
    """Append-only per-lease log of completed iterations.

    Deliberately *not* the atomic-rewrite discipline of
    :class:`CampaignJournal`: a shard lease records one line per
    finished iteration (``{"type": "iter", "i": id, "report": ...}``),
    flushed but never rewritten, so the cost per iteration is one
    small append instead of a full-file fsync+rename. The price is a
    possible torn final line when a worker dies mid-write; the loader
    discards it and the supervisor simply re-executes that iteration —
    correctness never depends on the tail surviving.

    A meta line (first line) stamps the campaign's lease meta; a log
    whose meta is not exactly this lease's (a key missing or extra
    counts) is discarded wholesale, so a stale file from a
    differently-parameterized run on the same journal path is never
    replayed into this one.

    Appends take an advisory ``fcntl`` lock so bisected sibling leases
    running in different workers can safely share one log.
    """

    def __init__(self, path, meta=None):
        self.path = os.fspath(path)
        self.meta = dict(meta or {})
        self.completed = {}
        self._load()

    def _load(self):
        if not os.path.exists(self.path):
            self._write_meta()
            return
        entries = []
        with open(self.path, "rb+") as handle:
            data = handle.read()
            good = 0
            for raw in data.splitlines(keepends=True):
                if not raw.strip():
                    good += len(raw)
                    continue
                if not raw.endswith(b"\n"):
                    break  # torn tail: the worker died mid-append
                try:
                    entries.append(json.loads(raw.decode("utf-8")))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    break
                good += len(raw)
            if good < len(data):
                # Truncate the torn tail durably: a later append must
                # start on a fresh line, not glue onto half a record
                # (which would silently lose every record after it on
                # the next load).
                try:
                    import fcntl

                    fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
                except (ImportError, OSError):
                    pass
                handle.truncate(good)
        if not entries or entries[0].get("type") != "meta":
            self._reset()
            return
        if entries[0] != self._meta_entry():
            self._reset()
            return
        for entry in entries[1:]:
            if entry.get("type") == "iter":
                self.completed[entry["i"]] = entry["report"]

    def _reset(self):
        try:
            os.remove(self.path)
        except OSError:
            pass
        self._write_meta()

    def _meta_entry(self):
        return {"type": "meta", "version": JOURNAL_VERSION, **self.meta}

    def _write_meta(self):
        self._append(self._meta_entry())

    def _append(self, entry):
        line = json.dumps(entry, sort_keys=True) + "\n"
        with open(self.path, "a", encoding="utf-8") as handle:
            try:
                import fcntl

                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            except (ImportError, OSError):
                pass
            handle.write(line)
            handle.flush()

    def record(self, index, report_data):
        """Durably append one completed iteration's serialized report."""
        self.completed[index] = report_data
        self._append({"type": "iter", "i": index, "report": report_data})
