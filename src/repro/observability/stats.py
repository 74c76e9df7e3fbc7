"""The ``yinyang stats`` dashboard: render a campaign from its journal
and (optionally) its metrics sidecar.

Everything here is read-only and pure: given the same journal bytes and
the same snapshot dict, the rendered text is byte-identical — which is
what makes the golden-file tests in ``tests/test_observability.py``
possible. Wall-clock noise never reaches this module because the
journal excludes ``elapsed`` by design and the snapshot's histograms
are only summarized, never re-measured.
"""

from __future__ import annotations

from repro.campaign.report import render_bars, render_table
from repro.coverage.report import coverage_counts
from repro.observability.trace import phase_rows
from repro.robustness.journal import CampaignJournal, deserialize_report

_CELL_HEADERS = [
    "cell",
    "iter",
    "fused",
    "fuse-fail",
    "sound",
    "crash",
    "perf",
    "unknown",
]

_RESILIENCE_KEYS = ("retries", "timeouts", "contained_errors", "quarantine_skips")


def journal_cell_rows(journal):
    """(rows, totals) for the per-cell table of a journal."""
    rows = []
    totals = {}
    for entry in journal.entries:
        if entry.get("type") != "cell":
            continue
        report = deserialize_report(entry["report"])
        counters = report.counters()
        for key, value in counters.items():
            totals[key] = totals.get(key, 0) + value
        rows.append(
            (
                f"{entry['solver']}/{entry['family']}/{entry['oracle']}",
                counters["iterations"],
                counters["fused"],
                counters["fusion_failures"],
                counters["soundness"],
                counters["crash"],
                counters["performance"],
                counters["unknowns"],
            )
        )
    return rows, totals


def _header_lines(journal):
    meta = journal.meta() or {}
    parts = [f"seed {meta.get('seed', '?')}"]
    if "strategy" in meta:
        # Fusion journals omit the key (byte-stability); only other
        # strategies surface here.
        parts.append(f"strategy {meta['strategy']}")
    if "logic" in meta:
        # Logic-restricted campaigns (e.g. --logic QF_BV) stamp the
        # logic; all-families campaigns omit it, like strategy above.
        parts.append(f"logic {meta['logic']}")
    if "iterations_per_cell" in meta:
        parts.append(f"{meta['iterations_per_cell']} iterations/cell")
    if "workers" in meta:
        parts.append(f"{meta['workers']} workers")
    if "triage" in meta:
        # Triage campaigns record the canonical policy spec so a stats
        # reader can tell which tier budgets produced the numbers.
        parts.append(f"triage {meta['triage']}")
    if "incremental" in meta:
        # Incremental campaigns journal the session cap spec; cold
        # campaigns omit the key entirely (byte-stability, like
        # strategy/triage above).
        parts.append(f"incremental {meta['incremental']}")
    return [f"Campaign journal: {journal.path}", "  " + ", ".join(parts)]


def _bug_bars(totals):
    pairs = [
        ("soundness", totals.get("soundness", 0)),
        ("crash", totals.get("crash", 0)),
        ("performance", totals.get("performance", 0)),
        ("unknown-bug", totals.get("bugs", 0)
         - totals.get("soundness", 0)
         - totals.get("crash", 0)
         - totals.get("performance", 0)),
    ]
    return render_bars(pairs, title="Bugs by kind", width=30)


def _metrics_sections(snapshot):
    lines = []
    counters = snapshot.get("counters", {})
    if counters:
        rows = [(name, value) for name, value in sorted(counters.items())]
        lines += ["", render_table(["counter", "value"], rows, "Metrics")]
    session = session_rows(counters)
    if session:
        lines += [
            "",
            render_table(["session", "value"], session, "Incremental sessions"),
        ]
    fleet = [
        (name.split(".", 1)[1], value)
        for name, value in sorted(counters.items())
        if name.startswith("fleet.")
    ]
    if fleet:
        # Only process campaigns emit fleet.* counters, so dashboards
        # of serial runs render unchanged.
        lines += [
            "",
            render_table(["fleet", "value"], fleet, "Distributed fleet"),
        ]
    gauges = {
        n: v for n, v in snapshot.get("gauges", {}).items()
        if not n.startswith("coverage.")
    }
    if gauges:
        rows = [(name, value) for name, value in sorted(gauges.items())]
        lines += ["", render_table(["gauge", "value"], rows, "Profile gauges")]
    phases = phase_rows(snapshot)
    if phases:
        rows = [
            (name, calls, f"{total:.3f}s", f"{mean * 1e3:.2f}ms", f"{p90 * 1e3:.1f}ms")
            for name, calls, total, mean, p90 in phases
        ]
        lines += [
            "",
            render_table(
                ["phase", "calls", "total", "mean", "~p90"],
                rows,
                "Phase profile (wall time)",
            ),
        ]
    coverage = coverage_rows(snapshot)
    if coverage:
        lines += [
            "",
            render_table(
                ["kind", "fired", "registered", "%"],
                coverage,
                "Cumulative probe coverage",
            ),
        ]
    return lines


def session_rows(counters):
    """(label, value) rows summarizing incremental-session reuse.

    Empty unless the snapshot carries ``session.*`` counters, so cold
    campaigns (and every pre-existing golden file) render unchanged.
    Rates are derived here rather than journalled: the counters are the
    single source of truth and merge additively across shards.
    """
    if not any(name.startswith("session.") for name in counters):
        return []

    def rate(hits, misses):
        total = hits + misses
        if not total:
            return "-"
        return f"{100.0 * hits / total:.1f}% ({hits}/{total})"

    rows = [
        (
            "outcome-cache hit rate",
            rate(
                counters.get("session.outcome.hit", 0),
                counters.get("session.outcome.miss", 0),
            ),
        ),
        (
            "theory-cache hit rate",
            rate(
                counters.get("session.theory.hit", 0),
                counters.get("session.theory.miss", 0),
            ),
        ),
        ("evictions", counters.get("session.evictions", 0)),
    ]
    return rows


def coverage_rows(snapshot):
    """(kind, fired, registered, pct) rows from cumulative coverage sets.

    Decodes via :func:`repro.coverage.report.coverage_counts` — the same
    function Figure 11 uses — so the dashboard and the coverage study
    can never disagree about the same snapshot.
    """
    rows = []
    for kind, (fired, registered) in coverage_counts(snapshot).items():
        if not fired and not registered:
            continue
        pct = 100.0 * fired / registered if registered else 0.0
        rows.append((kind, fired, registered, f"{pct:.1f}"))
    return rows


def poison_rows(journal):
    """(family/oracle cell, iteration, classification, attempts,
    strategy/seed) rows for the quarantined poison-iteration artifacts
    of a journal."""
    rows = []
    for entry in journal.poison_entries():
        rows.append(
            (
                f"{entry['family']}/{entry['oracle']}",
                entry.get("iteration", "?"),
                entry.get("classification", "?"),
                entry.get("attempts", "?"),
                f"{entry.get('strategy', '?')}@{entry.get('seed', '?')}",
            )
        )
    return rows


def render_stats(journal, snapshot=None):
    """The full dashboard text.

    ``journal`` is a path or a
    :class:`~repro.robustness.journal.CampaignJournal`; ``snapshot`` an
    optional metrics dict (from
    :func:`~repro.observability.telemetry.load_snapshot`).
    """
    if not isinstance(journal, CampaignJournal):
        journal = CampaignJournal(journal)
    lines = _header_lines(journal)
    rows, totals = journal_cell_rows(journal)
    lines += ["", render_table(_CELL_HEADERS, rows, "Per-cell results")]
    if rows:
        totals_line = (
            f"totals: {totals.get('iterations', 0)} iterations, "
            f"{totals.get('fused', 0)} fused, {totals.get('bugs', 0)} bug records"
        )
        resilience = [
            f"{totals[key]} {key.replace('_', ' ')}"
            for key in _RESILIENCE_KEYS
            if totals.get(key)
        ]
        if resilience:
            totals_line += " (" + ", ".join(resilience) + ")"
        lines += ["", totals_line]
        budget = totals.get("unknowns_budget", 0)
        genuine = totals.get("unknowns_genuine", 0)
        if budget or genuine:
            # The unknown-kind split (journalled only by campaigns that
            # enable it, so legacy dashboards render unchanged): budget
            # unknowns are the tunable kind — more solve budget would
            # decide them — genuine ones are solver limitations.
            lines += [
                f"unknowns: {budget} budget-exhausted, {genuine} genuine "
                f"(of {totals.get('unknowns', 0)})"
            ]
        lines += ["", _bug_bars(totals)]
    else:
        lines += ["", "no completed cells in the journal"]
    poisons = poison_rows(journal)
    if poisons:
        lines += [
            "",
            render_table(
                ["cell", "iter", "death", "attempts", "repro"],
                poisons,
                "Quarantined poison iterations",
            ),
        ]
    if snapshot is not None:
        lines += _metrics_sections(snapshot)
    return "\n".join(lines) + "\n"
