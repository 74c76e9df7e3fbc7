"""Table generation for the campaign: Figures 8a, 8b, 8c, 9 and 10,
plus the per-shard counter table of parallel (process-mode) campaigns."""

from __future__ import annotations

from repro.faults.releases import PAPER_RELEASE_IMPACT, release_impact, releases_for
from repro.faults.tracker import found_share, per_year_rows

_SOLVER_LABELS = {"z3-like": "Z3", "cvc4-like": "CVC4"}

# The paper's Figure 8 numbers, for side-by-side bench output.
PAPER_FIG8A = {
    "Reported": (44, 13),
    "Confirmed": (37, 8),
    "Fixed": (35, 6),
    "Duplicate": (4, 1),
    "Won't fix": (2, 0),
}
PAPER_FIG8B = {
    "Soundness": (24, 5),
    "Crash": (11, 1),
    "Performance": (1, 2),
    "Unknown": (1, 0),
}
PAPER_FIG8C = {
    "NIA": (2, 1),
    "NRA": (15, 1),
    "QF_NIA": (0, 1),
    "QF_NRA": (2, 0),
    "QF_S": (15, 4),
    "QF_SLIA": (3, 1),
}

_CONFIRMED = ("fixed", "confirmed")


def _counts_by(found_faults, key, solver_names, confirmed_only=True):
    table = {}
    for solver_index, solver_name in enumerate(solver_names):
        for fault in found_faults:
            if fault.solver != solver_name:
                continue
            if confirmed_only and fault.status not in _CONFIRMED:
                continue
            bucket = key(fault)
            row = table.setdefault(bucket, [0] * len(solver_names))
            row[solver_index] += 1
    return table


def figure8a_rows(campaign):
    """Status rows: (label, z3_count, cvc4_count, z3_paper, cvc4_paper)."""
    found = campaign.found_fault_objects()
    solver_names = list(campaign.catalogs)
    rows = []
    status_sets = {
        "Reported": None,
        "Confirmed": _CONFIRMED,
        "Fixed": ("fixed",),
        "Duplicate": ("duplicate",),
        "Won't fix": ("wontfix",),
    }
    for label, statuses in status_sets.items():
        counts = []
        for solver_name in solver_names:
            n = sum(
                1
                for f in found
                if f.solver == solver_name
                and (statuses is None or f.status in statuses)
            )
            counts.append(n)
        paper = PAPER_FIG8A.get(label, ("-", "-"))
        rows.append((label, *counts, *paper))
    return rows


def figure8b_rows(campaign):
    """Confirmed bug types per solver, with the paper's numbers."""
    found = campaign.found_fault_objects()
    solver_names = list(campaign.catalogs)
    table = _counts_by(found, lambda f: f.kind, solver_names)
    rows = []
    for label, key in (
        ("Soundness", "soundness"),
        ("Crash", "crash"),
        ("Performance", "performance"),
        ("Unknown", "unknown"),
    ):
        counts = table.get(key, [0] * len(solver_names))
        rows.append((label, *counts, *PAPER_FIG8B[label]))
    return rows


def figure8c_rows(campaign):
    """Confirmed bug logics per solver, with the paper's numbers."""
    found = campaign.found_fault_objects()
    solver_names = list(campaign.catalogs)
    table = _counts_by(found, lambda f: f.logic, solver_names)
    rows = []
    for logic in ("NIA", "NRA", "QF_NIA", "QF_NRA", "QF_S", "QF_SLIA"):
        counts = table.get(logic, [0] * len(solver_names))
        rows.append((logic, *counts, *PAPER_FIG8C[logic]))
    return rows


def figure9_rows(campaign=None):
    """Per-year historic soundness-bug counts, plus our found share."""
    rows = {"z3-like": per_year_rows("z3-like"), "cvc4-like": per_year_rows("cvc4-like")}
    shares = {}
    if campaign is not None:
        found = campaign.found_fault_objects()
        for solver_name in ("z3-like", "cvc4-like"):
            shares[solver_name] = found_share(found, solver_name)
    return rows, shares


def figure10_rows(campaign):
    """Per-release impact of found soundness bugs vs the paper's bars."""
    found = campaign.found_fault_objects()
    out = {}
    for solver_name in campaign.catalogs:
        ours = release_impact(found, solver_name)
        paper = PAPER_RELEASE_IMPACT.get(solver_name, {})
        out[solver_name] = [
            (release, ours.get(release, 0), paper.get(release, "-"))
            for release in releases_for(solver_name)
        ]
    return out


def shard_counter_rows(campaign):
    """Per-shard counter rows of a process-mode campaign.

    One row per (cell, shard): how the cell's iterations were split,
    what each shard found, and which worker ran it (on a resume, the
    worker that replayed its lease log).
    """
    rows = []
    for key in sorted(campaign.shard_counters):
        solver, family, oracle = key
        for c in campaign.shard_counters[key]:
            rows.append(
                (
                    f"{solver}/{family}/{oracle}",
                    f"{c['shard']}/{c['of']}",
                    c.get("iterations", 0),
                    c.get("fused", 0),
                    c.get("fusion_failures", 0),
                    c.get("bugs", 0),
                    f"{c.get('elapsed', 0.0):.2f}s",
                    f"pid {c.get('pid')}",
                )
            )
    return rows


def render_shard_table(campaign):
    """The per-shard counter table (empty string when not sharded)."""
    rows = shard_counter_rows(campaign)
    if not rows:
        return ""
    headers = ["cell", "shard", "iter", "fused", "fuse-fail", "bugs", "wall", "worker"]
    title = f"Per-shard counters ({campaign.mode} x{campaign.workers})"
    return render_table(headers, rows, title)


def render_table(headers, rows, title=""):
    """Plain-text table rendering for bench output."""
    widths = [len(str(h)) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_bars(pairs, title="", width=40):
    """ASCII bar chart (the paper's Figures 9/10 are bar charts).

    ``pairs`` is a list of (label, value).
    """
    lines = [title] if title else []
    values = [v for _, v in pairs]
    peak = max(values) if values else 1
    label_width = max((len(str(label)) for label, _ in pairs), default=0)
    for label, value in pairs:
        bar = "#" * max(1 if value else 0, round(width * value / peak)) if peak else ""
        lines.append(f"{str(label).rjust(label_width)} | {bar} {value}")
    return "\n".join(lines)
