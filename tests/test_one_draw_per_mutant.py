"""Two-solver campaigns: journal bytes and per-cell reports.

Every campaign below checks its mutants against two solvers, with
triage and incremental solving on. The goldens pin each journal's
sha256 and the counters of every ``(solver, family, oracle)`` report,
so any change to how a campaign lays out its cells must reproduce what
each solver's cells journaled before, byte for byte. One campaign runs
under a :class:`~repro.robustness.policy.ResiliencePolicy` whose
circuit breaker quarantines a chaos-wrapped solver partway through.
"""

import hashlib

import pytest

from repro.campaign.runner import (
    deterministic_bv_solvers,
    deterministic_solvers,
    run_campaign,
)
from repro.robustness import ChaosSolver, ResiliencePolicy
from repro.seeds import build_corpus


def _chaos_solvers():
    """z3-like behind a crashing chaos wrapper, then cvc4-like."""
    z3, cvc4 = deterministic_solvers()
    return [ChaosSolver(z3, seed=4, p_crash=0.35), cvc4]


# name -> (families, corpus scale, corpus seed, strategy, logic, solver
# factory, iterations per cell, campaign seed, quarantine_after)
CAMPAIGNS = {
    "arith": (("LRA", "QF_LIA", "QF_NRA"), 0.003, 7, "fusion", None,
              deterministic_solvers, 8, 7, None),
    "strings": (("QF_S",), 0.0015, 5, "fusion", None,
                deterministic_solvers, 6, 5, None),
    "bv-fusion": (("QF_BV",), 0.02, 0, "fusion", "QF_BV",
                  deterministic_bv_solvers, 6, 0, None),
    "bv-opfuzz": (("QF_BV",), 0.02, 0, "opfuzz", "QF_BV",
                  deterministic_bv_solvers, 10, 0, None),
    "quarantine": (("QF_LIA",), 0.003, 7, "fusion", None,
                   _chaos_solvers, 8, 7, 2),
}


# name -> journal sha256, recorded before cells were keyed by (family, oracle).
JOURNAL_SHA256 = {
    "arith":
        "abbbff382068c63525d646c650687b7df3a7325bdab67adf6d2a58d0c5c298b5",
    "strings":
        "6ca9eb6afbb6a5da9d912f490cc85f4050015fd47d05bc5b8433d0aa43913234",
    "bv-fusion":
        "f4748159bd77610360147d15b2c9992a6626ae0106d78f8e46e39eaa48a4d3ca",
    "bv-opfuzz":
        "a166c5ddd67542f719f49bd5179c544809e18a00f1fb9ce07ee6767fb5b68204",
    "quarantine":
        "f9b9257e2ea744720a8fb24446f18452adfa5a5702fdb2eea8a2fe00fad758d3",
}

# name -> [(solver/family/oracle, its report's nonzero counters)], in
# result order (the journal's canonical order).
REPORT_COUNTERS = {
    "arith": [
        ("z3-like/LRA/sat", {
            "iterations": 8, "fused": 8, "soundness": 1, "crash": 3, "bugs": 4
        }),
        ("z3-like/LRA/unsat", {
            "iterations": 8, "fused": 8, "unknowns": 1, "soundness": 1, "crash": 1,
            "bugs": 2, "unknowns_budget": 1
        }),
        ("z3-like/QF_LIA/sat", {
            "iterations": 8, "fused": 8, "unknowns": 1, "unknowns_budget": 1
        }),
        ("z3-like/QF_LIA/unsat", {
            "iterations": 8, "fused": 8, "unknowns": 1, "unknowns_budget": 1
        }),
        ("z3-like/QF_NRA/sat", {
            "iterations": 8, "fused": 8, "unknowns": 3, "soundness": 1, "bugs": 1,
            "unknowns_budget": 3
        }),
        ("z3-like/QF_NRA/unsat", {
            "iterations": 8, "fused": 8, "unknowns": 3, "unknowns_budget": 3
        }),
        ("cvc4-like/LRA/sat", {
            "iterations": 8, "fused": 8, "unknowns": 5, "unknowns_budget": 5
        }),
        ("cvc4-like/LRA/unsat", {
            "iterations": 8, "fused": 8, "unknowns": 2, "unknowns_budget": 2
        }),
        ("cvc4-like/QF_LIA/sat", {
            "iterations": 8, "fused": 8, "unknowns": 1, "unknowns_budget": 1
        }),
        ("cvc4-like/QF_LIA/unsat", {
            "iterations": 8, "fused": 8, "unknowns": 1, "unknowns_budget": 1
        }),
        ("cvc4-like/QF_NRA/sat", {
            "iterations": 8, "fused": 8, "unknowns": 4, "unknowns_budget": 4
        }),
        ("cvc4-like/QF_NRA/unsat", {
            "iterations": 8, "fused": 8, "unknowns": 3, "soundness": 2, "bugs": 2,
            "unknowns_budget": 3
        }),
    ],
    "strings": [
        ("z3-like/QF_S/sat", {
            "iterations": 6, "fused": 6
        }),
        ("z3-like/QF_S/unsat", {
            "iterations": 6, "fused": 6, "soundness": 5, "crash": 1, "bugs": 6
        }),
        ("cvc4-like/QF_S/sat", {
            "iterations": 6, "fused": 6, "unknowns": 1, "crash": 2, "bugs": 2,
            "unknowns_budget": 1
        }),
        ("cvc4-like/QF_S/unsat", {
            "iterations": 6, "fused": 6, "unknowns": 1, "soundness": 1, "crash": 1,
            "bugs": 2, "unknowns_budget": 1
        }),
    ],
    "bv-fusion": [
        ("z3-like/QF_BV/sat", {
            "iterations": 6, "fused": 3, "fusion_failures": 3, "soundness": 1,
            "crash": 1, "bugs": 2
        }),
        ("z3-like/QF_BV/unsat", {
            "iterations": 6, "fused": 3, "fusion_failures": 3, "crash": 2, "bugs": 2
        }),
        ("cvc4-like/QF_BV/sat", {
            "iterations": 6, "fused": 3, "fusion_failures": 3, "crash": 1, "bugs": 1
        }),
        ("cvc4-like/QF_BV/unsat", {
            "iterations": 6, "fused": 3, "fusion_failures": 3, "crash": 1, "bugs": 1
        }),
    ],
    "bv-opfuzz": [
        ("z3-like/QF_BV/sat", {
            "iterations": 10, "fused": 10, "soundness": 4, "crash": 1, "bugs": 5
        }),
        ("z3-like/QF_BV/unsat", {
            "iterations": 10, "fused": 10, "soundness": 1, "crash": 1, "bugs": 2
        }),
        ("cvc4-like/QF_BV/sat", {
            "iterations": 10, "fused": 10, "crash": 5, "bugs": 5
        }),
        ("cvc4-like/QF_BV/unsat", {
            "iterations": 10, "fused": 10, "soundness": 1, "crash": 1, "bugs": 2
        }),
    ],
    "quarantine": [
        ("chaos(z3-like)/QF_LIA/sat", {
            "iterations": 8, "fused": 8, "crash": 2, "bugs": 2, "quarantine_skips":
            6
        }),
        ("chaos(z3-like)/QF_LIA/unsat", {
            "iterations": 8, "fused": 8, "quarantine_skips": 8
        }),
        ("cvc4-like/QF_LIA/sat", {
            "iterations": 8, "fused": 8, "unknowns": 1, "unknowns_budget": 1
        }),
        ("cvc4-like/QF_LIA/unsat", {
            "iterations": 8, "fused": 8, "unknowns": 1, "unknowns_budget": 1
        }),
    ],
}

# name -> the solvers quarantined by the end of the campaign.
QUARANTINED = {"quarantine": ['chaos(z3-like)']}


def campaign_inputs(name):
    """``(corpora, solvers, run_campaign keyword arguments)`` of ``name``."""
    (families, scale, corpus_seed, strategy, logic, factory, iterations,
     seed, quarantine_after) = CAMPAIGNS[name]
    corpora = {
        family: build_corpus(family, scale=scale, seed=corpus_seed)
        for family in families
    }
    kwargs = dict(
        iterations_per_cell=iterations,
        seed=seed,
        performance_threshold=None,
        strategy=strategy,
        triage=True,
        incremental=True,
        logic=logic,
    )
    if quarantine_after is not None:
        kwargs["policy"] = ResiliencePolicy(quarantine_after=quarantine_after)
    return corpora, factory(), kwargs


def run_golden_campaign(name, journal, **extra):
    corpora, solvers, kwargs = campaign_inputs(name)
    return run_campaign(corpora, solvers=solvers, journal=journal, **kwargs, **extra)


def report_counters(result):
    """``{"solver/family/oracle": counters}`` in the result's key order."""
    return {
        "/".join(key): report.counters() for key, report in result.reports.items()
    }


class TestCellGoldens:
    @pytest.mark.parametrize("name", sorted(CAMPAIGNS))
    def test_journal_and_reports_match_golden(self, name, tmp_path):
        path = tmp_path / "journal.jsonl"
        result = run_golden_campaign(name, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == JOURNAL_SHA256[name]
        counters = [
            (key, {k: v for k, v in values.items() if v})
            for key, values in report_counters(result).items()
        ]
        assert counters == REPORT_COUNTERS[name]
        quarantined = result.resilience_counters()["quarantined"]
        assert quarantined == QUARANTINED.get(name, [])

    def test_fleet_journal_matches_serial_golden(self, tmp_path):
        # One fleet shape for the family with the most bugs: the
        # process fleet must journal the same bytes as the serial run.
        path = tmp_path / "journal.jsonl"
        run_golden_campaign(
            "strings",
            path,
            mode="process",
            workers=2,
            solver_factory=deterministic_solvers,
        )
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == JOURNAL_SHA256["strings"]


class _PositionRecorder:
    """A solver wrapper noting the fresh-name position each check
    starts at and how many names the check drew (picklable-free: serial
    use only)."""

    def __init__(self, solver, log):
        self.solver = solver
        self.name = solver.name
        self.log = log

    def __getattr__(self, attr):
        return getattr(self.solver, attr)

    def check_script(self, script, directive=None, session=None):
        from repro.smtlib.ast import fresh_name_position

        began = fresh_name_position()
        outcome = self.solver.check_script(
            script, directive=directive, session=session
        )
        self.log.append((self.name, began, fresh_name_position() - began))
        return outcome


class TestOneDrawPerMutant:
    def test_each_mutant_is_drawn_once_per_campaign(self, monkeypatch, tmp_path):
        from repro.core import yinyang
        from repro.strategies.fusion import FusionStrategy

        draws = []
        works = []  # kept alive, so no two cells' work items share an id
        current = {}
        original_rng = yinyang.iteration_rng
        original_mutate = FusionStrategy.mutate

        def tagged_rng(seed, index):
            current["index"] = index
            return original_rng(seed, index)

        def counting_mutate(self, rng, work, *args, **kwargs):
            works.append(work)
            draws.append((id(work), current["index"]))
            return original_mutate(self, rng, work, *args, **kwargs)

        monkeypatch.setattr(yinyang, "iteration_rng", tagged_rng)
        monkeypatch.setattr(FusionStrategy, "mutate", counting_mutate)
        result = run_golden_campaign("arith", tmp_path / "journal.jsonl")
        iterations = CAMPAIGNS["arith"][6]
        cells = {key[1:] for key in result.reports}
        assert len(draws) == len(set(draws)) == len(cells) * iterations
        # Every solver's report still counts each of its cell's draws.
        for report in result.reports.values():
            assert report.iterations == iterations

    def test_opfuzz_oracle_solves_once_per_iteration(self, monkeypatch, tmp_path):
        from repro.strategies.opfuzz import OpFuzzStrategy

        solves = []
        original = OpFuzzStrategy.resolve_oracle

        def counting(self, *args, **kwargs):
            solves.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(OpFuzzStrategy, "resolve_oracle", counting)
        result = run_golden_campaign("bv-opfuzz", tmp_path / "journal.jsonl")
        first = result.reports[("z3-like", "QF_BV", "sat")]
        assert first.fusion_failures == 0
        cells = {key[1:] for key in result.reports}
        # One reference solve per drawn mutant, not one per solver cell.
        assert len(solves) == len(cells) * CAMPAIGNS["bv-opfuzz"][6]
        assert len(solves) * 2 == sum(r.iterations for r in result.reports.values())

    def test_every_check_of_a_mutant_starts_at_one_fresh_position(self):
        from repro.core.config import YinYangConfig
        from repro.core.yinyang import YinYang

        log = []
        solvers = [_PositionRecorder(s, log) for s in deterministic_solvers()]
        seeds = build_corpus("LIA", scale=0.02, seed=5).by_oracle("sat")
        tool = YinYang(solvers, YinYangConfig(seed=6, incremental=True))
        tool.test("sat", seeds, iterations=6)
        assert len(log) == 12 and [name for name, _, _ in log] == [
            "z3-like", "cvc4-like"
        ] * 6
        pairs = list(zip(log[0::2], log[1::2]))
        assert all(z3[1] == cvc4[1] for z3, cvc4 in pairs)
        # The rewind bites: some first check drew names of its own.
        assert any(z3[2] > 0 for z3, _cvc4 in pairs)

    def test_quarantine_skips_land_in_the_quarantined_solvers_report(self, tmp_path):
        result = run_golden_campaign("quarantine", tmp_path / "journal.jsonl")
        for (solver, _family, _oracle), report in result.reports.items():
            if solver == "cvc4-like":
                assert report.quarantine_skips == 0
                assert report.quarantined == set()
            else:
                assert report.quarantined == {"chaos(z3-like)"}
        skips = sum(r.quarantine_skips for r in result.reports.values())
        assert skips == result.resilience_counters()["quarantine_skips"] > 0


class TestHeldReportsResume:
    """A serial campaign journals the first solver's cells as they
    finish and holds the later solvers' reports; an interrupt in that
    window loses only held reports, and the resume reruns only the
    solvers that lack them."""

    def _interrupt_after_commits(self, monkeypatch, path, commits):
        from repro.campaign import runner

        original = runner._absorb_cell
        state = {"commits": 0}

        def interrupting(result, key, report, journal, telemetry=None):
            if journal is not None and state["commits"] >= commits:
                raise KeyboardInterrupt
            state["commits"] += journal is not None
            return original(result, key, report, journal, telemetry)

        with monkeypatch.context() as patch:
            patch.setattr(runner, "_absorb_cell", interrupting)
            with pytest.raises(KeyboardInterrupt):
                run_golden_campaign("arith", path)

    def test_resume_reruns_only_missing_solvers_byte_identically(
        self, monkeypatch, tmp_path
    ):
        from repro.core.yinyang import YinYang
        from repro.robustness import CampaignJournal

        path = tmp_path / "journal.jsonl"
        self._interrupt_after_commits(monkeypatch, path, commits=2)
        journaled = list(CampaignJournal(path).completed_cells())
        assert journaled == [("z3-like", "LRA", "sat"), ("z3-like", "LRA", "unsat")]

        ran = []
        original = YinYang.run_cell

        def recording(self, work, *args, **kwargs):
            ran.append((work.oracle, [s.name for s in self.solvers]))
            return original(self, work, *args, **kwargs)

        monkeypatch.setattr(YinYang, "run_cell", recording)
        result = run_golden_campaign("arith", path, resume=True)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == JOURNAL_SHA256["arith"]
        assert ran == [
            ("sat", ["cvc4-like"]),
            ("unsat", ["cvc4-like"]),
        ] + [(oracle, ["z3-like", "cvc4-like"]) for oracle in ("sat", "unsat")] * 2
        assert list(result.reports) == [
            tuple(key.split("/")) for key, _counters in REPORT_COUNTERS["arith"]
        ]
