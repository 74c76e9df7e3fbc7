"""The frozen :class:`~repro.core.config.CampaignSpec`.

The meta goldens pin the exact ``(journal_meta, sidecar_meta)`` pairs
``CampaignSpec.describe`` stamps — key order included, since journal
lines are written in insertion order. They were recorded from the
campaign runner before the spec existed, so carrying the campaign's
parameters in one spec cannot move a journal byte. The validation tests
pin that a setting the chosen mode would ignore is rejected, and the
parity tests that ``YinYang.test(mode="process")`` — a one-cell run of
the coordinator path — reports exactly what a serial run does, for a
fusion and an opfuzz workload.
"""

import pickle

import pytest

from repro.campaign.runner import default_solvers, run_campaign
from repro.core.config import CampaignSpec, YinYangConfig
from repro.errors import CampaignSpecError
from repro.robustness import ContainmentPolicy, ProcessChaos, SupervisorPolicy

TRIAGE = "hard@4:1/2,hopeless@9:1/8"
SESSION = "outcome=256,theory=4096,clauses=256,presolve=64,warm=8"

#: name -> (run_campaign keyword arguments, journal meta, sidecar meta).
META_GOLDENS = {
    "default": (
        {},
        [("seed", 0), ("iterations_per_cell", 120)],
        [("seed", 0), ("iterations_per_cell", 120), ("strategy", "fusion"),
         ("workers", 1)],
    ),
    "triage": (
        {"triage": True},
        [("seed", 0), ("iterations_per_cell", 120), ("triage", TRIAGE)],
        [("seed", 0), ("iterations_per_cell", 120), ("triage", TRIAGE),
         ("strategy", "fusion"), ("workers", 1)],
    ),
    "incremental": (
        {"incremental": True},
        [("seed", 0), ("iterations_per_cell", 120), ("incremental", SESSION)],
        [("seed", 0), ("iterations_per_cell", 120), ("incremental", SESSION),
         ("strategy", "fusion"), ("workers", 1)],
    ),
    "logic": (
        {"logic": "QF_BV"},
        [("seed", 0), ("iterations_per_cell", 120), ("logic", "QF_BV")],
        [("seed", 0), ("iterations_per_cell", 120), ("logic", "QF_BV"),
         ("strategy", "fusion"), ("workers", 1)],
    ),
    "opfuzz": (
        {"strategy": "opfuzz"},
        [("seed", 0), ("iterations_per_cell", 120), ("strategy", "opfuzz")],
        [("seed", 0), ("iterations_per_cell", 120), ("strategy", "opfuzz"),
         ("workers", 1)],
    ),
    "all-x2": (
        {"triage": True, "incremental": True, "logic": "QF_BV",
         "strategy": "opfuzz", "workers": 2},
        [("seed", 0), ("iterations_per_cell", 120), ("triage", TRIAGE),
         ("incremental", SESSION), ("logic", "QF_BV"), ("strategy", "opfuzz")],
        [("seed", 0), ("iterations_per_cell", 120), ("triage", TRIAGE),
         ("incremental", SESSION), ("logic", "QF_BV"), ("strategy", "opfuzz"),
         ("workers", 2)],
    ),
}


def _spec(kwargs):
    kwargs = dict(kwargs)
    config = YinYangConfig(
        triage=kwargs.pop("triage", False),
        incremental=kwargs.pop("incremental", False),
    )
    if kwargs.get("workers", 1) > 1:
        kwargs.update(mode="process", solver_factory=default_solvers)
    return CampaignSpec(config=config, **kwargs)


@pytest.mark.parametrize("name", sorted(META_GOLDENS))
def test_meta_matches_golden(name):
    kwargs, journal_meta, sidecar_meta = META_GOLDENS[name]
    journal, sidecar = _spec(kwargs).describe()
    assert list(journal.items()) == journal_meta
    assert list(sidecar.items()) == sidecar_meta


def test_spec_pickle_round_trips():
    spec = CampaignSpec(
        config=YinYangConfig(seed=4, triage=True, incremental=True),
        iterations_per_cell=9,
        strategy="opfuzz",
        logic="QF_BV",
        solver_factory=default_solvers,
        mode="process",
        workers=3,
        supervise=SupervisorPolicy(max_worker_restarts=2),
        containment=ContainmentPolicy(mem_limit_mb=64),
        chaos_process=ProcessChaos(kill_at=(1,)),
    )
    again = pickle.loads(pickle.dumps(spec))
    assert again == spec
    assert again.describe() == spec.describe()


def test_spec_is_frozen():
    with pytest.raises(AttributeError):
        CampaignSpec().workers = 2


# ---------------------------------------------------------------------------
# Settings a campaign would ignore are rejected
# ---------------------------------------------------------------------------

FACTORY = {"solver_factory": default_solvers}


@pytest.mark.parametrize(
    "kwargs",
    [
        {"workers": 2},
        {"workers": 0},
        {"supervise": SupervisorPolicy()},
        {"containment": ContainmentPolicy(mem_limit_mb=64)},
        {"chaos_process": ProcessChaos(kill_at=(1,))},
        {"steal_seed": 3},
        {"listen": ("127.0.0.1", 0)},
        {"spawn_workers": 1},
        {"mode": "process", "steal_seed": 3, **FACTORY},
        {"mode": "process", "listen": ("127.0.0.1", 0), **FACTORY},
        {"mode": "process", "spawn_workers": 0, **FACTORY},
        {"mode": "process", "workers": 0, **FACTORY},
        {"mode": "tcp"},
    ],
    ids=lambda kwargs: ",".join(f"{k}={v!r}" for k, v in kwargs.items()),
)
def test_spec_rejects_ignored_settings(kwargs):
    with pytest.raises(CampaignSpecError):
        CampaignSpec(**kwargs)


def test_spec_accepts_every_setting_its_mode_reads():
    CampaignSpec(
        mode="tcp",
        workers=2,
        supervise=SupervisorPolicy(),
        containment=ContainmentPolicy(mem_limit_mb=64),
        chaos_process=ProcessChaos(kill_at=(1,)),
        steal_seed=3,
        listen=("127.0.0.1", 0),
        spawn_workers=0,
        **FACTORY,
    )


def test_spec_strategy_is_a_registry_name():
    from repro.strategies.registry import make_strategy

    with pytest.raises(TypeError, match="registry name"):
        CampaignSpec(strategy=make_strategy("fusion", None))


@pytest.mark.parametrize(
    "kwargs",
    [{"mode": "serial", "workers": 2}, {"containment": ContainmentPolicy()}],
    ids=["serial-workers", "serial-containment"],
)
def test_run_campaign_rejects_ignored_settings(kwargs):
    with pytest.raises(CampaignSpecError):
        run_campaign({}, iterations_per_cell=1, **kwargs)


def test_cli_campaign_workers_without_mode_exits_2(capsys):
    from repro.cli import main

    code = main(["campaign", "--scale", "0.0005", "--iterations", "1",
                 "--workers", "4"])
    assert code == 2
    assert "workers=4 needs mode=" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# YinYang.test(mode="process") reports what serial reports
# ---------------------------------------------------------------------------


def _fingerprint(report):
    from repro.smtlib.printer import print_script

    # Process runs ship bug scripts home as SMT-LIB text.
    bugs = [
        (bug.iteration, bug.kind,
         bug.script if isinstance(bug.script, str) else print_script(bug.script))
        for bug in report.bugs
    ]
    return report.counters(), bugs


@pytest.mark.parametrize(
    "strategy, family, scale, factory",
    [
        ("fusion", "QF_SLIA", 0.002, "deterministic_solvers"),
        ("opfuzz", "QF_BV", 0.01, "deterministic_bv_solvers"),
    ],
)
def test_process_test_matches_serial(strategy, family, scale, factory):
    from repro.campaign import runner
    from repro.core.yinyang import YinYang
    from repro.seeds import build_corpus

    solver_factory = getattr(runner, factory)
    seeds = build_corpus(family, scale=scale, seed=5).by_oracle("sat")
    config = YinYangConfig(seed=6)
    serial = YinYang(solver_factory(), config, strategy=strategy).test(
        "sat", seeds, iterations=8
    )
    process = YinYang(solver_factory(), config, strategy=strategy).test(
        "sat", seeds, iterations=8, mode="process", workers=2,
        solver_factory=solver_factory,
    )
    assert _fingerprint(process) == _fingerprint(serial)
    assert serial.fused > 0 and serial.bugs
