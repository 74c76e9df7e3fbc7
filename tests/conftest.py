"""Shared fixtures for the test suite."""

import random
from collections import namedtuple

import pytest

from repro.smtlib.parser import parse_script, parse_term
from repro.solver.solver import ReferenceSolver, SolverConfig

# ---------------------------------------------------------------------------
# Fleet shapes: the execution-mode matrix shared by the determinism suites
# ---------------------------------------------------------------------------

#: One way of running a campaign: an execution mode, a worker count,
#: (for a process fleet) the seed of the coordinator's work-stealing RNG
#: — ``None`` leaves it at its default — and any further fleet settings
#: as ``(name, value)`` pairs.
#: The headline invariant of the parallel architecture is that a
#: deterministic campaign's journal bytes are a pure function of the
#: campaign parameters — *never* of the FleetShape it ran under.
FleetShape = namedtuple(
    "FleetShape", "mode workers steal_seed settings", defaults=((),)
)


def _shape(mode, workers, steal_seed=0, slow=False):
    # One worker takes every lease whatever the steal order.
    suffix = f"-steal{steal_seed}" if workers > 1 else ""
    return pytest.param(
        FleetShape(mode, workers, steal_seed),
        id=f"{mode}-w{workers}{suffix}",
        marks=[pytest.mark.slow] if slow else [],
    )


#: The fleet-shape matrix. The fast lane covers both modes, a lone
#: worker and two steal-order permutations; the four-worker shape rides
#: in the ``slow`` lane (extra processes, no new code paths).
FLEET_MATRIX = [
    _shape("serial", 1),
    _shape("process", 1),
    _shape("process", 2, steal_seed=0),
    _shape("process", 2, steal_seed=3),
    _shape("process", 4, steal_seed=1, slow=True),
]


#: Two-worker fleets that differ from a matrix shape only in how the
#: fleet is configured, so only the fleet suite (``test_distributed.py``)
#: runs them: ``process-w2`` passes no fleet setting at all (what a bare
#: ``mode="process", workers=2`` call gets), and ``tcp-w2-steal3`` spells
#: out the settings of the former tcp mode — an explicit listen address,
#: a spawn count and a steal seed.
FLEET_SETTINGS_SHAPES = [
    pytest.param(FleetShape("process", 2, None), id="process-w2"),
    pytest.param(
        FleetShape(
            "process",
            2,
            3,
            (("listen", ("127.0.0.1", 0)), ("spawn_workers", 2)),
        ),
        id="tcp-w2-steal3",
    ),
]


@pytest.fixture(params=FLEET_MATRIX)
def fleet(request):
    """Parametrize a test over every fleet shape in the matrix."""
    return request.param


@pytest.fixture(params=FLEET_MATRIX + FLEET_SETTINGS_SHAPES)
def fleet_configured(request):
    """The matrix plus the fleet-settings shapes (the fleet suite)."""
    return request.param


def fleet_campaign_kwargs(shape):
    """The ``run_campaign`` keyword arguments selecting ``shape``."""
    kwargs = {"mode": shape.mode, "workers": shape.workers}
    if shape.mode != "serial" and shape.steal_seed is not None:
        kwargs["steal_seed"] = shape.steal_seed
    kwargs.update(shape.settings)
    return kwargs


@pytest.fixture()
def run_fleet_campaign():
    """A runner partially applied to a fleet shape:
    ``run_fleet_campaign(corpora, shape, **campaign_kwargs)``."""
    from repro.campaign.runner import run_campaign

    def run(corpora, shape, **kwargs):
        return run_campaign(corpora, **fleet_campaign_kwargs(shape), **kwargs)

    return run


@pytest.fixture(scope="session")
def solver():
    """One reference solver shared across tests (stateless checks)."""
    return ReferenceSolver()


@pytest.fixture(scope="session")
def thorough_solver():
    return ReferenceSolver(SolverConfig.thorough())


@pytest.fixture()
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture()
def parse():
    return parse_script


@pytest.fixture()
def term():
    return parse_term


def check(solver, text):
    """Convenience: solve SMT-LIB text, return the verdict string."""
    return str(solver.check_result(text))
