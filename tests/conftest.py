"""Shared fixtures for the test suite."""

import random
from collections import namedtuple

import pytest

from repro.smtlib.parser import parse_script, parse_term
from repro.solver.solver import ReferenceSolver, SolverConfig

# ---------------------------------------------------------------------------
# Fleet shapes: the execution-mode matrix shared by the determinism suites
# ---------------------------------------------------------------------------

#: One way of running a campaign: an execution mode, a worker count and
#: (for tcp fleets) the seed of the coordinator's work-stealing RNG.
#: The headline invariant of the parallel architecture is that a
#: deterministic campaign's journal bytes are a pure function of the
#: campaign parameters — *never* of the FleetShape it ran under.
FleetShape = namedtuple("FleetShape", "mode workers steal_seed")


def _shape(mode, workers, steal_seed=0, slow=False):
    suffix = f"-steal{steal_seed}" if mode == "tcp" else ""
    return pytest.param(
        FleetShape(mode, workers, steal_seed),
        id=f"{mode}-w{workers}{suffix}",
        marks=[pytest.mark.slow] if slow else [],
    )


#: The fleet-shape matrix. The fast lane covers every mode and a
#: steal-order permutation; the four-worker shapes ride in the ``slow``
#: lane (extra pools/processes, no new code paths).
FLEET_MATRIX = [
    _shape("serial", 1),
    _shape("process", 2),
    _shape("tcp", 1),
    _shape("tcp", 2, steal_seed=0),
    _shape("tcp", 2, steal_seed=3),
    _shape("process", 4, slow=True),
    _shape("tcp", 4, steal_seed=1, slow=True),
]


@pytest.fixture(params=FLEET_MATRIX)
def fleet(request):
    """Parametrize a test over every fleet shape in the matrix."""
    return request.param


def fleet_campaign_kwargs(shape):
    """The ``run_campaign`` keyword arguments selecting ``shape``."""
    kwargs = {"mode": shape.mode, "workers": shape.workers}
    if shape.mode == "tcp":
        kwargs["steal_seed"] = shape.steal_seed
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
