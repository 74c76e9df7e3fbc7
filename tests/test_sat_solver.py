"""Unit and randomized tests for the CDCL SAT core."""

import hashlib
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.seeds.bv_gen import generate_bv_seed
from repro.smtlib import builder as b
from repro.smtlib.ast import App, Assert, mk_var
from repro.smtlib.bitvec import bv_const
from repro.smtlib.sorts import bitvec_sort
from repro.solver import bitblast
from repro.solver.bitblast import BitBlaster, OutOfFragment
from repro.solver.sat import SatSolver


def brute_force(num_vars, clauses):
    for bits in product([False, True], repeat=num_vars):
        def lit_true(lit):
            value = bits[abs(lit) - 1]
            return value if lit > 0 else not value

        if all(any(lit_true(l) for l in clause) for clause in clauses):
            return True
    return False


def model_satisfies(model, clauses):
    def lit_true(lit):
        value = model.get(abs(lit), False)
        return value if lit > 0 else not value

    return all(any(lit_true(l) for l in clause) for clause in clauses)


class TestBasics:
    def test_empty_problem_is_sat(self):
        assert SatSolver().solve() is True

    def test_unit_clause(self):
        s = SatSolver()
        s.add_clause([1])
        assert s.solve() is True
        assert s.model()[1] is True

    def test_contradicting_units(self):
        s = SatSolver()
        s.add_clause([1])
        s.add_clause([-1])
        assert s.solve() is False

    def test_empty_clause(self):
        s = SatSolver()
        assert s.add_clause([]) is False
        assert s.solve() is False

    def test_tautology_dropped(self):
        s = SatSolver()
        assert s.add_clause([1, -1]) is True
        assert s.solve() is True

    def test_tautology_still_allocates_earlier_variables(self):
        s = SatSolver()
        assert s.add_clause([5, 2, -5, 9]) is True
        assert s.num_vars == 5  # 9 comes after the tautology is found
        assert s.clauses == []

    def test_duplicate_literals_collapse(self):
        s = SatSolver()
        s.add_clause([2, 2, 2])
        assert s.solve() is True
        assert s.model()[2] is True

    def test_simple_implication_chain(self):
        s = SatSolver()
        s.add_clause([1])
        s.add_clause([-1, 2])
        s.add_clause([-2, 3])
        assert s.solve() is True
        assert s.model()[3] is True

    def test_pigeonhole_2_into_1(self):
        # Two pigeons, one hole: p1h1, p2h1, not both.
        s = SatSolver()
        s.add_clause([1])
        s.add_clause([2])
        s.add_clause([-1, -2])
        assert s.solve() is False

    def test_xor_chain(self):
        # x1 xor x2 = true; both assignments reachable.
        s = SatSolver()
        s.add_clause([1, 2])
        s.add_clause([-1, -2])
        assert s.solve() is True
        model = s.model()
        assert model[1] != model[2]


class TestIncremental:
    def test_add_after_solve(self):
        s = SatSolver()
        s.add_clause([1, 2])
        assert s.solve() is True
        s.add_clause([-1])
        s.add_clause([-2])
        assert s.solve() is False

    def test_unit_and_empty_clauses_hold_across_solves(self):
        s = SatSolver()
        s.add_clause([1])
        s.add_clause([-1, 2])
        assert s.solve() is True
        assert s.model() == {1: True, 2: True}
        assert s.solve() is True
        assert s.model() == {1: True, 2: True}
        s.add_clause([])
        assert s.solve() is False

    def test_blocking_loop_enumerates_models(self):
        s = SatSolver()
        s.ensure_vars(3)
        s.add_clause([1, 2, 3])
        count = 0
        while s.solve():
            model = s.model()
            count += 1
            assert count <= 7
            s.add_clause([-v if model[v] else v for v in (1, 2, 3)])
        assert count == 7  # all assignments except all-false


class TestRandomized:
    @pytest.mark.parametrize("trial", range(30))
    def test_agrees_with_brute_force(self, trial):
        rng = random.Random(trial * 7919)
        n = rng.randint(1, 8)
        m = rng.randint(1, 30)
        clauses = [
            [rng.choice([1, -1]) * rng.randint(1, n) for _ in range(rng.randint(1, 3))]
            for _ in range(m)
        ]
        s = SatSolver()
        s.ensure_vars(n)
        consistent = all(s.add_clause(c) for c in clauses)
        result = s.solve() if consistent else False
        assert result == brute_force(n, clauses)
        if result:
            assert model_satisfies(s.model(), clauses)

    @pytest.mark.parametrize("trial", range(10))
    def test_incremental_agrees_with_brute_force(self, trial):
        rng = random.Random(trial * 104729)
        n = rng.randint(2, 7)
        s = SatSolver()
        s.ensure_vars(n)
        clauses = []
        consistent = True
        for _ in range(4):
            for _ in range(rng.randint(1, 6)):
                clause = [
                    rng.choice([1, -1]) * rng.randint(1, n)
                    for _ in range(rng.randint(1, 3))
                ]
                clauses.append(clause)
                consistent = s.add_clause(clause) and consistent
            result = s.solve() if consistent else False
            assert result == brute_force(n, clauses)

    def test_larger_structured_instance(self):
        # Chain of equivalences with one forced polarity, unsat with a flip.
        s = SatSolver()
        n = 30
        s.ensure_vars(n)
        for i in range(1, n):
            s.add_clause([-i, i + 1])
            s.add_clause([i, -(i + 1)])
        s.add_clause([1])
        s.add_clause([-n])
        assert s.solve() is False


def _reference_pick(solver):
    """The linear branching scan the heap replaces."""
    best, best_activity = None, -1.0
    for var in range(1, solver.num_vars + 1):
        if var not in solver.assignment:
            act = solver.activity.get(var, 0.0)
            if act > best_activity:
                best, best_activity = var, act
    return best


# Few distinct values, so equal activities (ties) are common.
_ACTIVITIES = st.sampled_from([0.0, 0.5, 1.0, 2.0, 7.25, 1e99])
_STEPS = st.sampled_from(["decide", "bump", "backjump", "rescale"])


class TestBranchHeap:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_heap_pick_equals_linear_scan(self, data):
        n = data.draw(st.integers(1, 24), label="num_vars")
        s = SatSolver()
        s.ensure_vars(n)
        for var in range(1, n + 1):
            s.activity[var] = data.draw(_ACTIVITIES)
        s._values = [None] * (2 * n + 1)
        # Level-0 assignments made before the heap is built, as solve()
        # asserts unit clauses.
        for var in sorted(data.draw(st.sets(st.integers(1, n), max_size=n // 2))):
            s._assign(var if data.draw(st.booleans()) else -var, None)
        s._rebuild_heap()
        for step in data.draw(st.lists(_STEPS, max_size=40), label="steps"):
            if step == "decide":
                var = s._pick_branch_var()
                # The pick pops its entry, so compare against the state
                # before the decision is made.
                assert var == _reference_pick(s)
                if var is None:
                    break
                s.trail_lim.append(len(s.trail))
                s._assign(var if data.draw(st.booleans()) else -var, None)
            elif step == "bump" and s.trail:
                # Conflict analysis bumps assigned variables only.
                lit = data.draw(st.sampled_from(s.trail))
                s.activity[abs(lit)] += s.var_inc
            elif step == "backjump" and s.trail_lim:
                s._unassign_to(data.draw(st.integers(0, len(s.trail_lim) - 1)))
            elif step == "rescale":
                s.var_inc = 1e100  # the next decay passes the threshold
                s._decay()
                assert s.var_inc == 1.0
        assert s._pick_branch_var() == _reference_pick(s)


# ---------------------------------------------------------------------------
# Pinned search trajectories
# ---------------------------------------------------------------------------
#
# Each case below drives the solver through a fixed instance and returns,
# per solve() call, the result, the conflict/decision/propagation
# counters, the clause and variable counts and a digest of the model.
# The golden values were recorded before the kernel was optimised; any
# change to the clause order, propagation order, decision order or the
# learned clauses shows up as a mismatch. Never regenerate them to make
# a kernel change pass: a change that moves them changes the search.
# The bv-* values were recorded again, on purpose, when the blaster
# began to fold and share its gates, which changes the clauses it
# hands the kernel; every status stayed the same. The cnf-* values
# never moved.


def _model_digest(solver, result):
    model = solver.model() if result is True else {}
    text = ",".join(f"{var}:{int(value)}" for var, value in sorted(model.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _snapshot(solver, result):
    return (
        result,
        solver.conflicts,
        solver.decisions,
        solver.propagations,
        solver.num_vars,
        len(solver.clauses),
        _model_digest(solver, result),
    )


def _random_clauses(rng, num_vars, num_clauses, min_width=3, max_width=3):
    return [
        [
            rng.choice((1, -1)) * rng.randint(1, num_vars)
            for _ in range(rng.randint(min_width, max_width))
        ]
        for _ in range(num_clauses)
    ]


def _solve_cnf(seed, num_vars, num_clauses):
    rng = random.Random(seed)
    s = SatSolver()
    for clause in _random_clauses(rng, num_vars, num_clauses):
        s.add_clause(clause)
    return [_snapshot(s, s.solve())]


def _rescaled_cnf():
    # Start just below the rescale threshold, 50 conflicts before a
    # decay: the search rescales every activity part-way through.
    rng = random.Random(11)
    s = SatSolver()
    for clause in _random_clauses(rng, 150, 650):
        s.add_clause(clause)
    s.conflicts = 950
    s.var_inc = 0.99e100
    result = s.solve()
    assert s.var_inc < 1e90, "the instance no longer reaches the rescale"
    return [_snapshot(s, result)]


def _incremental_cnf():
    # Blocking clauses, new units and new variables between solves.
    rng = random.Random(1234)
    s = SatSolver()
    for clause in _random_clauses(rng, 14, 40, 1, 3):
        if len(clause) > 1:
            s.add_clause(clause)
    out = []
    for _ in range(8):
        result = s.solve()
        out.append(_snapshot(s, result))
        if result is not True:
            break
        model = s.model()
        s.add_clause([-v if model[v] else v for v in sorted(model)][:10])
        for clause in _random_clauses(rng, 18, 3, 1, 3):
            s.add_clause(clause)
    return out


def _bv_literals(script):
    """The blastable asserted atoms of a seed, as (atom, polarity)."""
    literals = []
    for command in script.commands:
        if not isinstance(command, Assert):
            continue
        term, polarity = command.term, True
        while isinstance(term, App) and term.op == "not":
            term, polarity = term.args[0], not polarity
        try:
            BitBlaster(SatSolver()).blast_pred(term)
        except OutOfFragment:
            continue
        literals.append((term, polarity))
    return literals


def _bv_seed_case(seed, oracle):
    labeled = generate_bv_seed("QF_BV", oracle, rng=random.Random(seed))
    return _bv_case(_bv_literals(labeled.script))


def _bv_pair(width):
    sort = bitvec_sort(width)
    return mk_var("x", sort), mk_var("y", sort)


def _bv_commuted_product(width):
    x, y = _bv_pair(width)
    return _bv_case([(b.eq(b.bvmul(x, y), b.bvmul(y, x)), False)])


def _bv_factor(width, product_value):
    x, y = _bv_pair(width)
    one = bv_const(1, width)
    return _bv_case(
        [
            (b.eq(b.bvmul(x, y), bv_const(product_value, width)), True),
            (b.bvult(one, x), True),
            (b.bvult(one, y), True),
        ]
    )


def _bv_shift_is_product(width):
    x, y = _bv_pair(width)
    power = b.bvshl(bv_const(1, width), y)
    return _bv_case([(b.eq(b.bvshl(x, y), b.bvmul(x, power)), False)])


def _bv_case(literals):
    """check_bv on ``literals``, with the SAT solver it built."""
    solvers = []

    class Recording(SatSolver):
        def __init__(self):
            super().__init__()
            solvers.append(self)

    original = bitblast.SatSolver
    bitblast.SatSolver = Recording
    try:
        status, _model, _kind = bitblast.check_bv(literals)
    finally:
        bitblast.SatSolver = original
    (solver,) = solvers
    result = {"sat": True, "unsat": False}.get(status)
    return [(status,) + _snapshot(solver, result)]


TRAJECTORY_CASES = {
    "cnf-sat-0": lambda: _solve_cnf(0, 60, 240),
    "cnf-sat-1": lambda: _solve_cnf(1, 60, 250),
    "cnf-sat-2": lambda: _solve_cnf(2, 80, 330),
    "cnf-sat-3": lambda: _solve_cnf(5, 90, 385),
    "cnf-sat-restarts": lambda: _solve_cnf(11, 150, 650),
    "cnf-unsat-0": lambda: _solve_cnf(3, 40, 200),
    "cnf-unsat-1": lambda: _solve_cnf(4, 50, 250),
    "cnf-unsat-2": lambda: _solve_cnf(12, 130, 560),
    "cnf-unsat-decays": lambda: _solve_cnf(10, 150, 640),
    "cnf-rescale": _rescaled_cnf,
    "cnf-incremental": _incremental_cnf,
    "bv-commuted-product-5": lambda: _bv_commuted_product(5),
    "bv-factor-8": lambda: _bv_factor(8, 143),
    "bv-shift-is-product-4": lambda: _bv_shift_is_product(4),
}
for _seed in range(8):
    TRAJECTORY_CASES[f"bv-sat-{_seed}"] = lambda s=_seed: _bv_seed_case(s, "sat")
    TRAJECTORY_CASES[f"bv-unsat-{_seed}"] = lambda s=_seed: _bv_seed_case(s, "unsat")

TRAJECTORY_GOLDEN = {
    "cnf-sat-0": [(True, 29, 49, 578, 60, 260, "fc03b59c6710ba62")],
    "cnf-sat-1": [(True, 22, 37, 369, 60, 267, "4c774028006c8675")],
    "cnf-sat-2": [(True, 84, 114, 1644, 80, 408, "b7b3ed0670302384")],
    "cnf-sat-3": [(True, 318, 422, 6906, 90, 697, "02c6821965a1728f")],
    "cnf-sat-restarts": [(True, 1067, 1464, 30751, 150, 1710, "eb4684edaf0b1012")],
    "cnf-unsat-0": [(False, 8, 12, 70, 40, 198, "e3b0c44298fc1c14")],
    "cnf-unsat-1": [(False, 27, 30, 328, 50, 268, "e3b0c44298fc1c14")],
    "cnf-unsat-2": [(False, 840, 1053, 24005, 130, 1395, "e3b0c44298fc1c14")],
    "cnf-unsat-decays": [(False, 3775, 4917, 105829, 150, 4408, "e3b0c44298fc1c14")],
    "cnf-rescale": [(True, 3117, 3006, 59547, 150, 2810, "92c1b938af6d2a19")],
    "cnf-incremental": [
        (True, 0, 10, 14, 14, 18, "8b7e0a1eb2d176b1"),
        (True, 0, 17, 28, 14, 22, "5a6e99fa01fff1e3"),
        (True, 0, 25, 45, 17, 26, "4eabd3e9a5584a7b"),
        (True, 0, 29, 62, 17, 30, "6395c1d1074a6ca1"),
        (True, 1, 33, 80, 17, 35, "0969fc3d22930ecf"),
        (True, 2, 37, 100, 17, 40, "b84bab8572a4fa6f"),
        (True, 2, 39, 117, 17, 44, "28e07dc09cc759b7"),
        (True, 3, 42, 136, 17, 49, "ed372f751a5c69c7"),
    ],
    "bv-commuted-product-5": [
        ("unsat", False, 457, 527, 16634, 105, 774, "e3b0c44298fc1c14"),
    ],
    "bv-factor-8": [("sat", True, 0, 6, 203, 203, 611, "57b94873c3742479")],
    "bv-shift-is-product-4": [
        ("unsat", False, 65, 74, 1451, 75, 282, "e3b0c44298fc1c14"),
    ],
    "bv-sat-0": [("sat", True, 0, 6, 50, 50, 139, "687e5f2946a520fe")],
    "bv-unsat-0": [("unsat", False, 0, 0, 0, 51, 131, "e3b0c44298fc1c14")],
    "bv-sat-1": [("sat", True, 0, 8, 79, 79, 197, "79336b1539bc441d")],
    "bv-unsat-1": [("unsat", False, 0, 0, 0, 204, 563, "e3b0c44298fc1c14")],
    "bv-sat-2": [("sat", True, 0, 16, 90, 90, 238, "6f2f4319c36f135a")],
    "bv-unsat-2": [("unsat", False, 0, 0, 0, 56, 135, "e3b0c44298fc1c14")],
    "bv-sat-3": [("sat", True, 0, 7, 22, 22, 42, "5f1957463f74efaa")],
    "bv-unsat-3": [("unsat", False, 0, 0, 0, 400, 1205, "e3b0c44298fc1c14")],
    "bv-sat-4": [("sat", True, 0, 15, 31, 31, 44, "be1d961ab0f86e61")],
    "bv-unsat-4": [("unsat", False, 0, 0, 0, 36, 38, "e3b0c44298fc1c14")],
    "bv-sat-5": [("sat", True, 0, 0, 1, 1, 2, "d6b5915c46057bcb")],
    "bv-unsat-5": [("unsat", False, 0, 0, 0, 17, 3, "e3b0c44298fc1c14")],
    "bv-sat-6": [("sat", True, 0, 23, 57, 57, 104, "0b6e553a121e8ca7")],
    "bv-unsat-6": [("unsat", False, 0, 0, 0, 77, 168, "e3b0c44298fc1c14")],
    "bv-sat-7": [("sat", True, 0, 0, 35, 35, 88, "b932dae6e083dc56")],
    "bv-unsat-7": [("unsat", False, 6, 8, 80, 33, 84, "e3b0c44298fc1c14")],
}


class TestTrajectoryPinned:
    @pytest.mark.parametrize("case", sorted(TRAJECTORY_CASES))
    def test_trajectory_matches_golden(self, case):
        assert TRAJECTORY_CASES[case]() == TRAJECTORY_GOLDEN[case]
