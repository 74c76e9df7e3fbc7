"""Unit and randomized tests for the simplex / branch-and-bound core."""

import random
from fractions import Fraction as F
from itertools import product

import pytest

from repro.solver.linarith import DeltaRational, LinearAtom, check_linear


def atom(coeffs, op, const):
    return LinearAtom.make(coeffs, op, F(const))


class TestDeltaRational:
    def test_ordering(self):
        assert DeltaRational(1) < DeltaRational(2)
        assert DeltaRational(1, -1) < DeltaRational(1)
        assert DeltaRational(1) < DeltaRational(1, 1)

    def test_arithmetic(self):
        a = DeltaRational(1, 2) + DeltaRational(3, -1)
        assert a == DeltaRational(4, 1)
        assert a - DeltaRational(1) == DeltaRational(3, 1)
        assert DeltaRational(2, 1).scale(F(3)) == DeltaRational(6, 3)

    def test_concretize(self):
        assert DeltaRational(1, 2).concretize(F(1, 4)) == F(3, 2)


class TestLinearAtom:
    def test_make_drops_zero_coeffs(self):
        a = atom({"x": 0, "y": 1}, "<=", 2)
        assert dict(a.coeffs) == {"y": F(1)}

    def test_evaluate(self):
        a = atom({"x": 2, "y": -1}, "<=", 3)
        assert a.evaluate({"x": F(1), "y": F(0)}) is True
        assert a.evaluate({"x": F(2), "y": F(0)}) is False


class TestRationalFeasibility:
    def test_trivial_sat(self):
        status, model = check_linear([atom({"x": 1}, "<=", 5)])
        assert status == "sat"
        assert model["x"] <= 5

    def test_window_unsat(self):
        atoms = [atom({"x": -1}, "<", 0), atom({"x": 1}, "<", 0)]
        assert check_linear(atoms)[0] == "unsat"

    def test_strict_vs_nonstrict(self):
        # x <= 0 and x >= 0 is sat (x = 0); x < 0 and x >= 0 is not.
        assert check_linear([atom({"x": 1}, "<=", 0), atom({"x": -1}, "<=", 0)])[0] == "sat"
        assert check_linear([atom({"x": 1}, "<", 0), atom({"x": -1}, "<=", 0)])[0] == "unsat"

    def test_strict_open_interval_has_rational_point(self):
        status, model = check_linear(
            [atom({"x": -1}, "<", 0), atom({"x": 1}, "<", 1)]
        )
        assert status == "sat"
        assert 0 < model["x"] < 1

    def test_equalities_system(self):
        atoms = [
            atom({"x": 1, "y": 1}, "=", 10),
            atom({"x": 1, "y": -1}, "=", 4),
        ]
        status, model = check_linear(atoms)
        assert status == "sat"
        assert model["x"] == 7 and model["y"] == 3

    def test_inconsistent_equalities(self):
        atoms = [atom({"x": 1}, "=", 1), atom({"x": 1}, "=", 2)]
        assert check_linear(atoms)[0] == "unsat"

    def test_paper_phi4_linear_part(self):
        # 0 < y < v <= w with w < 0 is unsat.
        atoms = [
            atom({"y": -1}, "<", 0),
            atom({"y": 1, "v": -1}, "<", 0),
            atom({"v": 1, "w": -1}, "<=", 0),
            atom({"w": 1}, "<", 0),
        ]
        assert check_linear(atoms)[0] == "unsat"

    def test_constant_atoms(self):
        assert check_linear([atom({}, "<=", 0)])[0] == "sat"
        assert check_linear([atom({}, "<", 0)])[0] == "unsat"
        assert check_linear([atom({}, "=", 0)])[0] == "sat"

    def test_unbounded_direction(self):
        status, model = check_linear([atom({"x": -1}, "<=", -100)])
        assert status == "sat"
        assert model["x"] >= 100


class TestIntegerLayer:
    def test_fractional_equality_unsat(self):
        assert check_linear([atom({"x": 2}, "=", 1)], int_vars={"x"})[0] == "unsat"

    def test_branching_finds_integer(self):
        atoms = [atom({"x": -2}, "<=", -3), atom({"x": 2}, "<=", 5)]
        status, model = check_linear(atoms, int_vars={"x"})
        assert status == "sat"
        assert model["x"] == 2

    def test_tight_window_unsat(self):
        # 0 < 3x < 3 has no integer solution... wait x=0? 0<3x means x>0.
        atoms = [atom({"x": -3}, "<", 0), atom({"x": 3}, "<", 3)]
        assert check_linear(atoms, int_vars={"x"})[0] == "unsat"

    def test_mixed_int_real(self):
        atoms = [
            atom({"x": 1, "r": -1}, "=", 0),  # x = r
            atom({"r": 2}, "=", 3),  # r = 3/2
        ]
        assert check_linear(atoms, int_vars={"x"})[0] == "unsat"
        assert check_linear(atoms)[0] == "sat"

    def test_strict_tightening(self):
        # x < 1 and x > -1 over Int forces x = 0.
        atoms = [atom({"x": 1}, "<", 1), atom({"x": -1}, "<", 1)]
        status, model = check_linear(atoms, int_vars={"x"})
        assert status == "sat"
        assert model["x"] == 0

    @pytest.mark.parametrize("trial", range(25))
    def test_randomized_against_grid(self, trial):
        rng = random.Random(trial * 31337)
        names = ["x", "y", "z"][: rng.randint(1, 3)]
        atoms = []
        for _ in range(rng.randint(1, 6)):
            coeffs = {v: rng.randint(-3, 3) for v in names}
            op = rng.choice(["<=", "<", "="])
            atoms.append(atom(coeffs, op, rng.randint(-4, 4)))
        bounded = atoms + [
            a for v in names for a in (atom({v: 1}, "<=", 5), atom({v: -1}, "<=", 5))
        ]
        status, model = check_linear(bounded, int_vars=set(names))
        found = None
        for values in product(range(-5, 6), repeat=len(names)):
            candidate = dict(zip(names, map(F, values)))
            if all(a.evaluate(candidate) for a in bounded):
                found = candidate
                break
        assert status == ("sat" if found else "unsat")
        if status == "sat":
            assert all(a.evaluate(model) for a in bounded)
            assert all(model[v].denominator == 1 for v in names)


def _tighten_without_gcd(atom, int_vars):
    """The integer tightening before it divided by the gcd."""
    if atom.op not in ("<", "<=") or not atom.coeffs:
        return atom
    if any(v not in int_vars or c.denominator != 1 for v, c in atom.coeffs):
        return atom
    c = atom.constant
    if atom.op == "<":
        return LinearAtom(atom.coeffs, "<=", F(-((-c.numerator) // c.denominator) - 1))
    return LinearAtom(atom.coeffs, "<=", F(c.numerator // c.denominator))


def _scaled_problem(rng, names):
    """Random integer atoms whose coefficients share a factor."""
    atoms = []
    for _ in range(rng.randint(1, 5)):
        g = rng.choice([2, 3, 4, 6])
        coeffs = {v: g * rng.randint(-2, 2) for v in names}
        atoms.append(atom(coeffs, rng.choice(["<=", "<", "="]), rng.randint(-9, 9)))
    return atoms


class TestGcdTightening:
    def test_roadmap_example_is_decided(self):
        # 2*i0 - 2*d < -2 is satisfiable; without the gcd, branch &
        # bound chased fractional vertices to its node budget.
        atoms = [atom({"i0": 2, "d": -2}, "<", -2)]
        status, model = check_linear(atoms, int_vars={"i0", "d"})
        assert status == "sat"
        assert atoms[0].evaluate(model)

    def test_equality_the_gcd_does_not_divide_is_unsat(self):
        atoms = [atom({"x": 4, "y": 6}, "=", 5)]
        assert check_linear(atoms, int_vars={"x", "y"})[0] == "unsat"
        assert check_linear(atoms)[0] == "sat"  # over the rationals

    @pytest.mark.parametrize("trial", range(40))
    def test_scaled_atoms_against_grid(self, trial):
        rng = random.Random(trial * 7919)
        names = ["x", "y", "z"][: rng.randint(1, 3)]
        bounded = _scaled_problem(rng, names) + [
            a for v in names for a in (atom({v: 1}, "<=", 4), atom({v: -1}, "<=", 4))
        ]
        status, model = check_linear(bounded, int_vars=set(names))
        found = any(
            all(a.evaluate(dict(zip(names, map(F, values)))) for a in bounded)
            for values in product(range(-4, 5), repeat=len(names))
        )
        assert status == ("sat" if found else "unsat")
        if status == "sat":
            assert all(a.evaluate(model) for a in bounded)

    def test_no_definite_verdict_flips(self, monkeypatch):
        # Unbounded problems, where branch & bound can run out of nodes:
        # the gcd may turn an unknown into a verdict, never flip one.
        from repro.solver import linarith

        rng = random.Random(2024)
        problems = [_scaled_problem(rng, ["x", "y"]) for _ in range(150)]
        new = [check_linear(p, int_vars={"x", "y"}, max_branch_nodes=40)[0] for p in problems]
        monkeypatch.setattr(linarith, "_tighten_for_ints", _tighten_without_gcd)
        old = [check_linear(p, int_vars={"x", "y"}, max_branch_nodes=40)[0] for p in problems]
        pairs = list(zip(old, new))
        assert all(o == n for o, n in pairs if "unknown" not in (o, n))
        assert all(o == "unknown" for o, n in pairs if n == "unknown")
        assert any(o == "unknown" and n != "unknown" for o, n in pairs)

    def test_campaign_mutant_verdicts_never_flip(self, monkeypatch):
        # The sweep of tests/test_triage.py, for the gcd: every fusion
        # mutant of two integer corpora, solved with and without it.
        from repro.core.yinyang import iteration_rng
        from repro.errors import MutationError
        from repro.seeds import build_corpus
        from repro.smtlib.ast import fresh_scope
        from repro.solver import linarith
        from repro.solver.solver import ReferenceSolver, SolverConfig
        from repro.strategies.registry import make_strategy

        solver = ReferenceSolver(SolverConfig.deterministic())

        def verdicts():
            out = []
            for family in ("QF_LIA", "LIA"):
                corpus = build_corpus(family, scale=0.003, seed=5)
                strategy = make_strategy("fusion")
                for oracle in ("sat", "unsat"):
                    seeds = corpus.by_oracle(oracle)
                    work = strategy.prepare(
                        oracle, [s.script for s in seeds], [s.logic for s in seeds]
                    )
                    for index in range(8):
                        with fresh_scope():
                            try:
                                mutant = strategy.mutate(iteration_rng(6, index), work)
                            except MutationError:
                                continue
                            out.append(str(solver.check_script(mutant.script).result))
            return out

        new = verdicts()
        monkeypatch.setattr(linarith, "_tighten_for_ints", _tighten_without_gcd)
        old = verdicts()
        assert len(old) == len(new) and any(v != "unknown" for v in old)
        pairs = list(zip(old, new))
        assert all(o == n for o, n in pairs if "unknown" not in (o, n))
        assert all(o == "unknown" for o, n in pairs if n == "unknown")
