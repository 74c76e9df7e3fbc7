"""Unit tests for the bounded string theory solver."""

import time

import pytest

from repro.smtlib import builder as b
from repro.solver import nonlinear, strings
from repro.solver.budget import WorkMeter
from repro.solver.dpllt import _check_theory
from repro.solver.strings import StringConfig, check_strings, involves_strings


def lits(*pairs):
    return list(pairs)


S = b.string_var("s")
T = b.string_var("t")
U = b.string_var("u")
I = b.int_var("i")


class TestInvolvesStrings:
    def test_string_var(self):
        assert involves_strings([b.eq(S, T)])

    def test_pure_arith(self):
        assert not involves_strings([b.gt(I, 0)])

    def test_len_bridge(self):
        assert involves_strings([b.gt(b.length(S), I)])


class TestSatisfiable:
    def test_concat_equation(self):
        status, model = check_strings(lits((b.eq(S, b.concat(T, b.lift("x"))), True)))
        assert status == "sat"
        assert model["s"] == model["t"] + "x"

    def test_length_pin(self):
        status, model = check_strings(
            lits((b.eq(b.length(S), 2), True), (b.prefixof(b.lift("a"), S), True))
        )
        assert status == "sat"
        assert len(model["s"]) == 2 and model["s"].startswith("a")

    def test_regex_membership(self):
        regex = b.re_star(b.to_re(b.lift("ab")))
        status, model = check_strings(
            lits((b.in_re(S, regex), True), (b.eq(b.length(S), 4), True))
        )
        assert status == "sat"
        assert model["s"] == "abab"

    def test_negative_literal(self):
        status, model = check_strings(
            lits((b.eq(S, b.lift("")), False), (b.le(b.length(S), 1), True))
        )
        assert status == "sat"
        assert model["s"] != ""

    def test_to_int_image(self):
        status, model = check_strings(
            lits((b.eq(b.str_to_int(S), 7), True), (b.eq(b.length(S), 2), True))
        )
        assert status == "sat"
        assert model["s"] == "07"

    def test_numeric_bridge_variable(self):
        status, model = check_strings(
            lits((b.eq(I, b.length(S)), True), (b.eq(S, b.lift("abc")), True))
        )
        assert status == "sat"
        assert model["i"] == 3

    def test_numeric_position_probe(self):
        status, model = check_strings(
            lits((b.eq(b.at(b.lift("hello"), I), b.lift("l")), True))
        )
        assert status == "sat"
        assert model["i"] in (2, 3)

    def test_derived_variable_can_exceed_length_cap(self):
        # s = t ++ u ++ "abc": s's value is derived, not enumerated, so
        # it may be longer than max_len_per_var.
        config = StringConfig(max_len_per_var=2, max_total_len=4)
        status, model = check_strings(
            lits(
                (b.eq(S, b.concat(T, U, b.lift("abc"))), True),
                (b.eq(b.length(T), 2), True),
                (b.eq(b.length(U), 2), True),
            ),
            config,
        )
        assert status == "sat"
        assert len(model["s"]) == 7


class TestUnsatisfiable:
    def test_length_abstraction_conflict(self):
        status, _ = check_strings(
            lits(
                (b.eq(S, b.concat(T, b.lift("x"))), True),
                (b.eq(b.length(S), b.length(T)), True),
            )
        )
        assert status == "unsat"

    def test_negative_length(self):
        status, _ = check_strings(lits((b.lt(b.length(S), 0), True)))
        assert status == "unsat"

    def test_regex_stride_conflict(self):
        regex = b.re_star(b.to_re(b.lift("aa")))
        status, _ = check_strings(
            lits((b.in_re(S, regex), True), (b.eq(b.length(S), 3), True))
        )
        assert status == "unsat"

    def test_empty_regex(self):
        regex = b.re_inter(b.to_re(b.lift("a")), b.to_re(b.lift("b")))
        status, _ = check_strings(lits((b.in_re(S, regex), True)))
        assert status == "unsat"

    def test_pinned_conflict(self):
        status, _ = check_strings(
            lits((b.eq(S, b.lift("a")), True), (b.eq(S, b.lift("b")), True))
        )
        assert status == "unsat"

    def test_to_int_conflicting_images(self):
        status, _ = check_strings(
            lits(
                (b.eq(b.str_to_int(S), 3), True),
                (b.eq(b.str_to_int(S), 4), True),
            )
        )
        assert status == "unsat"

    def test_contains_vs_pin(self):
        status, _ = check_strings(
            lits((b.contains(S, b.lift("z")), True), (b.eq(S, b.lift("aa")), True))
        )
        assert status == "unsat"

    def test_small_model_assumption_off_gives_unknown(self):
        config = StringConfig(small_model_assumption=False)
        status, _ = check_strings(
            lits((b.contains(S, b.lift("z")), True), (b.eq(S, b.lift("aa")), True)),
            config,
        )
        assert status == "unknown"


class TestBudgets:
    def test_budget_truncation_reports_unknown(self):
        config = StringConfig(max_assignments=5, max_len_per_var=3)
        status, _ = check_strings(
            lits(
                (b.contains(S, b.lift("q")), True),
                (b.contains(T, b.lift("q")), True),
                (b.contains(U, b.lift("q")), True),
            ),
            config,
        )
        # 'q' is outside the inferred alphabet, search cannot succeed;
        # with a tiny budget the solver must admit unknown (not unsat).
        assert status in ("unknown", "unsat")

    def test_zero_length_only(self):
        config = StringConfig(max_len_per_var=0, max_total_len=0)
        status, model = check_strings(lits((b.eq(b.length(S), 0), True)), config)
        assert status == "sat"
        assert model["s"] == ""


class TestWorkMeter:
    # s has length i > 1, and i + 0 = i leaves residual arithmetic at
    # every leaf of the search.
    LITERALS = lits(
        (b.eq(b.length(S), I), True),
        (b.gt(I, 1), True),
    )

    def test_expired_meter_answers_budget_unknown(self):
        expired = WorkMeter(deadline=float("-inf"))
        assert _check_theory(self.LITERALS, StringConfig(), 0, expired) == (
            "unknown",
            None,
            "budget",
        )
        assert check_strings(self.LITERALS, StringConfig(), 0, expired) == (
            "unknown",
            None,
        )

    def test_residual_arithmetic_runs_under_the_deadline(self, monkeypatch):
        check_nonlinear = nonlinear.check_nonlinear
        meters = []

        def recording(*args, **kwargs):
            meters.append(kwargs["meter"])
            return check_nonlinear(*args, **kwargs)

        monkeypatch.setattr(strings.nonlinear, "check_nonlinear", recording)
        meter = WorkMeter(enumeration=7, deadline=time.monotonic() + 3600)
        status, model = check_strings(self.LITERALS, StringConfig(), 0, meter)
        assert status == "sat" and len(model["s"]) == model["i"] > 1
        assert meters
        for residual in meters:
            assert residual.deadline == meter.deadline
            assert residual.enumeration == WorkMeter().enumeration

    def test_expired_residual_check_answers_unknown(self):
        _kind, atom = nonlinear.atom_to_poly(b.gt(I, 0), True)
        expired = WorkMeter(deadline=float("-inf"))
        assert nonlinear.check_nonlinear([atom], {"i"})[0] == "sat"
        assert nonlinear.check_nonlinear([atom], {"i"}, meter=expired)[0] == "unknown"

    def test_meter_limit_replaces_the_config_limit(self):
        literals = lits((b.eq(b.concat(S, T), b.concat(T, S)), False))
        config = StringConfig(max_assignments=30000)
        assert check_strings(literals, config)[0] == "sat"
        tiny = WorkMeter(assignments=1)
        assert check_strings(literals, config, 0, tiny)[0] == "unknown"
