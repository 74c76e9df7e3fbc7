"""The exact arithmetic kernels: ICP and simplex branch & bound.

Every verdict of the reference solver rests on two exact-rational
kernels: ``nonlinear.icp_unsat`` (interval constraint propagation) and
``linarith.check_linear`` (simplex with branch & bound). A faster kernel
must give the same answers, so the goldens below pin a sha256 over every
call of each kernel in small deterministic campaigns: for ICP the
inputs, the answer and the number of contraction rounds; for the linear
check the inputs, the status and the model. They were recorded before
either kernel was optimized.
"""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.campaign.runner import deterministic_solvers, run_campaign
from repro.seeds import build_corpus
from repro.solver import linarith, nonlinear, strings
from repro.solver.linarith import DeltaRational, LinearAtom, Simplex
from repro.solver.nonlinear import (
    Interval,
    _iv_add,
    _iv_div,
    _iv_mul,
    _iv_pow,
    eval_poly,
    eval_poly_interval,
)

# name -> (family, corpus scale, corpus seed, iterations per cell,
# campaign seed, incremental). NRA, QF_NRA, LIA and QF_LRA are the
# campaigns of tests/test_refute_probes.py::TestJournalGoldens; QF_LIA
# adds integer ICP boxes, LIA-cold the deepest branch & bound.
KERNEL_CAMPAIGNS = {
    "NRA": ("NRA", 0.003, 7, 6, 7, True),
    "NRA-cold": ("NRA", 0.003, 7, 6, 7, False),
    "QF_NRA": ("QF_NRA", 0.003, 7, 6, 7, True),
    "QF_NRA-cold": ("QF_NRA", 0.003, 7, 6, 7, False),
    "LIA": ("LIA", 0.003, 7, 6, 7, True),
    "LIA-cold": ("LIA", 0.003, 7, 6, 7, False),
    "QF_LRA": ("QF_LRA", 0.003, 7, 6, 7, True),
    "QF_LRA-cold": ("QF_LRA", 0.003, 7, 6, 7, False),
    "QF_LIA": ("QF_LIA", 0.002, 7, 6, 7, True),
    "QF_LIA-cold": ("QF_LIA", 0.002, 7, 6, 7, False),
    "LRA": ("LRA", 0.003, 7, 6, 7, True),
    "QF_SLIA": ("QF_SLIA", 0.001, 3, 3, 3, True),
}

# name -> {kernel: [calls, sha256]}. The cold campaigns, QF_NRA-cold's
# ICP and LRA's linear check were re-pinned when a campaign cell began
# checking each mutant against both solvers in turn: the same calls,
# each with the same inputs and answer, interleaved in that order.
# LRA, QF_LIA, QF_LRA and QF_NRA were re-pinned when the warm SAT
# prototype was deleted: its searches made theory calls that the cold
# path does not make. Since then every incremental campaign's calls are
# its cold twin's calls, minus the theory memo's hits.
GOLDEN_KERNELS = {
    "NRA": {
        "icp": [57, "766c84f0a5e751c91d0f183eaa879dcf608639d5d7474c8501ea106d4c7e1d67"],
        "linear": [48, "84b7ed98c294c95eb8daeb27a422cbcdd5921b0263035d3f65f72178a241e050"],
    },
    "NRA-cold": {
        "icp": [57, "766c84f0a5e751c91d0f183eaa879dcf608639d5d7474c8501ea106d4c7e1d67"],
        "linear": [78, "ab587e9ea579cfcf43a9b19161af567d082e7d3901b4d2cdf8acdaac29185b35"],
    },
    "QF_NRA": {
        "icp": [85, "e2f99dee85a200004c43d1ea1955d6912f1868fc093d303297844dae9b2e4446"],
        "linear": [32, "dc4fe77c0af420b6bbfff927db89aa4e18f3326d9670f7a1ee695065a23402b6"],
    },
    "QF_NRA-cold": {
        "icp": [108, "9267cf9f6a6d6ead848e455b9b5859ba508c71ef2f10d410d8586fce3cbf47b8"],
        "linear": [42, "a2fcd11a675b560f8ed36435b62c7467db122d833994c79fecee4d5088fc8409"],
    },
    "LIA": {
        "icp": [0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
        "linear": [27, "f0107f69a8c28c953f737ef72207802c499e081583bd9c08d562d4140b8879c5"],
    },
    "LIA-cold": {
        "icp": [0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
        "linear": [60, "6eb87179c062b73b9f564f1c25d61df7c8d9562e563d1033052013a32f2166e0"],
    },
    "QF_LRA": {
        "icp": [4, "60a5c3b5ecbcb3e831124e6ad9e8fabb6725faf52f98a4abbab4b796caa6def0"],
        "linear": [110, "fe083b384d73b0a0a26e02053dc4cd7998c1403d3cc9a6823f9fba0fe87ccd75"],
    },
    "QF_LRA-cold": {
        "icp": [8, "e0a65f808865340138741e9312fc6807be699a42296161bc9a8c9f9c96bc7f35"],
        "linear": [222, "4c95155273efd4f43c6f75d9f81c34ea48c791c4ca2ecaf1ab540e601769fa1a"],
    },
    "QF_LIA": {
        "icp": [1, "825f7afb1cf78d3e09bc141a069e0758e0f8ba94568de440b1f7045013ee829f"],
        "linear": [123, "b97d8aee19d9f2536709c71576a13f2d3d103913bc6b847fba429016e456b2ca"],
    },
    "QF_LIA-cold": {
        "icp": [2, "f708fe6d3215002a4143d0de64ff5d1933a93184fe0cdc12f011cd44b6547d51"],
        "linear": [246, "346d133492e63fb50acc1da158f0dc40b2464e2a20c9c782b5ae8163d4d5fdc9"],
    },
    "LRA": {
        "icp": [9, "a9050c0138b0e8ff84262e45f70ba68cc4d9214c9d85fbe154b46ba61a207d22"],
        "linear": [104, "c88e1e4616e6bebdf45bda2ec3210be886ff3ee5421fb15ac67599729b6b58db"],
    },
    "QF_SLIA": {
        "icp": [0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
        "linear": [204, "2bcc3715cfa83ffe270799ea0f6be935f413af764e31ba61910862d703824715"],
    },
}


def _fraction_text(value):
    return None if value is None else str(value)


def _icp_record(atoms, variables, int_vars, kwargs, answer, rounds):
    return [
        "icp",
        [[repr(atom.poly), atom.op] for atom in atoms],
        list(variables),
        sorted(int_vars),
        sorted(kwargs.items()),
        answer,
        rounds,
    ]


def _linear_record(atoms, int_vars, kwargs, status, model):
    return [
        "linear",
        [[repr(atom.coeffs), atom.op, str(atom.constant)] for atom in atoms],
        sorted(int_vars),
        sorted(kwargs.items()),
        status,
        None if model is None else sorted((v, _fraction_text(x)) for v, x in model.items()),
    ]


class _Recorder:
    """Wraps both kernels and hashes every call, in call order."""

    def __init__(self):
        self.hashes = {"icp": hashlib.sha256(), "linear": hashlib.sha256()}
        self.calls = {"icp": 0, "linear": 0}
        self.rounds = 0

    def _add(self, kernel, record):
        self.calls[kernel] += 1
        self.hashes[kernel].update(json.dumps(record).encode() + b"\n")

    def install(self, monkeypatch):
        icp_unsat = nonlinear.icp_unsat
        contract = nonlinear._contract
        check_linear = linarith.check_linear

        def counting_contract(*args, **kwargs):
            self.rounds += 1
            return contract(*args, **kwargs)

        def recording_icp(atoms, variables, int_vars, **kwargs):
            self.rounds = 0
            answer = icp_unsat(atoms, variables, int_vars, **kwargs)
            self._add(
                "icp",
                _icp_record(atoms, variables, int_vars, kwargs, answer, self.rounds),
            )
            return answer

        def recording_linear(atoms, int_vars=(), **kwargs):
            atoms = list(atoms)
            status, model = check_linear(atoms, int_vars, **kwargs)
            self._add("linear", _linear_record(atoms, int_vars, kwargs, status, model))
            return status, model

        monkeypatch.setattr(nonlinear, "_contract", counting_contract)
        monkeypatch.setattr(nonlinear, "icp_unsat", recording_icp)
        monkeypatch.setattr(linarith, "check_linear", recording_linear)
        monkeypatch.setattr(strings, "check_linear", recording_linear)

    def digests(self):
        return {
            kernel: [self.calls[kernel], self.hashes[kernel].hexdigest()]
            for kernel in self.hashes
        }


def kernel_digests(name):
    """Run one kernel campaign; ``{kernel: [calls, sha256]}``."""
    family, scale, corpus_seed, iterations, seed, incremental = KERNEL_CAMPAIGNS[name]
    recorder = _Recorder()
    with pytest.MonkeyPatch.context() as monkeypatch:
        recorder.install(monkeypatch)
        run_campaign(
            {family: build_corpus(family, scale=scale, seed=corpus_seed)},
            iterations_per_cell=iterations,
            seed=seed,
            performance_threshold=None,
            solver_factory=deterministic_solvers,
            strategy="fusion",
            triage=True,
            incremental=incremental,
        )
    return recorder.digests()


class TestKernelGoldens:
    @pytest.mark.parametrize("name", sorted(KERNEL_CAMPAIGNS))
    def test_kernel_calls_match_golden(self, name):
        assert kernel_digests(name) == GOLDEN_KERNELS[name]


# The ICP campaigns with the most calls, and two hash seeds.
HASH_SEED_CAMPAIGNS = ("NRA", "QF_NRA-cold")


class TestHashSeedIndependence:
    """Kernel answers must not depend on ``PYTHONHASHSEED``.

    pytest, the CLI and every spawned fleet worker each draw their own
    hash seed, so an iteration order over a set of names inside a
    kernel could make two processes disagree on one campaign.
    """

    @pytest.mark.parametrize("hash_seed", ["1", "2"])
    def test_icp_golden_under_hash_seed(self, hash_seed):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")])
        )
        out = subprocess.run(
            [sys.executable, __file__, *HASH_SEED_CAMPAIGNS],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=300,
        )
        digests = json.loads(out.stdout.strip().splitlines()[-1])
        for name in HASH_SEED_CAMPAIGNS:
            assert digests[name]["icp"] == GOLDEN_KERNELS[name]["icp"]


# ---------------------------------------------------------------------------
# Soundness of the interval operations and of delta selection
# ---------------------------------------------------------------------------

_PROPERTIES = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

_RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=4)
_GAPS = st.one_of(
    st.none(), st.just(Fraction(0)), st.fractions(min_value=0, max_value=5, max_denominator=3)
)


@st.composite
def interval_with_point(draw):
    """A nonempty interval, open, closed or unbounded at either end, and
    a point inside it. Endpoints are ints or Fractions, as in ICP."""
    point = draw(_RATIONALS)
    below, above = draw(_GAPS), draw(_GAPS)
    lo = None if below is None else point - below
    hi = None if above is None else point + above
    lo_open = bool(below) and draw(st.booleans())
    hi_open = bool(above) and draw(st.booleans())
    if draw(st.booleans()):
        lo = lo if lo is None or lo.denominator != 1 else lo.numerator
        hi = hi if hi is None or hi.denominator != 1 else hi.numerator
    return Interval(lo, hi, lo_open, hi_open), point


def _member(value, iv):
    """Membership that honours open and unbounded endpoints exactly."""
    if iv.lo is not None and (value < iv.lo or (value == iv.lo and iv.lo_open)):
        return False
    if iv.hi is not None and (value > iv.hi or (value == iv.hi and iv.hi_open)):
        return False
    return True


def _closed_ends(iv):
    return [e for e, is_open in ((iv.lo, iv.lo_open), (iv.hi, iv.hi_open))
            if e is not None and not is_open]


def _attains_product(value, a, b):
    """Whether ``x * y == value`` for some ``x`` in ``a``, ``y`` in ``b``,
    for ``value`` an extreme product: zero needs a factor that attains
    zero; any other extremum needs a pair of closed endpoints."""
    if value == 0:
        return _member(0, a) or _member(0, b)
    return any(p * q == value for p in _closed_ends(a) for q in _closed_ends(b))


def _exact_endpoints(iv):
    return all(e is None or type(e) in (int, Fraction) for e in (iv.lo, iv.hi))


class TestIntervalSoundness:
    @_PROPERTIES
    @given(interval_with_point(), interval_with_point())
    def test_add_contains_point_sum(self, a, b):
        (ia, x), (ib, y) = a, b
        result = _iv_add(ia, ib)
        assert _exact_endpoints(result) and _member(x + y, result)

    @_PROPERTIES
    @given(interval_with_point(), interval_with_point())
    def test_mul_contains_point_product(self, a, b):
        (ia, x), (ib, y) = a, b
        result = _iv_mul(ia, ib)
        assert _exact_endpoints(result) and _member(x * y, result)
        assert result == _iv_mul(ib, ia)

    @_PROPERTIES
    @given(interval_with_point(), interval_with_point())
    @example((Interval(-1, 1), 1), (Interval(-1, 1, False, True), -1))
    @example((Interval(0, 2, True), 1), (Interval(None, 3), 0))
    def test_mul_endpoint_open_exactly_when_not_attained(self, a, b):
        (ia, _), (ib, _) = a, b
        result = _iv_mul(ia, ib)
        if result.lo is not None:
            assert result.lo_open != _attains_product(result.lo, ia, ib)
        if result.hi is not None:
            assert result.hi_open != _attains_product(result.hi, ia, ib)

    @_PROPERTIES
    @given(interval_with_point(), interval_with_point())
    def test_add_endpoint_open_exactly_when_not_attained(self, a, b):
        (ia, _), (ib, _) = a, b
        result = _iv_add(ia, ib)
        if result.lo is not None:
            assert result.lo_open == (ia.lo_open or ib.lo_open)
        if result.hi is not None:
            assert result.hi_open == (ia.hi_open or ib.hi_open)

    @_PROPERTIES
    @given(interval_with_point(), interval_with_point())
    def test_div_contains_point_quotient(self, a, b):
        (ia, x), (ib, y) = a, b
        result = _iv_div(ia, ib)
        assert _exact_endpoints(result)
        if y != 0:
            assert _member(x / y, result)

    @_PROPERTIES
    @given(interval_with_point(), st.integers(1, 4))
    def test_pow_contains_point_power(self, a, exp):
        ia, x = a
        result = _iv_pow(ia, exp)
        assert _exact_endpoints(result) and _member(x**exp, result)

    @_PROPERTIES
    @given(interval_with_point(), interval_with_point())
    def test_closed_bounded_product_is_tight(self, a, b):
        (ia, _), (ib, _) = a, b
        if None in (ia.lo, ia.hi, ib.lo, ib.hi) or ia.lo_open or ia.hi_open:
            return
        if ib.lo_open or ib.hi_open:
            return
        corners = [p * q for p in (ia.lo, ia.hi) for q in (ib.lo, ib.hi)]
        result = _iv_mul(ia, ib)
        assert result == Interval(min(corners), max(corners))

    @_PROPERTIES
    @given(
        st.dictionaries(
            st.sampled_from(
                [(), (("x", 1),), (("y", 1),), (("x", 2),), (("x", 1), ("y", 1)),
                 (("x", 1), ("y", 2)), (("y", 3),)]
            ),
            _RATIONALS,
            max_size=4,
        ),
        interval_with_point(),
        interval_with_point(),
    )
    def test_poly_interval_contains_point_value(self, poly, x, y):
        box = {"x": x[0], "y": y[0]}
        result = eval_poly_interval(poly, box)
        value = eval_poly(poly, {"x": x[1], "y": y[1]})
        assert _exact_endpoints(result) and _member(value, result)


_LINEAR_ATOMS = st.lists(
    st.builds(
        lambda coeffs, op, constant: LinearAtom.make(coeffs, op, constant),
        st.dictionaries(
            st.sampled_from(["a", "b", "c"]),
            st.integers(-3, 3).map(Fraction),
            min_size=1,
            max_size=3,
        ),
        st.sampled_from(["<", "<=", "="]),
        st.integers(-4, 4).map(Fraction),
    ),
    min_size=1,
    max_size=5,
)


_PARTS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_INFINITESIMALS = st.sampled_from([0, Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2)])


@st.composite
def delta_gap(draw):
    """``(c, k)`` with ``c + k*delta >= 0`` for every small enough delta."""
    c = draw(st.fractions(min_value=0, max_value=1, max_denominator=4))
    k = draw(_INFINITESIMALS)
    return (c, abs(k)) if c == 0 else (c, k)


@st.composite
def bounded_assignment(draw):
    """Delta-rational values with optional bounds that each satisfies."""
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        value = DeltaRational(draw(_PARTS), draw(_INFINITESIMALS))
        lower = upper = None
        if draw(st.booleans()):
            gap_c, gap_k = draw(delta_gap())
            lower = DeltaRational(value.c - gap_c, value.k - gap_k)
        if draw(st.booleans()):
            gap_c, gap_k = draw(delta_gap())
            upper = DeltaRational(value.c + gap_c, value.k + gap_k)
        rows.append((value, lower, upper))
    return rows


def _assert_bounds_hold(simplex, delta):
    for bounds, is_lower in ((simplex.lower, True), (simplex.upper, False)):
        for var, bound in bounds.items():
            value = simplex.assign[var].concretize(delta)
            limit = bound.concretize(delta)
            assert value >= limit if is_lower else value <= limit


class TestChooseDelta:
    @_PROPERTIES
    @given(bounded_assignment())
    @example([(DeltaRational(Fraction(1, 4), -1), DeltaRational(0), None)])
    @example([(DeltaRational(0, 1), None, DeltaRational(Fraction(1, 3)))])
    def test_delta_keeps_every_bound_of_an_assignment(self, rows):
        simplex = Simplex()
        for index, (value, lower, upper) in enumerate(rows):
            name = f"v{index}"
            simplex.assign[name] = value
            if lower is not None:
                simplex.lower[name] = lower
            if upper is not None:
                simplex.upper[name] = upper
        delta = simplex._choose_delta()
        assert type(delta) is Fraction and delta > 0
        _assert_bounds_hold(simplex, delta)

    @_PROPERTIES
    @given(_LINEAR_ATOMS)
    def test_delta_keeps_every_asserted_bound_after_check(self, atoms):
        simplex = Simplex()
        if not all(simplex.assert_atom(atom) for atom in atoms):
            return
        if simplex.check() != "sat":
            return
        delta = simplex._choose_delta()
        assert type(delta) is Fraction and delta > 0
        _assert_bounds_hold(simplex, delta)
        model = simplex.model(sorted({v for atom in atoms for v, _ in atom.coeffs}))
        assert all(atom.evaluate(model) for atom in atoms)


# Prints the digests of the named campaigns (see TestHashSeedIndependence).
if __name__ == "__main__":
    print(json.dumps({name: kernel_digests(name) for name in sys.argv[1:]}))
