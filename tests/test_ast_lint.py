"""AST lint: term nodes must be built through the interning constructors.

Direct ``App(...)``/``Var(...)``/``Const(...)``/``Quantifier(...)``
calls bypass the per-scope intern table, producing un-shared nodes that
defeat identity-keyed memo tables and O(1) equality. Only
``repro/smtlib`` (the term layer itself) may call the dataclass
constructors; everything else goes through ``mk_*`` or the typechecked
``app()``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

_FORBIDDEN = {"App", "Var", "Const", "Quantifier"}

# The term layer itself: definitions, interning, and its internal users.
_ALLOWED = {SRC / "smtlib" / "ast.py"}


def _modules():
    return sorted(p for p in SRC.rglob("*.py") if p not in _ALLOWED)


def _direct_constructions(path):
    """(line, name) for every direct term-constructor call in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Name) and fn.id in _FORBIDDEN:
                hits.append((node.lineno, fn.id))
            elif isinstance(fn, ast.Attribute) and fn.attr in _FORBIDDEN:
                hits.append((node.lineno, fn.attr))
    return hits


@pytest.mark.parametrize("path", _modules(), ids=lambda p: str(p.relative_to(SRC)))
def test_no_direct_term_construction(path):
    hits = _direct_constructions(path)
    assert not hits, (
        f"{path.relative_to(SRC)} constructs term nodes directly "
        f"(use mk_app/mk_var/mk_const/mk_quantifier or typecheck.app): {hits}"
    )


def test_lint_actually_detects_violations(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("t = App('and', (a, b), BOOL)\nu = x.Const(1, INT)\n")
    assert _direct_constructions(bad) == [(1, "App"), (2, "Const")]


# ---------------------------------------------------------------------------
# Strategy-pipeline lint: the campaign core must stay workload-agnostic.
# ---------------------------------------------------------------------------

# Mutator modules the strategy-agnostic loop must never reach into;
# they are only reachable through repro.strategies.
_MUTATOR_MODULES = {"repro.core.fusion", "repro.core.concatfuzz"}


def _mutator_imports(path):
    """(line, module) for every import of a mutator module in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in _MUTATOR_MODULES:
                    hits.append((node.lineno, alias.name))
        elif isinstance(node, ast.ImportFrom):
            if node.module in _MUTATOR_MODULES:
                hits.append((node.lineno, node.module))
    return hits


def test_yinyang_has_no_fusion_imports():
    """The main loop drives strategies, not fusion: a fusion-specific
    import creeping back into yinyang.py would quietly re-monolith the
    pipeline."""
    hits = _mutator_imports(SRC / "core" / "yinyang.py")
    assert not hits, (
        "repro/core/yinyang.py must stay strategy-agnostic; route mutation "
        f"through repro.strategies instead of importing: {hits}"
    )


def test_checker_has_no_mutator_imports():
    """The shared checker classifies any strategy's mutants; it must not
    depend on a particular mutator either."""
    hits = _mutator_imports(SRC / "core" / "checker.py")
    assert not hits


def test_mutator_import_lint_detects_violations(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from repro.core.fusion import fuse\nimport repro.core.concatfuzz\n"
    )
    assert _mutator_imports(bad) == [
        (1, "repro.core.fusion"),
        (2, "repro.core.concatfuzz"),
    ]


# ---------------------------------------------------------------------------
# Theory-registry lint: sorts and operator tables live in repro/smtlib.
# ---------------------------------------------------------------------------

# Only the sort layer itself may call the Sort dataclass constructor;
# everyone else uses the interned singletons (BOOL/INT/...) or the
# indexed-family constructors (bitvec_sort). A stray Sort("Int") would
# still compare equal but evades the intern table's identity guarantee
# and bypasses the registry as the one place sorts are defined.
_SMTLIB = SRC / "smtlib"


def _sort_constructions(path):
    """(line,) for every direct ``Sort(...)`` call in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else (
                fn.attr if isinstance(fn, ast.Attribute) else None
            )
            if name == "Sort":
                hits.append((node.lineno,))
    return hits


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.rglob("*.py") if _SMTLIB not in p.parents),
    ids=lambda p: str(p.relative_to(SRC)),
)
def test_no_direct_sort_construction_outside_smtlib(path):
    hits = _sort_constructions(path)
    assert not hits, (
        f"{path.relative_to(SRC)} constructs Sort objects directly; use the "
        f"interned singletons or an indexed constructor like bitvec_sort "
        f"(lines {[h[0] for h in hits]})"
    )


def test_sort_lint_detects_violations(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("s = Sort('Int')\nt = sorts.Sort('(_ BitVec 8)')\n")
    assert _sort_constructions(bad) == [(1,), (2,)]


def _operator_tables(path, op_names, threshold=3):
    """(line, keys) for dict literals keyed by ``threshold``+ operator
    names — the shape of an ad-hoc operator dispatch/signature table.

    Such tables belong in the theory registry (``repro/smtlib``): a
    per-module copy silently falls out of sync the moment a theory adds
    an operator, which is exactly the drift the registry refactor
    removed.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Dict):
            continue
        keys = [
            k.value
            for k in node.keys
            if isinstance(k, ast.Constant) and isinstance(k.value, str)
        ]
        ops = [k for k in keys if k in op_names]
        if len(ops) >= threshold and len(ops) == len(keys):
            hits.append((node.lineno, tuple(ops)))
    return hits


def _registered_op_names():
    from repro.smtlib import theory

    names = set()
    for t in theory.theories():
        names.update(t.handlers)
        names.update(t.aliases)
    return names


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.rglob("*.py") if _SMTLIB not in p.parents),
    ids=lambda p: str(p.relative_to(SRC)),
)
def test_no_adhoc_operator_tables_outside_smtlib(path):
    hits = _operator_tables(path, _registered_op_names())
    assert not hits, (
        f"{path.relative_to(SRC)} keeps an ad-hoc operator table; register "
        f"it with the theory (repro.smtlib.theory) instead: {hits}"
    )


def test_operator_table_lint_detects_violations(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "HANDLERS = {'bvadd': f, 'bvsub': g, 'bvmul': h}\n"
        "ok = {'bvadd': f, 'note': 1}\n"  # mixed keys: not an op table
    )
    hits = _operator_tables(bad, {"bvadd", "bvsub", "bvmul"})
    assert hits == [(1, ("bvadd", "bvsub", "bvmul"))]


# ---------------------------------------------------------------------------
# Execution-path lint: one worker path, the supervised lease fleet.
# ---------------------------------------------------------------------------

# Every multi-worker run goes through supervised leases on a worker
# fleet (repro/distributed); a pool executor anywhere under src/ would
# be a second, unsupervised way to run iterations.
_EXECUTORS = {"ProcessPoolExecutor", "ThreadPoolExecutor"}


def _executor_uses(path):
    """(line, name) for every reference to a pool executor in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            hits += [(node.lineno, a.name) for a in node.names if a.name in _EXECUTORS]
        elif isinstance(node, ast.Name) and node.id in _EXECUTORS:
            hits.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in _EXECUTORS:
            hits.append((node.lineno, node.attr))
    return sorted(hits)


@pytest.mark.parametrize(
    "path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC))
)
def test_pool_executors_only_in_parallel(path):
    # The name predates the fleet; no file, core/parallel.py included,
    # may build a pool executor now.
    hits = _executor_uses(path)
    assert not hits, (
        f"{path.relative_to(SRC)} builds its own executor; run shards as "
        f"supervised leases on the worker fleet instead: {hits}"
    )


def test_executor_lint_detects_violations(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from concurrent.futures import ThreadPoolExecutor\n"
        "import concurrent.futures as cf\n"
        "pool = cf.ProcessPoolExecutor(2)\n"
    )
    assert _executor_uses(bad) == [
        (1, "ThreadPoolExecutor"),
        (3, "ProcessPoolExecutor"),
    ]


# ---------------------------------------------------------------------------
# Lease-planner lint: one planner, owned by repro/distributed/coordinator.py.
# ---------------------------------------------------------------------------

# Cells become leases in exactly one place: the Coordinator builds the
# one Supervisor and every ShardTask (the wire codec rebuilds tasks it
# receives). A Supervisor or ShardTask built anywhere else would be a
# second lease planner beside the campaign's.
_COORDINATOR = SRC / "distributed" / "coordinator.py"
_LEASE_BUILDERS = {
    "Supervisor": {_COORDINATOR},
    "ShardTask": {_COORDINATOR, SRC / "distributed" / "protocol.py"},
}


def _lease_constructions(path, name):
    """(line,) for every ``name(...)`` call in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            fn = node.func
            called = fn.id if isinstance(fn, ast.Name) else (
                fn.attr if isinstance(fn, ast.Attribute) else None
            )
            if called == name:
                hits.append((node.lineno,))
    return hits


@pytest.mark.parametrize("name", sorted(_LEASE_BUILDERS))
@pytest.mark.parametrize(
    "path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC))
)
def test_leases_are_planned_only_by_the_coordinator(path, name):
    if path in _LEASE_BUILDERS[name]:
        return
    hits = _lease_constructions(path, name)
    assert not hits, (
        f"{path.relative_to(SRC)} constructs {name} objects; plan leases "
        f"through repro.distributed.coordinator.Coordinator instead: {hits}"
    )


def test_lease_planner_lint_detects_violations(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "sup = Supervisor(backend)\n"
        "task = parallel.ShardTask(oracle='sat')\n"
        "lease = sup.lease(key, task, indices)\n"
    )
    assert _lease_constructions(bad, "Supervisor") == [(1,)]
    assert _lease_constructions(bad, "ShardTask") == [(2,)]


# ---------------------------------------------------------------------------
# Cell-loop lint: one loop runs iterations.
# ---------------------------------------------------------------------------

# Serial campaigns, fleet leases, YinYang.test and test_mixed all run
# their iterations through YinYang.run_cell, the one caller of the
# iteration body. A second caller would be a second execution path,
# free to skip the lease hook, the checkpoints or the once-per-cell
# profiling samples.
_ITERATION_BODY = "_one_iteration"


def _callers(path, name):
    """(enclosing function, line) for every ``name(...)`` call in ``path``."""

    class Visitor(ast.NodeVisitor):
        def __init__(self):
            self.functions = []
            self.hits = []

        def visit_FunctionDef(self, node):
            self.functions.append(node.name)
            self.generic_visit(node)
            self.functions.pop()

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Call(self, node):
            fn = node.func
            called = fn.id if isinstance(fn, ast.Name) else (
                fn.attr if isinstance(fn, ast.Attribute) else None
            )
            if called == name:
                enclosing = self.functions[-1] if self.functions else None
                hits.append((enclosing, node.lineno))
            self.generic_visit(node)

    hits = []
    Visitor().visit(ast.parse(path.read_text(), filename=str(path)))
    return hits


def test_iteration_body_has_one_caller():
    callers = [
        (str(path.relative_to(SRC)), function)
        for path in sorted(SRC.rglob("*.py"))
        for function, _line in _callers(path, _ITERATION_BODY)
    ]
    assert callers == [("core/yinyang.py", "run_cell")], (
        f"{_ITERATION_BODY} must be called only by YinYang.run_cell, the "
        f"one cell loop; found callers: {callers}"
    )


def test_iteration_body_lint_detects_violations(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def run_cell(self):\n"
        "    for i in indices:\n"
        "        self._one_iteration(i)\n"
        "def run_iterations(tool):\n"
        "    def inner(i):\n"
        "        return tool._one_iteration(i)\n"
    )
    assert _callers(bad, _ITERATION_BODY) == [("run_cell", 3), ("inner", 6)]


# ---------------------------------------------------------------------------
# Solver-interface lint: one check_script call shape.
# ---------------------------------------------------------------------------

# Every layer (checker, fault injector, guard, chaos wrapper) calls
# ``check_script(script, directive=..., session=...)``; a solver that
# drops either parameter would need the call-shape fallbacks back.
_CHECK_SCRIPT_PARAMS = ("directive", "session")


def _check_script_signatures(path):
    """(line, missing params) for every ``check_script`` defined in
    ``path`` without a ``directive`` or ``session`` parameter."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "check_script":
            args = node.args
            names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            missing = tuple(p for p in _CHECK_SCRIPT_PARAMS if p not in names)
            if missing:
                hits.append((node.lineno, missing))
    return hits


@pytest.mark.parametrize(
    "path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC))
)
def test_check_script_takes_directive_and_session(path):
    hits = _check_script_signatures(path)
    assert not hits, (
        f"{path.relative_to(SRC)} defines check_script without the "
        f"directive/session parameters every caller passes: {hits}"
    )


def test_check_script_lint_detects_violations(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "class A:\n"
        "    def check_script(self, script):\n"
        "        pass\n"
        "class B:\n"
        "    def check_script(self, script, directive=None):\n"
        "        pass\n"
        "class C:\n"
        "    def check_script(self, script, directive=None, session=None):\n"
        "        pass\n"
    )
    assert _check_script_signatures(bad) == [
        (2, ("directive", "session")),
        (5, ("session",)),
    ]
