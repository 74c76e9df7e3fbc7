"""The theory registry: the single plug-point for SMT theories.

Before this module, theory knowledge was scattered across the stack —
the typecheck dispatch table knew the operators, the evaluator knew the
lazy connectives, the string solver kept its own operator set, tseitin
hard-coded the boolean connectives, triage hard-coded which operators
are expensive, and the fusion/seed/fault layers each listed the sorts
they understood. Adding a theory meant editing all of them in sync.

Now each theory registers one :class:`Theory` record describing what it
contributes, and every consumer derives its tables from the registry:

- ``smtlib.typecheck`` merges the per-theory handler tables into its
  dispatch table (handler *identity* defines the OpFuzz type-equivalence
  classes, so two operators registered with the same handler object are
  mutation partners);
- ``semantics.evaluator`` takes its lazy-connective set and per-theory
  evaluation hooks from here;
- ``solver.tseitin`` takes the boolean connectives, ``solver.strings``
  its operator set, and ``solver.dpllt`` routes theory literals to the
  backend named by the owning theory;
- ``campaign.triage`` takes the difficulty-feature operator sets;
- ``core.fusion`` takes the fusible sorts (in registration order, so
  appending a theory never perturbs existing RNG draw sequences);
- the parser/printer consult the indexed-sort constructors, indexed
  operators, literal hooks and constant printers.

Registration happens at import of :mod:`repro.smtlib` (the package
``__init__`` imports ``typecheck`` — core/arithmetic/strings — then
``bitvec``), so every consumer that imports anything under
``repro.smtlib`` sees the complete registry. The merged tables exposed
here are *live* objects updated in place by :func:`register_theory`;
consumers may hold references, and cache derived structures against
:func:`registry_version`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError


class TheoryError(ReproError):
    """A theory registration conflicts with an existing one."""


@dataclass(frozen=True)
class Theory:
    """One theory's contribution to the stack.

    ``handlers`` maps canonical operator names to typecheck handlers;
    sharing a handler object between two operators declares them
    type-equivalent (OpFuzz mutation partners). ``solver_backend`` names
    the DPLL(T) theory backend that decides this theory's literals
    (``"nonlinear"``, ``"strings"``, ``"bitblast"``; empty for the
    boolean core, which the SAT layer handles itself).
    """

    name: str
    sorts: tuple = ()
    handlers: dict = field(default_factory=dict)
    aliases: dict = field(default_factory=dict)
    lazy_ops: tuple = ()
    connectives: tuple = ()
    hard_mul_ops: tuple = ()
    hard_div_ops: tuple = ()
    fusible_sorts: tuple = ()
    fusion_schemes: tuple = ()
    logics: tuple = ()
    seed_families: tuple = ()
    solver_backend: str = ""

    @property
    def ops(self):
        """The theory's canonical operator names, sorted."""
        return tuple(sorted(self.handlers))


_THEORIES = {}  # name -> Theory, insertion-ordered (registration order)

# Live merged tables: mutated in place on registration so consumers may
# hold direct references (e.g. typecheck's dispatch dict).
_HANDLER_TABLE = {}
_ALIAS_TABLE = {}
_ALL_OPS = set()
_OP_THEORY = {}

# Syntax/semantics hooks for theories whose literals or operators do
# not fit the fixed lexer/parser/printer/evaluator grammar.
_CONST_PRINTERS = []  # (sort_predicate, fn(value, sort) -> str)
_EVAL_HOOKS = []  # (op_predicate, fn(op, args, term, model) -> value)
_LITERAL_HOOKS = []  # fn(token_text) -> Const | None
_INDEXED_SORTS = {}  # head symbol, e.g. "BitVec" -> fn(*indices) -> Sort
_INDEXED_OPS = []  # (op_prefix, handler(op, args) -> Term)

_VERSION = 0


def _bump():
    global _VERSION
    _VERSION += 1


def registry_version():
    """A counter bumped on every registration (for derived-table caches)."""
    return _VERSION


def register_theory(theory):
    """Register a theory; raises :class:`TheoryError` on any collision."""
    if theory.name in _THEORIES:
        raise TheoryError(f"theory {theory.name!r} already registered")
    for op in theory.handlers:
        if op in _HANDLER_TABLE:
            raise TheoryError(
                f"operator {op!r} of theory {theory.name!r} already "
                f"belongs to theory {_OP_THEORY[op]!r}"
            )
    for alias, target in theory.aliases.items():
        if alias in _ALIAS_TABLE and _ALIAS_TABLE[alias] != target:
            raise TheoryError(f"alias {alias!r} already maps to {_ALIAS_TABLE[alias]!r}")
    _THEORIES[theory.name] = theory
    _HANDLER_TABLE.update(theory.handlers)
    _ALIAS_TABLE.update(theory.aliases)
    _ALL_OPS.update(theory.handlers)
    for op in theory.handlers:
        _OP_THEORY[op] = theory.name
    _bump()
    return theory


def theories():
    """All registered theories, in registration order."""
    return tuple(_THEORIES.values())


def theory(name):
    """The registered theory called ``name`` (KeyError if absent)."""
    return _THEORIES[name]


def value_theories():
    """Theories contributing value sorts/logics (everything but core)."""
    return tuple(t for t in _THEORIES.values() if t.logics)


def op_theory(op):
    """The name of the theory owning canonical operator ``op``, or ``""``."""
    return _OP_THEORY.get(op, "")


def handler_table():
    """The live merged op -> typecheck-handler dict."""
    return _HANDLER_TABLE


def alias_table():
    """The live merged alias -> canonical-op dict."""
    return _ALIAS_TABLE


def all_ops():
    """The live set of all canonical operator names."""
    return _ALL_OPS


def theory_ops(name):
    """The operator set of one theory, as a frozenset."""
    return frozenset(_THEORIES[name].handlers)


def lazy_ops():
    """Operators the evaluator must short-circuit, across all theories."""
    out = []
    for t in _THEORIES.values():
        out.extend(t.lazy_ops)
    return frozenset(out)


def connectives():
    """Boolean-structure operators the tseitin layer may decompose."""
    out = []
    for t in _THEORIES.values():
        out.extend(t.connectives)
    return frozenset(out)


def hard_mul_ops():
    """Operators that make a term nonlinear-hard via non-constant factors."""
    out = []
    for t in _THEORIES.values():
        out.extend(t.hard_mul_ops)
    return frozenset(out)


def hard_div_ops():
    """Operators that are hard when their second argument is non-constant."""
    out = []
    for t in _THEORIES.values():
        out.extend(t.hard_div_ops)
    return frozenset(out)


def fusible_sorts():
    """Sorts the fusion layer may pair variables over, in registration
    order (appending a theory never reorders existing draws)."""
    out = []
    for t in _THEORIES.values():
        out.extend(t.fusible_sorts)
    return tuple(out)


def supported_logics():
    """All logic names contributed by registered theories, sorted."""
    out = set()
    for t in _THEORIES.values():
        out.update(t.logics)
    return tuple(sorted(out))


# -- syntax/semantics hooks ------------------------------------------------


def register_const_printer(predicate, printer):
    """Register a constant printer: ``printer(value, sort) -> str`` for
    sorts accepted by ``predicate(sort)``."""
    _CONST_PRINTERS.append((predicate, printer))
    _bump()


def const_printer_for(sort):
    """The registered constant printer for ``sort``, or ``None``."""
    for predicate, printer in _CONST_PRINTERS:
        if predicate(sort):
            return printer
    return None


def register_eval_hook(predicate, evaluator):
    """Register an evaluation hook: ``evaluator(op, args, term, model)``
    for canonical operators accepted by ``predicate(op)``."""
    _EVAL_HOOKS.append((predicate, evaluator))
    _bump()


def evaluator_for(op):
    """The registered evaluation hook handling ``op``, or ``None``."""
    for predicate, evaluator in _EVAL_HOOKS:
        if predicate(op):
            return evaluator
    return None


def register_literal_hook(hook):
    """Register a literal parser: ``hook(text) -> Const | None`` for
    symbol tokens the fixed atom grammar does not recognize."""
    _LITERAL_HOOKS.append(hook)
    _bump()


def parse_literal(text):
    """The constant a registered literal hook decodes from ``text``, or
    ``None`` if no hook claims it."""
    for hook in _LITERAL_HOOKS:
        const = hook(text)
        if const is not None:
            return const
    return None


def register_indexed_sort(head, constructor):
    """Register an indexed sort family: ``(_ head i...)`` parses via
    ``constructor(*indices)``."""
    if head in _INDEXED_SORTS:
        raise TheoryError(f"indexed sort {head!r} already registered")
    _INDEXED_SORTS[head] = constructor
    _bump()


def indexed_sort(head, indices):
    """Build the indexed sort ``(_ head i...)``; KeyError if unknown."""
    return _INDEXED_SORTS[head](*indices)


def is_indexed_sort_head(head):
    """True if ``head`` names a registered indexed sort family."""
    return head in _INDEXED_SORTS


def register_indexed_op(prefix, handler):
    """Register an indexed operator family, spelled ``(_ name i...)`` and
    carried as the full op string; ``handler(op, args)`` typechecks it."""
    _INDEXED_OPS.append((prefix, handler))
    _bump()


def indexed_handler_for(op):
    """The typecheck handler of an indexed operator spelling, or ``None``."""
    for prefix, handler in _INDEXED_OPS:
        if op.startswith(prefix):
            return handler
    return None


def is_indexed_op(op):
    """True if ``op`` is a registered indexed-operator spelling."""
    return indexed_handler_for(op) is not None
