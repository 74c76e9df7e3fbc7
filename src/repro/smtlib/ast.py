"""Abstract syntax for SMT-LIB terms, commands, and scripts.

Terms are immutable, structurally hashable, and **hash-consed**: the
interning constructors :func:`mk_const`, :func:`mk_var`, :func:`mk_app`
and :func:`mk_quantifier` return the *same object* for structurally
equal terms built within one interning scope, so equality checks and
dict probes are usually resolved by identity. Every node carries
precomputed metadata — a cached structural hash, its AST node count and
depth — and lazily caches its free-variable set, which the iterative
DAG traversals below (:func:`substitute`, :func:`count_occurrences`,
:func:`free_vars`, :func:`map_terms`) use to visit shared subterms once
per operation instead of once per occurrence.

The intern table is thread-local and scoped by :func:`fresh_scope`
(alongside the gensym counter): each YinYang iteration gets a fresh
table that is dropped on exit, so memory stays bounded and worker
processes/threads never share mutable interning state. Client code
outside :mod:`repro.smtlib` must construct terms through the ``mk_*``
constructors (or the typechecked :func:`repro.smtlib.typecheck.app`) —
``tests/test_ast_lint.py`` enforces this.

The command set mirrors what the paper's lightweight parser supports:
``declare-fun`` / ``declare-const`` (zero-arity variables), ``define-fun``
(expanded as a macro at parse time), ``assert``, ``check-sat``, plus the
administrative commands needed to round-trip real benchmark scripts
(``set-logic``, ``set-info``, ``set-option``, ``get-model``, ``exit``).
"""

from __future__ import annotations

import contextlib
import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction

from repro.smtlib.sorts import BOOL, Sort

_EMPTY_FROZENSET = frozenset()


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


class Term:
    """Base class for SMT-LIB terms. Instances are immutable.

    ``__hash__`` returns the structural hash precomputed at
    construction (recomputing the full recursive hash on every dict
    probe would defeat interning), and ``__eq__`` resolves by identity
    first — under interning, structurally equal terms built in the same
    scope *are* identical — falling back to an iterative structural
    comparison for cross-scope terms.

    Subclasses are hand-written rather than dataclasses: term
    construction is the hottest allocation path in fusion (every
    substitution rebuilds a spine of fresh nodes), and a plain
    ``__init__`` writing straight into ``__dict__`` is several times
    cheaper than the frozen-dataclass ``__setattr__`` dance.
    Immutability is still enforced: attribute assignment raises, and
    the lazy metadata caches go through ``object.__setattr__`` or
    direct ``__dict__`` writes.
    """

    __slots__ = ()

    sort: Sort

    def __setattr__(self, name, value):
        raise AttributeError(
            f"{self.__class__.__name__} is immutable (terms are interned)"
        )

    def __delattr__(self, name):
        raise AttributeError(
            f"{self.__class__.__name__} is immutable (terms are interned)"
        )

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        if self._hash != other._hash:
            return False
        return _structurally_equal(self, other)

    def walk(self):
        """Yield this term and all subterms, preorder (tree view: a
        shared subterm is yielded once per occurrence)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, App):
                stack.extend(reversed(node.args))
            elif isinstance(node, Quantifier):
                stack.append(node.body)

    def __str__(self):
        from repro.smtlib.printer import print_term

        return print_term(self)


def _structurally_equal(a, b):
    """Iterative structural equality (no recursion-limit exposure)."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        cls = x.__class__
        if cls is not y.__class__ or x._hash != y._hash:
            return False
        if cls is App:
            if x.op != y.op or x.sort != y.sort or len(x.args) != len(y.args):
                return False
            stack.extend(zip(x.args, y.args))
        elif cls is Var:
            if x.name != y.name or x.sort != y.sort:
                return False
        elif cls is Const:
            if x.value != y.value or x.sort != y.sort:
                return False
        elif cls is Quantifier:
            if x.kind != y.kind or x.bindings != y.bindings:
                return False
            stack.append((x.body, y.body))
        else:  # pragma: no cover - no other Term subclasses exist
            if x != y:
                return False
    return True


class Const(Term):
    """A literal constant.

    ``value`` is a Python ``bool`` (Bool), ``int`` (Int),
    :class:`fractions.Fraction` (Real), or ``str`` (String).
    """

    node_count = 1
    depth = 1
    # Constants have no free variables — shared class-level empties keep
    # the broadly shared interned literals free of per-instance caches.
    _free = _EMPTY_FROZENSET
    _free_names = _EMPTY_FROZENSET
    _has_quant = False

    def __init__(self, value, sort):
        if sort.name == "Real" and isinstance(value, int):
            value = Fraction(value)
        d = self.__dict__
        d["value"] = value
        d["sort"] = sort
        # The hash deliberately omits the value's type: True == 1 in
        # Python, so equal values must keep equal hashes.
        d["_hash"] = hash((Const, value, sort))

    def __repr__(self):
        return f"Const(value={self.value!r}, sort={self.sort!r})"

    def __reduce__(self):
        return (mk_const, (self.value, self.sort))


class Var(Term):
    """A variable occurrence (free, or bound by an enclosing quantifier)."""

    node_count = 1
    depth = 1
    _has_quant = False

    def __init__(self, name, sort):
        d = self.__dict__
        d["name"] = name
        d["sort"] = sort
        d["_hash"] = hash((Var, name, sort))
        d["_free"] = frozenset((self,))
        d["_free_names"] = frozenset((name,))

    def __repr__(self):
        return f"Var(name={self.name!r}, sort={self.sort!r})"

    def __reduce__(self):
        return (mk_var, (self.name, self.sort))


class App(Term):
    """Application of an interpreted operator, e.g. ``(+ x 1)``."""

    def __init__(self, op, args, sort):
        if type(args) is not tuple:
            args = tuple(args)
        d = self.__dict__
        d["op"] = op
        d["args"] = args
        d["sort"] = sort
        count = 1
        depth = 0
        # One pass over the children computes size/depth, collects the
        # cached child hashes (reading ``_hash`` directly skips a Python
        # ``__hash__`` dispatch per child), and propagates the
        # free-*name* cache bottom-up when every child already carries
        # one (always true for freshly built spines — the fusion hot
        # path): an O(arity) frozenset union here replaces a full lazy
        # traversal later. The heavier free-var *node* set (``_free``)
        # stays lazy; only pruning needs names.
        hashes = [App, op, sort.name]
        names = _EMPTY_FROZENSET
        try:
            # Every interned term carries ``_free_names`` (class-level
            # empty on Const, set by every constructor otherwise), so
            # the plain attribute read never fails on mk_*-built trees.
            for a in args:
                count += a.node_count
                if a.depth > depth:
                    depth = a.depth
                hashes.append(a._hash)
                a_names = a._free_names
                if a_names:
                    names = a_names if not names else names | a_names
            d["_free_names"] = names
        except AttributeError:
            # Hand-built child without the cache: redo defensively and
            # leave the free-name set lazy.
            count = 1
            depth = 0
            del hashes[3:]
            for a in args:
                count += a.node_count
                if a.depth > depth:
                    depth = a.depth
                hashes.append(a._hash)
        d["_hash"] = hash(tuple(hashes))
        d["node_count"] = count
        d["depth"] = depth + 1

    def __repr__(self):
        return f"App(op={self.op!r}, args={self.args!r}, sort={self.sort!r})"

    def __reduce__(self):
        return (mk_app, (self.op, self.args, self.sort))


class Quantifier(Term):
    """A ``forall`` or ``exists`` binder over one or more sorted variables."""

    def __init__(self, kind, bindings, body):
        if kind not in ("forall", "exists"):
            raise ValueError(f"bad quantifier kind: {kind!r}")
        if type(bindings) is not tuple:
            bindings = tuple(tuple(b) for b in bindings)
        d = self.__dict__
        d["kind"] = kind
        d["bindings"] = bindings
        d["body"] = body
        d["_hash"] = hash((Quantifier, kind, bindings, body))
        d["node_count"] = 1 + body.node_count
        d["depth"] = 1 + body.depth
        bound = frozenset(name for name, _ in bindings)
        d["_bound_names"] = bound
        body_names = getattr(body, "_free_names", None)
        if body_names is not None:
            d["_free_names"] = body_names - bound if body_names else body_names

    @property
    def sort(self):
        return BOOL

    @property
    def bound_names(self):
        return self._bound_names

    def __repr__(self):
        return (
            f"Quantifier(kind={self.kind!r}, bindings={self.bindings!r}, "
            f"body={self.body!r})"
        )

    def __reduce__(self):
        return (mk_quantifier, (self.kind, self.bindings, self.body))


# ---------------------------------------------------------------------------
# Interning (hash-consing)
# ---------------------------------------------------------------------------

# The intern tables are thread-local for the same reason the gensym
# counter is (see below): the guard's watchdog runs solver checks on a
# helper thread, and a check it abandons keeps running there. Process-
# global tables would need locking and would let that thread's
# allocations retain garbage in the main loop's tables. Worker
# processes (spawn) start with clean tables. One table per node class
# keeps the keys small (no class marker to hash on every lookup).
_INTERN_STATE = threading.local()

_TABLE_NAMES = ("consts", "vars", "apps", "apps_exact", "quants")

_CONST_SINGLETONS = {}  # const intern-key -> term; seeded into every scope


def _fresh_tables(state):
    state["consts"] = dict(_CONST_SINGLETONS)
    state["vars"] = {}
    state["apps"] = {}
    state["apps_exact"] = {}
    state["quants"] = {}


def _intern_state():
    state = _INTERN_STATE.__dict__
    if "consts" not in state:
        _fresh_tables(state)
        state["hits"] = 0
        state["misses"] = 0
    return state


def mk_const(value, sort):
    """Interning constructor for :class:`Const`."""
    if sort.name == "Real" and isinstance(value, int):
        value = Fraction(value)
    # The key keeps the value's type (unlike the hash): True and 1 are
    # equal, but interning must not collapse a Bool-valued constant
    # with an Int-valued one. Sorts are identified by their name (a
    # string with a C-cached hash) to keep key hashing cheap.
    key = (value.__class__, value, sort.name)
    state = _INTERN_STATE.__dict__
    try:
        table = state["consts"]
    except KeyError:
        table = _intern_state()["consts"]
    term = table.get(key)
    if term is None:
        state["misses"] += 1
        term = table[key] = Const(value, sort)
    else:
        state["hits"] += 1
    return term


def mk_var(name, sort):
    """Interning constructor for :class:`Var`."""
    key = (name, sort.name)
    state = _INTERN_STATE.__dict__
    try:
        table = state["vars"]
    except KeyError:
        table = _intern_state()["vars"]
    term = table.get(key)
    if term is None:
        state["misses"] += 1
        term = table[key] = Var(name, sort)
    else:
        state["hits"] += 1
    return term


def mk_app(op, args, sort):
    """Interning constructor for :class:`App` (no sort checking — use
    :func:`repro.smtlib.typecheck.app` to build checked applications).

    The probe key carries the children's cached structural hashes (plain
    ints, hashed in C) instead of the child terms, so a lookup never
    dispatches a Python ``__hash__`` per argument. A key hit is verified
    against the stored term's actual argument tuple (identity-fast for
    interned children); the astronomically rare verified mismatch — a
    64-bit child-hash collision — falls back to an exact-key table so
    interning stays canonical even then.
    """
    if type(args) is not tuple:
        args = tuple(args)
    sortname = sort.name
    n = len(args)
    if n == 2:
        key = (op, sortname, args[0]._hash, args[1]._hash)
    elif n == 1:
        key = (op, sortname, args[0]._hash)
    else:
        key = (op, sortname, *[a._hash for a in args])
    state = _INTERN_STATE.__dict__
    try:
        table = state["apps"]
    except KeyError:
        table = _intern_state()["apps"]
    term = table.get(key)
    if term is not None:
        if term.args == args:
            state["hits"] += 1
            return term
        exact = state["apps_exact"]
        ekey = (op, args, sortname)
        term = exact.get(ekey)
        if term is not None:
            state["hits"] += 1
            return term
        state["misses"] += 1
        term = exact[ekey] = App(op, args, sort)
        return term
    state["misses"] += 1
    term = table[key] = App(op, args, sort)
    return term


def mk_quantifier(kind, bindings, body):
    """Interning constructor for :class:`Quantifier`."""
    if type(bindings) is not tuple:
        bindings = tuple(tuple(b) for b in bindings)
    key = (kind, bindings, body)
    state = _INTERN_STATE.__dict__
    try:
        table = state["quants"]
    except KeyError:
        table = _intern_state()["quants"]
    term = table.get(key)
    if term is None:
        state["misses"] += 1
        term = table[key] = Quantifier(kind, bindings, body)
    else:
        state["hits"] += 1
    return term


def intern_stats():
    """Hit/miss counters and table size for the current thread's scope."""
    state = _intern_state()
    return {
        "hits": state["hits"],
        "misses": state["misses"],
        "size": sum(len(state[name]) for name in _TABLE_NAMES),
    }


def reset_intern_stats():
    state = _intern_state()
    state["hits"] = 0
    state["misses"] = 0


TRUE = Const(True, BOOL)
FALSE = Const(False, BOOL)
_CONST_SINGLETONS[(bool, True, "Bool")] = TRUE
_CONST_SINGLETONS[(bool, False, "Bool")] = FALSE


# ---------------------------------------------------------------------------
# Term utilities
# ---------------------------------------------------------------------------


def _free_set(term):
    """The frozenset of free :class:`Var` nodes of ``term``, cached on
    every visited node (iterative post-order over the shared DAG)."""
    cached = getattr(term, "_free", None)
    if cached is not None:
        return cached
    stack = [term]
    while stack:
        node = stack[-1]
        if getattr(node, "_free", None) is not None:
            stack.pop()
            continue
        cls = node.__class__
        if cls is Var:
            object.__setattr__(node, "_free", frozenset((node,)))
            stack.pop()
        elif cls is Const:
            object.__setattr__(node, "_free", _EMPTY_FROZENSET)
            stack.pop()
        elif cls is App:
            pending = [a for a in node.args if getattr(a, "_free", None) is None]
            if pending:
                stack.extend(pending)
                continue
            if not node.args:
                result = _EMPTY_FROZENSET
            elif len(node.args) == 1:
                result = node.args[0]._free
            else:
                result = frozenset().union(*(a._free for a in node.args))
            object.__setattr__(node, "_free", result)
            stack.pop()
        else:  # Quantifier
            body = node.body
            if getattr(body, "_free", None) is None:
                stack.append(body)
                continue
            bound = node.bound_names
            result = frozenset(v for v in body._free if v.name not in bound)
            object.__setattr__(node, "_free", result)
            stack.pop()
    return term._free


def free_vars(term):
    """Return the set of free :class:`Var` nodes of ``term``.

    Two occurrences of the same variable compare equal, so the result has
    one entry per distinct free variable.
    """
    return set(_free_set(term))


def free_names(term):
    """The frozenset of free variable *names* of ``term`` (cached)."""
    names = getattr(term, "_free_names", None)
    if names is None:
        names = frozenset(v.name for v in _free_set(term))
        object.__setattr__(term, "_free_names", names)
    return names


def occurrence_counts(term, var):
    """Free-occurrence count of ``var`` in ``term``, cached **per node**.

    Each visited node that can contain ``var`` stores a ``(var, count)``
    entry in its ``_occ`` dict, keyed by the variable's *name*: names
    are strings whose hash is computed in C (no per-probe Python
    ``__hash__`` dispatch, unlike Term keys), and the stored variable
    disambiguates the pathological same-name-different-sort case on
    lookup. Repeated probes — fusion counts occurrences of the same
    seed variables in the same seed asserts on every iteration — cost
    one dict hit after the first walk, and a substituted assert only
    recomputes its rebuilt spine. Nodes whose cached free-name set
    excludes ``var`` are pruned in O(1) and store nothing (long-lived
    shared constants stay lean).
    """
    name = var.name
    occ = term.__dict__.get("_occ")
    if occ is not None:
        entry = occ.get(name)
        if entry is not None and (entry[0] is var or entry[0] == var):
            return entry[1]
    term_names = term.__dict__.get("_free_names")
    if term_names is None:
        term_names = free_names(term)
    if name not in term_names:
        # Covers Const and shadowing quantifiers too: not free => 0.
        return 0
    stack = [term]
    while stack:
        node = stack[-1]
        d = node.__dict__
        occ = d.get("_occ")
        if occ is not None:
            entry = occ.get(name)
            if entry is not None and (entry[0] is var or entry[0] == var):
                stack.pop()
                continue
        cls = node.__class__
        if cls is Var:
            if occ is None:
                occ = d["_occ"] = {}
            occ[name] = (var, 1 if node == var else 0)
            stack.pop()
        elif cls is App:
            ready = True
            for a in node.args:
                names = a.__dict__.get("_free_names")
                if names is None:
                    names = free_names(a)
                if name not in names:
                    continue  # pruned: cannot contain var
                aocc = a.__dict__.get("_occ")
                if aocc is not None:
                    entry = aocc.get(name)
                    if entry is not None and (entry[0] is var or entry[0] == var):
                        continue
                if ready:
                    ready = False
                stack.append(a)
            if not ready:
                continue
            total = 0
            for a in node.args:
                aocc = a.__dict__.get("_occ")
                if aocc is not None:
                    entry = aocc.get(name)
                    if entry is not None and (entry[0] is var or entry[0] == var):
                        total += entry[1]
            if occ is None:
                occ = d["_occ"] = {}
            occ[name] = (var, total)
            stack.pop()
        else:  # Quantifier, not shadowing (name free here => free in body)
            body = node.body
            bocc = body.__dict__.get("_occ")
            entry = bocc.get(name) if bocc is not None else None
            if entry is None or (entry[0] is not var and entry[0] != var):
                stack.append(body)
                continue
            if occ is None:
                occ = d["_occ"] = {}
            occ[name] = (var, entry[1])
            stack.pop()
    return term.__dict__["_occ"][name][1]


def count_occurrences(term, var):
    """Count free occurrences of variable ``var`` in ``term``."""
    return occurrence_counts(term, var)


def _occ_count(node, var):
    """Cached count for a node already visited by :func:`occurrence_counts`
    (0 for nodes it pruned, which never stored an entry)."""
    occ = node.__dict__.get("_occ")
    if occ is None:
        return 0
    entry = occ.get(var.name)
    if entry is not None and (entry[0] is var or entry[0] == var):
        return entry[1]
    return 0


# Depth below which traversals may recurse: far under CPython's
# recursion limit (with headroom for the interpreter frames above), yet
# far above anything a real seed or fused formula exhibits.
_RECURSION_SAFE_DEPTH = 200


def _substitute_selected_rec(node, var, name, replacement, selected, start):
    """Recursive fast path of :func:`substitute_selected_occurrences`
    (native call frames beat an explicit stack on shallow terms).

    Precondition: ``node`` contains at least one *selected* occurrence
    — callers prune out-of-range subtrees before recursing, so no call
    frame is ever spent on an untouched child. ``name`` is ``var.name``,
    threaded through to keep the per-node ``_occ`` probes attribute-free.
    """
    cls = node.__class__
    if cls is Var:  # its single occurrence index is selected
        return replacement
    if cls is App:
        new_args = None
        offset = start
        n_sel = len(selected)
        for i, a in enumerate(node.args):
            aocc = a.__dict__.get("_occ")
            if aocc is None:
                continue
            entry = aocc.get(name)
            if entry is None or (entry[0] is not var and entry[0] != var):
                continue
            cnt = entry[1]
            if cnt:
                lo = bisect_left(selected, offset)
                if lo < n_sel and selected[lo] < offset + cnt:
                    if new_args is None:
                        new_args = list(node.args)
                    new_args[i] = _substitute_selected_rec(
                        a, var, name, replacement, selected, offset
                    )
                offset += cnt
        if new_args is None:
            return node
        return mk_app(node.op, tuple(new_args), node.sort)
    # Quantifier: its occurrence range equals its body's, so the body
    # holds the selected occurrence the precondition guarantees.
    body = _substitute_selected_rec(node.body, var, name, replacement, selected, start)
    return mk_quantifier(node.kind, node.bindings, body)


def substitute_selected_occurrences(term, var, replacement, selected):
    """Replace the free occurrences of ``var`` whose left-to-right index
    (0-based) is in ``selected`` (a sorted list). Requires a preceding
    :func:`occurrence_counts` walk (its per-node ``_occ`` caches drive
    the pruning here).

    Shallow terms take a recursive fast path; anything deeper than
    ``_RECURSION_SAFE_DEPTH`` falls back to the explicit-stack version
    (safe for ~10k-deep formulas). Both prune every subtree whose
    occurrence-index range contains no selected index in O(log n).
    """
    if term.depth <= _RECURSION_SAFE_DEPTH:
        cnt = _occ_count(term, var)
        if cnt == 0:
            return term
        lo = bisect_left(selected, 0)
        if lo >= len(selected) or selected[lo] >= cnt:
            return term  # no selected occurrence in range
        return _substitute_selected_rec(term, var, var.name, replacement, selected, 0)
    EXPAND, REDUCE = 0, 1
    stack = [(EXPAND, term, 0)]
    out = []
    while stack:
        phase, node, start = stack.pop()
        if phase == REDUCE:
            if node.__class__ is App:
                n = len(node.args)
                new_args = tuple(out[-n:])
                del out[-n:]
                if new_args == node.args:
                    out.append(node)
                else:
                    out.append(mk_app(node.op, new_args, node.sort))
            else:  # Quantifier
                body = out.pop()
                if body is node.body:
                    out.append(node)
                else:
                    out.append(mk_quantifier(node.kind, node.bindings, body))
            continue
        cnt = _occ_count(node, var)
        if cnt == 0:
            out.append(node)
            continue
        lo = bisect_left(selected, start)
        if lo >= len(selected) or selected[lo] >= start + cnt:
            out.append(node)  # no selected occurrence below this node
            continue
        cls = node.__class__
        if cls is Var:  # cnt == 1 and its index is selected
            out.append(replacement)
        elif cls is App:
            stack.append((REDUCE, node, 0))
            offset = start
            children = []
            for a in node.args:
                children.append((a, offset))
                offset += _occ_count(a, var)
            for a, child_start in reversed(children):
                stack.append((EXPAND, a, child_start))
        else:  # Quantifier; cnt > 0 means it does not shadow var
            stack.append((REDUCE, node, 0))
            stack.append((EXPAND, node.body, start))
    return out[0]


# The fresh-name counter is thread-local because of the guard's
# watchdog (repro.robustness.guard): it runs each solver check on a
# helper thread, and a hung check it abandons keeps running there. With
# a process-global counter, names drawn by that thread would shift the
# names the main loop draws next (a gensym race that breaks shard-count
# determinism). Each thread lazily gets its own counter; worker
# processes (spawn) start clean.
# The counter is a plain int (not itertools.count) so callers can
# observe and replay draw positions — the fusion layer's renamed-view
# cache needs both.
_FRESH_STATE = threading.local()


def fresh_name(prefix="fv"):
    """Return a symbol name that is fresh within the current thread's
    fresh-name scope (see :func:`fresh_scope`)."""
    state = _FRESH_STATE
    n = getattr(state, "value", 0)
    state.value = n + 1
    return f"{prefix}!{n}"


def fresh_name_position():
    """Number of fresh names drawn so far in the current thread's scope.

    The names :func:`fresh_name` will produce are a pure function of
    this position, which is what makes cached artifacts that embed
    fresh names (e.g. fusion's renamed seed views) replayable."""
    return getattr(_FRESH_STATE, "value", 0)


def set_fresh_name_position(position):
    """Move the gensym counter to ``position`` without building names:
    a replayed cached computation skips the names it drew, and each
    solver check of one mutant starts where the mutation left it."""
    _FRESH_STATE.value = position


@contextlib.contextmanager
def fresh_scope(start=0):
    """Scope the fresh-name counter *and* the intern table: reset both
    on entry, restore the outer ones on exit.

    Fresh names only need to be unique within one formula's
    construction; a longer-lived counter otherwise makes generated
    scripts depend on everything the thread did before. The YinYang
    loop wraps each iteration in a scope, so a fused script is a pure
    function of ``(campaign seed, cell, iteration index)`` — the
    property that journal resume and process-sharded execution rely on
    (any shard can rebuild any iteration bit-for-bit).

    The intern table rides along for the complementary reason: terms
    built during one iteration are garbage after it, and scoping the
    table bounds its size by the largest single iteration instead of
    the whole campaign. Interning never affects printed output — terms
    from an outer scope (e.g. cached parsed seeds) remain valid inside
    the scope; equal terms from different scopes are merely ``==``
    rather than identical.

    The counter and table (and therefore the scope) are per-thread:
    entering a scope in one worker thread never perturbs names drawn —
    or terms interned — by another.
    """
    saved_value = getattr(_FRESH_STATE, "value", 0)
    state = _intern_state()
    saved_tables = {name: state[name] for name in _TABLE_NAMES}
    _FRESH_STATE.value = start
    _fresh_tables(state)
    try:
        yield
    finally:
        _FRESH_STATE.value = saved_value
        state.update(saved_tables)


def substitute(term, mapping):
    """Capture-avoiding simultaneous substitution of free variables.

    ``mapping`` maps :class:`Var` nodes to replacement terms. Bound
    variables that would capture a free variable of a replacement term
    are alpha-renamed.
    """
    if not mapping:
        return term
    mapping = dict(mapping)
    return _substitute(term, mapping, frozenset(v.name for v in mapping))


def _substitute(term, mapping, names):
    """Iterative DAG substitution with an identity-keyed memo table.

    Shared subterms are rewritten once; subtrees whose free names are
    disjoint from the mapping are returned unchanged in O(1). Binders
    are handled out-of-line (recursing once per nested quantifier under
    substitution — binder nesting is shallow in practice).
    """
    memo = {}
    stack = [term]
    while stack:
        node = stack[-1]
        nid = id(node)
        if nid in memo:
            stack.pop()
            continue
        node_names = node.__dict__.get("_free_names")
        if node_names is None:
            node_names = free_names(node)
        if names.isdisjoint(node_names):
            memo[nid] = node
            stack.pop()
            continue
        cls = node.__class__
        if cls is Var:
            memo[nid] = mapping.get(node, node)
            stack.pop()
        elif cls is App:
            pending = [a for a in node.args if id(a) not in memo]
            if pending:
                stack.extend(pending)
                continue
            new_args = tuple(memo[id(a)] for a in node.args)
            if new_args == node.args:
                memo[nid] = node
            else:
                memo[nid] = mk_app(node.op, new_args, node.sort)
            stack.pop()
        else:  # Quantifier (Const is always pruned above: no free names)
            memo[nid] = _substitute_quantifier(node, mapping)
            stack.pop()
    return memo[id(term)]


def _substitute_quantifier(term, mapping):
    live = {v: e for v, e in mapping.items() if v.name not in term.bound_names}
    if not live:
        return term
    replacement_frees = set()
    for repl in live.values():
        replacement_frees |= free_names(repl)
    bindings = []
    renames = {}
    for name, sort in term.bindings:
        if name in replacement_frees:
            new = fresh_name(name)
            renames[mk_var(name, sort)] = mk_var(new, sort)
            bindings.append((new, sort))
        else:
            bindings.append((name, sort))
    body = term.body
    if renames:
        body = _substitute(body, renames, frozenset(v.name for v in renames))
    return mk_quantifier(
        term.kind,
        tuple(bindings),
        _substitute(body, live, frozenset(v.name for v in live)),
    )


def map_terms(term, fn, descend_quantifiers=True):
    """Bottom-up rewrite driver: rebuild ``term`` iteratively over the
    shared DAG, applying ``fn`` to every node *after* its children have
    been rewritten (the node passed to ``fn`` already carries the new
    children). Identity-keyed memoization rewrites each shared subterm
    once. With ``descend_quantifiers=False``, binders (and everything
    below them) are passed to ``fn`` unvisited.
    """
    memo = {}
    stack = [term]
    while stack:
        node = stack[-1]
        nid = id(node)
        if nid in memo:
            stack.pop()
            continue
        cls = node.__class__
        if cls is App:
            # Reversed push → children are rewritten left-to-right, so a
            # side-effecting ``fn`` (fresh names, collected constraints)
            # observes the same order as the old recursive rewrites.
            pending = [a for a in node.args if id(a) not in memo]
            if pending:
                stack.extend(reversed(pending))
                continue
            new_args = tuple(memo[id(a)] for a in node.args)
            if new_args == node.args:
                rebuilt = node
            else:
                rebuilt = mk_app(node.op, new_args, node.sort)
            memo[nid] = fn(rebuilt)
            stack.pop()
        elif cls is Quantifier and descend_quantifiers:
            body = node.body
            if id(body) not in memo:
                stack.append(body)
                continue
            new_body = memo[id(body)]
            if new_body is body:
                rebuilt = node
            else:
                rebuilt = mk_quantifier(node.kind, node.bindings, new_body)
            memo[nid] = fn(rebuilt)
            stack.pop()
        else:
            memo[nid] = fn(node)
            stack.pop()
    return memo[id(term)]


def has_quantifier(term):
    """True if any :class:`Quantifier` occurs in ``term`` (cached)."""
    cached = getattr(term, "_has_quant", None)
    if cached is not None:
        return cached
    stack = [term]
    while stack:
        node = stack[-1]
        if getattr(node, "_has_quant", None) is not None:
            stack.pop()
            continue
        cls = node.__class__
        if cls is Quantifier:
            object.__setattr__(node, "_has_quant", True)
            stack.pop()
        elif cls is App:
            pending = [
                a for a in node.args if getattr(a, "_has_quant", None) is None
            ]
            if pending:
                stack.extend(pending)
                continue
            object.__setattr__(
                node, "_has_quant", any(a._has_quant for a in node.args)
            )
            stack.pop()
        else:
            object.__setattr__(node, "_has_quant", False)
            stack.pop()
    return term._has_quant


def term_size(term):
    """Number of AST nodes in ``term`` (tree view, precomputed)."""
    return term.node_count


def term_depth(term):
    """Height of the term's AST (a leaf has depth 1; precomputed)."""
    return term.depth


def collect_ops(term):
    """Return the multiset-free set of operator names appearing in ``term``."""
    return {node.op for node in term.walk() if isinstance(node, App)}


# ---------------------------------------------------------------------------
# Commands and scripts
# ---------------------------------------------------------------------------


class Command:
    """Base class for SMT-LIB script commands."""

    __slots__ = ()


@dataclass(frozen=True)
class SetLogic(Command):
    logic: str


@dataclass(frozen=True)
class SetInfo(Command):
    keyword: str
    value: str


@dataclass(frozen=True)
class SetOption(Command):
    keyword: str
    value: str


@dataclass(frozen=True)
class DeclareFun(Command):
    """``declare-fun``/``declare-const``; only zero-arity (variables) here."""

    name: str
    arg_sorts: tuple
    return_sort: Sort
    const_syntax: bool = False  # printed as declare-const when True

    def __post_init__(self):
        if not isinstance(self.arg_sorts, tuple):
            object.__setattr__(self, "arg_sorts", tuple(self.arg_sorts))


@dataclass(frozen=True)
class DefineFun(Command):
    """A macro definition; applications are expanded at parse time."""

    name: str
    params: tuple  # tuple[(name, Sort), ...]
    return_sort: Sort
    body: Term

    def __post_init__(self):
        if not isinstance(self.params, tuple):
            object.__setattr__(self, "params", tuple(self.params))


@dataclass(frozen=True)
class Assert(Command):
    term: Term


@dataclass(frozen=True)
class CheckSat(Command):
    pass


@dataclass(frozen=True)
class GetModel(Command):
    pass


@dataclass(frozen=True)
class Exit(Command):
    pass


@dataclass
class Script:
    """An SMT-LIB script: an ordered list of commands.

    Provides the views YinYang needs: declared variables, assertion
    terms, and the conjunction of all assertions.
    """

    commands: list = field(default_factory=list)

    @property
    def logic(self):
        """The declared logic name, or ``None`` if no ``set-logic``."""
        for cmd in self.commands:
            if isinstance(cmd, SetLogic):
                return cmd.logic
        return None

    @property
    def declarations(self):
        """Mapping from declared variable name to :class:`Var` (arity 0 only).

        Cached against the identity of the current command objects
        (seed scripts are probed on every fusion); a fresh dict is
        returned each call so callers may mutate their copy.
        """
        commands = self.commands
        cached = getattr(self, "_decls_cache", None)
        if cached is not None:
            prev, result = cached
            # List equality short-circuits on element identity in C; a
            # rebuilt-but-equal command yields the same view anyway.
            if prev == commands:
                return dict(result)
        result = {}
        for cmd in commands:
            if isinstance(cmd, DeclareFun) and not cmd.arg_sorts:
                result[cmd.name] = mk_var(cmd.name, cmd.return_sort)
        self._decls_cache = (list(commands), result)
        return dict(result)

    @property
    def asserts(self):
        """The asserted terms, in script order."""
        return [cmd.term for cmd in self.commands if isinstance(cmd, Assert)]

    def conjunction(self):
        """The conjunction of all assertions (``true`` if none)."""
        terms = self.asserts
        if not terms:
            return TRUE
        if len(terms) == 1:
            return terms[0]
        return mk_app("and", tuple(terms), BOOL)

    def free_variables(self):
        """Free variables of all assertions, in deterministic order.

        Cached against the identity of the current assert terms: seed
        scripts are probed on every fusion, and their asserts never
        change. The cache holds references to the terms it was computed
        from, so an in-place edit of ``commands`` is detected by the
        identity comparison (no id-recycling hazard).
        """
        asserts = self.asserts
        cached = getattr(self, "_free_vars_cache", None)
        if cached is not None:
            prev, result = cached
            # Identity-shortcut list equality; equal terms have equal
            # free variables, so a structural match is just as valid.
            if prev == asserts:
                return list(result)
        seen = {}
        for term in asserts:
            for var in sorted(_free_set(term), key=lambda v: v.name):
                seen.setdefault(var.name, var)
        result = list(seen.values())
        self._free_vars_cache = (asserts, result)
        return list(result)

    def with_asserts(self, new_asserts):
        """Copy of this script with the assert commands replaced."""
        commands = []
        inserted = False
        for cmd in self.commands:
            if isinstance(cmd, Assert):
                if not inserted:
                    commands.extend(Assert(t) for t in new_asserts)
                    inserted = True
            else:
                commands.append(cmd)
        if not inserted:
            insert_at = len(commands)
            for i, cmd in enumerate(commands):
                if isinstance(cmd, (CheckSat, GetModel, Exit)):
                    insert_at = i
                    break
            commands[insert_at:insert_at] = [Assert(t) for t in new_asserts]
        return Script(commands)

    def __str__(self):
        from repro.smtlib.printer import print_script

        return print_script(self)
