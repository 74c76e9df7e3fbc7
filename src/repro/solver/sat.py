"""A CDCL SAT solver (conflict-driven clause learning).

Standard architecture: two-watched-literal propagation, first-UIP
conflict analysis with clause learning, activity-based branching,
geometric restarts, and phase saving. Variables are positive integers;
literals are signed integers (``-v`` is the negation of ``v``).

Every variable met during conflict analysis has its activity bumped by
``var_inc``. The increment grows by 1/0.95 only once every 1000
conflicts (not on every conflict, as in MiniSat's VSIDS), and all
activities are rescaled by 1e-100 when it passes 1e100.

The solver is incremental in the simple sense the lazy DPLL(T) loop
needs: clauses may be added between ``solve()`` calls, each of which
restarts the search.

Kernel contract. The search is a function of the clauses added (in
order) and the heuristic state alone: which clause is
visited, which variable is decided and which clause is learned must
never depend on the data structures that make the kernel fast. Those
structures are:

- *Branching heap.* A decision picks the unassigned variable with the
  highest activity, the lowest index winning ties. A lazy binary heap
  of ``(-activity, var)`` entries serves the pick: a variable goes back
  on the heap with its current activity when it is unassigned, and an
  entry whose variable is assigned is discarded when it reaches the
  top. Only assigned variables are bumped and activities only grow
  between rebuilds, so a variable's older entries sit below its current
  one and surface only after it has been picked. The heap is rebuilt at
  the start of every ``solve()`` and after every rescale, so it only
  exists during a search.
- *Unit list.* Unit clauses are asserted at level 0 in clause-index
  order, learned units included. The solver keeps their indices in an
  ascending list, and an empty clause sets a flag, so ``solve()`` never
  rescans the clause database.
- *Gate clauses.* :meth:`SatSolver.add_gate_clauses` is the bit-blaster's
  entry point for every gate: the blaster folds gates whose inputs
  share a variable or are constant, so each gate's clauses are ones
  that ``add_clause`` would store unchanged (distinct variables, all
  already allocated). It stores and watches them exactly as
  ``add_clause`` would, without the per-literal checks. The blaster
  has no ``add_clause`` fallback for gates.

A change that moves the search (conflicts, decisions, propagations,
learned clauses or models) is not a speed-up of this module.
``tests/test_sat_solver.py::TestTrajectoryPinned`` pins all of these
on seeded CNF and bit-blasting instances.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from repro.coverage.probes import (
    branch_probe,
    declare_module_probes,
    function_probe,
    line_probe,
)


class SatSolver:
    """CDCL solver over integer literals."""

    def __init__(self):
        self.num_vars = 0
        self.clauses = []  # list[list[int]] original + learned
        self.watches = {}  # literal -> list of clause indices watching it
        self.assignment = {}  # var -> bool
        self.level = {}  # var -> decision level
        self.reason = {}  # var -> clause index (None for decisions)
        self.trail = []  # assigned literals, in order
        self.trail_lim = []  # trail indices at each decision level
        self.activity = {}  # var -> float
        self.phase = {}  # var -> last assigned polarity
        self.var_inc = 1.0
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self._units = []  # indices of unit clauses, ascending
        self._has_empty = False  # an empty clause was added
        self._heap = []  # lazy branching heap of (-activity, var)
        self._qhead = 0  # trail index of the next literal to propagate
        # During a search: literal -> True/False/None, indexed by the
        # signed literal itself (negative literals wrap to the back half).
        self._values = []

    # -- construction ------------------------------------------------------

    def new_var(self):
        self.num_vars += 1
        var = self.num_vars
        self.activity[var] = 0.0
        self.phase[var] = False
        return var

    def ensure_vars(self, n):
        while self.num_vars < n:
            self.new_var()

    def add_clause(self, literals):
        """Add a clause; returns False if it is trivially unsatisfiable."""
        function_probe("sat.add_clause")
        seen = set()
        clause = []
        top = 0
        for lit in literals:
            if -lit in seen:
                # Tautology, dropped silently; the variables met before
                # it are still allocated.
                self.ensure_vars(top)
                return True
            if lit not in seen:
                seen.add(lit)
                clause.append(lit)
                var = lit if lit > 0 else -lit
                if var > top:
                    top = var
        self.ensure_vars(top)
        if not clause:
            line_probe("sat.add_clause.empty")
            self.clauses.append([])
            self._has_empty = True
            return False
        index = len(self.clauses)
        self.clauses.append(clause)
        self._watch(clause, index)
        return True

    def add_gate_clauses(self, clauses):
        """Add clauses that :meth:`add_clause` would store unchanged.

        Each clause must have at least two literals over distinct
        variables, all of them already allocated, so ``add_clause``
        would neither collapse, drop nor allocate anything. The clauses
        are stored and watched in the same order and with the same
        indices as through ``add_clause``.
        """
        function_probe("sat.add_clause")
        index = len(self.clauses)
        self.clauses.extend(clauses)
        watch = self.watches.setdefault
        for clause in clauses:
            watch(clause[0], []).append(index)
            watch(clause[1], []).append(index)
            index += 1

    def _watch(self, clause, index):
        self.watches.setdefault(clause[0], []).append(index)
        if len(clause) > 1:
            self.watches.setdefault(clause[1], []).append(index)
        else:
            self._units.append(index)

    # -- assignment helpers ----------------------------------------------

    def _assign(self, lit, reason_index):
        var = abs(lit)
        self._values[lit] = True
        self._values[-lit] = False
        self.assignment[var] = lit > 0
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason_index
        self.phase[var] = lit > 0
        self.trail.append(lit)

    def _unassign_to(self, target_level):
        cut = self.trail_lim[target_level]
        assignment = self.assignment
        level = self.level
        reason = self.reason
        activity = self.activity
        values = self._values
        heap = self._heap
        for lit in self.trail[cut:]:
            var = lit if lit > 0 else -lit
            values[lit] = values[-lit] = None
            del assignment[var]
            del level[var]
            del reason[var]
            heappush(heap, (-activity[var], var))
        del self.trail[cut:]
        del self.trail_lim[target_level:]
        if len(heap) > 4 * self.num_vars + 64:
            # Compact the stale entries away; the pick is unchanged.
            self._rebuild_heap()

    # -- propagation -------------------------------------------------------

    def _propagate(self):
        """Unit propagation. Returns a conflicting clause index or None."""
        function_probe("sat.propagate")
        trail = self.trail
        clauses = self.clauses
        watches = self.watches
        watch = watches.setdefault
        values = self._values
        assignment = self.assignment
        level = self.level
        reason = self.reason
        phase = self.phase
        depth = len(self.trail_lim)
        start = i = self._qhead
        moved = False
        conflict = None
        while i < len(trail):
            false_lit = -trail[i]
            i += 1
            watchers = watches.get(false_lit)
            if not watchers:
                continue
            new_watchers = []
            keep = new_watchers.append
            for pos, index in enumerate(watchers):
                clause = clauses[index]
                # Ensure false_lit is at position 1.
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                value = values[first]
                if value is True:
                    keep(index)  # satisfied by its other watch
                    continue
                # Look for a replacement watch.
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if values[lit] is not False:
                        clause[1] = lit
                        clause[k] = false_lit
                        watch(lit, []).append(index)
                        moved = True
                        break
                else:
                    keep(index)
                    if value is not None:
                        line_probe("sat.propagate.conflict")
                        conflict = index
                        new_watchers.extend(watchers[pos + 1 :])
                        break
                    # Unit clause: propagate.
                    values[first] = True
                    values[-first] = False
                    var = first if first > 0 else -first
                    assignment[var] = first > 0
                    level[var] = depth
                    reason[var] = index
                    phase[var] = first > 0
                    trail.append(first)
            watches[false_lit] = new_watchers
            if conflict is not None:
                break
        if moved:
            line_probe("sat.propagate.moved_watch")
        self.propagations += i - start
        self._qhead = len(trail)
        return conflict

    # -- conflict analysis -------------------------------------------------

    def _analyze(self, conflict_index):
        """First-UIP analysis; returns (learned_clause, backjump_level)."""
        function_probe("sat.analyze")
        clauses = self.clauses
        level = self.level
        activity = self.activity
        var_inc = self.var_inc
        trail = self.trail
        learned = []
        seen = set()
        counter = 0
        lit = None
        clause = clauses[conflict_index]
        current_level = len(self.trail_lim)
        trail_index = len(trail) - 1
        while True:
            for q in clause:
                var = q if q > 0 else -q
                if var in seen:
                    continue
                var_level = level.get(var)
                if var_level is None:
                    continue
                seen.add(var)
                # Bump. The variable is assigned, so its heap entry is
                # pushed with this activity when it is unassigned.
                activity[var] = activity.get(var, 0.0) + var_inc
                if var_level == current_level:
                    counter += 1
                elif var_level > 0:
                    learned.append(q)
            # Find the next literal to resolve on, scanning the trail.
            while trail_index >= 0 and abs(trail[trail_index]) not in seen:
                trail_index -= 1
            if trail_index < 0:
                break
            lit = trail[trail_index]
            var = abs(lit)
            trail_index -= 1
            counter -= 1
            if counter == 0:
                break
            reason_index = self.reason[var]
            if reason_index is None:
                break
            # ``lit`` itself is skipped: its variable is already seen.
            clause = clauses[reason_index]
        learned = [-lit] + learned if lit is not None else learned
        if len(learned) <= 1:
            backjump = 0
        else:
            backjump = max(level[abs(q)] for q in learned[1:])
        return learned, backjump

    def _decay(self):
        self.var_inc /= 0.95
        if self.var_inc > 1e100:
            for var in self.activity:
                self.activity[var] *= 1e-100
            self.var_inc = 1.0
            self._rebuild_heap()

    # -- search ------------------------------------------------------------

    def _rebuild_heap(self):
        """A fresh branching heap: one entry per unassigned variable."""
        assignment = self.assignment
        heap = [
            (-act, var) for var, act in self.activity.items() if var not in assignment
        ]
        heapify(heap)
        self._heap = heap

    def _pick_branch_var(self):
        """The unassigned variable of highest activity, lowest index on ties."""
        heap = self._heap
        assignment = self.assignment
        while heap:
            var = heappop(heap)[1]
            if var not in assignment:
                return var
        return None

    def solve(self, max_conflicts=200000):
        """Search for a satisfying assignment.

        Returns ``True`` (model in :attr:`assignment`), ``False``
        (unsatisfiable), or ``None`` if the conflict budget is exhausted.
        """
        function_probe("sat.solve")
        # Restart search state but keep learned clauses.
        self.assignment.clear()
        self.level.clear()
        self.reason.clear()
        self.trail.clear()
        self.trail_lim.clear()
        self._qhead = 0
        if self._has_empty:
            line_probe("sat.solve.empty_clause")
            return False
        values = self._values = [None] * (2 * self.num_vars + 1)
        self._rebuild_heap()
        # Assert unit clauses at level 0.
        for index in self._units:
            lit = self.clauses[index][0]
            value = values[lit]
            if value is False:
                return False
            if value is None:
                self._assign(lit, index)
        restart_limit = 100
        conflicts_here = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_here += 1
                if branch_probe("sat.solve.toplevel_conflict", not self.trail_lim):
                    return False
                if self.conflicts % 1000 == 0:
                    self._decay()
                if conflicts_here > max_conflicts:
                    line_probe("sat.solve.budget_exhausted")
                    return None
                learned, backjump = self._analyze(conflict)
                self._unassign_to(backjump)
                self._qhead = len(self.trail)
                if not learned:
                    return False
                index = len(self.clauses)
                self.clauses.append(learned)
                if len(learned) > 1:
                    self._watch(learned, index)
                else:
                    self._units.append(index)
                value = values[learned[0]]
                if value is None:
                    self._assign(learned[0], index)
                elif value is False:
                    line_probe("sat.solve.learned_false")
                    return False
                if conflicts_here >= restart_limit:
                    line_probe("sat.solve.restart")
                    restart_limit = int(restart_limit * 1.5)
                    if self.trail_lim:
                        self._unassign_to(0)
                    self._qhead = 0
                continue
            var = self._pick_branch_var()
            if var is None:
                line_probe("sat.solve.sat")
                return True
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            polarity = self.phase.get(var, False)
            self._assign(var if polarity else -var, None)

    def model(self):
        """The satisfying assignment as var -> bool (after a True solve)."""
        return dict(self.assignment)


declare_module_probes(__file__)
