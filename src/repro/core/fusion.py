"""Semantic Fusion of SMT-LIB scripts (the paper's Algorithm 2).

SAT fusion (Proposition 1)::

    phi_sat = phi1[r_x(y,z)/x]_R  AND  phi2[r_y(x,z)/y]_R

UNSAT fusion (Proposition 2)::

    phi_unsat = (phi1[r_x/x]_R OR phi2[r_y/y]_R) AND z = f(x,y)
                AND x = r_x(y,z) AND y = r_y(x,z)

Mixed fusion (Section 3.2) combines one satisfiable and one
unsatisfiable seed: disjunction preserves satisfiability, conjunction
plus fusion constraints preserves unsatisfiability.

The entry points operate on whole :class:`~repro.smtlib.ast.Script`
objects: variable sets are made disjoint by renaming, declarations are
merged, and the result is a runnable script ending in ``check-sat`` —
exactly the artifact YinYang feeds to a solver under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.config import FusionConfig
from repro.core.fusion_functions import pick_instance
from repro.core.substitution import random_occurrence_substitution
from repro.errors import FusionError
from repro.semantics.evaluator import evaluate
from repro.semantics.model import Model
from repro.smtlib import builder as b
from repro.smtlib.ast import (
    Assert,
    CheckSat,
    DeclareFun,
    Script,
    SetLogic,
    Var,
    fresh_name,
    fresh_name_position,
    free_vars,
    mk_var,
    set_fresh_name_position,
    substitute,
)
from repro.smtlib import theory as _theory
from repro.smtlib.sorts import INT, REAL, STRING  # noqa: F401  (re-export)

# Sorts eligible for variable-pair fusion, in theory-registration order
# ((Int, Real, String) first, then each bit-vector generator width).
# Iteration below draws no randomness for sorts absent from a seed, so
# appending new theories here leaves existing-campaign RNG streams (and
# therefore golden journals) untouched.
FUSIBLE_SORTS = tuple(_theory.fusible_sorts())


@dataclass
class FusionTriplet:
    """One fused variable pair: ``z = f(x, y)`` with its inversions."""

    z: Var
    x: Var
    y: Var
    instance: object

    @property
    def scheme(self):
        return self.instance.scheme


@dataclass
class FusionResult:
    """The fused script plus the provenance YinYang's reports need."""

    script: Script
    oracle: str
    triplets: list
    renaming: dict = field(default_factory=dict)  # phi2 old name -> new name
    replaced_occurrences: int = 0
    total_occurrences: int = 0

    def __str__(self):
        return str(self.script)


def _seed_view(script):
    """Cached fusion-facing view of a seed script.

    Returns ``(taken_names, decl_items, vars_by_sort)`` — the name set
    occupied by the script, its zero-arity declarations in script order,
    and its free variables grouped by sort. Seed scripts are probed on
    every fusion, so this consolidates what used to be several
    property-copy-and-validate round trips into one identity-validated
    cache (immutable values; callers copy what they mutate).
    """
    commands = script.commands
    cached = getattr(script, "_seed_view_cache", None)
    if cached is not None:
        prev, view = cached
        # List equality short-circuits on element identity in C (and a
        # rebuilt-but-equal command yields the same view anyway).
        if prev == commands:
            return view
    decls = script.declarations
    fvars = script.free_variables()
    taken = frozenset(v.name for v in fvars) | frozenset(decls)
    grouped = {}
    for var in fvars:
        grouped.setdefault(var.sort, []).append(var)
    view = (
        taken,
        tuple(decls.items()),
        {sort: tuple(vs) for sort, vs in grouped.items()},
    )
    script._seed_view_cache = (list(commands), view)
    return view


def _typed_free_vars(script):
    """Free variables of a script grouped by sort, deterministic order.

    Returns the seed view's dict of *tuples* — callers copy what they
    shuffle (see :func:`_random_pairs`)."""
    _, _, vars_by_sort = _seed_view(script)
    return vars_by_sort


def _grouped_free_vars(asserts):
    """Free variables of ``asserts`` grouped by sort, in the same
    deterministic order :meth:`Script.free_variables` produces
    (per-assert name-sorted, first occurrence wins)."""
    seen = {}
    for term in asserts:
        for var in sorted(free_vars(term), key=lambda v: v.name):
            seen.setdefault(var.name, var)
    grouped = {}
    for var in seen.values():
        grouped.setdefault(var.sort, []).append(var)
    return grouped


def _rename_apart(phi1, phi2):
    """Rename phi2's variables that collide with phi1's.

    Returns ``(renamed_phi2_asserts, declarations, renaming_dict,
    renamed_vars_by_sort)``.

    The renamed view is cached on ``phi2``: the fresh names drawn are a
    pure function of the gensym position (campaigns reset it every
    iteration via ``fresh_scope``), so re-fusing the same seed pair
    recomputes the identical renaming. The cache keys on the drawn
    name mapping (validated against the script's current command
    objects) and replays any extra gensym draws the substitution made,
    keeping the gensym stream bit-identical with an uncached run.
    """
    taken, _, _ = _seed_view(phi1)
    _, phi2_decl_items, _ = _seed_view(phi2)
    mapping = {}
    renaming = {}
    declarations = []
    for name, var in phi2_decl_items:
        if name in taken:
            new_name = fresh_name(name)
            new_var = mk_var(new_name, var.sort)
            mapping[var] = new_var
            renaming[name] = new_name
            declarations.append(new_var)
        else:
            declarations.append(var)

    key = tuple(renaming.items())
    commands = phi2.commands
    cache = getattr(phi2, "_rename_cache", None)
    if cache is not None:
        entry = cache.get(key)
        if entry is not None:
            prev_commands, asserts, vars_by_sort, extra_draws = entry
            if prev_commands == commands:
                set_fresh_name_position(fresh_name_position() + extra_draws)
                # The cached vars_by_sort holds tuples and callers only
                # read it (pair selection copies before shuffling), so
                # it is shared as-is; the assert list is copied because
                # callers rebind per-element results into fresh lists.
                return list(asserts), declarations, renaming, vars_by_sort

    before = fresh_name_position()
    if mapping:
        asserts = [substitute(t, mapping) for t in phi2.asserts]
    else:
        asserts = list(phi2.asserts)
    extra_draws = fresh_name_position() - before
    vars_by_sort = {
        s: tuple(vs) for s, vs in _grouped_free_vars(asserts).items()
    }
    if cache is None:
        cache = phi2._rename_cache = {}
    elif len(cache) >= 16:
        cache.clear()  # bound per-seed memory in very large corpora
    cache[key] = (list(commands), list(asserts), vars_by_sort, extra_draws)
    return asserts, declarations, renaming, vars_by_sort


def _random_pairs(vars1, vars2, rng, config):
    """The paper's ``random_map``: same-sort variable pairs to fuse."""
    pairs = []
    for sort in FUSIBLE_SORTS:
        xs = list(vars1.get(sort, []))
        ys = list(vars2.get(sort, []))
        if not xs or not ys:
            continue
        rng.shuffle(xs)
        rng.shuffle(ys)
        pairs.extend(zip(xs, ys))
    if not pairs:
        raise FusionError("no same-sort variable pair to fuse")
    rng.shuffle(pairs)
    return pairs[: config.max_pairs]


def _build_triplets(pairs, rng, config):
    triplets = []
    for x, y in pairs:
        z = mk_var(fresh_name("z"), x.sort)
        instance = pick_instance(x.sort, rng, config)
        triplets.append(FusionTriplet(z, x, y, instance))
    return triplets


def _variable_fusion(asserts1, asserts2, triplets, rng, config):
    """Algorithm 2's ``variable_fusion``: random inversion substitution."""
    replaced = total = 0
    probability = config.substitution_probability
    for triplet in triplets:
        x, y, z = triplet.x, triplet.y, triplet.z
        rx = triplet.instance.invert_x(x, y, z)
        ry = triplet.instance.invert_y(x, y, z)
        for var, inversion, asserts in ((x, rx, asserts1), (y, ry, asserts2)):
            name = var.name
            new = []
            for term in asserts:
                # An assert whose cached free-name set lacks the
                # variable has zero occurrences: keep it as-is without
                # the substitution round trip (no RNG draw happens for
                # zero occurrences, so the stream is unchanged).
                names = term.__dict__.get("_free_names")
                if names is not None and name not in names:
                    new.append(term)
                    continue
                term, r, t = random_occurrence_substitution(
                    term, var, inversion, rng, probability
                )
                replaced += r
                total += t
                new.append(term)
            if var is x:
                asserts1 = new
            else:
                asserts2 = new
    return asserts1, asserts2, replaced, total


def _merged_declarations(phi1, phi2_decls, triplets):
    out = []
    seen = set()
    _, decl_items, _ = _seed_view(phi1)
    for _, var in decl_items:
        seen.add(var.name)
        out.append(var)
    for var in phi2_decls:
        if var.name not in seen:
            seen.add(var.name)
            out.append(var)
    for triplet in triplets:
        out.append(triplet.z)
    return out


_CHECK_SAT = CheckSat()


def _assemble(logic, declarations, asserts):
    commands = []
    append = commands.append
    if logic:
        append(SetLogic(logic))
    for var in declarations:
        # A variable's declare-fun is a pure function of the (interned)
        # Var node; cache it there so repeated fusions of the same seeds
        # reuse the command objects.
        d = var.__dict__
        cmd = d.get("_decl_cmd")
        if cmd is None:
            cmd = d["_decl_cmd"] = DeclareFun(var.name, (), var.sort)
        append(cmd)
    for term in asserts:
        d = term.__dict__
        cmd = d.get("_assert_cmd")
        if cmd is None:
            cmd = d["_assert_cmd"] = Assert(term)
        append(cmd)
    append(_CHECK_SAT)
    return Script(commands)


def _merged_logic(phi1, phi2):
    """Keep the seeds' logic only when both agree (fusion may leave it
    anyway, e.g. multiplication makes linear seeds nonlinear — so the
    merged script drops the annotation unless the seeds share one)."""
    if phi1.logic is not None and phi1.logic == phi2.logic:
        return None
    return None


def fuse(oracle, phi1, phi2, rng=None, config=None):
    """Fuse two equisatisfiable scripts (Algorithm 2).

    ``oracle`` is ``"sat"`` or ``"unsat"`` — the shared satisfiability
    of the two seeds, which the fused script preserves by construction.
    Returns a :class:`FusionResult`.
    """
    if oracle not in ("sat", "unsat"):
        raise FusionError(f"oracle must be 'sat' or 'unsat', got {oracle!r}")
    rng = rng or random.Random()
    config = config or FusionConfig()

    asserts1 = list(phi1.asserts)
    asserts2, phi2_decls, renaming, vars2 = _rename_apart(phi1, phi2)

    vars1 = _typed_free_vars(phi1)
    pairs = _random_pairs(vars1, vars2, rng, config)
    triplets = _build_triplets(pairs, rng, config)

    asserts1, asserts2, replaced, total = _variable_fusion(
        asserts1, asserts2, triplets, rng, config
    )

    declarations = _merged_declarations(phi1, phi2_decls, triplets)
    if oracle == "sat":
        # Formula conjunction: merge the assert blocks.
        fused_asserts = asserts1 + asserts2
    else:
        # Formula disjunction plus the fusion constraints.
        disjunction = b.or_(
            _conjoin(asserts1),
            _conjoin(asserts2),
        )
        fused_asserts = [disjunction]
        for triplet in triplets:
            fused_asserts.extend(
                triplet.instance.constraints(triplet.x, triplet.y, triplet.z)
            )

    script = _assemble(_merged_logic(phi1, phi2), declarations, fused_asserts)
    return FusionResult(
        script=script,
        oracle=oracle,
        triplets=triplets,
        renaming=renaming,
        replaced_occurrences=replaced,
        total_occurrences=total,
    )


def fuse_mixed(phi_sat, phi_unsat, want, rng=None, config=None):
    """Mixed fusion (Section 3.2): one satisfiable and one unsatisfiable seed.

    ``want="sat"`` uses disjunction (satisfiable by the sat seed);
    ``want="unsat"`` uses conjunction plus fusion constraints
    (unsatisfiable because the unsat seed's conjunct cannot hold).
    """
    if want not in ("sat", "unsat"):
        raise FusionError(f"want must be 'sat' or 'unsat', got {want!r}")
    rng = rng or random.Random()
    config = config or FusionConfig()

    asserts1 = list(phi_sat.asserts)
    asserts2, phi2_decls, renaming, vars2 = _rename_apart(phi_sat, phi_unsat)
    pairs = _random_pairs(_typed_free_vars(phi_sat), vars2, rng, config)
    triplets = _build_triplets(pairs, rng, config)
    asserts1, asserts2, replaced, total = _variable_fusion(
        asserts1, asserts2, triplets, rng, config
    )
    declarations = _merged_declarations(phi_sat, phi2_decls, triplets)
    if want == "sat":
        fused_asserts = [b.or_(_conjoin(asserts1), _conjoin(asserts2))]
    else:
        fused_asserts = asserts1 + asserts2
        for triplet in triplets:
            fused_asserts.extend(
                triplet.instance.constraints(triplet.x, triplet.y, triplet.z)
            )
    script = _assemble(None, declarations, fused_asserts)
    return FusionResult(
        script=script,
        oracle=want,
        triplets=triplets,
        renaming=renaming,
        replaced_occurrences=replaced,
        total_occurrences=total,
    )


def _conjoin(asserts):
    if not asserts:
        return b.lift(True)
    if len(asserts) == 1:
        return asserts[0]
    return b.and_(*asserts)


def fuse_scripts(oracle, phi1, phi2, seed=0, config=None):
    """Convenience wrapper returning just the fused :class:`Script`."""
    return fuse(oracle, phi1, phi2, random.Random(seed), config).script


class _RecordingModel(Model):
    """A model copy that records which division-at-zero keys are consulted."""

    def __init__(self, base):
        super().__init__(dict(base.items()))
        self.requested = []

    def div_at_zero(self, op, numerator):
        self.requested.append((op, numerator))
        return super().div_at_zero(op, numerator)


def fused_model(result, model1, model2):
    """The constructed model of Proposition 1: ``M1 ∪ M2 ∪ {z -> f(x,y)}``.

    ``model2`` is keyed by the *original* phi2 variable names; the
    renaming recorded in ``result`` is applied. Only meaningful for SAT
    fusion.

    Proposition 1's proof needs ``M(r_x(y, z)) = M(x)``. When an
    inversion function divides by zero under the model (e.g. the
    multiplication scheme's ``z div y`` with ``M(y) = 0``), SMT-LIB
    leaves the division uninterpreted — so the constructed model *pins*
    the division-at-zero choice to the value that makes the inversion
    exact, exactly as the proof's model is free to do.
    """
    merged = Model()
    for name, value in model1.items():
        merged[name] = value
    for name, value in model2.items():
        merged[result.renaming.get(name, name)] = value
    for triplet in result.triplets:
        fusion_term = triplet.instance.fusion(triplet.x, triplet.y)
        merged[triplet.z.name] = evaluate(fusion_term, merged)
    for triplet in result.triplets:
        for build, target in (
            (triplet.instance.invert_x, triplet.x),
            (triplet.instance.invert_y, triplet.y),
        ):
            inversion = build(triplet.x, triplet.y, triplet.z)
            expected = merged[target.name]
            probe = _RecordingModel(merged)
            if evaluate(inversion, probe) == expected:
                continue
            if len(set(probe.requested)) == 1:
                op, numerator = probe.requested[0]
                merged.set_div_at_zero(op, numerator, expected)
    return merged
