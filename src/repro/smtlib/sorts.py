"""SMT-LIB sorts supported by the reproduction.

The paper's evaluation covers the arithmetic logics (LIA, LRA, NRA and
their quantifier-free variants) and the string logics (QF_S, QF_SLIA),
so the sort universe is Bool, Int, Real, String and RegLan (the sort of
regular-language terms used by ``str.in.re``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Sort:
    """An SMT-LIB sort, identified by its name.

    Sorts are interned: use the module-level constants ``BOOL``, ``INT``,
    ``REAL``, ``STRING`` and ``REGLAN`` rather than constructing new ones.
    """

    name: str

    def __post_init__(self):
        # Sorts appear in every term's intern key and structural hash;
        # precomputing the hash keeps those probes O(1) instead of
        # re-hashing the field tuple on every lookup.
        object.__setattr__(self, "_hash", hash((Sort, self.name)))

    def __hash__(self):
        return self._hash

    def __str__(self):
        return self.name


BOOL = Sort("Bool")
INT = Sort("Int")
REAL = Sort("Real")
STRING = Sort("String")
REGLAN = Sort("RegLan")

_BY_NAME = {s.name: s for s in (BOOL, INT, REAL, STRING, REGLAN)}

# Historical spellings accepted by solvers for compatibility.
_ALIASES = {
    "RegEx": REGLAN,  # SMT-LIB 2.5 / z3str3 spelling
}

# -- indexed sort families (e.g. ``(_ BitVec 8)``) -------------------------
#
# Indexed sorts are interned per index vector so every width shares one
# Sort object, exactly like the fixed singletons above. The name carries
# the indices (``(_ BitVec 8)``), which keeps the term-intern keys —
# they hash ``sort.name`` — and ``str(sort)`` printing correct for free.

_BITVEC_PREFIX = "(_ BitVec "
_BV_SORTS = {}


def bitvec_sort(width):
    """The interned bitvector sort of ``width`` bits (``(_ BitVec w)``)."""
    try:
        return _BV_SORTS[width]
    except KeyError:
        pass
    if not isinstance(width, int) or isinstance(width, bool) or width <= 0:
        raise ValueError(f"bitvector width must be a positive int, got {width!r}")
    sort = _BV_SORTS[width] = Sort(f"(_ BitVec {width})")
    return sort


def is_bitvec(sort):
    """True if ``sort`` is a bitvector sort of any width."""
    return isinstance(sort, Sort) and sort.name.startswith(_BITVEC_PREFIX)


def bitvec_width(sort):
    """The width of a bitvector sort. Raises ``ValueError`` otherwise."""
    if not is_bitvec(sort):
        raise ValueError(f"not a bitvector sort: {sort}")
    return int(sort.name[len(_BITVEC_PREFIX):-1])


def _parse_bitvec_name(name):
    """``bitvec_sort(w)`` for a ``(_ BitVec w)`` spelling, else ``None``."""
    if not (name.startswith(_BITVEC_PREFIX) and name.endswith(")")):
        return None
    digits = name[len(_BITVEC_PREFIX):-1]
    if not digits.isdigit() or int(digits) <= 0:
        return None
    return bitvec_sort(int(digits))


def sort_by_name(name):
    """Look up a sort by its SMT-LIB name. Raises ``KeyError`` if unknown."""
    if name in _BY_NAME:
        return _BY_NAME[name]
    if name in _ALIASES:
        return _ALIASES[name]
    bv = _parse_bitvec_name(name)
    if bv is not None:
        return bv
    raise KeyError(f"unknown sort: {name!r}")
