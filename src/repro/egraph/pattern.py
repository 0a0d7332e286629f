"""Patterns over the minimalist IR and e-matching.

A pattern mirrors the term grammar with three extensions:

* :class:`PVar` — a metavariable.  With ``shift == 0`` it binds the
  matched *e-class*.  With ``shift == k > 0`` it corresponds to the
  paper's ``A↑…↑`` notation: the matched e-class must represent some
  expression that does not reference the ``k`` innermost bound
  variables; the binding is that expression *unshifted* by ``k``
  (an expression-level operation, so the engine extracts candidate
  representative terms from the class — the paper's approach 2,
  §IV-B3).  ``as_term=True`` forces a term binding even at shift 0
  (needed by rules whose application runs ``subst``).
* :class:`SizeVar` — a metavariable over the compile-time sizes of
  ``build``/``ifold`` nodes.
* Concrete nodes (:class:`PNode`) match e-nodes with the same operator
  tag and payload.

Matching lives in :mod:`repro.egraph.matcher`, which compiles each
pattern into a specialized Python generator.  A match is a bindings
dict mapping metavariable names to :class:`Binding` values and
size-variable names to ints.  This module also instantiates patterns
(a rule's right-hand side) under such bindings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple as TupleT, Union

from ..ir.debruijn import shift as shift_term
from ..ir.terms import (
    App,
    Build,
    Call,
    Const,
    Fst,
    IFold,
    Index,
    Lam,
    Snd,
    Symbol,
    Term,
    Tuple,
    Var,
)
from .egraph import ClassRef, EGraph

__all__ = [
    "Pattern",
    "PVar",
    "PNode",
    "SizeVar",
    "Binding",
    "ClassBinding",
    "TermBinding",
    "Bindings",
    "pattern_of_term",
    "instantiate",
]


class Pattern:
    """Base class for patterns."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class PVar(Pattern):
    """Metavariable, optionally under ``shift`` applications of ``↑``."""

    name: str
    shift: int = 0
    as_term: bool = False

    def __post_init__(self) -> None:
        if self.shift < 0:
            raise ValueError("PVar shift must be >= 0")


@dataclass(frozen=True, slots=True)
class SizeVar:
    """Metavariable over compile-time array sizes."""

    name: str


@dataclass(frozen=True, slots=True)
class PNode(Pattern):
    """Concrete pattern node: operator tag + payload + child patterns.

    For ``build``/``ifold`` the payload may be a :class:`SizeVar`.
    """

    op: str
    payload: object
    children: TupleT[Pattern, ...] = field(default_factory=tuple)


# ---------------------------------------------------------------------------
# Bindings
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ClassBinding:
    """A metavariable bound to an e-class."""

    class_id: int


@dataclass(frozen=True, slots=True)
class TermBinding:
    """A metavariable bound to a concrete (already unshifted) term."""

    term: Term


Binding = Union[ClassBinding, TermBinding]
Bindings = Dict[str, object]  # name -> Binding | int (for SizeVar)


# ---------------------------------------------------------------------------
# Building patterns from terms with embedded PVars
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class _HoleTerm(Term):
    """Internal: a PVar embedded in a term used as pattern syntax."""

    pvar: PVar


def hole(name: str, shift: int = 0, as_term: bool = False) -> Term:
    """A metavariable usable inside ordinary term constructors, e.g.
    ``b.build(sv_n, b.lam(hole("A", 1)[b.v(0)]))``."""
    return _HoleTerm(PVar(name, shift, as_term))


@dataclass(frozen=True, slots=True)
class _SizeHoleMarker:
    name: str


def pattern_of_term(term: Term, sizes: Optional[Dict[int, str]] = None) -> Pattern:
    """Convert a term (possibly containing :func:`hole` markers) into a
    pattern.

    ``sizes`` optionally maps *literal size values* occurring in the
    term to size-variable names, turning e.g. every ``build 0 …`` whose
    size is listed into ``build ?N …``.  Rule definitions instead use
    the explicit constructors in :mod:`repro.rules.dsl`, which is less
    error-prone; this helper mainly serves tests.
    """
    sizes = sizes or {}
    if isinstance(term, _HoleTerm):
        return term.pvar
    from .enode import term_to_parts

    op, payload, child_terms = term_to_parts(term)
    if op in ("build", "ifold") and payload in sizes:
        payload = SizeVar(sizes[payload])  # type: ignore[assignment]
    return PNode(op, payload, tuple(pattern_of_term(c, sizes) for c in child_terms))


# ---------------------------------------------------------------------------
# Instantiation (pattern -> term, under bindings)
# ---------------------------------------------------------------------------


class InstantiationError(ValueError):
    """Raised when a right-hand side mentions unbound metavariables."""


def instantiate(egraph: EGraph, pattern: Pattern, bindings: Bindings) -> Term:
    """Build a term from ``pattern`` and ``bindings``.

    Class bindings become :class:`~repro.egraph.egraph.ClassRef` leaves
    (no extraction); term bindings are spliced in, re-shifted by the
    pattern variable's ``shift`` (the paper's ``A↑`` on a rule RHS).
    """
    if isinstance(pattern, PVar):
        binding = bindings.get(pattern.name)
        if binding is None:
            raise InstantiationError(f"unbound metavariable ?{pattern.name}")
        if isinstance(binding, ClassBinding):
            if pattern.shift == 0:
                return ClassRef(binding.class_id)
            extracted = egraph.extract_smallest(binding.class_id)
            if extracted is None:
                raise InstantiationError(
                    f"cannot extract a term for ?{pattern.name} to shift it"
                )
            return shift_term(extracted, pattern.shift)
        assert isinstance(binding, TermBinding)
        term = binding.term
        return shift_term(term, pattern.shift) if pattern.shift else term
    assert isinstance(pattern, PNode)
    payload = pattern.payload
    if isinstance(payload, SizeVar):
        value = bindings.get(payload.name)
        if not isinstance(value, int):
            raise InstantiationError(f"unbound size variable ?{payload.name}")
        payload = value
    children = tuple(instantiate(egraph, child, bindings) for child in pattern.children)
    from .enode import enode_to_term_shallow

    return enode_to_term_shallow(pattern.op, payload, children)
