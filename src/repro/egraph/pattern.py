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

Matching is generator-based backtracking over the e-nodes of each
class.  Bindings map metavariable names to :class:`Binding` values and
size-variable names to ints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple as TupleT, Union

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
    "match_class",
    "match_enode_root",
    "instantiate",
    "pattern_root_ops",
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


SizeSpec = Union[int, SizeVar]


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
# Matching
# ---------------------------------------------------------------------------


def _bind_size(bindings: Bindings, spec: SizeSpec, value: object) -> Optional[Bindings]:
    if isinstance(spec, SizeVar):
        existing = bindings.get(spec.name)
        if existing is None:
            updated = dict(bindings)
            updated[spec.name] = value
            return updated
        return bindings if existing == value else None
    return bindings if spec == value else None


def _bind_var(
    egraph: EGraph, bindings: Bindings, pvar: PVar, class_id: int
) -> Iterator[Bindings]:
    class_id = egraph.find(class_id)
    existing = bindings.get(pvar.name)
    if pvar.shift == 0 and not pvar.as_term:
        if existing is None:
            updated = dict(bindings)
            updated[pvar.name] = ClassBinding(class_id)
            yield updated
        elif isinstance(existing, ClassBinding):
            if egraph.find(existing.class_id) == class_id:
                yield bindings
        elif isinstance(existing, TermBinding):
            # Mixed mode: accept when some small representative of the
            # class equals the previously bound term.
            if existing.term in egraph.extract_candidates(class_id):
                yield bindings
        return
    # Term binding (possibly unshifted).  Each candidate representative
    # of the class that avoids the forbidden bound variables yields a
    # distinct binding; candidates are few (see extract_candidates).
    for term in egraph.unshifted_candidates(class_id, pvar.shift):
        if existing is None:
            updated = dict(bindings)
            updated[pvar.name] = TermBinding(term)
            yield updated
            continue
        if isinstance(existing, TermBinding) and existing.term == term:
            yield bindings
            return
        if isinstance(existing, ClassBinding):
            if egraph.find(existing.class_id) == class_id and pvar.shift == 0:
                yield bindings
                return


def match_class(
    egraph: EGraph, pattern: Pattern, class_id: int, bindings: Optional[Bindings] = None
) -> Iterator[Bindings]:
    """Yield every binding under which ``pattern`` matches ``class_id``."""
    bindings = bindings if bindings is not None else {}
    if isinstance(pattern, PVar):
        yield from _bind_var(egraph, bindings, pattern, class_id)
        return
    assert isinstance(pattern, PNode)
    class_id = egraph.find(class_id)
    for enode in list(egraph.nodes_of(class_id)):
        if enode.op != pattern.op:
            continue
        yield from _match_children(egraph, pattern, enode, bindings)


def match_enode_root(
    egraph: EGraph, pattern: PNode, enode, bindings: Optional[Bindings] = None
) -> Iterator[Bindings]:
    """Match a concrete pattern against one specific root e-node."""
    bindings = bindings if bindings is not None else {}
    if enode.op != pattern.op:
        return
    yield from _match_children(egraph, pattern, enode, bindings)


def _match_children(
    egraph: EGraph, pattern: PNode, enode, bindings: Bindings
) -> Iterator[Bindings]:
    # Payload / size handling.
    if pattern.op in ("build", "ifold"):
        bound = _bind_size(bindings, pattern.payload, enode.payload)  # type: ignore[arg-type]
        if bound is None:
            return
        bindings = bound
    elif pattern.payload != enode.payload:
        return
    if len(pattern.children) != len(enode.children):
        return
    yield from _match_sequence(egraph, pattern.children, enode.children, bindings)


def _match_sequence(
    egraph: EGraph,
    patterns: TupleT[Pattern, ...],
    class_ids: TupleT[int, ...],
    bindings: Bindings,
) -> Iterator[Bindings]:
    if not patterns:
        yield bindings
        return
    head_pattern, *rest_patterns = patterns
    head_class, *rest_classes = class_ids
    for partial in match_class(egraph, head_pattern, head_class, bindings):
        yield from _match_sequence(
            egraph, tuple(rest_patterns), tuple(rest_classes), partial
        )


def pattern_root_ops(pattern: Pattern) -> Optional[str]:
    """The root operator tag of a concrete pattern, or ``None`` for a
    bare metavariable (matches everything)."""
    if isinstance(pattern, PNode):
        return pattern.op
    return None


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
