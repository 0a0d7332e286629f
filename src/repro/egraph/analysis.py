"""Shape analysis as an e-class analysis.

Attaches a :class:`~repro.ir.shapes.Shape` to every e-class so the
target cost models (listings 6–8) can read array dimensions ``N``,
``M``, ``K`` off library-call operands during extraction.

Approximations (documented, sound for every kernel and idiom in the
paper):

* De Bruijn variables are assumed **scalar** — in the build/ifold
  paradigm lambda parameters are loop indices and scalar accumulators.
* ``join`` keeps the first (already recorded) shape when two known
  shapes disagree instead of raising; merges performed by the sound
  rule set cannot produce true disagreements, but the scalar-variable
  approximation can produce *apparent* ones, and extraction only needs
  a best-effort dimension estimate.  Genuine ``Unknown``s are refined
  by whichever merged class knows more (e.g. ``memset(0)`` learns its
  length from the ``build N (λ 0)`` it merges with).
* Shapes nested deeper than :data:`MAX_SHAPE_DEPTH` (function and pair
  nesting plus array rank) widen to ``Unknown``.  Around a cycle
  through a constructor — merging ``u`` into ``(u, s)`` — each round
  of analysis propagation would otherwise nest the shape one level
  deeper, for ever; real kernels stay far below the bound.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..ir.shapes import (
    SCALAR,
    UNKNOWN,
    Array,
    Fn,
    Pair,
    Scalar,
    Shape,
    Unknown,
    shape_of_call,
)
from .egraph import Analysis, EGraph
from .enode import ENode

__all__ = [
    "ShapeAnalysis",
    "shape_of_class",
    "dims_of_class",
    "shape_depth",
    "MAX_SHAPE_DEPTH",
]

#: Deepest shape the analysis records (see :func:`shape_depth`).
MAX_SHAPE_DEPTH = 16


def shape_depth(shape: Shape) -> int:
    """Nesting depth of a shape: array rank, plus one per enclosing
    function or pair."""
    if isinstance(shape, Array):
        return len(shape.dims)
    if isinstance(shape, Fn):
        return 1 + max(shape_depth(shape.param), shape_depth(shape.result))
    if isinstance(shape, Pair):
        return 1 + max(shape_depth(shape.fst), shape_depth(shape.snd))
    return 0


def _widen(shape: Shape) -> Shape:
    return UNKNOWN if shape_depth(shape) > MAX_SHAPE_DEPTH else shape


class ShapeAnalysis(Analysis):
    """Egg-style analysis computing a shape per e-class."""

    def __init__(self, symbol_shapes: Optional[Dict[str, Shape]] = None) -> None:
        self.symbol_shapes = dict(symbol_shapes or {})

    def make(self, egraph: EGraph, enode: ENode) -> Shape:
        data = lambda class_id: _shape(egraph.data_of(class_id))  # noqa: E731
        op = enode.op
        if op == "var":
            return SCALAR
        if op == "const":
            return SCALAR
        if op == "symbol":
            return self.symbol_shapes.get(enode.payload, UNKNOWN)  # type: ignore[arg-type]
        # Only lam, build and tuple nest deeper than their children;
        # join never does, so widening here bounds every shape.
        if op == "lam":
            return _widen(Fn(SCALAR, data(enode.children[0])))
        if op == "app":
            fn = data(enode.children[0])
            if isinstance(fn, Fn):
                return fn.result
            return UNKNOWN
        if op == "build":
            fn = data(enode.children[0])
            element = fn.result if isinstance(fn, Fn) else UNKNOWN
            size: int = enode.payload  # type: ignore[assignment]
            if isinstance(element, Scalar):
                return Array((size,))
            if isinstance(element, Array):
                return _widen(Array((size,) + element.dims))
            return UNKNOWN
        if op == "index":
            array = data(enode.children[0])
            if isinstance(array, Array):
                return array.element
            return UNKNOWN
        if op == "ifold":
            init = data(enode.children[0])
            fn = data(enode.children[1])
            inner = UNKNOWN
            if isinstance(fn, Fn) and isinstance(fn.result, Fn):
                inner = fn.result.result
            return self.join(init, inner)
        if op == "tuple":
            return _widen(Pair(data(enode.children[0]), data(enode.children[1])))
        if op == "fst":
            tup = data(enode.children[0])
            if isinstance(tup, Pair):
                return tup.fst
            return UNKNOWN
        if op == "snd":
            tup = data(enode.children[0])
            if isinstance(tup, Pair):
                return tup.snd
            return UNKNOWN
        if op == "call":
            args = tuple(data(child) for child in enode.children)
            return shape_of_call(enode.payload, args)  # type: ignore[arg-type]
        return UNKNOWN

    def join(self, a: object, b: object) -> Shape:
        shape_a = _shape(a)
        shape_b = _shape(b)
        if isinstance(shape_a, Unknown):
            return shape_b
        if isinstance(shape_b, Unknown):
            return shape_a
        if shape_a == shape_b:
            return shape_a
        if isinstance(shape_a, Fn) and isinstance(shape_b, Fn):
            return Fn(self.join(shape_a.param, shape_b.param),
                      self.join(shape_a.result, shape_b.result))
        if isinstance(shape_a, Pair) and isinstance(shape_b, Pair):
            return Pair(self.join(shape_a.fst, shape_b.fst),
                        self.join(shape_a.snd, shape_b.snd))
        # Apparent conflict (see module docstring): keep the first.
        return shape_a


def _shape(data: object) -> Shape:
    return data if isinstance(data, Shape) else UNKNOWN


def shape_of_class(egraph: EGraph, class_id: int) -> Shape:
    """Shape recorded for the class of ``class_id`` (``Unknown`` when
    the graph was built without a shape analysis)."""
    return _shape(egraph.data_of(class_id))


def dims_of_class(egraph: EGraph, class_id: int) -> tuple:
    """Array dims of the class, or ``()`` when not an array."""
    shape = shape_of_class(egraph, class_id)
    if isinstance(shape, Array):
        return shape.dims
    return ()
