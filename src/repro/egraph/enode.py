"""E-node representation and term ⇄ e-node conversion helpers.

An e-node is an operator applied to e-class ids.  We represent it as a
named tuple ``ENode(op, payload, children)`` where:

* ``op`` is a short operator tag (``"lam"``, ``"app"``, ``"build"``,
  ``"index"``, ``"ifold"``, ``"tuple"``, ``"fst"``, ``"snd"``,
  ``"call"``, ``"var"``, ``"const"``, ``"symbol"``);
* ``payload`` carries static data (De Bruijn index, build/ifold size,
  call name, constant value, symbol name), ``None`` otherwise;
* ``children`` is a tuple of e-class ids.

The mapping from :mod:`repro.ir.terms` nodes is:

====================  ======  ==================  ==================
Term                  op      payload             children
====================  ======  ==================  ==================
``Var(i)``            var     ``i``               —
``Lam(e)``            lam     —                   ``(e,)``
``App(f, x)``         app     —                   ``(f, x)``
``Build(N, f)``       build   ``N``               ``(f,)``
``Index(a, i)``       index   —                   ``(a, i)``
``IFold(N, z, f)``    ifold   ``N``               ``(z, f)``
``Tuple(a, b)``       tuple   —                   ``(a, b)``
``Fst(t)``            fst     —                   ``(t,)``
``Snd(t)``            snd     —                   ``(t,)``
``Call(name, args)``  call    ``name``            ``args``
``Const(v)``          const   ``v``               —
``Symbol(name)``      symbol  ``name``            —
====================  ======  ==================  ==================

Being a tuple, an e-node is built, hashed and compared in C: it is the
hashcons key that every insertion probes.  Hot loops read its fields by
position (``node[0]`` is ``op``, ``node[1]`` ``payload``, ``node[2]``
``children``), which is cheaper than a named-field read.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, NamedTuple, Tuple as TupleT

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

__all__ = ["ENode", "term_to_parts", "enode_to_term_shallow", "LEAF_OPS"]

LEAF_OPS = frozenset({"var", "const", "symbol"})


class ENode(NamedTuple):
    """An operator over e-class ids.  Hashable; used as the hashcons key."""

    op: str
    payload: object
    children: TupleT[int, ...]

    def map_children(self, fn: Callable[[int], int]) -> "ENode":
        """Return a copy with every child id passed through ``fn``."""
        op, payload, children = self
        if not children:
            return self
        return ENode(op, payload, tuple([fn(c) for c in children]))


#: Term type -> its ``(op, payload, child_terms)`` decomposition.
_PARTS: Dict[type, Callable[[Any], TupleT[str, object, TupleT[Term, ...]]]] = {
    Var: lambda t: ("var", t.index, ()),
    Lam: lambda t: ("lam", None, (t.body,)),
    App: lambda t: ("app", None, (t.fn, t.arg)),
    Build: lambda t: ("build", t.size, (t.fn,)),
    Index: lambda t: ("index", None, (t.array, t.index)),
    IFold: lambda t: ("ifold", t.size, (t.init, t.fn)),
    Tuple: lambda t: ("tuple", None, (t.fst, t.snd)),
    Fst: lambda t: ("fst", None, (t.tup,)),
    Snd: lambda t: ("snd", None, (t.tup,)),
    Call: lambda t: ("call", t.name, t.args),
    Const: lambda t: ("const", t.value, ()),
    Symbol: lambda t: ("symbol", t.name, ()),
}


def term_to_parts(term: Term) -> TupleT[str, object, TupleT[Term, ...]]:
    """Decompose a term into ``(op, payload, child_terms)``."""
    parts = _PARTS.get(type(term))
    if parts is None:
        raise TypeError(f"unknown term type: {type(term).__name__}")
    return parts(term)


def enode_to_term_shallow(op: str, payload: object, children: TupleT[Term, ...]) -> Term:
    """Rebuild a term from an operator tag and already-built child terms."""
    if op == "var":
        return Var(payload)  # type: ignore[arg-type]
    if op == "lam":
        (body,) = children
        return Lam(body)
    if op == "app":
        fn, arg = children
        return App(fn, arg)
    if op == "build":
        (fn,) = children
        return Build(payload, fn)  # type: ignore[arg-type]
    if op == "index":
        array, index = children
        return Index(array, index)
    if op == "ifold":
        init, fn = children
        return IFold(payload, init, fn)  # type: ignore[arg-type]
    if op == "tuple":
        fst, snd = children
        return Tuple(fst, snd)
    if op == "fst":
        (tup,) = children
        return Fst(tup)
    if op == "snd":
        (tup,) = children
        return Snd(tup)
    if op == "call":
        return Call(payload, children)  # type: ignore[arg-type]
    if op == "const":
        return Const(payload)  # type: ignore[arg-type]
    if op == "symbol":
        return Symbol(payload)  # type: ignore[arg-type]
    raise ValueError(f"unknown e-node op: {op!r}")
