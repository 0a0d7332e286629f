"""Pattern rules apply straight into class ids, and ``add_term``
memoizes subterms by identity between merges.

Both must be invisible: :func:`add_instance` (what ``Rule.apply`` runs
for a pattern rule) has to insert exactly the e-nodes, classes and
union-origin events that ``add_term(instantiate(...))`` inserts, in the
same order, over any e-graph and any interleaving of merges and
rebuilds.  The reference runs on a deep copy of the graph, whose
``add_term`` memo cannot answer for the original's term objects.
"""

import copy

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.egraph import EGraph
from repro.egraph.pattern import (
    ClassBinding,
    InstantiationError,
    PNode,
    PVar,
    SizeVar,
    TermBinding,
    add_instance,
    instantiate,
    rhs_requirements,
)
from repro.egraph.rewrite import Match, rewrite
from repro.ir.terms import Call, Const, Lam, Symbol, Var

#: Right-hand sides covering every variable kind: class-bound, term-
#: bound, shifted, ``as_term`` and size variables.
RHS = [
    PVar("x"),
    PVar("t"),
    PNode("call", "f", (PVar("x"), PVar("t", as_term=True))),
    PNode("build", SizeVar("N"), (PNode("lam", None, (PVar("x", 1),)),)),
    PNode("build", SizeVar("N"), (PNode("lam", None, (PVar("t", 1),)),)),
    PNode("app", None, (PNode("lam", None, (PVar("t"),)), PVar("y"))),
    PNode("call", "g", (
        PNode("call", "f", (PVar("x"), PVar("y"))),
        PNode("const", 0, ()),
        PVar("t"),
    )),
    PNode("ifold", SizeVar("N"), (PVar("y"), PNode("lam", None, (
        PNode("lam", None, (PNode("call", "+", (PVar("x", 2), PNode("var", 0, ()))),)),
    )))),
]

_leaves = st.one_of(
    st.sampled_from([Symbol("a"), Symbol("b"), Symbol("c"), Const(0), Const(1)]),
    st.integers(min_value=0, max_value=1).map(Var),
)
_terms = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        inner.map(Lam),
        st.tuples(st.sampled_from(["f", "h"]), inner, inner).map(
            lambda parts: Call(parts[0], (parts[1], parts[2]))
        ),
    ),
    max_leaves=6,
)

# One operation: ("apply", rhs index, x, y, t, N, target) picks classes
# and pool terms by index; ("merge", a, b) and ("rebuild",) mutate.
_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("apply"),
            st.integers(0, len(RHS) - 1),
            st.integers(0, 10**6), st.booleans(),
            st.integers(0, 10**6), st.booleans(),
            st.integers(0, 10**6), st.sampled_from([2, 4]),
            st.integers(0, 10**6),
        ),
        st.tuples(st.just("merge"), st.integers(0, 10**6), st.integers(0, 10**6)),
        st.tuples(st.just("rebuild")),
    ),
    min_size=1,
    max_size=30,
)


def _roots(egraph):
    return [egraph.find(i) for i in range(len(egraph._uf))]


def _state(egraph):
    return (egraph.num_nodes, egraph.num_classes,
            list(egraph.union_origins), _roots(egraph))


def _binding(pool, egraph, index, as_class):
    ids = egraph.class_ids()
    if as_class:
        return ClassBinding(ids[index % len(ids)])
    # Pool terms are shared objects: the add_term memo sees them again.
    return TermBinding(pool[index % len(pool)])


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed_terms=st.lists(_terms, min_size=1, max_size=5),
       pool=st.lists(_terms, min_size=1, max_size=4),
       ops=_ops)
def test_add_instance_matches_add_term_of_instantiate(seed_terms, pool, ops):
    egraph = EGraph()
    for term in seed_terms:
        egraph.add_term(term)
    egraph.origin_tag = "rule"
    for op in ops:
        if op[0] == "merge":
            ids = egraph.class_ids()
            egraph.merge(ids[op[1] % len(ids)], ids[op[2] % len(ids)])
            continue
        if op[0] == "rebuild":
            egraph.rebuild()
            continue
        _, rhs_index, x, x_class, y, y_class, t, size, target = op
        rhs = RHS[rhs_index]
        bindings = {
            "x": _binding(pool, egraph, x, x_class),
            "y": _binding(pool, egraph, y, y_class),
            "t": TermBinding(pool[t % len(pool)]),
            "N": size,
        }
        reference = copy.deepcopy(egraph)
        reference.drop_term_memo()
        try:
            want = reference.add_term(instantiate(reference, rhs, bindings))
        except InstantiationError:
            before = _state(egraph)
            with pytest.raises(InstantiationError):
                add_instance(egraph, rhs, bindings, rhs_requirements(rhs))
            assert _state(egraph) == before
            continue
        got = add_instance(egraph, rhs, bindings, rhs_requirements(rhs))
        assert got == want
        assert _state(egraph) == _state(reference)
        # Union the instance into a class, as Rule.apply does: the next
        # operation then sees a merge the memo must not survive.
        ids = egraph.class_ids()
        other = ids[target % len(ids)]
        egraph.merge(got, other)
        reference.merge(want, other)
        assert _state(egraph) == _state(reference)


def test_memo_answers_only_between_merges():
    egraph = EGraph()
    term = Call("f", (Symbol("a"), Symbol("b")))
    first = egraph.add_term(term)
    assert egraph.add_term(term) == first
    other = egraph.add_term(Symbol("c"))
    root = egraph.merge(first, other)
    # Same object, new union-find state: the answer is the new root.
    assert egraph.add_term(term) == root == egraph.find(first)


def test_memo_checks_identity_not_equality():
    egraph = EGraph()
    a = egraph.add_term(Call("f", (Symbol("a"),)))
    # An equal term is looked up through the hashcons, not the memo.
    assert egraph.add_term(Call("f", (Symbol("a"),))) == a
    assert egraph.num_nodes == 2


def test_unbound_variable_raises_before_inserting():
    # A left-to-right walk would insert the new constant before it
    # reaches ?z.
    rhs = PNode("call", "f", (PNode("const", 7, ()), PVar("z")))
    rule = rewrite("r", PVar("x"), rhs)
    egraph = EGraph()
    root = egraph.add_term(Symbol("a"))
    egraph.origin_tag = "r"
    before = _state(egraph)
    with pytest.raises(InstantiationError, match=r"\?z"):
        rule.apply(egraph, Match(root, {"x": ClassBinding(root)}))
    assert _state(egraph) == before


def test_unbound_size_variable_raises_before_inserting():
    rhs = PNode("call", "f", (
        PNode("const", 7, ()),
        PNode("build", SizeVar("N"), (PVar("x"),)),
    ))
    rule = rewrite("r", PVar("x"), rhs)
    egraph = EGraph()
    root = egraph.add_term(Symbol("a"))
    before = _state(egraph)
    with pytest.raises(InstantiationError, match=r"\?N"):
        rule.apply(egraph, Match(root, {"x": ClassBinding(root)}))
    assert _state(egraph) == before


def test_pattern_rule_needs_rhs_or_applier():
    from repro.egraph.rewrite import Rule

    with pytest.raises(ValueError, match="neither rhs nor applier"):
        Rule("r", PVar("x"), None)
