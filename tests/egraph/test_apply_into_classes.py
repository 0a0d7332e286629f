"""Pattern rules and ``R-BETAREDUCE`` apply straight into class ids,
and ``add_term`` memoizes subterms by identity across the merges that
leave its e-nodes' children roots.

All of it must be invisible: :func:`add_instance` (what ``Rule.apply``
runs for a pattern rule) and :meth:`EGraph.add_subst` (what the
beta-reduction applier runs) have to insert exactly the e-nodes,
classes and union-origin events that ``add_term(instantiate(...))`` and
``add_term(subst(...))`` insert, in the same order, over any e-graph
and any interleaving of merges and rebuilds.  The reference runs on a
deep copy of the graph, whose memo cannot answer for the original's
term objects.
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
from repro.ir.debruijn import subst
from repro.ir.terms import Build, Call, Const, Lam, Symbol, Var

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
        # operation sees a merge the memo survives only if its loser is
        # no memoized e-node's child.
        ids = egraph.class_ids()
        other = ids[target % len(ids)]
        egraph.merge(got, other)
        reference.merge(want, other)
        assert _state(egraph) == _state(reference)


# Bodies mention free indices 0-2 under nested lambdas; values have
# free variables of their own, so substitution shifts them under a
# binder and lowers the body's other free indices.
_bodies = st.recursive(
    st.one_of(
        st.sampled_from([Symbol("a"), Symbol("b"), Const(0)]),
        st.integers(min_value=0, max_value=2).map(Var),
    ),
    lambda inner: st.one_of(
        inner.map(Lam),
        inner.map(lambda body: Build(4, Lam(body))),
        st.tuples(st.sampled_from(["f", "h"]), inner, inner).map(
            lambda parts: Call(parts[0], (parts[1], parts[2]))
        ),
    ),
    max_leaves=8,
)

_subst_ops = st.lists(
    st.one_of(
        st.tuples(st.just("subst"), st.integers(0, 10**6), st.integers(0, 10**6)),
        st.tuples(st.just("merge"), st.integers(0, 10**6), st.integers(0, 10**6)),
        st.tuples(st.just("rebuild")),
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed_terms=st.lists(_terms, min_size=1, max_size=5),
       bodies=st.lists(_bodies, min_size=1, max_size=4),
       values=st.lists(_terms, min_size=2, max_size=3),
       ops=_subst_ops)
def test_add_subst_matches_add_term_of_subst(seed_terms, bodies, values, ops):
    egraph = EGraph()
    for term in seed_terms:
        egraph.add_term(term)
    egraph.origin_tag = "R-BetaReduce"
    for op in ops:
        if op[0] == "merge":
            ids = egraph.class_ids()
            egraph.merge(ids[op[1] % len(ids)], ids[op[2] % len(ids)])
            continue
        if op[0] == "rebuild":
            egraph.rebuild()
            continue
        _, body_index, target = op
        # Shared objects: the memos see bodies and values again, and
        # one body meets every value in turn.
        body = bodies[body_index % len(bodies)]
        reference = copy.deepcopy(egraph)
        reference.drop_term_memo()
        for value in values:
            want = reference.add_term(subst(body, value))
            got = egraph.add_subst(body, value)
            assert got == want
            assert _state(egraph) == _state(reference)
        ids = egraph.class_ids()
        other = ids[target % len(ids)]
        egraph.merge(got, other)
        reference.merge(want, other)
        assert _state(egraph) == _state(reference)


def test_memo_dropped_when_the_loser_is_a_memoized_child():
    egraph = EGraph()
    term = Call("f", (Symbol("a"), Symbol("b")))
    egraph.add_term(term)
    b = egraph.add_term(Symbol("b"))
    d = egraph.add_term(Symbol("d"))
    # ``b`` loses: the memoized f(a, b) node's child is no longer a root.
    assert egraph.merge(d, b) == d
    assert egraph._term_memo == {}
    # A fresh walk builds f(a, d), which the hashcons has not seen yet.
    before = egraph.num_nodes
    egraph.add_term(term)
    assert egraph.num_nodes == before + 1


def test_memo_dropped_on_rebuild():
    egraph = EGraph()
    term = Call("f", (Symbol("a"),))
    egraph.add_term(term)
    egraph.add_subst(Lam(Var(1)), Symbol("a"))
    assert egraph._term_memo and egraph._subst_memo
    egraph.rebuild()
    assert egraph._term_memo == {} and egraph._subst_memo == {}


def test_subst_memo_answers_for_any_value_when_the_body_ignores_it():
    egraph = EGraph()
    # (λ e↑) y: the body never mentions the substituted index.
    body = Call("f", (Lam(Var(2)), Symbol("a")))
    first = egraph.add_subst(body, Symbol("y1"))
    entry = egraph._subst_memo[(id(body), 0)]
    assert entry[0] is body and entry[1] is None
    assert egraph.add_subst(body, Symbol("y2")) == first
    assert first == egraph.add_term(subst(body, Symbol("y2")))
    # A body that uses the value answers only for the same value object.
    used = Call("f", (Var(0), Symbol("a")))
    value = Symbol("y1")
    egraph.add_subst(used, value)
    assert egraph._subst_memo[(id(used), 0)][1] is value
    assert egraph.add_subst(used, Symbol("y2")) == egraph.add_term(
        Call("f", (Symbol("y2"), Symbol("a"))))


def test_memo_answers_after_a_merge_whose_loser_is_no_memoized_child():
    egraph = EGraph()
    term = Call("f", (Symbol("a"), Symbol("b")))
    first = egraph.add_term(term)
    assert egraph.add_term(term) == first
    other = egraph.add_term(Symbol("c"))
    # Equal ranks: the first argument's root wins, so ``c`` loses, and
    # no memoized e-node has ``c`` as a child.
    root = egraph.merge(first, other)
    assert egraph._term_memo[id(term)][0] is term
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
