"""The greedy (tree-cost) extractor: ported-verbatim behaviour, the
fixpoint iteration cap, and the semi-naive pass schedule checked
against the all-classes loop it replaced."""

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.egraph import EGraph, ShapeAnalysis
from repro.extraction import AstSizeCost, FixpointDivergence, GreedyExtractor
from repro.extraction.base import INFINITY, Extractor
from repro.ir import parse
from repro.ir.shapes import SCALAR, matrix, vector
from repro.ir.terms import Build, Call, Const, IFold, Index, Lam, Symbol, Var
from repro.targets.cost import BaseCostModel, BlasCostModel


class TestGreedyExtractor:
    def test_single_representation(self):
        eg = EGraph()
        root = eg.add_term(parse("a + 1"))
        result = GreedyExtractor(eg, AstSizeCost()).extract(root)
        assert result.term == parse("a + 1")
        assert result.cost == pytest.approx(3.0)

    def test_picks_cheaper_representation(self):
        eg = EGraph()
        root = eg.add_term(parse("a + (b - b)"))
        eg.merge(root, eg.add_term(parse("a + 0")))
        eg.rebuild()
        result = GreedyExtractor(eg, AstSizeCost()).extract(root)
        assert result.term == parse("a + 0")

    def test_cyclic_graph_terminates(self):
        eg = EGraph()
        fx = eg.add_term(Call("f", (Symbol("x"),)))
        x = eg.add_term(Symbol("x"))
        eg.merge(fx, x)
        eg.rebuild()
        result = GreedyExtractor(eg, AstSizeCost()).extract(x)
        assert result.term == Symbol("x")

    def test_infinite_cost_for_unknown_library_calls(self):
        eg = EGraph(ShapeAnalysis({}))
        root = eg.add_term(parse("dot(a, c)"))
        result = GreedyExtractor(eg, BaseCostModel()).extract(root)
        assert result.term is None
        assert math.isinf(result.cost)
        assert result.chosen == {}


class TestIterationCap:
    def test_cap_raises_with_diagnostic(self):
        eg = EGraph()
        eg.add_term(parse("a + (b + (c + d))"))  # needs several passes
        with pytest.raises(FixpointDivergence) as excinfo:
            GreedyExtractor(eg, AstSizeCost(), max_iterations=1)
        message = str(excinfo.value)
        assert "greedy" in message
        assert "cost fixpoint" in message
        assert "non-monotone" in message
        assert excinfo.value.classes  # names the still-changing classes

    def test_default_cap_is_generous(self):
        eg = EGraph()
        root = eg.add_term(parse("a + (b + (c + d))"))
        result = GreedyExtractor(eg, AstSizeCost()).extract(root)
        assert result.cost == pytest.approx(7.0)


# ---------------------------------------------------------------------------
# The semi-naive schedule against the all-classes loop it replaced
# ---------------------------------------------------------------------------

def _bellman_ford(egraph, cost_model, max_iterations):
    """The greedy cost table as the all-classes Bellman-Ford loop
    computed it: every pass visits every class, in class order.
    Returns ``(costs, passes)``."""
    oracle = object.__new__(GreedyExtractor)
    Extractor.__init__(oracle, egraph, cost_model)
    costs = oracle._costs = {}
    for class_id in egraph.class_ids():
        costs[class_id] = (INFINITY, None)
    changed = True
    iterations = 0
    last_changed = set()
    while changed:
        changed = False
        iterations += 1
        changed_classes = set()
        if iterations > max_iterations:
            raise FixpointDivergence("greedy", max_iterations, sorted(last_changed))
        for eclass in list(egraph.classes()):
            class_id = eclass.class_id
            best_cost, best_node = costs.get(class_id, (INFINITY, None))
            for enode in eclass.nodes:
                cost = oracle._enode_cost(class_id, enode)
                if cost < best_cost:
                    best_cost, best_node = cost, enode
                    changed = True
                    changed_classes.add(class_id)
            costs[class_id] = (best_cost, best_node)
        last_changed = changed_classes
    return costs, iterations


_SHAPES = {"xs": vector(4), "ys": vector(4), "A": matrix(2, 4), "alpha": SCALAR}

_leaves = st.one_of(
    st.sampled_from([Symbol(name) for name in _SHAPES] + [Const(0), Const(1)]),
    st.integers(min_value=0, max_value=1).map(Var),
)
_terms = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        inner.map(Lam),
        inner.map(lambda body: Build(4, Lam(body))),
        st.tuples(inner, inner).map(lambda parts: Index(*parts)),
        st.tuples(inner, inner).map(lambda parts: IFold(2, parts[0], Lam(Lam(parts[1])))),
        st.tuples(st.sampled_from(["+", "*", "dot", "gemv", "f"]), inner, inner).map(
            lambda parts: Call(parts[0], (parts[1], parts[2]))
        ),
    ),
    max_leaves=8,
)


def _outcome(extract):
    """``("ok", table)`` or ``("diverged", classes)``."""
    try:
        return ("ok", extract())
    except FixpointDivergence as error:
        return ("diverged", error.classes)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(terms=st.lists(_terms, min_size=1, max_size=6),
       merges=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
                       max_size=8),
       shaped=st.booleans())
def test_semi_naive_passes_match_bellman_ford(terms, merges, shaped):
    """Skipping classes whose children did not move changes nothing:
    the same costs, the same chosen e-node objects, and divergence for
    exactly the same caps, naming the same classes."""
    egraph = EGraph(ShapeAnalysis(_SHAPES) if shaped else None)
    for term in terms:
        egraph.add_term(term)
    for a, b in merges:
        ids = egraph.class_ids()
        egraph.merge(ids[a % len(ids)], ids[b % len(ids)])
    egraph.rebuild()
    model = BlasCostModel() if shaped else AstSizeCost()

    want, passes = _bellman_ford(egraph, model, 10_000)
    got = GreedyExtractor(egraph, model)._costs
    assert got == want
    for class_id, (_, node) in want.items():
        assert got[class_id][1] is node

    for cap in range(passes + 2):
        expected = _outcome(lambda: _bellman_ford(egraph, model, cap)[0])
        actual = _outcome(lambda: GreedyExtractor(egraph, model, max_iterations=cap)._costs)
        assert actual[0] == expected[0], cap
        if expected[0] == "diverged":
            assert actual[1] == expected[1], cap
