"""Tests for incremental e-matching (repro.saturation.ematch) and the
e-graph's dirty-class log that feeds it."""

import pytest

from repro.egraph import EGraph, ShapeAnalysis
from repro.egraph.rewrite import rewrite
from repro.ir import parse
from repro.ir.shapes import vector
from repro.rules.core import core_rules
from repro.rules.dsl import padd, pconst, pmul, pv
from repro.saturation import (
    IncrementalMatcher,
    Runner,
    parent_closure,
    search_rule,
)
from repro.saturation.ematch import _DEADLINE_STRIDE


class TestDirtyLog:
    def test_add_term_dirties_new_classes(self):
        eg = EGraph()
        eg.add_term(parse("a + b"))
        dirty = eg.pop_dirty()
        # a, b, and the + node each created a class.
        assert len(dirty) == 3
        assert dirty == {eg.find(c) for c in dirty}

    def test_pop_clears(self):
        eg = EGraph()
        eg.add_term(parse("a"))
        assert eg.pop_dirty()
        assert eg.pop_dirty() == set()

    def test_hash_cons_hit_is_clean(self):
        eg = EGraph()
        eg.add_term(parse("a + b"))
        eg.pop_dirty()
        eg.add_term(parse("a + b"))  # identical term: nothing new
        assert eg.pop_dirty() == set()

    def test_merge_dirties_winner(self):
        eg = EGraph()
        a = eg.add_term(parse("a"))
        b = eg.add_term(parse("b"))
        eg.pop_dirty()
        eg.merge(a, b)
        eg.rebuild()
        assert eg.pop_dirty() == {eg.find(a)}

    def test_congruence_merges_are_dirty(self):
        eg = EGraph()
        fa = eg.add_term(parse("f(a)"))
        fb = eg.add_term(parse("f(b)"))
        a = eg.add_term(parse("a"))
        b = eg.add_term(parse("b"))
        eg.pop_dirty()
        eg.merge(a, b)
        eg.rebuild()  # congruence: f(a) ≡ f(b)
        dirty = eg.pop_dirty()
        assert eg.find(fa) in dirty  # the congruence-merged parents
        assert eg.find(a) in dirty


class TestParentClosure:
    def test_includes_transitive_ancestors(self):
        eg = EGraph()
        root = eg.add_term(parse("f(g(h(a)))"))
        a = eg.add_term(parse("a"))
        closure = parent_closure(eg, {a})
        assert eg.find(root) in closure
        assert eg.find(eg.add_term(parse("g(h(a))"))) in closure
        assert len(closure) == 4  # a, h(a), g(h(a)), f(...)

    def test_unrelated_classes_excluded(self):
        eg = EGraph()
        eg.add_term(parse("f(a)"))
        other = eg.add_term(parse("g(b)"))
        a = eg.add_term(parse("a"))
        closure = parent_closure(eg, {a})
        assert eg.find(other) not in closure

    def test_stale_seed_ids_canonicalized(self):
        eg = EGraph()
        a = eg.add_term(parse("a"))
        b = eg.add_term(parse("b"))
        eg.merge(a, b)
        eg.rebuild()
        closure = parent_closure(eg, {a, b})
        assert closure == {eg.find(a)}


class TestSearchRule:
    def test_restricted_search_is_a_filter(self):
        eg = EGraph()
        eg.add_term(parse("(a + 0) + (b + 0)"))
        rule = rewrite("add-zero", padd(pv("x"), pconst(0)), pv("x"))
        everything = search_rule(eg, rule)
        assert len(everything) == 2
        one_root = {everything[0][0]}
        restricted = search_rule(eg, rule, frozenset(one_root))
        assert len(restricted) == 1
        assert restricted[0][0] in one_root

    def test_expired_deadline_returns_no_matches(self):
        eg = EGraph()
        eg.add_term(parse("a + 0"))
        rule = rewrite("add-zero", padd(pv("x"), pconst(0)), pv("x"))
        assert search_rule(eg, rule, deadline=0.0) == []
        assert _DEADLINE_STRIDE > 0  # polling cadence stays sane


class TestIncrementalMatcher:
    def test_first_search_is_full(self):
        eg = EGraph()
        eg.add_term(parse("a + b"))
        matcher = IncrementalMatcher(eg, rule_count=1)
        matcher.begin_step()
        assert matcher.restrict_for(0) is None

    def test_second_search_restricted_to_new_dirt(self):
        eg = EGraph()
        eg.add_term(parse("a + b"))
        matcher = IncrementalMatcher(eg, rule_count=1)
        matcher.begin_step()
        matcher.note_searched(0, restricted=False)
        eg.pop_dirty()
        fresh = eg.add_term(parse("f(c)"))
        matcher.begin_step()
        restrict = matcher.restrict_for(0)
        assert restrict is not None
        assert eg.find(fresh) in restrict
        # The untouched + class is outside the restriction.
        assert eg.find(eg.add_term(parse("a + b"))) not in restrict

    def test_force_full_resets(self):
        eg = EGraph()
        eg.add_term(parse("a"))
        matcher = IncrementalMatcher(eg, rule_count=2)
        matcher.begin_step()
        matcher.note_searched(0, restricted=False)
        matcher.note_searched(1, restricted=False)
        matcher.force_full(1)
        eg.add_term(parse("b"))
        matcher.begin_step()
        assert matcher.restrict_for(0) is not None
        assert matcher.restrict_for(1) is None

    def test_rebuild_heavy_fallback(self):
        """When nearly every class is dirty, restriction would not pay
        and the matcher falls back to a full scan."""
        eg = EGraph()
        eg.add_term(parse("a + b"))
        matcher = IncrementalMatcher(eg, rule_count=1, full_fraction=0.6)
        matcher.begin_step()
        matcher.note_searched(0, restricted=False)
        eg.pop_dirty()
        # Dirty a leaf whose closure covers the whole 3-class graph.
        a = eg.add_term(parse("a"))
        eg._dirty.add(a)
        matcher.begin_step()
        assert matcher.restrict_for(0) is None


def _saturate(term_text, rules, incremental, **kwargs):
    eg = EGraph(ShapeAnalysis({"a": vector(4), "b": vector(4)}))
    root = eg.add_term(parse(term_text))
    result = Runner(eg, rules, incremental=incremental, **kwargs).run(root)
    return eg, root, result


class TestIncrementalEquivalence:
    """Incremental and full e-matching must produce the same e-graph."""

    RULES = [
        rewrite("add-zero", padd(pv("x"), pconst(0)), pv("x")),
        rewrite("mul-one", pmul(pv("x"), pconst(1)), pv("x")),
        rewrite("commute-mul", pmul(pv("x"), pv("y")), pmul(pv("y"), pv("x"))),
    ]

    def test_same_stop_and_steps_on_scalar_rules(self):
        term = "((a * 1) + 0) * (b + 0)"
        _, _, full = _saturate(term, self.RULES, incremental=False,
                               step_limit=10)
        _, _, incr = _saturate(term, self.RULES, incremental=True,
                               step_limit=10)
        assert full.stop_reason == incr.stop_reason
        assert full.num_steps == incr.num_steps
        assert [s.enodes for s in full.steps] == [s.enodes for s in incr.steps]
        assert [s.matches for s in full.steps] == [s.matches for s in incr.steps]

    def test_same_graph_on_core_rules(self):
        """The paper's core rules (beta reduction, intro/elim) under a
        real nested term: identical node counts per step, identical
        stop reason."""
        term = "build 4 (λ a[•0] * b[•0])"
        _, _, full = _saturate(term, core_rules(), incremental=False,
                               step_limit=3, node_limit=4000)
        _, _, incr = _saturate(term, core_rules(), incremental=True,
                               step_limit=3, node_limit=4000)
        assert full.stop_reason == incr.stop_reason
        assert [s.enodes for s in full.steps] == [s.enodes for s in incr.steps]
        assert [s.eclasses for s in full.steps] == [s.eclasses for s in incr.steps]
