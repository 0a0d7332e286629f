"""Tests for the slotted e-graph store: the repaired hashcons-miss and
randomized invariant checking via repro.check.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.egraph import EGraph
from repro.egraph.enode import ENode
from repro.egraph.rewrite import rewrite
from repro.ir import parse
from repro.rules.dsl import padd, pconst, pmul, pv
from repro.saturation import Runner


class TestHashconsRepair:
    """The rebuild repair must pop each e-node's *current* memo key.

    Under the old recorded-form scheme, a node re-keyed by an earlier
    merge left its stale entry behind when a later merge re-keyed it
    again; the retired object store papered over that miss with a full
    memo sweep each rebuild.
    """

    @staticmethod
    def _memo_is_canonical(eg):
        for node, class_id in eg._memo.items():
            assert eg.canonicalize(node) == node, node
            assert eg.has_class(eg.find(class_id))

    @pytest.mark.parametrize("rebuild_between", [True, False])
    def test_double_rekey_leaves_no_stale_entry(self, rebuild_between):
        # n = f(a, b): merging a (re-keying n) and then b (re-keying n
        # again) must pop the intermediate form, whether the merges are
        # separated by a rebuild or repaired within a single one.
        eg = EGraph()
        a = eg.add_enode(ENode("symbol", "a", ()))
        b_ = eg.add_enode(ENode("symbol", "b", ()))
        c = eg.add_enode(ENode("symbol", "c", ()))
        d = eg.add_enode(ENode("symbol", "d", ()))
        eg.add_enode(ENode("f", None, (a, b_)))
        eg.merge(a, c)
        if rebuild_between:
            eg.rebuild()
        eg.merge(b_, d)
        eg.rebuild()
        self._memo_is_canonical(eg)
        # Exactly one entry for f remains, keyed by the current form.
        f_entries = [n for n in eg._memo if n.op == "f"]
        assert f_entries == [
            ENode("f", None, (eg.find(a), eg.find(b_)))
        ]

    def test_congruence_found_through_stale_key(self):
        # f(a,b) and f(c,d) become congruent only after both merges;
        # a repair that popped the recorded (stale) form would miss
        # the second node's unification.
        eg = EGraph()
        a = eg.add_enode(ENode("symbol", "a", ()))
        b_ = eg.add_enode(ENode("symbol", "b", ()))
        c = eg.add_enode(ENode("symbol", "c", ()))
        d = eg.add_enode(ENode("symbol", "d", ()))
        fab = eg.add_enode(ENode("f", None, (a, b_)))
        fcd = eg.add_enode(ENode("f", None, (c, d)))
        assert not eg.same(fab, fcd)
        eg.merge(a, c)
        eg.rebuild()
        eg.merge(b_, d)
        eg.rebuild()
        assert eg.same(fab, fcd)
        self._memo_is_canonical(eg)

    def test_flat_repair_is_complete_under_check_mode(self):
        # The invariant verifier runs after every step: EG101 reports a
        # hashcons key the slot repair left non-canonical or pointing at
        # a dead class, EG102 a congruent pair it failed to merge — the
        # stale entries a full-memo sweep would have had to repair.
        from repro.check.egraph import verify
        from repro.extraction import AstSizeCost

        eg = EGraph()
        root = eg.add_term(parse("(x + 0) * (y + 0)"))
        rules = [
            rewrite("add-zero", padd(pv("x"), pconst(0)), pv("x")),
            rewrite("commute", pmul(pv("a"), pv("b")), pmul(pv("b"), pv("a"))),
        ]
        runner = Runner(eg, rules, step_limit=4)
        reports = []
        runner.on_step_end.append(
            lambda _runner, step, _record: reports.append((step, verify(eg)))
        )
        result = runner.run(root, cost_model=AstSizeCost())
        # Step 0 is the initial graph; every saturation step was checked.
        assert [step for step, _ in reports] == [
            record.step for record in result.steps[1:]
        ]
        assert len(reports) >= 2
        assert all(not diagnostics for _, diagnostics in reports), reports
        self._memo_is_canonical(eg)


@st.composite
def _merge_programs(draw):
    """A random DAG of e-nodes plus a random merge schedule."""
    n_leaves = draw(st.integers(2, 5))
    n_inner = draw(st.integers(0, 6))
    merges = draw(
        st.lists(
            st.tuples(st.integers(0, 10), st.integers(0, 10)), max_size=8
        )
    )
    inner = [
        (draw(st.integers(0, 1)), draw(st.integers(0, 20)), draw(st.integers(0, 20)))
        for _ in range(n_inner)
    ]
    return n_leaves, inner, merges


@given(_merge_programs())
@settings(max_examples=60, deadline=None)
def test_random_merge_schedules_keep_invariants(program):
    """Property: any node/merge schedule leaves a rebuilt graph that
    passes the full repro.check invariant sweep (hashcons, congruence,
    union-find, slot store, parent lists, leaf index, analysis)."""
    from repro.check import verify

    n_leaves, inner, merges = program
    eg = EGraph()
    ids = [
        eg.add_enode(ENode("symbol", f"s{i}", ())) for i in range(n_leaves)
    ]
    for op_choice, left, right in inner:
        op = "f" if op_choice == 0 else "g"
        ids.append(
            eg.add_enode(
                ENode(op, None, (ids[left % len(ids)], ids[right % len(ids)]))
            )
        )
    for a, b_ in merges:
        eg.merge(ids[a % len(ids)], ids[b_ % len(ids)])
        eg.rebuild()
        assert verify(eg) == []
