"""Tests for the e-graph core: hashcons, merge, congruence closure,
smallest-term extraction, ClassRef splicing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.check import verify
from repro.egraph import Analysis, ClassRef, EGraph, ENode
from repro.egraph.analysis import ShapeAnalysis
from repro.ir import builders as b, parse, pretty, try_unshift
from repro.ir.shapes import SCALAR, Array
from repro.ir.terms import Call, Const, Fst, Index, Snd, Symbol, Term, Tuple, Var


class TestAddAndHashcons:
    def test_identical_terms_share_class(self):
        eg = EGraph()
        a = eg.add_term(parse("x + 1"))
        b_ = eg.add_term(parse("x + 1"))
        assert a == b_

    def test_distinct_terms_get_distinct_classes(self):
        eg = EGraph()
        a = eg.add_term(parse("x + 1"))
        b_ = eg.add_term(parse("x + 2"))
        assert not eg.same(a, b_)

    def test_shared_subterms_are_shared(self):
        eg = EGraph()
        eg.add_term(parse("(a + b) * (a + b)"))
        # a, b, a+b, (a+b)*(a+b): 4 classes.
        assert eg.num_classes == 4

    def test_num_nodes_counts_unique_enodes(self):
        eg = EGraph()
        eg.add_term(parse("a + a"))
        assert eg.num_nodes == 2  # symbol a, plus node

    def test_known_sizes_collects_build_and_ifold(self):
        eg = EGraph()
        eg.add_term(parse("build 4 (λ ifold 8 0 (λ λ •0))"))
        assert eg.known_sizes == {4, 8}


class TestENodeContract:
    """An e-node is a named tuple: hashed, compared and built in C, and
    read by position in the matcher's generated code."""

    def test_hash_is_the_tuple_hash(self):
        for op, payload, children in [("app", None, (1, 2)), ("var", 3, ()),
                                      ("call", "+", (0, 0, 5))]:
            assert hash(ENode(op, payload, children)) == hash((op, payload, children))

    def test_fields_are_read_only(self):
        node = ENode("lam", None, (4,))
        for name in ("op", "payload", "children"):
            with pytest.raises(AttributeError):
                setattr(node, name, None)

    def test_repr(self):
        assert repr(ENode("app", None, (1, 2))) == "ENode(op='app', payload=None, children=(1, 2))"

    def test_pickle_round_trip(self):
        import pickle

        node = ENode("build", 4, (7,))
        copy = pickle.loads(pickle.dumps(node))
        assert copy == node and type(copy) is ENode
        assert (copy.op, copy.payload, copy.children) == ("build", 4, (7,))

    def test_map_children(self):
        leaf = ENode("const", 1, ())
        assert leaf.map_children(lambda c: c + 1) is leaf
        assert ENode("app", None, (1, 2)).map_children(lambda c: c * 10) == ENode(
            "app", None, (10, 20))

    def test_program_source_reads_fields_by_position(self):
        from repro.egraph.matcher import program_source
        from repro.egraph.pattern import PNode, PVar, SizeVar

        pattern = PNode("build", SizeVar("N"), (PNode("call", "f", (PVar("x"),)),))
        source = program_source(pattern)[0]
        # Node loops read only the e-nodes of the wanted op from the op
        # groups, so no e-node's op field is read at all.
        assert ".get('build', ())" in source and ".get('call', ())" in source
        assert "[0]" not in source.replace("[2][0]", "")
        assert "[1] != K0" in source and "[2][0]" in source
        for name in (".op", ".payload", ".children", "nodes_of"):
            assert name not in source


class TestMergeAndRebuild:
    def test_merge_makes_equivalent(self):
        eg = EGraph()
        a = eg.add_term(Symbol("a"))
        b_ = eg.add_term(Symbol("b"))
        eg.merge(a, b_)
        eg.rebuild()
        assert eg.same(a, b_)

    def test_congruence_upward_merge(self):
        # a = b must force f(a) = f(b).
        eg = EGraph()
        fa = eg.add_term(Call("f", (Symbol("a"),)))
        fb = eg.add_term(Call("f", (Symbol("b"),)))
        assert not eg.same(fa, fb)
        eg.merge(eg.add_term(Symbol("a")), eg.add_term(Symbol("b")))
        eg.rebuild()
        assert eg.same(fa, fb)

    def test_congruence_cascades(self):
        eg = EGraph()
        ffa = eg.add_term(Call("f", (Call("f", (Symbol("a"),)),)))
        ffb = eg.add_term(Call("f", (Call("f", (Symbol("b"),)),)))
        eg.merge(eg.add_term(Symbol("a")), eg.add_term(Symbol("b")))
        eg.rebuild()
        assert eg.same(ffa, ffb)

    def test_merge_is_idempotent(self):
        eg = EGraph()
        a = eg.add_term(Symbol("a"))
        b_ = eg.add_term(Symbol("b"))
        eg.merge(a, b_)
        version = eg.version
        eg.merge(a, b_)
        assert eg.version == version

    def test_hashcons_respects_merges(self):
        # After a = b, adding f(b) must land in f(a)'s class.
        eg = EGraph()
        fa = eg.add_term(Call("f", (Symbol("a"),)))
        eg.merge(eg.add_term(Symbol("a")), eg.add_term(Symbol("b")))
        eg.rebuild()
        fb = eg.add_term(Call("f", (Symbol("b"),)))
        assert eg.same(fa, fb)

    def test_classic_fx_eq_x_loop(self):
        # Merge f(x) with x: the e-graph becomes cyclic but stays sound.
        eg = EGraph()
        fx = eg.add_term(Call("f", (Symbol("x"),)))
        x = eg.add_term(Symbol("x"))
        eg.merge(fx, x)
        eg.rebuild()
        ffx = eg.add_term(Call("f", (Call("f", (Symbol("x"),)),)))
        assert eg.same(ffx, x)


class TestExtractSmallest:
    def test_single_term(self):
        eg = EGraph()
        term = parse("a + 1")
        root = eg.add_term(term)
        assert eg.extract_smallest(root) == term

    def test_prefers_smaller_after_merge(self):
        eg = EGraph()
        big = eg.add_term(parse("a + (b * 0)"))
        small = eg.add_term(parse("a"))
        eg.merge(big, small)
        eg.rebuild()
        assert eg.extract_smallest(big) == Symbol("a")

    def test_cyclic_class_still_extracts_finite_term(self):
        eg = EGraph()
        fx = eg.add_term(Call("f", (Symbol("x"),)))
        x = eg.add_term(Symbol("x"))
        eg.merge(fx, x)
        eg.rebuild()
        assert eg.extract_smallest(x) == Symbol("x")

    def test_stale_table_cycle_before_rebuild(self):
        # Merging g(2, 2) into 2 makes the stale table's witness for the
        # class, g(•, •), point back into its own class until rebuild.
        eg = EGraph()
        two = eg.add_term(Const(2))
        g = eg.add_term(Call("g", (Const(2), Const(2))))
        eg.extract_smallest(g)  # build the table
        assert eg.merge(g, two) == g
        assert eg.extract_smallest(g) is None
        assert eg.extract_candidates(g) == [Const(2)]
        eg.rebuild()
        assert eg.extract_smallest(g) == Const(2)

    def test_build_memo_records_stale_table_cycles(self):
        # As above, but through a parent and with the memo: every walk
        # through the merged class is cyclic, wherever it starts.
        eg = EGraph()
        two = eg.add_term(Const(2))
        g = eg.add_term(Call("g", (Const(2), Const(2))))
        h = eg.add_term(Call("h", (Call("g", (Const(2), Const(2))),)))
        table = eg._size_table()
        eg.merge(g, two)
        built = {}
        assert eg._build_term(h, table, built=built) is None
        assert built == {h: None, g: None, two: None}
        assert eg._build_term(two, table) is None
        assert eg._build_term(g, table) is None

    def test_extract_candidates_contains_alternatives(self):
        eg = EGraph()
        a = eg.add_term(parse("a + 0"))
        b_ = eg.add_term(parse("a"))
        eg.merge(a, b_)
        eg.rebuild()
        candidates = eg.extract_candidates(a, limit=4)
        assert Symbol("a") in candidates
        assert parse("a + 0") in candidates


class TestClassRef:
    def test_classref_splices_existing_class(self):
        eg = EGraph()
        inner = eg.add_term(parse("a + b"))
        wrapped = eg.add_term(Call("f", (ClassRef(inner),)))
        direct = eg.add_term(parse("f(a + b)"))
        assert eg.same(wrapped, direct)

    def test_classref_follows_merges(self):
        eg = EGraph()
        a = eg.add_term(Symbol("a"))
        b_ = eg.add_term(Symbol("b"))
        eg.merge(a, b_)
        eg.rebuild()
        fa = eg.add_term(Call("f", (ClassRef(a),)))
        fb = eg.add_term(Call("f", (ClassRef(b_),)))
        assert eg.same(fa, fb)


class TestEquivalentHelper:
    def test_equivalent_adds_terms(self):
        eg = EGraph()
        eg.merge(eg.add_term(parse("a")), eg.add_term(parse("b")))
        eg.rebuild()
        assert eg.equivalent(parse("a"), parse("b"))
        assert not eg.equivalent(parse("a"), parse("c"))


# ---------------------------------------------------------------------------
# Property: random merges keep congruence (validated by checking that
# structurally congruent nodes end up in equal classes).
# ---------------------------------------------------------------------------

_SYMBOLS = ["a", "b", "c", "d"]


@st.composite
def _term(draw, depth=0):
    if depth > 2 or draw(st.booleans()):
        return Symbol(draw(st.sampled_from(_SYMBOLS)))
    fn = draw(st.sampled_from(["f", "g"]))
    arity = draw(st.integers(1, 2))
    args = tuple(draw(_term(depth=depth + 1)) for _ in range(arity))
    return Call(fn, args)


@given(
    st.lists(st.tuples(_term(), _term()), min_size=1, max_size=8),
    st.lists(_term(), min_size=1, max_size=8),
)
@settings(max_examples=50, deadline=None)
def test_congruence_invariant_under_random_merges(merges, probes):
    eg = EGraph()
    for left, right in merges:
        eg.merge(eg.add_term(left), eg.add_term(right))
        eg.rebuild()
    # Invariant: for every probe f(t), re-adding it lands in the same
    # class as its hashconsed original, and congruent probes coincide.
    for probe in probes:
        first = eg.add_term(probe)
        second = eg.add_term(probe)
        assert first == second
    # Full congruence check over the memo: canonical enodes map to
    # canonical classes, and no two equal canonical enodes disagree.
    seen = {}
    for eclass in eg.classes():
        for node in eclass.nodes:
            canonical = eg.canonicalize(node)
            if canonical in seen:
                assert eg.find(seen[canonical]) == eg.find(eclass.class_id)
            seen[canonical] = eclass.class_id


# ---------------------------------------------------------------------------
# Property: the leaf-class index, the candidate memo and its unshifted
# lists stay exact under random add / merge / rebuild schedules, checked
# after every mutation.
# ---------------------------------------------------------------------------


@st.composite
def _leafy_term(draw, depth=0):
    if depth > 2 or draw(st.booleans()):
        kind = draw(st.sampled_from(["var", "const", "symbol"]))
        if kind == "var":
            return Var(draw(st.integers(0, 2)))
        if kind == "const":
            return Const(draw(st.integers(0, 2)))
        return Symbol(draw(st.sampled_from(_SYMBOLS[:2])))
    fn = draw(st.sampled_from(["f", "g"]))
    arity = draw(st.integers(1, 2))
    args = tuple(draw(_leafy_term(depth=depth + 1)) for _ in range(arity))
    return Call(fn, args)


_MUTATION = st.one_of(
    st.tuples(st.just("add"), _leafy_term()),
    st.tuples(st.just("merge"), st.integers(0, 63), st.integers(0, 63)),
    st.tuples(st.just("rebuild")),
)


def _assert_index_and_memo_exact(eg):
    for op in ("var", "const"):
        rescan = [
            eclass.class_id for eclass in eg.classes()
            if any(node.op == op for node in eclass.nodes)
        ]
        assert eg.leaf_classes(op) == rescan
    for class_id in eg.class_ids():
        for limit in (1, 4):
            memoized = eg.extract_candidates(class_id, limit)
            assert memoized == eg._compute_candidates(class_id, limit)
            # A second call is a memo hit and answers identically.
            assert eg.extract_candidates(class_id, limit) is memoized
        for shift in (0, 1, 2):
            expected = []
            for candidate in eg._compute_candidates(class_id, 4):
                term = try_unshift(candidate, shift)
                if term is not None and term not in expected:
                    expected.append(term)
            unshifted = eg.unshifted_candidates(class_id, shift)
            assert unshifted == expected
            assert eg.unshifted_candidates(class_id, shift) is unshifted
    # The smallest-term memo shared across one phase answers every raw
    # id, canonical or merged away, exactly as an unmemoized walk does.
    table = eg._size_table()
    built = {}
    for class_id in reversed(range(len(eg._uf))):
        assert eg._build_term(class_id, table, built=built) == eg._build_term(
            class_id, table
        )


@given(st.lists(_MUTATION, min_size=1, max_size=24))
@settings(max_examples=60, deadline=None)
def test_leaf_index_and_candidate_memo_track_mutations(schedule):
    eg = EGraph()
    ids = []
    for mutation in schedule:
        if mutation[0] == "add":
            ids.append(eg.add_term(mutation[1]))
        elif mutation[0] == "merge":
            if not ids:
                continue
            eg.merge(ids[mutation[1] % len(ids)], ids[mutation[2] % len(ids)])
        else:
            eg.rebuild()
        _assert_index_and_memo_exact(eg)
    eg.rebuild()
    _assert_index_and_memo_exact(eg)
    # Merged-away ids answer through their canonical class.
    for class_id in ids:
        assert eg.extract_candidates(class_id) == eg._compute_candidates(
            eg.find(class_id), 4
        )


class TestCandidateMemo:
    def test_memo_dropped_on_request(self):
        eg = EGraph()
        root = eg.add_term(parse("a + 0"))
        eg.extract_candidates(root)
        assert eg._candidate_memo is not None
        eg.drop_candidate_memo()
        assert eg._candidate_memo is None

    def test_finished_run_keeps_no_memo(self):
        from repro.kernels import registry
        from repro.saturation import Runner
        from repro.targets import blas_target

        kernel = registry.get("vsum")
        target = blas_target()
        eg = EGraph()
        root = eg.add_term(kernel.term)
        Runner(eg, target.rules, step_limit=2, node_limit=2000).run(
            root, cost_model=target.cost_model
        )
        assert eg._candidate_memo is None


# ---------------------------------------------------------------------------
# Property: analysis propagation.  ``merge`` queues a class for
# re-running ``make`` on its parents only when the joined data differs
# from either side's old data; after every rebuild the data must still
# be a fixpoint of the analysis.
# ---------------------------------------------------------------------------

#: ``u`` has no recorded shape, so merging it with a shaped class
#: changes the data of one side only.
_SHAPED_SYMBOLS = {"a": Array((4,)), "m": Array((2, 3)), "s": SCALAR}


@st.composite
def _shaped_term(draw, depth=0):
    if depth > 2 or draw(st.integers(0, 2)) == 0:
        kind = draw(st.sampled_from(["symbol", "symbol", "const"]))
        if kind == "const":
            return Const(draw(st.integers(0, 1)))
        return Symbol(draw(st.sampled_from(sorted(_SHAPED_SYMBOLS) + ["u"])))
    kind = draw(st.sampled_from(["tuple", "fst", "snd", "index", "+"]))
    child = _shaped_term(depth=depth + 1)
    if kind == "tuple":
        return Tuple(draw(child), draw(child))
    if kind == "fst":
        return Fst(draw(child))
    if kind == "snd":
        return Snd(draw(child))
    if kind == "index":
        return Index(draw(child), Const(0))
    return Call("+", (draw(child), draw(child)))


_SHAPED_MUTATION = st.one_of(
    st.tuples(st.just("add"), _shaped_term()),
    st.tuples(st.just("merge"), st.integers(0, 63), st.integers(0, 63)),
    st.tuples(st.just("rebuild")),
)


class _Leaves(Analysis):
    """Order-free test analysis: the leaf labels below a class (join is
    set union: commutative, associative, idempotent)."""

    def make(self, egraph, enode):
        labels = frozenset().union(
            *(egraph.data_of(child) for child in enode.children)
        )
        if not enode.children:
            labels |= {(enode.op, enode.payload)}
        return labels

    def join(self, a, b):
        return a | b


class _PropagateEveryMerge(EGraph):
    """The reference rule: every merge queues its class, whether or not
    the joined data changed."""

    def merge(self, a, b):
        version = self.version
        root = super().merge(a, b)
        if self.version != version:
            self._analysis_pending.append(root)
        return root


def _run_schedule(graphs, schedule, after_rebuild):
    """Apply ``schedule`` to every graph alike; merges pick any class id
    ever created, subterms' included, so parents see their children's
    data change, and may close cycles through constructors."""
    for mutation in schedule:
        if mutation[0] == "add":
            for eg in graphs:
                eg.add_term(mutation[1])
        elif mutation[0] == "merge":
            count = len(graphs[0]._uf)
            if not count:
                continue
            a, b = mutation[1] % count, mutation[2] % count
            for eg in graphs:
                eg.merge(a, b)
        else:
            for eg in graphs:
                eg.rebuild()
            after_rebuild()
    for eg in graphs:
        eg.rebuild()
    after_rebuild()


@given(st.lists(_SHAPED_MUTATION, min_size=1, max_size=24))
@settings(max_examples=200, deadline=None)
def test_shape_analysis_reaches_fixpoint_after_every_rebuild(schedule):
    eg = EGraph(ShapeAnalysis(_SHAPED_SYMBOLS))

    def no_eg108():
        findings = verify(eg)
        assert not [f for f in findings if f.code == "EG108"], findings

    _run_schedule([eg], schedule, no_eg108)


@given(st.lists(_SHAPED_MUTATION, min_size=1, max_size=24))
@settings(max_examples=200, deadline=None)
def test_order_free_analysis_matches_propagating_every_merge(schedule):
    eg = EGraph(_Leaves())
    reference = _PropagateEveryMerge(_Leaves())

    def same_data():
        assert eg.class_ids() == reference.class_ids()
        for class_id in eg.class_ids():
            assert eg.data_of(class_id) == reference.data_of(class_id)

    _run_schedule([eg, reference], schedule, same_data)


class TestShapeWidening:
    """Around a cycle through a constructor the shape would nest one
    level deeper on every propagation round; it widens to Unknown at
    MAX_SHAPE_DEPTH instead, and propagation reaches a fixpoint."""

    @pytest.mark.parametrize(
        "wrap",
        [
            lambda t: Tuple(t, Symbol("s")),
            lambda t: b.lam(t),
            lambda t: Tuple(Symbol("s"), b.lam(t)),
        ],
        ids=["tuple", "lam", "tuple-of-lam"],
    )
    def test_cycle_through_a_constructor_terminates(self, wrap):
        from repro.egraph.analysis import MAX_SHAPE_DEPTH, shape_depth

        eg = EGraph(ShapeAnalysis(_SHAPED_SYMBOLS))
        u = eg.add_term(Symbol("u"))
        eg.merge(u, eg.add_term(wrap(Symbol("u"))))
        eg.rebuild()
        assert eg._analysis_pending == []
        assert not [f for f in verify(eg) if f.code == "EG108"]
        for class_id in eg.class_ids():
            assert shape_depth(eg.data_of(class_id)) <= MAX_SHAPE_DEPTH


class TestAnalysisPropagationQueue:
    def test_merge_that_changes_no_data_queues_nothing(self):
        eg = EGraph(ShapeAnalysis(_SHAPED_SYMBOLS))
        zero = eg.add_term(Const(0))
        one = eg.add_term(Const(1))
        eg.merge(zero, one)  # Scalar joined with Scalar
        assert eg._analysis_pending == []

    def test_change_on_either_side_queues_the_class(self):
        # join(Unknown, Scalar) == Scalar: the winner's data changes
        # when the Unknown class wins the union, the loser's when it
        # loses.
        for order in ((Symbol("u"), Const(0)), (Const(0), Symbol("u"))):
            eg = EGraph(ShapeAnalysis(_SHAPED_SYMBOLS))
            first, second = (eg.add_term(term) for term in order)
            root = eg.merge(first, second)
            assert eg._analysis_pending == [root]
            assert eg.data_of(root) == SCALAR

    def test_parent_learns_the_merged_shape(self):
        eg = EGraph(ShapeAnalysis(_SHAPED_SYMBOLS))
        fst = eg.add_term(Fst(Tuple(Symbol("u"), Symbol("s"))))
        eg.merge(eg.add_term(Symbol("u")), eg.add_term(Symbol("a")))
        eg.rebuild()
        assert eg.data_of(fst) == Array((4,))
