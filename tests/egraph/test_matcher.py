"""The compiled matcher against a backtracking interpreter.

``oracle_match`` below is the generator interpreter e-matching used
before patterns were compiled: it walks the pattern recursively,
copying the bindings dict on every bind.  It is the specification the
compiled programs of :mod:`repro.egraph.matcher` must reproduce — the
same bindings, in the same order, with the same key order — on random
e-graphs and patterns.  The programs yield flat keys; the comparisons
rebuild each key's bindings with the compiled pattern's ``bindings``.
"""

from typing import Iterator, List, Optional, Tuple as TupleT

from hypothesis import given, settings, strategies as st

from repro.egraph import EGraph, match_class
from repro.egraph import matcher
from repro.egraph.enode import term_to_parts
from repro.egraph.pattern import (
    Bindings,
    ClassBinding,
    PNode,
    Pattern,
    PVar,
    SizeVar,
    TermBinding,
)
from repro.egraph.rewrite import dynamic_rule
from repro.ir.terms import (
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
from repro.saturation.ematch import search_rule

# ---------------------------------------------------------------------------
# The oracle: a recursive backtracking interpreter
# ---------------------------------------------------------------------------


def _bind_size(bindings: Bindings, spec, value) -> Optional[Bindings]:
    if isinstance(spec, SizeVar):
        existing = bindings.get(spec.name)
        if existing is None:
            updated = dict(bindings)
            updated[spec.name] = value
            return updated
        return bindings if existing == value else None
    return bindings if spec == value else None


def _bind_var(egraph, bindings: Bindings, pvar: PVar, class_id: int) -> Iterator[Bindings]:
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
            if existing.term in egraph.extract_candidates(class_id):
                yield bindings
        return
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


def oracle_match(
    egraph, pattern: Pattern, class_id: int, bindings: Optional[Bindings] = None
) -> Iterator[Bindings]:
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


def _match_children(egraph, pattern: PNode, enode, bindings: Bindings) -> Iterator[Bindings]:
    if pattern.op in ("build", "ifold"):
        bound = _bind_size(bindings, pattern.payload, enode.payload)
        if bound is None:
            return
        bindings = bound
    elif pattern.payload != enode.payload:
        return
    if len(pattern.children) != len(enode.children):
        return
    yield from _match_sequence(egraph, pattern.children, enode.children, bindings)


def _match_sequence(egraph, patterns, class_ids, bindings: Bindings) -> Iterator[Bindings]:
    if not patterns:
        yield bindings
        return
    head_pattern, *rest_patterns = patterns
    head_class, *rest_classes = class_ids
    for partial in oracle_match(egraph, head_pattern, head_class, bindings):
        yield from _match_sequence(egraph, tuple(rest_patterns), tuple(rest_classes), partial)


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------


def _ordered(bindings_list) -> List[List[tuple]]:
    """Bindings with their key order made visible to ``==``."""
    return [list(bindings.items()) for bindings in bindings_list]


def _assert_same(egraph, pattern: Pattern, max_loops: int = matcher._MAX_LOOPS) -> int:
    compiled = matcher.load_program(*matcher.program_source(pattern, max_loops))
    total = 0
    for class_id in egraph.class_ids():
        want = _ordered(oracle_match(egraph, pattern, class_id))
        keys = list(compiled.program(egraph.match_view(), class_id))
        assert _ordered(map(compiled.bindings, keys)) == want, (pattern, class_id)
        for key in keys:
            # The matched class, then one raw value per variable; class
            # ids are union-find roots.
            assert len(key) == len(compiled.names) + 1
            assert key[0] == egraph.find(class_id)
            assert all(egraph.find(key[p]) == key[p] for p in compiled.class_positions)
        total += len(want)
    return total


def _oracle_search(egraph, pattern: Pattern, limit: int) -> List[TupleT[int, Bindings]]:
    """``search_rule``'s root enumeration and cut-off over the oracle."""
    if isinstance(pattern, PNode):
        roots = egraph.classes_by_op().get(pattern.op, [])
    else:
        roots = egraph.class_ids()
    found: List[TupleT[int, Bindings]] = []
    for class_id in roots:
        if not egraph.has_class(class_id):
            continue
        for bindings in oracle_match(egraph, pattern, class_id):
            found.append((egraph.find(class_id), bindings))
            if len(found) >= limit:
                return found
    return found


# ---------------------------------------------------------------------------
# Random e-graphs and patterns
# ---------------------------------------------------------------------------

_LEAVES = st.one_of(
    st.builds(Var, st.integers(0, 2)),
    st.builds(Const, st.sampled_from((0, 1))),
    st.builds(Symbol, st.sampled_from(("a", "b"))),
)
_SIZES = st.sampled_from((2, 4))


def _extend(children):
    return st.one_of(
        st.builds(Lam, children),
        st.builds(App, children, children),
        st.builds(Build, _SIZES, children),
        st.builds(IFold, _SIZES, children, children),
        st.builds(Index, children, children),
        st.builds(Tuple, children, children),
        st.builds(Fst, children),
        st.builds(Snd, children),
        st.builds(
            Call,
            st.sampled_from(("+", "*")),
            st.lists(children, min_size=1, max_size=2).map(tuple),
        ),
        # Repeated subterms, so that repeated pattern variables match,
        # and nested sized nodes, so that size variables repeat.
        children.map(lambda t: Tuple(t, t)),
        children.map(lambda t: Lam(Call("*", (t, t)))),
        st.builds(lambda n, m, t: Build(n, Lam(IFold(m, t, Lam(Lam(t))))),
                  _SIZES, _SIZES, children),
    )


_TERMS = st.recursive(_LEAVES, _extend, max_leaves=8)


@st.composite
def egraphs(draw):
    """A small e-graph: a few random terms, then random merges.

    Merges may close cycles; matching must cope with classes whose
    candidate lists are empty or short.
    """
    egraph = EGraph()
    terms = draw(st.lists(_TERMS, min_size=1, max_size=4))
    for term in terms:
        egraph.add_term(term)
    merges = draw(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)), max_size=4))
    for a, b in merges:
        ids = egraph.class_ids()
        egraph.merge(ids[a % len(ids)], ids[b % len(ids)])
        egraph.rebuild()
    return egraph, terms


_NAMES = ("x", "y", "x", "y", "N")  # "N" is also a size-variable name


@st.composite
def patterns_over(draw, term: Term, modes: dict, depth: int = 0):
    """A pattern abstracted from ``term``: random subterms become
    variables (shifted, ``as_term`` or class-mode; names repeat, often
    in the mode of their first occurrence, else mixed), sizes become
    size variables, and a few payloads change so that some patterns
    match nothing."""
    if depth >= 5 or draw(st.integers(0, 2 if depth else 6)) == 0:
        name = draw(st.sampled_from(_NAMES))
        if name in modes and draw(st.booleans()):
            shift, as_term = modes[name]
        else:
            shift = draw(st.sampled_from((0, 0, 1, 2)))
            as_term = draw(st.booleans())
            modes.setdefault(name, (shift, as_term))
        return PVar(name, shift, as_term)
    op, payload, children = term_to_parts(term)
    if op in ("build", "ifold") and draw(st.integers(0, 2)):
        payload = SizeVar(draw(st.sampled_from(("N", "N", "M"))))
    elif op in ("var", "const") and draw(st.integers(0, 4)) == 0:
        payload = 1 - payload if isinstance(payload, int) else payload
    return PNode(
        op, payload, tuple(draw(patterns_over(c, modes, depth + 1)) for c in children)
    )


@st.composite
def graphs_and_patterns(draw):
    egraph, terms = draw(egraphs())
    source = draw(st.sampled_from(terms))
    return egraph, draw(patterns_over(source, {}))


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------


@settings(max_examples=500, deadline=None)
@given(graphs_and_patterns(), st.sampled_from((matcher._MAX_LOOPS, 1)))
def test_compiled_matches_oracle(case, max_loops):
    # max_loops=1 splits every loop into its own helper generator.
    egraph, pattern = case
    _assert_same(egraph, pattern, max_loops)


@settings(max_examples=150, deadline=None)
@given(graphs_and_patterns(), st.integers(1, 6))
def test_search_cutoff_matches_oracle(case, limit):
    egraph, pattern = case
    rule = dynamic_rule("probe", pattern, lambda egraph, match: [], match_limit=limit)
    found = [(key[0], list(rule.compiled.bindings(key).items()))
             for key in search_rule(egraph, rule)]
    want = [(class_id, list(b.items())) for class_id, b in _oracle_search(egraph, pattern, limit)]
    assert found == want


# ---------------------------------------------------------------------------
# The mixed class/term cases, one by one
# ---------------------------------------------------------------------------


def _graph(*terms: Term):
    egraph = EGraph()
    return egraph, [egraph.add_term(term) for term in terms]


def test_term_occurrence_of_class_bound_var_needs_shift_zero():
    # tuple(?x, ?x as term): accepted once when the class has candidates.
    egraph, (root,) = _graph(Tuple(Symbol("a"), Symbol("a")))
    pattern = PNode("tuple", None, (PVar("x"), PVar("x", as_term=True)))
    found = list(match_class(egraph, pattern, root))
    assert found == [{"x": ClassBinding(egraph.find(egraph.add_term(Symbol("a"))))}]
    assert _assert_same(egraph, pattern) == 1
    # With a positive shift the occurrence never matches.
    shifted = PNode("tuple", None, (PVar("x"), PVar("x", shift=1)))
    assert list(match_class(egraph, shifted, root)) == []
    assert _assert_same(egraph, shifted) == 0


def test_class_occurrence_of_term_bound_var_tests_candidates():
    egraph, (root,) = _graph(Tuple(Symbol("a"), Symbol("a")))
    pattern = PNode("tuple", None, (PVar("x", as_term=True), PVar("x")))
    found = list(match_class(egraph, pattern, root))
    assert found == [{"x": TermBinding(Symbol("a"))}]
    other, (root2,) = _graph(Tuple(Symbol("a"), Symbol("b")))
    assert list(match_class(other, pattern, root2)) == []
    assert _assert_same(egraph, pattern) == 1


def test_repeated_term_var_tests_unshifted_candidates():
    body = Tuple(Index(Symbol("xs"), Var(0)), Index(Symbol("xs"), Var(0)))
    egraph, (root,) = _graph(Lam(body))
    half = PNode("index", None, (PVar("A", shift=1), PNode("var", 0)))
    pattern = PNode("lam", None, (PNode("tuple", None, (half, half)),))
    assert list(match_class(egraph, pattern, root)) == [{"A": TermBinding(Symbol("xs"))}]
    assert _assert_same(egraph, pattern) == 1


def test_repeated_shifted_var_compares_terms_unshifted_alike():
    # λλ (•1[•0], •1[•0]): A↑1 binds •1 unshifted once, •0, and the
    # second occurrence must look for •0 among its class's candidates
    # unshifted by the same 1, not among the raw candidates.
    half = Index(Var(1), Var(0))
    egraph, (root,) = _graph(Lam(Lam(Tuple(half, half))))
    phalf = PNode("index", None, (PVar("A", shift=1), PNode("var", 0)))
    pattern = PNode("lam", None, (PNode("lam", None, (PNode("tuple", None, (phalf, phalf)),)),))
    assert list(match_class(egraph, pattern, root)) == [{"A": TermBinding(Var(0))}]
    assert _assert_same(egraph, pattern) == 1


def test_repeated_size_var_must_agree():
    pattern = PNode("build", SizeVar("N"), (PNode("build", SizeVar("N"), (PVar("x"),)),))
    egraph, (same, differ) = _graph(
        Build(2, Build(2, Symbol("a"))), Build(2, Build(4, Symbol("a")))
    )
    assert len(list(match_class(egraph, pattern, same))) == 1
    assert list(match_class(egraph, pattern, differ)) == []
    assert _assert_same(egraph, pattern) == 1


def test_size_var_name_shared_with_a_variable_never_matches():
    egraph, (root,) = _graph(Build(4, Symbol("f")))
    assert list(match_class(egraph, PNode("build", SizeVar("f"), (PVar("f"),)), root)) == []
    assert _assert_same(egraph, PNode("build", SizeVar("N"), (PVar("N"),))) == 0


def test_deep_patterns_continue_in_helper_generators():
    # More nested loops than one Python function may hold.
    depth = 2 * matcher._MAX_LOOPS + 3
    term: Term = Var(0)
    pattern: Pattern = PVar("leaf", as_term=True)
    for _ in range(depth):
        term, pattern = Lam(term), PNode("lam", None, (pattern,))
    egraph, (root,) = _graph(term)
    source = matcher.program_source(pattern)[0]
    assert "yield from _part" in source
    assert list(match_class(egraph, pattern, root)) == [{"leaf": TermBinding(Var(0))}]
    assert _assert_same(egraph, pattern) == 1


def test_programs_are_cached_by_pattern_value():
    first = PNode("call", "+", (PVar("x"), PNode("const", 0)))
    second = PNode("call", "+", (PVar("x"), PNode("const", 0)))
    assert first is not second
    assert matcher.compile_pattern(first) is matcher.compile_pattern(second)


def test_rule_sets_built_twice_compile_nothing_new():
    from repro.targets import make_target

    make_target("blas")
    before = matcher.compile_pattern.cache_info()
    make_target("blas")
    after = matcher.compile_pattern.cache_info()
    assert after.misses == before.misses
    assert after.currsize == before.currsize


# ---------------------------------------------------------------------------
# What programs read: stale child ids and the op groups' stamp
# ---------------------------------------------------------------------------


def _stale_child_ids(egraph) -> int:
    """Child ids stored in class node sets that are no longer roots."""
    parents = egraph.match_view().parents
    return sum(
        parents[child] != child
        for eclass in egraph.classes()
        for enode in eclass.nodes
        for child in enode[2]
    )


@st.composite
def stale_graphs_and_patterns(draw):
    """A random e-graph, then two fresh symbols merged under two tuples
    that stay apart, so after the rebuild one tuple's class still stores
    the merged-away id as a child: a rebuild re-canonicalizes only the
    node sets of the classes it repairs.  The pattern is abstracted from
    one of the tuples or from a random term."""
    egraph, terms = draw(egraphs())
    wrapped = [Tuple(Symbol("p"), terms[0]), Tuple(Symbol("q"), Lam(Fst(terms[0])))]
    for term in wrapped:
        egraph.add_term(term)
    egraph.merge(egraph.add_term(Symbol("p")), egraph.add_term(Symbol("q")))
    egraph.rebuild()
    source = draw(st.sampled_from(wrapped + terms))
    return egraph, draw(patterns_over(source, {}))


@settings(max_examples=300, deadline=None)
@given(stale_graphs_and_patterns())
def test_compiled_matches_oracle_over_stale_child_ids(case):
    egraph, pattern = case
    # The inline parent-list test must fall back to ``find`` somewhere.
    assert _stale_child_ids(egraph) > 0
    _assert_same(egraph, pattern)


def test_stale_child_id_is_matched_through_its_root():
    egraph, (pair, other) = _graph(
        Tuple(Symbol("a"), Const(0)), Tuple(Symbol("b"), Const(1))
    )
    a, b = egraph.add_term(Symbol("a")), egraph.add_term(Symbol("b"))
    egraph.merge(a, b)
    egraph.rebuild()
    assert _stale_child_ids(egraph) == 1
    pattern = PNode("tuple", None, (PNode("symbol", "b"), PVar("x")))
    root = egraph.find(a)
    found = [list(match_class(egraph, pattern, pair)), list(match_class(egraph, pattern, other))]
    assert found == [[{"x": ClassBinding(egraph.find(egraph.add_term(Const(0))))}],
                     [{"x": ClassBinding(egraph.find(egraph.add_term(Const(1))))}]]
    assert root in (a, b)
    assert _assert_same(egraph, pattern) == 2


def test_op_groups_are_regrouped_after_a_mutation():
    # Run a program, add an e-node of the wanted op to the matched
    # class, run it again: the second run must see the new e-node.
    egraph, (root,) = _graph(Symbol("a"))
    pattern = PNode("fst", None, (PVar("x"),))
    compiled = matcher.compile_pattern(pattern)
    view = egraph.match_view()
    assert list(compiled.program(view, root)) == []
    assert root in view.ops
    assert egraph.match_view().ops is view.ops  # shared until a change
    pair = egraph.add_term(Tuple(Symbol("b"), Symbol("c")))
    egraph.merge(root, egraph.add_term(Fst(Tuple(Symbol("b"), Symbol("c")))))
    want = [(egraph.find(root), egraph.find(pair))]
    assert list(compiled.program(egraph.match_view(), root)) == want
    egraph.rebuild()
    assert list(compiled.program(egraph.match_view(), root)) == want
    egraph.drop_candidate_memo()
    assert list(match_class(egraph, pattern, root)) == [{"x": ClassBinding(want[0][1])}]


_SCHEDULE_PATTERNS = (
    PNode("tuple", None, (PVar("x"), PVar("y", as_term=True))),
    PNode("fst", None, (PNode("tuple", None, (PVar("x"), PVar("y"))),)),
    PNode("lam", None, (PVar("e", shift=1),)),
    PNode("app", None, (PNode("lam", None, (PVar("e", as_term=True),)), PVar("x"))),
)

_MUTATION = st.one_of(
    st.tuples(st.just("add"), _TERMS),
    st.tuples(st.just("merge"), st.integers(0, 63), st.integers(0, 63)),
    st.tuples(st.just("rebuild")),
)


@settings(max_examples=120, deadline=None)
@given(st.lists(_MUTATION, min_size=1, max_size=12))
def test_programs_between_mutations_match_oracle(schedule):
    # Programs run after every mutation, twice on one view (the second
    # run reads the op groups and candidates the first one filled).
    egraph = EGraph()
    ids: List[int] = []
    for mutation in schedule:
        if mutation[0] == "add":
            ids.append(egraph.add_term(mutation[1]))
        elif mutation[0] == "merge" and ids:
            egraph.merge(ids[mutation[1] % len(ids)], ids[mutation[2] % len(ids)])
        elif mutation[0] == "rebuild":
            egraph.rebuild()
        for pattern in _SCHEDULE_PATTERNS:
            _assert_same(egraph, pattern)
            _assert_same(egraph, pattern)
