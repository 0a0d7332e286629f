"""The runner's applied-match set: after every rebuild its incremental
re-canonicalization must leave exactly the set that re-canonicalizing
every signature's class positions through ``find`` gives, including
signatures that collapse into one and the ``applied_cap`` clear."""

from hypothesis import given, settings, strategies as st

from repro.egraph import EGraph
from repro.ir.terms import Const, Symbol
from repro.kernels import registry
from repro.saturation import Runner
from repro.saturation import runner as runner_module
from repro.saturation.runner import AppliedSet
from repro.targets import blas_target

_CLASSES = 8
_CAP = 12
#: Three rules' key layouts: the modes of key positions 1.. (position 0
#: is the matched class).
_MODES = (("class", "term", "size"), ("class", "class"), ())
_POSITIONS = [
    (0,) + tuple(p for p, mode in enumerate(modes, 1) if mode == "class")
    for modes in _MODES
]


def _signatures(applied):
    """Every stored ``(rule_index, context, key)``."""
    return {
        (rule_index, context, key)
        for (rule_index, context), keys in applied._groups.items()
        for key in keys
    }


def _canonical(find, positions, signature):
    rule_index, context, key = signature
    key = list(key)
    for position in positions[rule_index]:
        key[position] = find(key[position])
    return (rule_index, context, tuple(key))


def _full(find, signatures, positions=_POSITIONS):
    """The rule the index replaces: re-canonicalize every signature."""
    return {_canonical(find, positions, s) for s in signatures}


_STEP = st.one_of(
    st.tuples(
        st.just("add"), st.integers(0, len(_MODES) - 1),
        st.integers(0, _CLASSES - 1),
        st.lists(st.integers(0, _CLASSES - 1), min_size=3, max_size=3),
    ),
    st.tuples(
        st.just("merge"), st.integers(0, _CLASSES - 1),
        st.integers(0, _CLASSES - 1),
    ),
    st.tuples(st.just("rebuild")),
)


def _signature(find, ids, rule, root, values):
    """A signature as the runner captures it: class ids canonical at
    match time, values in the rule's first-binding order."""
    key = [find(ids[root])]
    for mode, value in zip(_MODES[rule], values):
        if mode == "class":
            key.append(find(ids[value]))
        elif mode == "term":
            key.append(Const(value % 3))
        else:
            key.append(value % 3)
    return (rule, None, tuple(key))


@given(st.lists(_STEP, min_size=1, max_size=40))
@settings(max_examples=150, deadline=None)
def test_incremental_set_equals_full_comprehension(schedule):
    eg = EGraph()
    ids = [eg.add_term(Symbol(f"s{i}")) for i in range(_CLASSES)]
    applied = AppliedSet(_POSITIONS)
    reference = set()
    for step in schedule:
        if step[0] == "add":
            signature = _signature(eg.find, ids, *step[1:])
            applied.add(signature[0], signature[1], [signature[2]])
            reference.add(signature)
        elif step[0] == "merge":
            eg.merge(ids[step[1]], ids[step[2]])
        else:
            eg.rebuild()
            applied.canonicalize(eg.find)
            reference = _full(eg.find, reference)
            if len(applied) > _CAP:
                applied.clear()
                reference.clear()
            assert _signatures(applied) == reference
            assert len(applied) == len(reference)
            for rule, context, key in reference:
                assert applied.fresh(rule, context, [key, key]) == []


class TestCanonicalize:
    def test_signatures_collapse_into_one(self):
        eg = EGraph()
        a, b, c = (eg.add_term(Symbol(name)) for name in "abc")
        applied = AppliedSet([(0, 1), (0, 1, 2)])
        # Same logical match, captured under a and under b; the second
        # rule's keys also hold a and b at class positions.
        applied.add(0, None, [(a, c), (b, c)])
        applied.add(1, None, [(c, a, b), (c, b, a)])
        root = eg.merge(a, b)
        eg.rebuild()
        applied.canonicalize(eg.find)
        assert _signatures(applied) == {
            (0, None, (root, c)),
            (1, None, (c, root, root)),
        }
        assert len(applied) == 2
        # The merged-away id's index entry is gone.
        assert set(applied._mentions) == {root, c}

    def test_parts_without_class_ids_are_kept(self):
        eg = EGraph()
        a, b = (eg.add_term(Symbol(name)) for name in "ab")
        term = Const(7)
        applied = AppliedSet([(0,)])
        # Only position 0 holds a class id: the size 3 stays 3 even
        # though it is also some class's id.
        applied.add(0, "ctx", [(a, term, 3)])
        root = eg.merge(a, b)
        eg.rebuild()
        applied.canonicalize(eg.find)
        (signature,) = _signatures(applied)
        assert signature == (0, "ctx", (root, term, 3))
        assert signature[2][1] is term

    def test_clear_empties_the_index(self):
        eg = EGraph()
        a = eg.add_term(Symbol("a"))
        applied = AppliedSet([(0,)])
        applied.add(0, None, [(a,)])
        applied.clear()
        assert len(applied) == 0 and applied._mentions == {}
        assert _signatures(applied) == set()
        assert applied.fresh(0, None, [(a,)]) == [(a,)]

    def test_fresh_keeps_first_seen_order_without_applied_keys(self):
        applied = AppliedSet([(0,)])
        applied.add(0, None, [(2,)])
        assert applied.fresh(0, None, [(3,), (2,), (1,), (3,)]) == [(3,), (1,)]
        # Another context of the same rule shares nothing.
        assert applied.fresh(0, "other", [(2,), (2,)]) == [(2,)]


class _CheckedAppliedSet(AppliedSet):
    """Checks every re-canonicalization of a real run against the full
    comprehension over the set it started from."""

    rebuilds = 0
    collapsed = 0

    def canonicalize(self, find):
        expected = _full(find, _signatures(self), self._positions)
        before = len(self)
        super().canonicalize(find)
        assert _signatures(self) == expected
        assert len(self) == len(expected)
        type(self).rebuilds += 1
        type(self).collapsed += before - len(self)


def test_saturation_run_matches_full_comprehension(monkeypatch):
    monkeypatch.setattr(runner_module, "AppliedSet", _CheckedAppliedSet)
    monkeypatch.setattr(_CheckedAppliedSet, "rebuilds", 0)
    monkeypatch.setattr(_CheckedAppliedSet, "collapsed", 0)
    # axpy's third step merges classes that stored signatures share.
    kernel = registry.get("axpy")
    target = blas_target()
    for cap in (500_000, 50):  # the default, and one the run outgrows
        eg = EGraph()
        root = eg.add_term(kernel.term)
        Runner(eg, target.rules, step_limit=3, node_limit=4000,
               applied_cap=cap).run(root)
    assert _CheckedAppliedSet.rebuilds >= 4
    assert _CheckedAppliedSet.collapsed > 0
