"""The runner's applied-match set: after every rebuild its incremental
re-canonicalization must leave exactly the set that re-canonicalizing
every signature through ``find`` gives, including signatures that
collapse into one and the ``applied_cap`` clear."""

from hypothesis import given, settings, strategies as st

from repro.egraph import EGraph
from repro.ir.terms import Const, Symbol
from repro.kernels import registry
from repro.saturation import Runner
from repro.saturation import runner as runner_module
from repro.saturation.runner import AppliedSet, _canonicalize_signature
from repro.targets import blas_target

_CLASSES = 8
_CAP = 12


def _full(find, signatures):
    """The rule the index replaces: re-canonicalize every signature."""
    return {_canonicalize_signature(find, s) for s in signatures}


_PART = st.one_of(
    st.tuples(st.just("c"), st.integers(0, _CLASSES - 1)),
    st.tuples(st.just("t"), st.integers(0, 2)),
    st.tuples(st.just("v"), st.integers(0, 2)),
)

_STEP = st.one_of(
    st.tuples(
        st.just("add"), st.integers(0, 2), st.integers(0, _CLASSES - 1),
        st.lists(_PART, max_size=3),
    ),
    st.tuples(
        st.just("merge"), st.integers(0, _CLASSES - 1),
        st.integers(0, _CLASSES - 1),
    ),
    st.tuples(st.just("rebuild")),
)


def _signature(find, ids, rule, root, parts):
    """A signature as the runner captures it: class ids canonical at
    match time, parts sorted by binding name."""
    built = []
    for position, (kind, value) in enumerate(parts):
        name = f"x{position}"
        if kind == "c":
            built.append((name, "c", find(ids[value])))
        elif kind == "t":
            built.append((name, "t", Const(value)))
        else:
            built.append((name, "v", value))
    return (rule, None, (find(ids[root]), tuple(built)))


@given(st.lists(_STEP, min_size=1, max_size=40))
@settings(max_examples=150, deadline=None)
def test_incremental_set_equals_full_comprehension(schedule):
    eg = EGraph()
    ids = [eg.add_term(Symbol(f"s{i}")) for i in range(_CLASSES)]
    applied = AppliedSet()
    reference = set()
    for step in schedule:
        if step[0] == "add":
            signature = _signature(eg.find, ids, *step[1:])
            applied.add(signature)
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
            assert applied._signatures == reference
            assert len(applied) == len(reference)
            assert all(signature in applied for signature in reference)


class TestCanonicalize:
    def test_signatures_collapse_into_one(self):
        eg = EGraph()
        a, b, c = (eg.add_term(Symbol(name)) for name in "abc")
        applied = AppliedSet()
        # Same logical match, captured under a and under b; the second
        # also binds a and b through class parts.
        applied.add((0, None, (a, (("x", "c", c),))))
        applied.add((0, None, (b, (("x", "c", c),))))
        applied.add((1, None, (c, (("x", "c", a), ("y", "c", b)))))
        applied.add((1, None, (c, (("x", "c", b), ("y", "c", a)))))
        root = eg.merge(a, b)
        eg.rebuild()
        applied.canonicalize(eg.find)
        assert applied._signatures == {
            (0, None, (root, (("x", "c", c),))),
            (1, None, (c, (("x", "c", root), ("y", "c", root)))),
        }
        # The merged-away id's index entry is gone.
        assert set(applied._mentions) == {root, c}

    def test_parts_without_class_ids_are_kept(self):
        eg = EGraph()
        a, b = (eg.add_term(Symbol(name)) for name in "ab")
        term = Const(7)
        applied = AppliedSet()
        applied.add((0, "ctx", (a, (("t", "t", term), ("v", "v", 3)))))
        root = eg.merge(a, b)
        eg.rebuild()
        applied.canonicalize(eg.find)
        (signature,) = applied._signatures
        assert signature == (0, "ctx", (root, (("t", "t", term), ("v", "v", 3))))
        assert signature[2][1][0][2] is term

    def test_clear_empties_the_index(self):
        eg = EGraph()
        a = eg.add_term(Symbol("a"))
        applied = AppliedSet()
        applied.add((0, None, (a, ())))
        applied.clear()
        assert len(applied) == 0 and applied._mentions == {}


class _CheckedAppliedSet(AppliedSet):
    """Checks every re-canonicalization of a real run against the full
    comprehension over the set it started from."""

    rebuilds = 0
    collapsed = 0

    def canonicalize(self, find):
        expected = _full(find, self._signatures)
        before = len(self)
        super().canonicalize(find)
        assert self._signatures == expected
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
