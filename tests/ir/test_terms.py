"""Unit tests for the term ADT (repro.ir.terms)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import builders as b
from repro.ir.terms import (
    App,
    Build,
    Call,
    Const,
    IFold,
    Index,
    Lam,
    Symbol,
    Term,
    Tuple,
    Var,
    children,
    collect_calls,
    collect_sizes,
    collect_symbols,
    free_indices,
    is_closed,
    max_free_index,
    subterms,
    term_size,
    with_children,
)


class TestConstruction:
    def test_var_requires_nonnegative_index(self):
        with pytest.raises(ValueError):
            Var(-1)

    def test_build_requires_nonnegative_size(self):
        with pytest.raises(ValueError):
            Build(-3, Lam(Var(0)))

    def test_ifold_requires_int_size(self):
        with pytest.raises(ValueError):
            IFold("n", Const(0), Lam(Lam(Var(0))))

    def test_const_rejects_bool(self):
        with pytest.raises(TypeError):
            Const(True)

    def test_const_rejects_string(self):
        with pytest.raises(TypeError):
            Const("x")

    def test_call_args_coerced_to_tuple(self):
        call = Call("f", [Const(1), Const(2)])
        assert isinstance(call.args, tuple)

    def test_terms_are_hashable_and_equal_by_value(self):
        t1 = b.lam(b.v(0) + 1)
        t2 = b.lam(b.v(0) + 1)
        assert t1 == t2
        assert hash(t1) == hash(t2)
        assert t1 is not t2

    def test_alpha_equivalent_lambdas_are_identical(self):
        # De Bruijn indices make alpha-equivalence syntactic (§IV-A1).
        identity_a = Lam(Var(0))
        identity_b = Lam(Var(0))
        assert identity_a == identity_b


class TestOperatorSugar:
    def test_add_builds_call(self):
        term = b.sym("x") + 1
        assert term == Call("+", (Symbol("x"), Const(1)))

    def test_radd_coerces_left_operand(self):
        term = 2 + b.sym("x")
        assert term == Call("+", (Const(2), Symbol("x")))

    def test_mul_sub_div(self):
        x = b.sym("x")
        assert (x * 3).name == "*"
        assert (x - 3).name == "-"
        assert (x / 3).name == "/"

    def test_getitem_builds_index(self):
        term = b.sym("xs")[b.v(0)]
        assert term == Index(Symbol("xs"), Var(0))

    def test_call_syntax_builds_apps(self):
        f = b.lam(b.v(0))
        applied = f(1, 2)
        assert applied == App(App(f, Const(1)), Const(2))

    def test_bool_coercion_rejected(self):
        with pytest.raises(TypeError):
            b.sym("x") + True


class TestTraversal:
    def test_children_of_leaves(self):
        assert children(Var(0)) == ()
        assert children(Const(1)) == ()
        assert children(Symbol("a")) == ()

    def test_children_of_compound_nodes(self):
        term = b.ifold(4, 0, b.lam2(b.v(0)))
        init, fn = children(term)
        assert init == Const(0)
        assert isinstance(fn, Lam)

    def test_with_children_roundtrip(self):
        for term in [
            b.lam(b.v(0)),
            b.app(b.lam(b.v(0)), 1),
            b.build(4, b.lam(b.v(0))),
            b.sym("a")[b.v(0)],
            b.ifold(4, 0, b.lam2(b.v(0))),
            b.tup(1, 2),
            b.fst(b.tup(1, 2)),
            b.snd(b.tup(1, 2)),
            b.call("f", 1, 2),
        ]:
            assert with_children(term, children(term)) == term

    def test_with_children_replaces(self):
        term = b.build(4, b.lam(b.v(0)))
        replaced = with_children(term, (b.lam(Const(7)),))
        assert replaced == b.build(4, b.lam(7))

    def test_with_children_arity_checked(self):
        with pytest.raises(ValueError):
            with_children(Const(1), (Const(2),))

    def test_term_size(self):
        assert term_size(Const(1)) == 1
        assert term_size(b.sym("x") + 1) == 3
        assert term_size(b.build(4, b.lam(b.v(0)))) == 3

    def test_subterms_preorder(self):
        term = b.sym("x") + 1
        nodes = list(subterms(term))
        assert nodes[0] == term
        assert Const(1) in nodes
        assert Symbol("x") in nodes


class TestFreeIndices:
    def test_closed_term(self):
        assert is_closed(b.lam(b.v(0)))
        assert free_indices(b.lam(b.v(0))) == set()

    def test_open_term(self):
        assert free_indices(b.v(2)) == {2}
        assert max_free_index(b.v(2)) == 2

    def test_lambda_binds_innermost(self):
        term = b.lam(b.v(0) + b.v(1))
        assert free_indices(term) == {0}

    def test_double_lambda(self):
        term = b.lam2(b.v(1) * b.v(0) + b.v(2))
        assert free_indices(term) == {0}

    def test_max_free_index_of_closed_is_minus_one(self):
        assert max_free_index(Const(3)) == -1

    def test_build_does_not_bind(self):
        # build's function child is a lambda; build itself binds nothing.
        term = b.build(4, b.lam(b.v(1)))
        assert free_indices(term) == {0}


class TestCollectors:
    def test_collect_sizes(self):
        term = b.build(4, b.lam(b.ifold(8, 0, b.lam2(b.v(0)))))
        assert collect_sizes(term) == {4, 8}

    def test_collect_calls_counts(self):
        term = b.call("dot", b.sym("a"), b.call("dot", b.sym("b"), b.sym("c")))
        assert collect_calls(term) == {"dot": 2}

    def test_collect_symbols(self):
        term = b.sym("A")[b.v(0)] + b.sym("alpha")
        assert collect_symbols(term) == {"A", "alpha"}


# ---------------------------------------------------------------------------
# The cached structural hash (Term._hash)
# ---------------------------------------------------------------------------


def _sample_terms():
    """One freshly built instance of every concrete Term subclass of the
    package, keyed by class; called twice, it yields equal but distinct
    objects."""
    from repro.egraph.egraph import ClassRef
    from repro.egraph.pattern import PVar, _HoleTerm
    from repro.ir.terms import Fst, Snd

    body = Call("+", (Var(0), Symbol("xs")[Var(1)]))
    return {
        Var: Var(2),
        Lam: Lam(body),
        App: App(Lam(body), Const(1)),
        Build: Build(4, Lam(body)),
        Index: Index(Symbol("xs"), Var(0)),
        IFold: IFold(3, Const(0.0), Lam(Lam(body))),
        Tuple: Tuple(Symbol("a"), Const(2)),
        Fst: Fst(Tuple(Symbol("a"), Var(0))),
        Snd: Snd(Tuple(Symbol("a"), Var(0))),
        Call: Call("dot", (Symbol("xs"), Symbol("ys"))),
        Const: Const(1.5),
        Symbol: Symbol("alpha"),
        ClassRef: ClassRef(7),
        _HoleTerm: _HoleTerm(PVar("A", 1, True)),
    }


def _concrete_term_classes():
    import sys

    import repro.egraph.egraph  # noqa: F401  (defines ClassRef)
    import repro.egraph.pattern  # noqa: F401  (defines _HoleTerm)

    found, stack = set(), [Term]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            # ``dataclass(slots=True)`` replaces the class it decorates;
            # count only the class its module actually exports.
            module = sys.modules.get(sub.__module__)
            if (
                sub.__module__.startswith("repro.")
                and getattr(module, sub.__qualname__, None) is sub
            ):
                found.add(sub)
    return found


class TestCachedHash:
    def test_every_subclass_hashes_with_its_equality(self):
        samples, twins = _sample_terms(), _sample_terms()
        # A new Term subclass must be added to _sample_terms, so this
        # walk covers it.
        assert _concrete_term_classes() == set(samples)
        for cls, term in samples.items():
            twin = twins[cls]
            assert type(term).__hash__ is Term.__hash__, cls
            assert term == twin and term is not twin, cls
            assert hash(term) == hash(twin), cls
            # The cached value is the frozen-dataclass field hash.
            fields = tuple(getattr(term, name) for name in term.__dataclass_fields__)
            assert term._hash == hash(fields), cls
            assert {term: cls}[twin] is cls

    def test_cache_is_not_a_field(self):
        term = Call("f", (Var(0), Lam(Symbol("x"))))
        before = repr(term)
        hash(term)
        assert repr(term) == before and "_hash" not in before
        assert "_hash" not in Call.__dataclass_fields__
        import pickle

        state = pickle.dumps(term)
        assert not hasattr(pickle.loads(state), "_hash")

    def test_pickled_term_hashes_afresh_in_another_process(self):
        import os
        import pickle
        import subprocess
        import sys

        term = Call("gemv", (Symbol("A"), Build(4, Lam(Symbol("xs")[Var(0)]))))
        cached = hash(term)  # fills _hash in this process
        script = (
            "import pickle, sys\n"
            "from repro.ir.terms import Build, Call, Lam, Symbol, Var\n"
            "term = pickle.loads(sys.stdin.buffer.read())\n"
            "fresh = Call('gemv', (Symbol('A'), Build(4, Lam(Symbol('xs')[Var(0)]))))\n"
            "assert hash(fresh) != int(sys.argv[1]), 'hash seeds coincide'\n"
            "assert term in {fresh} and fresh in {term}\n"
            "assert hash(term) == hash(fresh)\n"
        )
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = (
            "2" if env.get("PYTHONHASHSEED") == "1" else "1"
        )
        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(cached)],
            input=pickle.dumps(term), capture_output=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr.decode()


_LEAVES = st.one_of(
    st.builds(Var, st.integers(0, 3)),
    st.builds(Const, st.integers(-2, 2)),
    st.builds(Symbol, st.sampled_from(["xs", "ys", "alpha"])),
)


def _extend(inner):
    return st.one_of(
        st.builds(Lam, inner),
        st.builds(App, inner, inner),
        st.builds(Build, st.integers(1, 4), inner),
        st.builds(Index, inner, inner),
        st.builds(IFold, st.integers(1, 4), inner, inner),
        st.builds(Tuple, inner, inner),
        st.builds(
            Call, st.sampled_from(["+", "*", "dot"]),
            st.lists(inner, max_size=3).map(tuple),
        ),
    )


_TERMS = st.recursive(_LEAVES, _extend, max_leaves=12)


def _rebuild(term):
    """A structurally equal copy sharing no node with ``term``."""
    kids = tuple(_rebuild(child) for child in children(term))
    if not kids:
        return type(term)(*(getattr(term, n) for n in term.__dataclass_fields__))
    return with_children(term, kids)


@given(_TERMS)
@settings(max_examples=100, deadline=None)
def test_equal_terms_hash_equal_and_cache_stays_out_of_eq(term):
    twin = _rebuild(term)
    assert twin == term
    plain = repr(twin)
    assert hash(term) == hash(twin)
    assert repr(twin) == plain
    # A corrupted cache changes the hash, never equality or repr.
    object.__setattr__(twin, "_hash", hash(term) + 1)
    assert twin == term and repr(twin) == plain
