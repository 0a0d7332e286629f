"""E-matching tests: patterns, shifted pattern variables, size
variables, instantiation."""

import pytest

from repro.egraph import EGraph, match_class
from repro.egraph.pattern import (
    ClassBinding,
    PNode,
    PVar,
    SizeVar,
    TermBinding,
    instantiate,
)
from repro.ir import builders as b, parse
from repro.ir.terms import Const, Symbol
from repro.rules.dsl import (
    n,
    padd,
    pbuild,
    pcall,
    pconst,
    pdb,
    pifold,
    pindex,
    plam,
    plam2,
    pmul,
    pv,
)


def _matches(eg, pattern, class_id):
    return list(match_class(eg, pattern, class_id))


class TestBasicMatching:
    def test_pvar_matches_any_class(self):
        eg = EGraph()
        root = eg.add_term(parse("a + b"))
        found = _matches(eg, pv("x"), root)
        assert len(found) == 1
        binding = found[0]["x"]
        assert isinstance(binding, ClassBinding)
        assert eg.find(binding.class_id) == eg.find(root)

    def test_concrete_node_match(self):
        eg = EGraph()
        root = eg.add_term(parse("a + b"))
        found = _matches(eg, padd(pv("x"), pv("y")), root)
        assert len(found) == 1

    def test_payload_mismatch_fails(self):
        eg = EGraph()
        root = eg.add_term(parse("a + b"))
        assert _matches(eg, pmul(pv("x"), pv("y")), root) == []

    def test_const_pattern(self):
        eg = EGraph()
        root = eg.add_term(parse("x + 0"))
        found = _matches(eg, padd(pv("x"), pconst(0)), root)
        assert len(found) == 1

    def test_nonlinear_pattern_requires_same_class(self):
        eg = EGraph()
        same = eg.add_term(parse("a * a"))
        diff = eg.add_term(parse("a * b"))
        square = pmul(pv("x"), pv("x"))
        assert len(_matches(eg, square, same)) == 1
        assert _matches(eg, square, diff) == []

    def test_nonlinear_matches_after_merge(self):
        eg = EGraph()
        diff = eg.add_term(parse("a * b"))
        eg.merge(eg.add_term(Symbol("a")), eg.add_term(Symbol("b")))
        eg.rebuild()
        assert len(_matches(eg, pmul(pv("x"), pv("x")), diff)) == 1

    def test_match_across_equivalent_representations(self):
        # The latent-idiom mechanism: a pattern matches any e-node in
        # the class, not just the original term.
        eg = EGraph()
        root = eg.add_term(parse("a"))
        eg.merge(root, eg.add_term(parse("b * 1")))
        eg.rebuild()
        found = _matches(eg, pmul(pv("x"), pconst(1)), root)
        assert len(found) == 1


class TestSizeVariables:
    def test_size_var_binds(self):
        eg = EGraph()
        root = eg.add_term(parse("build 4 (λ •0)"))
        found = _matches(eg, pbuild(n("N"), pv("f")), root)
        assert found[0]["N"] == 4

    def test_size_var_consistency(self):
        eg = EGraph()
        ok = eg.add_term(parse("(build 4 (λ •0))[ifold 4 0 (λ λ •0)]"))
        pattern = pindex(pbuild(n("N"), pv("f")), pifold(n("N"), pconst(0), pv("g")))
        assert len(_matches(eg, pattern, ok)) == 1
        bad = eg.add_term(parse("(build 4 (λ •0))[ifold 8 0 (λ λ •0)]"))
        assert _matches(eg, pattern, bad) == []

    def test_concrete_size_must_equal(self):
        eg = EGraph()
        root = eg.add_term(parse("build 4 (λ •0)"))
        assert len(_matches(eg, pbuild(4, pv("f")), root)) == 1
        assert _matches(eg, pbuild(8, pv("f")), root) == []


class TestShiftedPatternVars:
    def test_shifted_var_binds_unshifted_term(self):
        # Pattern A↑[•0] against xs[•0] under one lambda: A := xs.
        eg = EGraph()
        root = eg.add_term(parse("build 4 (λ xs[•0])"))
        pattern = pbuild(n("N"), plam(pindex(pv("A", 1), pdb(0))))
        found = _matches(eg, pattern, root)
        assert len(found) == 1
        binding = found[0]["A"]
        assert isinstance(binding, TermBinding)
        assert binding.term == Symbol("xs")

    def test_shifted_var_rejects_captured_index(self):
        # build 4 (λ (build 2 (λ •1))[•0]): the inner array mentions the
        # outer •0, so it cannot serve as a shift-1 binding.
        eg = EGraph()
        root = eg.add_term(parse("build 4 (λ xs[•0][•0])"))
        pattern = pbuild(n("N"), plam(pindex(pv("A", 1), pdb(0))))
        found = _matches(eg, pattern, root)
        # xs[•0] mentions •0 → no valid unshift → no match.
        assert found == []

    def test_dot_idiom_pattern_matches_expanded_dot(self):
        from repro.kernels.combinators import dot_ir

        eg = EGraph()
        root = eg.add_term(dot_ir(Symbol("A"), Symbol("B"), 8))
        pattern = pifold(
            n("N"),
            pconst(0),
            plam2(
                padd(
                    pmul(pindex(pv("A", 2), pdb(1)), pindex(pv("B", 2), pdb(1))),
                    pdb(0),
                )
            ),
        )
        found = _matches(eg, pattern, root)
        assert len(found) == 1
        assert found[0]["A"] == TermBinding(Symbol("A"))
        assert found[0]["B"] == TermBinding(Symbol("B"))
        assert found[0]["N"] == 8

    def test_as_term_binding(self):
        eg = EGraph()
        root = eg.add_term(parse("a + b"))
        found = _matches(eg, pv("x", as_term=True), root)
        assert isinstance(found[0]["x"], TermBinding)
        assert found[0]["x"].term == parse("a + b")


class TestInstantiate:
    def test_class_binding_becomes_classref(self):
        eg = EGraph()
        root = eg.add_term(parse("a + b"))
        found = _matches(eg, padd(pv("x"), pv("y")), root)
        result = instantiate(eg, padd(pv("y"), pv("x")), found[0])
        new_class = eg.add_term(result)
        direct = eg.add_term(parse("b + a"))
        assert eg.same(new_class, direct)

    def test_term_binding_spliced(self):
        eg = EGraph()
        root = eg.add_term(parse("build 4 (λ xs[•0])"))
        pattern = pbuild(n("N"), plam(pindex(pv("A", 1), pdb(0))))
        found = _matches(eg, pattern, root)
        result = instantiate(eg, pcall("len", pv("A")), found[0])
        assert result == parse("len(xs)")

    def test_rhs_shift_reapplied(self):
        # A bound unshifted then used as A↑ on the RHS is re-shifted.
        eg = EGraph()
        root = eg.add_term(parse("build 4 (λ xs[•0])"))
        pattern = pbuild(n("N"), plam(pindex(pv("A", 1), pdb(0))))
        found = _matches(eg, pattern, root)
        result = instantiate(eg, plam(pindex(pv("A", 1), pdb(0))), found[0])
        assert result == parse("λ xs[•0]")

    def test_size_var_instantiated(self):
        eg = EGraph()
        root = eg.add_term(parse("build 4 (λ 0)"))
        found = _matches(eg, pbuild(n("N"), pv("f")), root)
        result = instantiate(eg, pbuild(n("N"), pv("f")), found[0])
        new_class = eg.add_term(result)
        assert eg.same(new_class, root)

    def test_unbound_var_raises(self):
        eg = EGraph()
        with pytest.raises(ValueError):
            instantiate(eg, pv("missing"), {})
