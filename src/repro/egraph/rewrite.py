"""Rewrite rules over e-graphs.

A :class:`Rule` pairs a *searcher* (a pattern matched against every
e-class) with an *applier* that produces terms to union with the
matched class.  Three applier flavours cover everything in the paper:

* **Pattern rules** — the common case: instantiate a RHS pattern
  under the match bindings (listing 2's elimination rules, all idiom
  rules of listings 4–5, the scalar rules of listing 3).  They have no
  applier function: :meth:`Rule.apply` instantiates ``rule.rhs``
  straight into class ids (:func:`~repro.egraph.pattern.add_instance`),
  as egg's pattern appliers do, without building a term.
* **Function appliers** — compute the results in Python: terms to
  insert, or ids of classes the applier inserted itself.
  ``R-BETAREDUCE``'s RHS applies the expression-level ``subst``
  operator to terms extracted from e-classes (§IV-B3, approach 2); its
  applier inserts ``subst(e, y)`` straight into class ids
  (:meth:`~repro.egraph.egraph.EGraph.add_subst`) instead of building
  the substituted term first.
* **Enumerating appliers** — rules whose RHS mentions variables that
  are *unbound* on the LHS (§IV-B4): ``R-INTROLAMBDA``,
  ``R-INTROINDEXBUILD``, ``R-INTROFSTTUPLE``, ``R-INTROSNDTUPLE``.
  The paper instantiates such variables with *every* e-class; this
  implementation makes the candidate set a pluggable
  :class:`CandidateStrategy` because exhaustive enumeration is
  intractable at Python speed (see DESIGN.md §3.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple as TupleT, Union

from ..ir.debruijn import shift as shift_term
from ..ir.terms import App, Index, Lam, Term, Build, Fst, Snd, Tuple as TupleTerm
from .egraph import ClassRef, EGraph
from .matcher import CompiledPattern, compile_pattern
from .pattern import (
    Bindings,
    ClassBinding,
    PNode,
    Pattern,
    PVar,
    RhsRequirements,
    TermBinding,
    add_instance,
    rhs_requirements,
)

__all__ = [
    "Match",
    "Rule",
    "rewrite",
    "birewrite",
    "dynamic_rule",
    "CandidateStrategy",
    "var_classes",
    "const_classes",
    "atom_classes",
    "all_classes",
    "intro_lambda_rule",
    "intro_index_build_rule",
    "intro_fst_tuple_rule",
    "intro_snd_tuple_rule",
    "beta_reduce_rule",
]


@dataclass(frozen=True)
class Match:
    """One match of a rule's searcher: the matched class + bindings."""

    class_id: int
    bindings: Bindings


#: An applier's results: terms to insert, or class ids already inserted.
ApplierFn = Callable[[EGraph, Match], Sequence[Union[Term, int]]]


@dataclass
class Rule:
    """A named rewrite rule: a searcher, and either a right-hand-side
    pattern (``rhs``) or an applier function computing the terms to
    union with the matched class."""

    name: str
    searcher: Pattern
    applier: Optional[ApplierFn]
    # Matches per iteration are capped to keep a single runaway rule
    # from monopolizing a saturation step.
    match_limit: int = 100_000
    # For the runner's applied-match cache: rules whose applier output
    # depends on e-graph state beyond the match (the enumerating intro
    # rules) provide a context fingerprint; when it changes, previously
    # applied matches are retried against the new context.
    context_key: Optional[Callable[[EGraph], object]] = None
    # The RHS pattern of a pattern rule (``applier`` is then ``None``):
    # apply instantiates it into the e-graph, and the static analyzer
    # (repro.check.rules) reads it to verify binding, hygiene, and shape
    # preservation.  Dynamic/function appliers leave it ``None``.
    rhs: Optional[Pattern] = None
    # rhs_requirements(rhs), computed once for apply's binding checks.
    _requirements: Optional[RhsRequirements] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: The searcher's matching program and key layout.
    compiled: CompiledPattern = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Compile the searcher up front.  Programs are cached by pattern
        # value, so the rule sets built per target (and per served
        # request) share one program per distinct pattern.
        self.compiled = compile_pattern(self.searcher)
        if self.applier is None:
            if self.rhs is None:
                raise ValueError(f"rule {self.name!r} has neither rhs nor applier")
            self._requirements = rhs_requirements(self.rhs)

    def search(self, egraph: EGraph) -> List[Match]:
        """All matches of the searcher in the current e-graph.

        Delegates to :func:`repro.saturation.ematch.search_rule`, which
        also supports the engine's restricted (incremental) and
        deadline-bounded search modes, and builds each match's bindings
        from the key it yields.
        """
        from ..saturation.ematch import search_rule

        bindings = self.compiled.bindings
        return [Match(key[0], bindings(key)) for key in search_rule(egraph, self)]

    def apply(self, egraph: EGraph, match: Match) -> int:
        """Apply the rule to one match; returns number of unions made."""
        if self.applier is None:
            new_class = add_instance(
                egraph, self.rhs, match.bindings, self._requirements
            )
            if egraph.same(new_class, match.class_id):
                return 0
            egraph.merge(new_class, match.class_id)
            return 1
        unions = 0
        for result in self.applier(egraph, match):
            new_class = result if isinstance(result, int) else egraph.add_term(result)
            if not egraph.same(new_class, match.class_id):
                egraph.merge(new_class, match.class_id)
                unions += 1
        return unions


def rewrite(name: str, lhs: Pattern, rhs: Pattern, match_limit: int = 100_000) -> Rule:
    """Directed rule ``lhs → rhs``."""
    return Rule(name, lhs, None, match_limit, rhs=rhs)


def birewrite(
    name: str, lhs: Pattern, rhs: Pattern, match_limit: int = 100_000
) -> List[Rule]:
    """Bidirectional rule: ``lhs → rhs`` and ``rhs → lhs``.

    ``match_limit`` caps each direction's matches per step (birewrites
    are the classic explosive searchers; a per-rule budget here bounds
    one step's worth of work even under the simple scheduler, while the
    backoff scheduler handles repeat offenders adaptively).
    """
    return [
        rewrite(f"{name}", lhs, rhs, match_limit),
        rewrite(f"{name}-rev", rhs, lhs, match_limit),
    ]


def dynamic_rule(name: str, lhs: Pattern, fn: ApplierFn, match_limit: int = 100_000) -> Rule:
    """Rule whose RHS is computed by ``fn``."""
    return Rule(name, lhs, fn, match_limit)


# ---------------------------------------------------------------------------
# Candidate strategies for RHS free variables (§IV-B4)
# ---------------------------------------------------------------------------

CandidateStrategy = Callable[[EGraph], List[int]]


def var_classes(egraph: EGraph) -> List[int]:
    """Classes containing a De Bruijn variable e-node, in class-id
    order (an index lookup, see :meth:`EGraph.leaf_classes`).

    The default strategy for ``R-INTROLAMBDA``: every latent-idiom
    derivation in the paper introduces a lambda applied to a loop
    index, e.g. ``1 → (λ 1) •1`` while exposing the dot product in the
    vector sum (§V-A).
    """
    return egraph.leaf_classes("var")


def const_classes(egraph: EGraph) -> List[int]:
    """Classes containing a scalar constant e-node, in class-id order."""
    return egraph.leaf_classes("const")


def atom_classes(egraph: EGraph) -> List[int]:
    """Classes containing any leaf e-node (variable, constant, symbol)."""
    return [
        eclass.class_id
        for eclass in egraph.classes()
        if any(node.op in ("var", "const", "symbol") for node in eclass.nodes)
    ]


def all_classes(egraph: EGraph) -> List[int]:
    """Every class — the paper's (exhaustive) instantiation."""
    return egraph.class_ids()


# ---------------------------------------------------------------------------
# The four enumerating intro rules and beta reduction (listing 2)
# ---------------------------------------------------------------------------


def beta_reduce_rule() -> Rule:
    """``R-BETAREDUCE``: ``(λ e) y → subst(e, y)``.

    ``e`` and ``y`` are bound as terms (extracted representatives) so
    the expression-level ``subst`` operator can run on them.  The
    applier inserts the reduct straight into class ids
    (:meth:`EGraph.add_subst`): the e-nodes and their order are those
    of ``add_term(subst(e, y))``, without the intermediate term.
    """
    lhs = PNode(
        "app",
        None,
        (
            PNode("lam", None, (PVar("e", as_term=True),)),
            PVar("y", as_term=True),
        ),
    )

    def apply(egraph: EGraph, match: Match) -> Sequence[int]:
        body = match.bindings["e"]
        argument = match.bindings["y"]
        assert isinstance(body, TermBinding) and isinstance(argument, TermBinding)
        return [egraph.add_subst(body.term, argument.term)]

    return dynamic_rule("R-BetaReduce", lhs, apply)


def intro_lambda_rule(
    candidates: CandidateStrategy = var_classes,
    max_candidates: int = 64,
    data_shaped_only: bool = True,
) -> Rule:
    """``R-INTROLAMBDA``: ``e → (λ e↑) y`` for candidate argument
    classes ``y``.

    ``e`` must be extracted to run the shift operator on it; ``y``
    stays an e-class reference.

    With ``data_shaped_only`` (default) the rule only fires on classes
    whose shape analysis says scalar or array: abstracting over
    function- or tuple-shaped classes never participates in an idiom
    derivation and inflates the graph substantially.
    """
    from ..ir.shapes import Array, Scalar

    lhs = PVar("e", as_term=True)

    def apply(egraph: EGraph, match: Match) -> Sequence[Term]:
        if data_shaped_only:
            data = egraph.data_of(match.class_id)
            if not isinstance(data, (Scalar, Array)):
                return []
        binding = match.bindings["e"]
        assert isinstance(binding, TermBinding)
        shifted = shift_term(binding.term, 1)
        results: List[Term] = []
        for y_class in candidates(egraph)[:max_candidates]:
            results.append(App(Lam(shifted), ClassRef(egraph.find(y_class))))
        return results

    def context(egraph: EGraph) -> object:
        return len(candidates(egraph))

    rule = dynamic_rule("R-IntroLambda", lhs, apply)
    rule.context_key = context
    return rule


def intro_index_build_rule(max_sizes: int = 16) -> Rule:
    """``R-INTROINDEXBUILD``: ``f i → (build N f)[i]``.

    The free size ``N`` is instantiated with every array size present
    in the e-graph (sizes of existing ``build``/``ifold`` nodes): other
    sizes cannot participate in any idiom of the input program.

    Note the matched application is only *semantically* equal to the
    indexed build when ``0 <= i < N`` at run time; like the paper we
    apply the rule unconditionally, because ``i`` always ranges over a
    loop bound of the same program in the derivations that matter.
    """
    lhs = PNode("app", None, (PVar("f"), PVar("i")))

    def apply(egraph: EGraph, match: Match) -> Sequence[Term]:
        fn = match.bindings["f"]
        index = match.bindings["i"]
        assert isinstance(fn, ClassBinding) and isinstance(index, ClassBinding)
        results: List[Term] = []
        for size in sorted(egraph.known_sizes)[:max_sizes]:
            results.append(
                Index(Build(size, ClassRef(fn.class_id)), ClassRef(index.class_id))
            )
        return results

    def context(egraph: EGraph) -> object:
        return frozenset(egraph.known_sizes)

    rule = dynamic_rule("R-IntroIndexBuild", lhs, apply)
    rule.context_key = context
    return rule


def intro_fst_tuple_rule(
    candidates: CandidateStrategy = const_classes,
    max_candidates: int = 16,
) -> Rule:
    """``R-INTROFSTTUPLE``: ``a → fst (tuple a b)`` for candidate ``b``."""
    lhs = PVar("a")

    def apply(egraph: EGraph, match: Match) -> Sequence[Term]:
        binding = match.bindings["a"]
        assert isinstance(binding, ClassBinding)
        results: List[Term] = []
        for b_class in candidates(egraph)[:max_candidates]:
            results.append(
                Fst(TupleTerm(ClassRef(binding.class_id), ClassRef(egraph.find(b_class))))
            )
        return results

    rule = dynamic_rule("R-IntroFstTuple", lhs, apply)
    rule.context_key = lambda egraph: len(candidates(egraph))
    return rule


def intro_snd_tuple_rule(
    candidates: CandidateStrategy = const_classes,
    max_candidates: int = 16,
) -> Rule:
    """``R-INTROSNDTUPLE``: ``b → snd (tuple a b)`` for candidate ``a``."""
    lhs = PVar("b")

    def apply(egraph: EGraph, match: Match) -> Sequence[Term]:
        binding = match.bindings["b"]
        assert isinstance(binding, ClassBinding)
        results: List[Term] = []
        for a_class in candidates(egraph)[:max_candidates]:
            results.append(
                Snd(TupleTerm(ClassRef(egraph.find(a_class)), ClassRef(binding.class_id)))
            )
        return results

    rule = dynamic_rule("R-IntroSndTuple", lhs, apply)
    rule.context_key = lambda egraph: len(candidates(egraph))
    return rule
