"""Equality-saturation engine (egg-style), built for LIAR.

* :mod:`repro.egraph.egraph` — hash-consed, congruence-closed e-graph;
* :mod:`repro.egraph.pattern` — patterns, bindings, instantiation;
* :mod:`repro.egraph.matcher` — e-matching: each pattern compiled into
  a specialized Python generator;
* :mod:`repro.egraph.rewrite` — rules, including the De Bruijn-aware
  dynamic rules and the enumerating "intro" rules;
* :mod:`repro.egraph.analysis` — per-e-class shape analysis.

.. deprecated::
   The ``repro.egraph.runner`` and ``repro.egraph.extract``
   compatibility shims were removed; the runner lives in
   :mod:`repro.saturation` and extraction in :mod:`repro.extraction`.
   Their public names (``Runner``, ``CostModel``, …) still resolve
   lazily off this package — with a :class:`DeprecationWarning` — for
   one release.
"""

from .analysis import ShapeAnalysis, dims_of_class, shape_of_class
from .egraph import Analysis, ClassRef, EClass, EGraph
from .enode import ENode
from .matcher import match_class
from .pattern import (
    Bindings,
    ClassBinding,
    PNode,
    Pattern,
    PVar,
    SizeVar,
    TermBinding,
    instantiate,
    pattern_of_term,
)
from .rewrite import (
    CandidateStrategy,
    Match,
    Rule,
    all_classes,
    atom_classes,
    beta_reduce_rule,
    birewrite,
    const_classes,
    dynamic_rule,
    intro_fst_tuple_rule,
    intro_index_build_rule,
    intro_lambda_rule,
    intro_snd_tuple_rule,
    rewrite,
    var_classes,
)
from .unionfind import UnionFind

# The runner and extractor names live in repro.saturation and
# repro.extraction now; resolve them lazily (PEP 562) so that
# importing either subsystem first — both import this package for the
# e-graph machinery — does not create an import cycle.  ``Extractor``
# maps to the greedy extractor, whose behaviour is the seed
# implementation ported verbatim.
_RUNNER_NAMES = frozenset(
    {"Runner", "RunResult", "StepRecord", "StopReason", "library_calls_of"}
)
_EXTRACT_NAMES = frozenset(
    {"CostModel", "AstSizeCost", "Extractor", "ExtractionResult"}
)


def __getattr__(name: str):
    if name in _RUNNER_NAMES or name in _EXTRACT_NAMES:
        import warnings

        if name in _RUNNER_NAMES:
            home = "repro.saturation"
            from ..saturation import runner as module
        else:
            home = "repro.extraction"
            from .. import extraction as module
        warnings.warn(
            f"importing {name!r} from repro.egraph is deprecated; "
            f"use {home} instead",
            DeprecationWarning,
            stacklevel=2,
        )
        if name == "Extractor":
            from ..extraction.greedy import GreedyExtractor

            return GreedyExtractor
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "EGraph", "EClass", "ENode", "ClassRef", "Analysis", "UnionFind",
    "Pattern", "PVar", "PNode", "SizeVar", "Bindings", "ClassBinding",
    "TermBinding", "match_class", "instantiate", "pattern_of_term",
    "Rule", "Match", "rewrite", "birewrite", "dynamic_rule",
    "beta_reduce_rule", "intro_lambda_rule", "intro_index_build_rule",
    "intro_fst_tuple_rule", "intro_snd_tuple_rule",
    "CandidateStrategy", "var_classes", "const_classes", "atom_classes",
    "all_classes",
    # Deprecated names resolved lazily via __getattr__ (PEP 562):
    "Runner", "RunResult", "StepRecord", "StopReason", "library_calls_of",  # noqa: F822
    "CostModel", "AstSizeCost", "Extractor", "ExtractionResult",  # noqa: F822
    "ShapeAnalysis", "shape_of_class", "dims_of_class",
]
