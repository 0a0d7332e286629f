"""Matches as flat keys: dedup, admission and the applied set.

The runner used to sign every found match by its sorted
``(name, kind, value)`` binding parts (``_binding_signature`` below,
kept here as the oracle) and deduplicate on those signatures.  It now
signs a match by the flat key its compiled program yields.  On random
e-graphs and the paper's two rule sets, keys must group matches exactly
as the oracle's signatures do, and the applied set must admit the same
matches in the same order, before and after merges.  Bindings are built
only for the matches the apply loop reaches.
"""

import copy
from dataclasses import replace
from typing import Dict, List, Set

from hypothesis import given, settings, strategies as st

from repro.egraph import EGraph
from repro.egraph.pattern import ClassBinding, TermBinding
from repro.egraph.rewrite import Match
from repro.kernels import registry
from repro.saturation import Runner, StopReason
from repro.saturation.ematch import search_rule
from repro.saturation.runner import AppliedSet
from repro.targets import blas_target, pytorch_target

_TARGETS = {"blas": blas_target(), "pytorch": pytorch_target()}
_KERNELS = ("vsum", "axpy", "dot", "memset", "gemv", "jacobi1d")


# ---------------------------------------------------------------------------
# The oracle: signatures from sorted binding parts
# ---------------------------------------------------------------------------


def _binding_signature(egraph, match: Match) -> tuple:
    parts = []
    for name in sorted(match.bindings):
        value = match.bindings[name]
        if isinstance(value, ClassBinding):
            parts.append((name, "c", egraph.find(value.class_id)))
        elif isinstance(value, TermBinding):
            parts.append((name, "t", value.term))
        else:
            parts.append((name, "v", value))
    return (egraph.find(match.class_id), tuple(parts))


def _canonicalize_signature(find, signature: tuple) -> tuple:
    rule_index, context, (root, parts) = signature
    parts = tuple(
        (part[0], "c", find(part[2])) if part[1] == "c" else part for part in parts
    )
    return (rule_index, context, (find(root), parts))


def _oracle_fresh(signatures: List[tuple], applied: Set[tuple]) -> List[tuple]:
    """The old commit loop: skip applied and already-seen signatures."""
    fresh, seen = [], set()
    for signature in signatures:
        if signature in applied or signature in seen:
            continue
        seen.add(signature)
        fresh.append(signature)
    return fresh


# ---------------------------------------------------------------------------
# Random e-graphs from the table-I kernels
# ---------------------------------------------------------------------------


@st.composite
def cases(draw):
    target_name = draw(st.sampled_from(sorted(_TARGETS)))
    kernels = draw(st.lists(st.sampled_from(_KERNELS), min_size=1, max_size=2,
                            unique=True))
    egraph = EGraph()
    roots = [egraph.add_term(registry.get(name).term) for name in kernels]
    if draw(st.booleans()):
        # One saturation step makes the idiom rules' variables match.
        Runner(egraph, _TARGETS[target_name].rules, step_limit=1,
               node_limit=4000).run(roots[0])
    merges = draw(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
                           max_size=3))
    later = draw(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
                          min_size=1, max_size=3))
    return target_name, egraph, merges, later


def _merge(egraph, pairs):
    for a, b in pairs:
        ids = egraph.class_ids()
        egraph.merge(ids[a % len(ids)], ids[b % len(ids)])
    egraph.rebuild()


def _found(egraph, rules):
    """Per rule: its keys and, rebuilt from them, the oracle signatures."""
    out = []
    for rule_index, rule in enumerate(rules):
        keys = search_rule(egraph, rule)
        signatures = [
            (rule_index, None,
             _binding_signature(egraph, Match(key[0], rule.compiled.bindings(key))))
            for key in keys
        ]
        out.append((keys, signatures))
    return out


def _check_step(egraph, rules, applied: AppliedSet, oracle: Set[tuple]) -> None:
    """Dedup every rule's matches both ways and admit half of them."""
    for rule_index, (keys, signatures) in enumerate(_found(egraph, rules)):
        # Keys split the matches into exactly the oracle's groups.
        assert len(set(keys)) == len(set(signatures)) == len(set(zip(keys, signatures)))
        by_key = dict(zip(keys, signatures))
        fresh = applied.fresh(rule_index, None, keys)
        want = _oracle_fresh(signatures, oracle)
        assert [by_key[key] for key in fresh] == want
        admitted = fresh[: (len(fresh) + 1) // 2]
        applied.add(rule_index, None, admitted)
        oracle.update(by_key[key] for key in admitted)
        assert len(applied) == len(oracle)


@given(cases())
@settings(max_examples=40, deadline=None)
def test_keys_dedup_and_admit_like_binding_signatures(case):
    target_name, egraph, merges, later = case
    rules = _TARGETS[target_name].rules
    _merge(egraph, merges)
    applied = AppliedSet([rule.compiled.class_positions for rule in rules])
    oracle: Set[tuple] = set()
    _check_step(egraph, rules, applied, oracle)
    # Merges make stored class ids stale; both sets re-canonicalize.
    _merge(egraph, later)
    applied.canonicalize(egraph.find)
    oracle = {_canonicalize_signature(egraph.find, s) for s in oracle}
    assert len(applied) == len(oracle)
    _check_step(egraph, rules, applied, oracle)


# ---------------------------------------------------------------------------
# The apply loop builds bindings only for the matches it applies
# ---------------------------------------------------------------------------

#: Per-rule (matches_found, matches_applied, effective_applications,
#: unions, nodes_added) of vsum/blas at 6 steps and 2000 nodes, as the
#: engine that signed matches by their binding parts counted them;
#: every other rule found nothing.
_VSUM_NODE_LIMIT_COUNTS = {
    "E-AddZero-rev": (1023, 264, 0, 0, 0),
    "E-MulOneL-rev": (1023, 264, 0, 0, 0),
    "E-MulOneR-rev": (1023, 264, 0, 0, 0),
    "R-ElimFstTuple": (487, 264, 0, 0, 0),
    "R-ElimSndTuple": (487, 264, 0, 0, 0),
    "R-IntroFstTuple": (1023, 536, 536, 536, 1072),
    "R-IntroLambda": (1997, 1064, 0, 0, 0),
    "R-IntroSndTuple": (1023, 461, 461, 461, 922),
}


def test_matches_past_the_node_limit_never_build_bindings():
    built: Dict[str, int] = {}

    def counting(rule):
        rule = copy.copy(rule)
        make = rule.compiled.bindings

        def bindings(key):
            built[rule.name] = built.get(rule.name, 0) + 1
            return make(key)

        rule.compiled = replace(rule.compiled, bindings=bindings)
        return rule

    rules = [counting(rule) for rule in blas_target().rules]
    egraph = EGraph()
    root = egraph.add_term(registry.get("vsum").term)
    result = Runner(egraph, rules, step_limit=6, node_limit=2000).run(root)
    assert result.stop_reason == StopReason.NODE_LIMIT
    counts = {
        name: (s.matches_found, s.matches_applied, s.effective_applications,
               s.unions, s.nodes_added)
        for name, s in result.rule_stats.items() if s.matches_found
    }
    assert counts == _VSUM_NODE_LIMIT_COUNTS
    applied = {name: s.matches_applied
               for name, s in result.rule_stats.items() if s.matches_applied}
    assert built == applied
    # The last step admitted more matches than it applied.
    assert sum(record.matches for record in result.steps) > sum(applied.values())
