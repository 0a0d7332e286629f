"""``repro.check`` — the static correctness layer.

Two engines share one diagnostics framework:

* :mod:`repro.check.rules` — a static soundness analyzer for rewrite
  rules (binding, De Bruijn hygiene, arity, shape preservation, plus
  saturation-hygiene lints), run before any e-graph exists;
* :mod:`repro.check.egraph` — an invariant verifier for the live
  slotted e-graph store (hashcons bijectivity, congruence, union-find
  and parent-list consistency, leaf index, analysis fixpoint), run
  *between* saturation steps when ``Limits(check=True)`` /
  ``REPRO_CHECK=1`` is set.

Both report :class:`~repro.check.diagnostics.Diagnostic` values with
stable ``RCxxx`` / ``EGxxx`` codes, rendered as text or JSON.  The CLI
surfaces them as ``repro check-rules`` / ``repro check-egraph``.
"""

from .diagnostics import (
    CODES,
    Diagnostic,
    Severity,
    has_errors,
    render_json,
    render_text,
)
from .egraph import CheckFailure, verify, verify_or_raise
from .rules import RULESETS, analyze_rules, analyze_ruleset

__all__ = [
    "CODES",
    "Diagnostic",
    "Severity",
    "has_errors",
    "render_json",
    "render_text",
    "CheckFailure",
    "verify",
    "verify_or_raise",
    "RULESETS",
    "analyze_rules",
    "analyze_ruleset",
]
