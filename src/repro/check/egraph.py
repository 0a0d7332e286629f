"""Invariant verifier for the flat slotted e-graph store.

:func:`verify` sweeps a live :class:`~repro.egraph.egraph.EGraph` and
reports every broken representation invariant as a
:class:`~repro.check.diagnostics.Diagnostic`:

* **EG101** — hashcons bijectivity: every memo key is canonical and
  resolves to a live root; every live e-node's canonical form is in the
  memo and maps back to its own class;
* **EG102** — congruence: no canonical form lives in two distinct
  classes after rebuild;
* **EG103** — union-find consistency: every live class id is its own
  root, and the class record agrees with its key;
* **EG104** — slot-store integrity: the parallel slot columns have
  equal length, every referenced parent slot is in range, and each
  slot's recorded form canonicalizes to a live memo key of its
  recorded class (dropped congruence duplicates may record stale
  forms, but never forms that left the graph);
* **EG105** — parent-list completeness: every e-node is registered in
  the parent list of each of its children's classes (the congruence
  worklist misses repairs otherwise);
* **EG107** — leaf-class index: for every op in
  :data:`~repro.egraph.egraph.INDEXED_LEAF_OPS`,
  ``EGraph.leaf_classes`` equals a full rescan of the classes holding
  such an e-node, in class-id order (the intro rules draw their
  candidates from it);
* **EG108** — analysis fixpoint: every class's analysis data absorbs
  the data made from each of its e-nodes, ``join(data, make(node)) ==
  data`` (``merge`` propagates only from classes whose data changed,
  so a missed change leaves a parent short of it).

The verifier never fixes anything; it runs between saturation steps
when ``Limits(check=True)`` / ``REPRO_CHECK=1`` is set (see
:class:`repro.saturation.runner.Runner`), so a search/apply bug
surfaces at the step that introduced it.  A dirty graph (pending
congruence repairs) is rebuilt first — invariants are only defined for
rebuilt graphs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set

from ..egraph.enode import ENode
from .diagnostics import Diagnostic, Severity, has_errors, render_text

if TYPE_CHECKING:  # runtime import would be a cycle for egraph debug aids
    from ..egraph.egraph import EGraph

__all__ = ["CheckFailure", "verify", "verify_or_raise"]

#: Findings reported per code before the sweep summarizes the rest.
MAX_PER_CODE = 10


class CheckFailure(AssertionError):
    """Raised by :func:`verify_or_raise` when invariants are broken."""

    def __init__(self, message: str, diagnostics: List[Diagnostic]) -> None:
        super().__init__(message)
        self.diagnostics = diagnostics


class _Collector:
    """Caps the flood: at most :data:`MAX_PER_CODE` findings per code,
    plus one summarizing note for the overflow."""

    def __init__(self) -> None:
        self.findings: List[Diagnostic] = []
        self._counts: Dict[str, int] = {}

    def add(self, code: str, message: str, location: Optional[str] = None) -> None:
        count = self._counts.get(code, 0)
        self._counts[code] = count + 1
        if count < MAX_PER_CODE:
            self.findings.append(
                Diagnostic(code, Severity.ERROR, message, location=location)
            )

    def done(self) -> List[Diagnostic]:
        for code, count in sorted(self._counts.items()):
            if count > MAX_PER_CODE:
                self.findings.append(Diagnostic(
                    code, Severity.NOTE,
                    f"{count - MAX_PER_CODE} further {code} finding(s) "
                    "suppressed",
                ))
        return self.findings


def verify(egraph: "EGraph") -> List[Diagnostic]:
    """Check every representation invariant of ``egraph``.

    Returns an empty list on a healthy graph."""
    out = _Collector()
    if egraph._pending:
        egraph.rebuild()

    find = egraph.find
    memo = egraph._memo
    classes = egraph._classes
    slot_form = egraph._slot_form
    slot_class = egraph._slot_class
    uf_size = len(egraph._uf)

    def safe_find(class_id: int) -> Optional[int]:
        """find(), or None when the id is outside the union-find —
        corrupted ids must be reported, not crash the verifier."""
        if not (0 <= class_id < uf_size):
            return None
        return find(class_id)

    # -- EG103: union-find / class-table agreement ----------------------
    for class_id, eclass in classes.items():
        if find(class_id) != class_id:
            out.add(
                "EG103",
                f"live class {class_id} is not a union-find root "
                f"(find → {find(class_id)})",
                location=f"class {class_id}",
            )
        if eclass.class_id != class_id:
            out.add(
                "EG103",
                f"class record keyed {class_id} says class_id="
                f"{eclass.class_id}",
                location=f"class {class_id}",
            )

    # -- EG101: hashcons bijectivity ------------------------------------
    for node, mapped in memo.items():
        canonical = egraph.canonicalize(node)
        if canonical != node:
            out.add(
                "EG101",
                f"memo key {node} is not canonical (canonical form "
                f"{canonical})",
            )
        if safe_find(mapped) not in classes:
            out.add(
                "EG101",
                f"memo entry {node} → {mapped} resolves to dead class "
                f"{safe_find(mapped)}",
            )
    # Reverse direction + EG102 congruence in one sweep over live nodes.
    owner_of: Dict[ENode, int] = {}
    for class_id, eclass in classes.items():
        for node in eclass.nodes:
            canonical = egraph.canonicalize(node)
            mapped = memo.get(canonical)
            if mapped is None:
                out.add(
                    "EG101",
                    f"live e-node {node} of class {class_id} has no "
                    "memo entry for its canonical form",
                    location=f"class {class_id}",
                )
            elif find(mapped) != class_id:
                out.add(
                    "EG101",
                    f"live e-node {node} of class {class_id} maps to "
                    f"class {find(mapped)} in the memo",
                    location=f"class {class_id}",
                )
            previous = owner_of.setdefault(canonical, class_id)
            if previous != class_id:
                out.add(
                    "EG102",
                    f"canonical e-node {canonical} lives in classes "
                    f"{previous} and {class_id} (congruence not closed)",
                    location=f"class {class_id}",
                )

    # -- EG104: slot-store integrity ------------------------------------
    if len(slot_form) != len(slot_class):
        out.add(
            "EG104",
            f"slot columns disagree: {len(slot_form)} forms vs "
            f"{len(slot_class)} owners",
        )
    limit = min(len(slot_form), len(slot_class))
    checked_slots: Set[int] = set()
    for class_id, eclass in classes.items():
        for slot in eclass.parents:
            if not (0 <= slot < limit):
                out.add(
                    "EG104",
                    f"parent slot {slot} of class {class_id} is out of "
                    f"range [0, {limit})",
                    location=f"class {class_id}",
                )
                continue
            if slot in checked_slots:
                continue
            checked_slots.add(slot)
            form, owner = slot_form[slot], slot_class[slot]
            owner_root = safe_find(owner)
            if owner_root not in classes:
                out.add(
                    "EG104",
                    f"slot {slot} owner {owner} resolves to dead class "
                    f"{owner_root}",
                    location=f"slot {slot}",
                )
                continue
            # The recorded form may be stale: ``_repair_flat`` can drop
            # a slot from one child's parent list as a congruence
            # duplicate while the same slot survives in the node's
            # *other* child's list, after which only the keeper slot is
            # refreshed.  The invariant is that the form still
            # *canonicalizes* to a live memo key owned by the slot's
            # class.
            canonical = egraph.canonicalize(form)
            mapped = memo.get(canonical)
            if mapped is None:
                out.add(
                    "EG104",
                    f"slot {slot} form {form} (canonically {canonical}) "
                    "is not a live memo key",
                    location=f"slot {slot}",
                )
            elif find(mapped) != owner_root:
                out.add(
                    "EG104",
                    f"slot {slot} form {form} maps to class "
                    f"{find(mapped)} but the slot says {owner_root}",
                    location=f"slot {slot}",
                )

    # -- EG105: parent-list completeness --------------------------------
    parent_forms: Dict[int, Set[ENode]] = {}
    for class_id, eclass in classes.items():
        parent_forms[class_id] = {
            egraph.canonicalize(slot_form[slot])
            for slot in eclass.parents
            if 0 <= slot < limit
        }
    for node, mapped in memo.items():
        if egraph.canonicalize(node) != node:
            continue  # EG101 already reported it
        for child in node.children:
            child_root = find(child)
            forms = parent_forms.get(child_root)
            if forms is None:
                continue  # dead child class: EG101 covers the node
            if node not in forms:
                out.add(
                    "EG105",
                    f"e-node {node} is missing from the parent list of "
                    f"its child class {child_root}",
                    location=f"class {child_root}",
                )

    # -- EG107: leaf-class index ----------------------------------------
    from ..egraph.egraph import INDEXED_LEAF_OPS

    for op in INDEXED_LEAF_OPS:
        scanned = [
            class_id for class_id, eclass in classes.items()
            if any(node.op == op for node in eclass.nodes)
        ]
        indexed = egraph.leaf_classes(op)
        if indexed != scanned:
            missing = sorted(set(scanned) - set(indexed))
            extra = sorted(set(indexed) - set(scanned))
            out.add(
                "EG107",
                f"{op!r} class index disagrees with a rescan: missing "
                f"{missing[:5]}, extra {extra[:5]}",
            )

    # -- EG108: analysis fixpoint ---------------------------------------
    analysis = egraph._analysis
    if analysis is not None:
        for class_id, eclass in classes.items():
            for node in eclass.nodes:
                if any(safe_find(child) not in classes for child in node.children):
                    continue  # dead child class: EG101 covers the node
                made = analysis.make(egraph, egraph.canonicalize(node))
                if analysis.join(eclass.data, made) != eclass.data:
                    out.add(
                        "EG108",
                        f"data {eclass.data!r} of class {class_id} does not "
                        f"absorb {made!r}, made from its e-node {node}",
                        location=f"class {class_id}",
                    )
    return out.done()


def verify_or_raise(
    egraph: "EGraph", *, context: str = ""
) -> None:
    """Run :func:`verify`; raise :class:`CheckFailure` on any ERROR."""
    diagnostics = verify(egraph)
    if has_errors(diagnostics):
        prefix = f"{context}: " if context else ""
        raise CheckFailure(
            prefix + "e-graph invariant violation\n" + render_text(diagnostics),
            diagnostics,
        )
