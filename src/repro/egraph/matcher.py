"""Compiled e-matching: patterns become specialized Python generators.

A pattern is compiled once into Python source (de Moura & Bjørner's
e-matching abstract machine, "Efficient E-matching for SMT Solvers",
CADE 2007, as used by egg) and turned into a generator function with
:func:`compile`.  The program is a nest of loops — one per concrete
pattern node (over the e-nodes of a class with the node's operator)
and one per first occurrence of a term-mode variable (over the class's
candidate terms) — with every variable in a fixed local slot.  Whether
an occurrence binds or checks a variable, and in which mode, is decided
at compile time from the occurrence's position in the depth-first,
left-to-right walk the matching order follows, so the generated code
does no bindings-dict lookups, copies or pattern dispatch at run time.
It reads an e-node's fields by position (``n[1]`` payload, ``n[2]``
children), the cheapest read of an :class:`~.enode.ENode`.

The program yields one flat *key* per match, in the order a
backtracking interpreter over the same pattern would find the matches:
the tuple ``(root, v1, ..., vn)`` of the matched class and every
variable's value in first-binding order.  A value is raw: a class id
(a ``find`` root), a :class:`~repro.ir.terms.Term`, or a size int, by
the mode of the variable's first occurrence, which the compiled pattern
records (:class:`CompiledPattern`) along with the key positions that
hold class ids.  No bindings dict or binding object is built while
matching; :meth:`CompiledPattern.bindings` turns a key back into the
interpreter's bindings dict (:class:`ClassBinding` /
:class:`TermBinding` values, ints for size variables, keyed in
first-binding order) for the matches that are applied.  The rules of
a repeated variable ``?x`` follow its first occurrence:

* class-bound, class-mode occurrence: the classes must be equal;
* class-bound, term-mode occurrence (``A↑k``/``as_term``): accepted
  once when the shift is 0 and the class has candidate terms, never
  when the shift is positive;
* term-bound, term-mode occurrence: the term must be one of the
  class's unshifted candidates;
* term-bound, class-mode occurrence: the term must be one of the
  class's :meth:`~repro.egraph.egraph.EGraph.extract_candidates`.

A name used both as a pattern variable and as a size variable never
matches.  E-nodes are assumed well formed (the arity and payload every
term constructor gives its operator), which :meth:`EGraph.add_term`
guarantees.

Matching only reads the graph, through a
:class:`~repro.egraph.egraph.MatchView` that the caller takes once per
search (:class:`MatchGraph`), and in the common case makes no Python
call at all:

* a child id is canonicalized inline, ``c = n[2][i]`` then
  ``if parents[c] != c: c = find(c)`` on the union-find's parent list.
  ``find`` stays as the fallback because a class's stored e-nodes may
  keep stale child ids: a rebuild re-canonicalizes only the e-nodes of
  the classes it repairs, not those of every class above them;
* a node loop iterates only the e-nodes with the pattern node's
  operator, read from the per-class op groups with two ``dict.get``
  (``ops.get(c)``, then the operator), and calls ``index_ops(c)`` only
  the first time a search reaches class ``c``;
* a term-mode variable reads the candidate memo with one ``dict.get``
  and calls ``unshifted`` only on a miss.

The op groups and the candidate memo are the graph's search memo,
stamped with its ``(version, generation)``: a view is valid until the
graph next changes, and the graph must not change while a program's
generator is being consumed.

Programs are cached by pattern *value* (patterns are frozen and
hashable): every rule set built for the same targets shares them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Protocol, Tuple, cast

from .egraph import CANDIDATE_LIMIT, MatchView
from .pattern import Bindings, ClassBinding, PNode, Pattern, PVar, SizeVar, TermBinding

__all__ = [
    "CompiledPattern",
    "Key",
    "MatchGraph",
    "MatchView",
    "Program",
    "compile_pattern",
    "load_program",
    "match_class",
    "program_source",
]


class MatchGraph(Protocol):
    """A graph compiled programs can match in: it hands out the
    :class:`~repro.egraph.egraph.MatchView` they read."""

    def match_view(self) -> MatchView: ...


#: One match: the matched class, then every variable's value in
#: first-binding order.
Key = Tuple[object, ...]

#: A matching program: ``program(view, class_id)`` yields keys.
Program = Callable[[MatchView, int], Iterator[Key]]

#: A pattern's variables in first-binding order, each with the mode of
#: its first occurrence: ``"class"``, ``"term"`` or ``"size"``.
Layout = Tuple[Tuple[str, str], ...]


@dataclass(frozen=True, eq=False)
class CompiledPattern:
    """A pattern's matching program and the layout of its keys.

    Key position 0 holds the matched class; position ``i + 1`` holds
    variable ``names[i]``, a class id, a term or a size int by
    ``modes[i]``.  ``class_positions`` lists the positions holding
    class ids (0 first), the ones a merge can make stale.
    """

    program: Program
    names: Tuple[str, ...]
    modes: Tuple[str, ...]
    class_positions: Tuple[int, ...]
    #: ``bindings(key)`` is the bindings dict of one key.
    bindings: Callable[[Key], Bindings]


#: Operators whose e-nodes always carry this many children.
_ARITY = {
    "var": 0, "const": 0, "symbol": 0,
    "lam": 1, "fst": 1, "snd": 1, "build": 1,
    "app": 2, "index": 2, "ifold": 2, "tuple": 2,
}
#: Operators whose payload is a compile-time size.
_SIZED = ("build", "ifold")
#: Operators whose payload is always ``None``.
_NO_PAYLOAD = ("lam", "app", "index", "tuple", "fst", "snd")

#: CPython refuses more than 20 statically nested loops in one
#: function; deeper patterns continue in a helper generator.
_MAX_LOOPS = 16


class _Dead(Exception):
    """The pattern can never match (found while compiling)."""


class _Compiler:
    """Walks a pattern in matching order, emitting one nest of loops.

    ``depth`` counts the loops open in the function being emitted;
    ``live`` lists every local defined so far (the view's fields
    first), which is what a helper generator receives when the nest is
    split at :data:`_MAX_LOOPS`.
    """

    def __init__(self, max_loops: int) -> None:
        self.functions: List[List[str]] = [["def _match(view, root):"]]
        self.max_loops = max_loops
        self.depth = 0
        self.live: List[str] = list(MatchView._fields)
        self.constants: Dict[str, object] = {}
        self.counter = 0
        # Variable name -> (mode, local): mode "class", "term" or "size".
        self.slots: Dict[str, Tuple[str, str]] = {}
        self.order: List[str] = []
        self.root = ""

    # -- emission helpers ------------------------------------------------

    def fresh(self, prefix: str, defined: bool = True) -> str:
        """A new local; ``defined=False`` for a loop variable, which
        :meth:`open_loop` defines once a split can no longer pass it on
        before it exists."""
        self.counter += 1
        name = f"{prefix}{self.counter}"
        if defined:
            self.live.append(name)
        return name

    def line(self, text: str) -> None:
        self.functions[-1].append("    " * (self.depth + 1) + text)

    def fail(self) -> str:
        return "continue" if self.depth else "return"

    def constant(self, value: object) -> str:
        name = f"K{len(self.constants)}"
        self.constants[name] = value
        return name

    def open_loop(self, var: str, iterable: str) -> None:
        if self.depth == self.max_loops:
            # Continue in a helper generator that receives every local.
            args = ", ".join(self.live)
            helper = f"_part{len(self.functions)}"
            self.line(f"yield from {helper}({args})")
            self.functions.append([f"def {helper}({args}):"])
            self.depth = 0
        self.line(f"for {var} in {iterable}:")
        self.live.append(var)
        self.depth += 1

    def canonical(self, class_id: str) -> str:
        """A new local holding the root of ``class_id``: the parent-list
        test inline, ``find`` only for a stale id."""
        local = self.fresh("c")
        self.line(f"{local} = {class_id}")
        self.line(f"if parents[{local}] != {local}: {local} = find({local})")
        return local

    def candidates(self, class_var: str, shift: int) -> str:
        """A new local holding ``unshifted(class_var, shift)``, read from
        the candidate memo."""
        local = self.fresh("L")
        self.line(f"{local} = candidates.get(({class_var}, {CANDIDATE_LIMIT}, {shift}))")
        self.line(f"if {local} is None: {local} = unshifted({class_var}, {shift})")
        return local

    # -- the walk --------------------------------------------------------

    def match(self, pattern: Pattern, class_var: str) -> None:
        if isinstance(pattern, PVar):
            self.variable(pattern, class_var)
        elif isinstance(pattern, PNode):
            self.node(pattern, class_var)
        else:
            raise TypeError(f"not a pattern: {pattern!r}")

    def node(self, pattern: PNode, class_var: str) -> None:
        op = pattern.op
        arity = len(pattern.children)
        groups = self.fresh("g")
        self.line(f"{groups} = ops.get({class_var})")
        self.line(f"if {groups} is None: {groups} = index_ops({class_var})")
        node_var = self.fresh("n", defined=False)
        self.open_loop(node_var, f"{groups}.get({op!r}, ())")
        if _ARITY.get(op, -1) != arity:
            self.line(f"if len({node_var}[2]) != {arity}: {self.fail()}")
        payload = pattern.payload
        if op in _SIZED and isinstance(payload, SizeVar):
            self.size(payload, node_var)
        elif not (payload is None and op in _NO_PAYLOAD):
            self.line(
                f"if {node_var}[1] != {self.constant(payload)}: {self.fail()}"
            )
        for index, child in enumerate(pattern.children):
            self.match(child, self.canonical(f"{node_var}[2][{index}]"))

    def size(self, var: SizeVar, node_var: str) -> None:
        slot = self.slots.get(var.name)
        if slot is None:
            local = self.fresh("z")
            self.line(f"{local} = {node_var}[1]")
            self.slots[var.name] = ("size", local)
            self.order.append(var.name)
        elif slot[0] != "size":
            raise _Dead  # a name bound as both a variable and a size
        else:
            self.line(f"if {node_var}[1] != {slot[1]}: {self.fail()}")

    def variable(self, var: PVar, class_var: str) -> None:
        term_mode = var.shift != 0 or var.as_term
        slot = self.slots.get(var.name)
        if slot is None:
            self.order.append(var.name)
            if not term_mode:
                self.slots[var.name] = ("class", class_var)
                return
            terms = self.candidates(class_var, var.shift)
            local = self.fresh("t", defined=False)
            self.slots[var.name] = ("term", local)
            self.open_loop(local, terms)
            return
        mode, local = slot
        fail = self.fail()
        if mode == "size" or (mode == "class" and term_mode and var.shift):
            raise _Dead
        if mode == "class":
            self.line(f"if {class_var} != {local}: {fail}")
            if term_mode:
                self.line(f"if not {self.candidates(class_var, 0)}: {fail}")
        else:
            # A term-mode occurrence looks among the candidates unshifted
            # alike, a class-mode one among the plain candidates.
            terms = self.candidates(class_var, var.shift if term_mode else 0)
            self.line(f"if {local} not in {terms}: {fail}")

    def finish(self) -> None:
        items = [self.root] + [self.slots[name][1] for name in self.order]
        self.line("yield (" + ", ".join(items) + ",)")

    def layout(self) -> Layout:
        return tuple((name, self.slots[name][0]) for name in self.order)


_DEAD_SOURCE = "def _match(view, root):\n    return\n    yield\n"

#: How a key value becomes a bindings value, by mode.
_BINDING_OF = {"class": "ClassBinding({})", "term": "TermBinding({})", "size": "{}"}


def _bindings_source(layout: Layout) -> str:
    """``_bindings(key)``: the bindings dict of one key."""
    items = ", ".join(
        f"{name!r}: " + _BINDING_OF[mode].format(f"key[{position}]")
        for position, (name, mode) in enumerate(layout, 1)
    )
    return f"def _bindings(key):\n    return {{{items}}}\n"


def program_source(
    pattern: Pattern, max_loops: int = _MAX_LOOPS
) -> Tuple[str, Dict[str, object], Layout]:
    """The generated source of ``pattern``'s program (entry point
    ``_match``) and of the function turning one of its keys into a
    bindings dict (``_bindings``), the payload constants they refer to,
    and the layout of the keys.  Nests deeper than ``max_loops`` loops
    continue in helper generators."""
    compiler = _Compiler(max_loops)
    compiler.line(", ".join(MatchView._fields) + " = view")
    try:
        compiler.root = compiler.canonical("root")
        compiler.match(pattern, compiler.root)
    except _Dead:
        return _DEAD_SOURCE + "\n\n" + _bindings_source(()), {}, ()
    compiler.finish()
    layout = compiler.layout()
    functions = ["\n".join(lines) + "\n" for lines in compiler.functions]
    source = "\n\n".join(functions + [_bindings_source(layout)])
    return source, compiler.constants, layout


def load_program(
    source: str, constants: Dict[str, object], layout: Layout
) -> CompiledPattern:
    """Compile :func:`program_source` output into its compiled pattern."""
    namespace: Dict[str, object] = {
        "ClassBinding": ClassBinding,
        "TermBinding": TermBinding,
        **constants,
    }
    exec(compile(source, "<pattern>", "exec"), namespace)
    modes = tuple(mode for _, mode in layout)
    return CompiledPattern(
        program=cast(Program, namespace["_match"]),
        names=tuple(name for name, _ in layout),
        modes=modes,
        class_positions=(0,) + tuple(
            position for position, mode in enumerate(modes, 1) if mode == "class"
        ),
        bindings=cast(Callable[[Key], Bindings], namespace["_bindings"]),
    )


@lru_cache(maxsize=4096)
def compile_pattern(pattern: Pattern) -> CompiledPattern:
    """The compiled pattern of ``pattern``, cached by value."""
    return load_program(*program_source(pattern))


def match_class(
    egraph: MatchGraph, pattern: Pattern, class_id: int
) -> Iterator[Bindings]:
    """Yield every binding under which ``pattern`` matches ``class_id``."""
    compiled = compile_pattern(pattern)
    return map(compiled.bindings, compiled.program(egraph.match_view(), class_id))
