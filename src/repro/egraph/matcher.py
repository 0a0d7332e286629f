"""Compiled e-matching: patterns become specialized Python generators.

A pattern is compiled once into Python source (de Moura & Bjørner's
e-matching abstract machine, "Efficient E-matching for SMT Solvers",
CADE 2007, as used by egg) and turned into a generator function with
:func:`compile`.  The program is a nest of loops — one per concrete
pattern node (over the e-nodes of a class) and one per first
occurrence of a term-mode variable (over the class's candidate terms)
— with every variable in a fixed local slot.  Whether an occurrence
binds or checks a variable, and in which mode, is decided at compile
time from the occurrence's position in the depth-first, left-to-right
walk the matching order follows, so the generated code does no
bindings-dict lookups, copies or pattern dispatch at run time.  It
reads an e-node's fields by position (``n[0]`` op, ``n[1]`` payload,
``n[2]`` children), the cheapest read of an :class:`~.enode.ENode`.

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

Matching only reads the graph, through ``find``, ``nodes_of``,
``extract_candidates`` and ``unshifted_candidates`` (the
:class:`MatchGraph` protocol).  The graph must not change while a
program's generator is being consumed.

Programs are cached by pattern *value* (patterns are frozen and
hashable): every rule set built for the same targets shares them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Iterable, Iterator, List, Protocol, Set, Tuple, cast

from ..ir.terms import Term
from .enode import ENode
from .pattern import Bindings, ClassBinding, PNode, Pattern, PVar, SizeVar, TermBinding

__all__ = [
    "CompiledPattern",
    "Key",
    "MatchGraph",
    "Program",
    "compile_pattern",
    "load_program",
    "match_class",
    "program_source",
]


class MatchGraph(Protocol):
    """The read-only e-graph surface compiled programs use."""

    def find(self, class_id: int) -> int: ...

    def nodes_of(self, class_id: int) -> Iterable[ENode]: ...

    def extract_candidates(self, class_id: int, limit: int = 4) -> List[Term]: ...

    def unshifted_candidates(
        self, class_id: int, shift: int, limit: int = 4
    ) -> List[Term]: ...


#: One match: the matched class, then every variable's value in
#: first-binding order.
Key = Tuple[object, ...]

#: A matching program: ``program(egraph, class_id)`` yields keys.
Program = Callable[[MatchGraph, int], Iterator[Key]]

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

    ``methods`` are the graph methods the program binds to locals (a
    first walk finds which ones it uses).  ``depth`` counts the loops
    open in the function being emitted; ``live`` lists every local
    defined so far, which is what a helper generator receives when the
    nest is split at :data:`_MAX_LOOPS`.
    """

    def __init__(self, methods: List[str], max_loops: int) -> None:
        self.functions: List[List[str]] = [["def _match(egraph, root):"]]
        self.max_loops = max_loops
        self.depth = 0
        self.live: List[str] = list(methods)
        self.constants: Dict[str, object] = {}
        self.counter = 0
        # Variable name -> (mode, local): mode "class", "term" or "size".
        self.slots: Dict[str, Tuple[str, str]] = {}
        self.order: List[str] = []
        self.root = ""
        self.uses: Set[str] = set()

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

    def use(self, method: str) -> str:
        self.uses.add(method)
        return method

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
        node_var = self.fresh("n", defined=False)
        self.open_loop(node_var, f"{self.use('nodes_of')}({class_var})")
        self.line(f"if {node_var}[0] != {op!r}: {self.fail()}")
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
            child_var = self.fresh("c")
            self.line(f"{child_var} = {self.use('find')}({node_var}[2][{index}])")
            self.match(child, child_var)

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
            local = self.fresh("t", defined=False)
            self.slots[var.name] = ("term", local)
            self.open_loop(local, f"{self.use('unshifted')}({class_var}, {var.shift})")
            return
        mode, local = slot
        fail = self.fail()
        if mode == "size" or (mode == "class" and term_mode and var.shift):
            raise _Dead
        if mode == "class" and not term_mode:
            self.line(f"if {class_var} != {local}: {fail}")
        elif mode == "class":
            unshifted = self.use("unshifted")
            self.line(f"if {class_var} != {local} or not {unshifted}({class_var}, 0): {fail}")
        elif term_mode:
            unshifted = self.use("unshifted")
            self.line(f"if {local} not in {unshifted}({class_var}, {var.shift}): {fail}")
        else:
            candidates = self.use("candidates")
            self.line(f"if {local} not in {candidates}({class_var}): {fail}")

    def finish(self) -> None:
        items = [self.root] + [self.slots[name][1] for name in self.order]
        self.line("yield (" + ", ".join(items) + ",)")

    def layout(self) -> Layout:
        return tuple((name, self.slots[name][0]) for name in self.order)


#: Graph methods a program may bind to locals, by local name.
_METHODS = {
    "find": "find",
    "nodes_of": "nodes_of",
    "unshifted": "unshifted_candidates",
    "candidates": "extract_candidates",
}

_DEAD_SOURCE = "def _match(egraph, root):\n    return\n    yield\n"

#: How a key value becomes a bindings value, by mode.
_BINDING_OF = {"class": "ClassBinding({})", "term": "TermBinding({})", "size": "{}"}


def _bindings_source(layout: Layout) -> str:
    """``_bindings(key)``: the bindings dict of one key."""
    items = ", ".join(
        f"{name!r}: " + _BINDING_OF[mode].format(f"key[{position}]")
        for position, (name, mode) in enumerate(layout, 1)
    )
    return f"def _bindings(key):\n    return {{{items}}}\n"


def _walk(pattern: Pattern, methods: List[str], max_loops: int) -> _Compiler:
    compiler = _Compiler(methods, max_loops)
    for name in methods:
        compiler.line(f"{name} = egraph.{_METHODS[name]}")
    compiler.root = compiler.fresh("c")
    compiler.line(f"{compiler.root} = {compiler.use('find')}(root)")
    compiler.match(pattern, compiler.root)
    compiler.finish()
    return compiler


def program_source(
    pattern: Pattern, max_loops: int = _MAX_LOOPS
) -> Tuple[str, Dict[str, object], Layout]:
    """The generated source of ``pattern``'s program (entry point
    ``_match``) and of the function turning one of its keys into a
    bindings dict (``_bindings``), the payload constants they refer to,
    and the layout of the keys.  Nests deeper than ``max_loops`` loops
    continue in helper generators."""
    try:
        uses = _walk(pattern, list(_METHODS), max_loops).uses
        used = [name for name in _METHODS if name in uses]
        compiler = _walk(pattern, used, max_loops)
    except _Dead:
        return _DEAD_SOURCE + "\n\n" + _bindings_source(()), {}, ()
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
    return map(compiled.bindings, compiled.program(egraph, class_id))
