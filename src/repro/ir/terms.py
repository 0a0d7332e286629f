"""Term representation for the minimalist functional array IR.

The IR follows fig. 3 of the paper: lambda calculus with De Bruijn
indices, three array operators (``build``, indexing, ``ifold``), binary
tuples, and named function calls.  Scalar constants are modelled as
literal nodes (the paper treats them as nullary named functions; a
dedicated node is equivalent and more convenient), and kernel inputs
(free arrays and scalars such as ``xs`` or ``alpha``) are ``Symbol``
nodes.

All terms are immutable, hashable values.  Structural equality is value
equality, which — combined with De Bruijn indices — means that
alpha-equivalent lambdas are *identical* terms (§IV-A1 of the paper).

Every term caches its structural hash in the ``_hash`` slot on first
use, so hashing a term whose children were hashed before costs one
tuple hash instead of a walk of the whole tree.  The cache is not a
dataclass field: equality, ``repr`` and pickling ignore it, and an
unpickled term hashes afresh, which matters because string hashes are
randomized per process.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Callable, Dict, Iterator, Tuple as TupleT, Union

__all__ = [
    "Term",
    "Var",
    "Lam",
    "App",
    "Build",
    "Index",
    "IFold",
    "Tuple",
    "Fst",
    "Snd",
    "Call",
    "Const",
    "Symbol",
    "children",
    "with_children",
    "term_size",
    "subterms",
    "free_indices",
    "max_free_index",
    "is_closed",
    "collect_sizes",
    "collect_calls",
    "collect_symbols",
]


#: Term subclass -> a getter for the tuple of its equality fields.
_KEY_GETTERS: Dict[type, Callable[[object], TupleT[object, ...]]] = {}


def _key_getter(cls: type) -> Callable[[object], TupleT[object, ...]]:
    names = [f.name for f in fields(cls) if f.compare]  # type: ignore[arg-type]
    getter = attrgetter(*names)
    if len(names) == 1:
        # attrgetter of one name returns the bare value, not a 1-tuple.
        _KEY_GETTERS[cls] = lambda term: (getter(term),)
    else:
        _KEY_GETTERS[cls] = getter
    return _KEY_GETTERS[cls]


class Term:
    """Base class for all IR terms.

    Terms are immutable; subclasses are frozen dataclasses.  The class
    itself carries the generic traversal helpers used by the De Bruijn
    operators, the printer, and the e-graph conversion code, and the
    cached structural hash every subclass inherits.
    """

    __slots__ = ("_hash",)
    _hash: int

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        # An explicit ``__hash__`` in the class body keeps the dataclass
        # decorator from generating its uncached one.
        cls.__hash__ = Term.__hash__  # type: ignore[method-assign]

    def __hash__(self) -> int:
        """Hash of the equality fields (the value a frozen dataclass
        computes), cached in ``_hash`` on first use."""
        # An unset slot reads as None without raising: a raise and catch
        # would cost more than the hash of a fresh node.
        value = getattr(self, "_hash", None)
        if value is not None:
            return value
        key = _KEY_GETTERS.get(type(self)) or _key_getter(type(self))
        value = hash(key(self))
        object.__setattr__(self, "_hash", value)
        return value

    # Convenience constructors for infix arithmetic, used heavily by the
    # kernel definitions and tests.  ``a + b`` builds ``Call("+", (a, b))``.
    def __add__(self, other: "Term") -> "Term":
        return Call("+", (self, _coerce(other)))

    def __radd__(self, other: object) -> "Term":
        return Call("+", (_coerce(other), self))

    def __sub__(self, other: "Term") -> "Term":
        return Call("-", (self, _coerce(other)))

    def __rsub__(self, other: object) -> "Term":
        return Call("-", (_coerce(other), self))

    def __mul__(self, other: "Term") -> "Term":
        return Call("*", (self, _coerce(other)))

    def __rmul__(self, other: object) -> "Term":
        return Call("*", (_coerce(other), self))

    def __truediv__(self, other: "Term") -> "Term":
        return Call("/", (self, _coerce(other)))

    def __rtruediv__(self, other: object) -> "Term":
        return Call("/", (_coerce(other), self))

    def __getitem__(self, index: object) -> "Term":
        return Index(self, _coerce(index))

    def __call__(self, *args: object) -> "Term":
        result: Term = self
        for arg in args:
            result = App(result, _coerce(arg))
        return result

    def __str__(self) -> str:  # pragma: no cover - delegated to printer
        from .printer import pretty

        return pretty(self)


def _coerce(value: object) -> Term:
    """Turn Python numbers into ``Const`` terms; pass terms through."""
    if isinstance(value, Term):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not IR constants; use Const(0/1)")
    if isinstance(value, (int, float)):
        return Const(value)
    raise TypeError(f"cannot coerce {value!r} to an IR term")


@dataclass(frozen=True, slots=True)
class Var(Term):
    """De Bruijn parameter use ``•i``."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"De Bruijn index must be >= 0, got {self.index}")


@dataclass(frozen=True, slots=True)
class Lam(Term):
    """Lambda abstraction ``λ e`` (parameter is anonymous)."""

    body: Term


@dataclass(frozen=True, slots=True)
class App(Term):
    """Lambda application ``e e``."""

    fn: Term
    arg: Term


@dataclass(frozen=True, slots=True)
class Build(Term):
    """Array construction ``build N f``.

    ``size`` is a compile-time integer constant; ``fn`` maps each index
    ``i in 0..N-1`` to the array element at that position.
    """

    size: int
    fn: Term

    def __post_init__(self) -> None:
        if not isinstance(self.size, int) or self.size < 0:
            raise ValueError(f"build size must be a non-negative int, got {self.size!r}")


@dataclass(frozen=True, slots=True)
class Index(Term):
    """Array indexing ``a[i]``."""

    array: Term
    index: Term


@dataclass(frozen=True, slots=True)
class IFold(Term):
    """Iteration with accumulator ``ifold N init f``.

    ``fn`` takes the index first and the accumulator second, matching
    the recursive definition in §IV-A2:
    ``ifold (N+1) init f = f N (ifold N init f)``.
    """

    size: int
    init: Term
    fn: Term

    def __post_init__(self) -> None:
        if not isinstance(self.size, int) or self.size < 0:
            raise ValueError(f"ifold size must be a non-negative int, got {self.size!r}")


@dataclass(frozen=True, slots=True)
class Tuple(Term):
    """Binary tuple creation ``tuple a b``."""

    fst: Term
    snd: Term


@dataclass(frozen=True, slots=True)
class Fst(Term):
    """Tuple unpacking ``fst t``."""

    tup: Term


@dataclass(frozen=True, slots=True)
class Snd(Term):
    """Tuple unpacking ``snd t``."""

    tup: Term


@dataclass(frozen=True, slots=True)
class Call(Term):
    """Named function application ``f(e, ...)``.

    Scalar arithmetic (``+``, ``*``, ...), comparisons, and library
    idiom functions (``dot``, ``gemv``, ``mm``, ...) are all ``Call``
    nodes.  The set of valid names depends on the target.
    """

    name: str
    args: TupleT[Term, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not isinstance(self.args, tuple):
            object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True, slots=True)
class Const(Term):
    """Scalar literal (integer or floating-point).

    The paper models constants as nullary named functions ``0()``,
    ``1()``...; a literal node is an equivalent encoding.
    """

    value: Union[int, float]

    def __post_init__(self) -> None:
        if isinstance(self.value, bool) or not isinstance(self.value, (int, float)):
            raise TypeError(f"Const value must be int or float, got {self.value!r}")


@dataclass(frozen=True, slots=True)
class Symbol(Term):
    """A free named input of a kernel, e.g. the array ``xs`` or scalar ``alpha``."""

    name: str


def children(term: Term) -> TupleT[Term, ...]:
    """Return the direct subterms of ``term`` in a canonical order."""
    if isinstance(term, (Var, Const, Symbol)):
        return ()
    if isinstance(term, Lam):
        return (term.body,)
    if isinstance(term, App):
        return (term.fn, term.arg)
    if isinstance(term, Build):
        return (term.fn,)
    if isinstance(term, Index):
        return (term.array, term.index)
    if isinstance(term, IFold):
        return (term.init, term.fn)
    if isinstance(term, Tuple):
        return (term.fst, term.snd)
    if isinstance(term, Fst):
        return (term.tup,)
    if isinstance(term, Snd):
        return (term.tup,)
    if isinstance(term, Call):
        return term.args
    raise TypeError(f"unknown term type: {type(term).__name__}")


def with_children(term: Term, new_children: TupleT[Term, ...]) -> Term:
    """Rebuild ``term`` with ``new_children`` substituted in order."""
    if isinstance(term, (Var, Const, Symbol)):
        if new_children:
            raise ValueError(f"{type(term).__name__} takes no children")
        return term
    if isinstance(term, Lam):
        (body,) = new_children
        return Lam(body)
    if isinstance(term, App):
        fn, arg = new_children
        return App(fn, arg)
    if isinstance(term, Build):
        (fn,) = new_children
        return Build(term.size, fn)
    if isinstance(term, Index):
        array, index = new_children
        return Index(array, index)
    if isinstance(term, IFold):
        init, fn = new_children
        return IFold(term.size, init, fn)
    if isinstance(term, Tuple):
        fst, snd = new_children
        return Tuple(fst, snd)
    if isinstance(term, Fst):
        (tup,) = new_children
        return Fst(tup)
    if isinstance(term, Snd):
        (tup,) = new_children
        return Snd(tup)
    if isinstance(term, Call):
        return Call(term.name, tuple(new_children))
    raise TypeError(f"unknown term type: {type(term).__name__}")


def term_size(term: Term) -> int:
    """Number of nodes in ``term`` (used by the smallest-term extractor)."""
    return 1 + sum(term_size(child) for child in children(term))


def subterms(term: Term) -> Iterator[Term]:
    """Yield ``term`` and every subterm, pre-order."""
    stack = [term]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def free_indices(term: Term, depth: int = 0) -> set:
    """Return the set of free De Bruijn indices of ``term``.

    Indices are reported relative to the *outside* of ``term``: a ``•0``
    directly under one enclosing lambda inside ``term`` is bound and not
    reported; a bare ``•0`` is reported as 0.
    """
    result: set = set()
    _free_indices_into(term, depth, result)
    return result


def _free_indices_into(term: Term, depth: int, acc: set) -> None:
    if isinstance(term, Var):
        if term.index >= depth:
            acc.add(term.index - depth)
        return
    if isinstance(term, Lam):
        _free_indices_into(term.body, depth + 1, acc)
        return
    if isinstance(term, Build):
        _free_indices_into(term.fn, depth, acc)
        return
    if isinstance(term, IFold):
        _free_indices_into(term.init, depth, acc)
        _free_indices_into(term.fn, depth, acc)
        return
    for child in children(term):
        _free_indices_into(child, depth, acc)


def max_free_index(term: Term) -> int:
    """Largest free De Bruijn index in ``term``, or -1 if closed."""
    free = free_indices(term)
    return max(free) if free else -1


def is_closed(term: Term) -> bool:
    """True when ``term`` has no free De Bruijn indices."""
    return not free_indices(term)


def collect_sizes(term: Term) -> set:
    """All compile-time array sizes occurring in ``build``/``ifold`` nodes."""
    sizes = set()
    for node in subterms(term):
        if isinstance(node, (Build, IFold)):
            sizes.add(node.size)
    return sizes


def collect_calls(term: Term) -> dict:
    """Count named-function calls in ``term``, keyed by function name."""
    counts: dict = {}
    for node in subterms(term):
        if isinstance(node, Call):
            counts[node.name] = counts.get(node.name, 0) + 1
    return counts


def collect_symbols(term: Term) -> set:
    """All ``Symbol`` names occurring in ``term``."""
    return {node.name for node in subterms(term) if isinstance(node, Symbol)}
