"""Disjoint-set (union-find) over e-class ids.

Path-halving find with union by rank.  Ids are dense non-negative
integers handed out by :meth:`UnionFind.make_set`.

The mutable structure deliberately stays a pair of Python lists:
``find`` is the hottest scalar operation in the whole engine, and
element access on a list is faster than on a numpy array (every numpy
subscript boxes a fresh ``np.int64``).
"""

from __future__ import annotations

from typing import List

__all__ = ["UnionFind"]


class UnionFind:
    """Union-find with path compression and union by rank."""

    def __init__(self) -> None:
        self._parent: List[int] = []
        self._rank: List[int] = []

    def __len__(self) -> int:
        return len(self._parent)

    @property
    def parents(self) -> List[int]:
        """The parent list itself, not a copy: ``x`` is a root exactly
        when ``parents[x] == x``.  Compiled e-matching programs test
        that inline and call :meth:`find` only for a non-root.  The list
        object stays the same for the structure's lifetime; callers must
        not write to it."""
        return self._parent

    def make_set(self) -> int:
        """Create a fresh singleton set and return its id."""
        identifier = len(self._parent)
        self._parent.append(identifier)
        self._rank.append(0)
        return identifier

    def find(self, x: int) -> int:
        """Canonical representative of ``x`` (with path halving)."""
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> int:
        """Merge the sets of ``a`` and ``b``; return the surviving root."""
        root_a = self.find(a)
        root_b = self.find(b)
        if root_a == root_b:
            return root_a
        if self._rank[root_a] < self._rank[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        if self._rank[root_a] == self._rank[root_b]:
            self._rank[root_a] += 1
        return root_a

    def same(self, a: int, b: int) -> bool:
        """True when ``a`` and ``b`` are in the same set."""
        return self.find(a) == self.find(b)
