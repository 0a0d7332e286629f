"""Columnar e-graph snapshots for zero-copy parallel search.

:class:`FlatStore` is the read-only export of a slotted
:class:`~repro.egraph.egraph.EGraph` (see ``EGraph.freeze``): interned
op/payload tables plus a handful of numpy ``int64`` record arrays —

* ``uf`` — the union-find as a fully-compressed parent array
  (``uf[i] == find(i)`` for every id ever allocated);
* ``class_ids`` + ``class_node_offsets`` — canonical class ids in
  ``EGraph._classes`` insertion order, with a CSR index over the node
  rows belonging to each class;
* ``node_op`` / ``node_payload`` — per node row, indexes into the
  interned ``ops`` / ``payloads`` tables;
* ``child_offsets`` + ``children`` — CSR over each node row's child
  class ids, stored **raw** (exactly as the live graph stores them,
  stale ids included) so snapshot traversals resolve children through
  ``uf`` precisely the way the live graph resolves them through its
  union-find — a requirement for byte-identical parallel runs;
* ``size_val`` / ``size_witness`` — the smallest-term table (size and
  witness node row per class, ``-1`` when the class has no finite
  term), copied from the live graph's fixpoint so extraction
  tie-breaking is identical.

The whole store serializes into **one** ``multiprocessing.shared_memory``
segment (:meth:`publish` / :meth:`attach`): an 8-byte header length,
a pickled header (the small interned tables plus array dtypes, shapes
and offsets), then the raw array bytes.  Workers attach and wrap the
buffer with ``np.frombuffer`` — per-step snapshot cost in the parent is
one memcpy of the arrays, and in workers it is O(1) regardless of
graph size (no object graph is ever pickled).

:class:`SnapshotEGraph` wraps a store in just enough of the ``EGraph``
query API for the search path (``find`` / ``nodes_of`` /
``classes_by_op`` / ``extract_candidates`` / …).  The extraction
methods are *reused from* ``EGraph`` unbound, so candidate ordering —
which determines which matches a rule produces, and therefore the
whole run — cannot drift between the live graph and its snapshot.
"""

from __future__ import annotations

import pickle
import struct
from typing import Dict, List, Optional, Tuple

from .enode import ENode

__all__ = ["FlatStore", "SnapshotEGraph"]

_HEADER_LEN = struct.Struct("<Q")

#: Arrays serialized into the shared segment, in layout order.
_ARRAY_FIELDS = (
    "uf",
    "class_ids",
    "class_node_offsets",
    "node_op",
    "node_payload",
    "child_offsets",
    "children",
    "size_val",
    "size_witness",
)


def _pad8(n: int) -> int:
    return (n + 7) & ~7


def _intern_key(value: object) -> Tuple[str, object]:
    # Payloads are interned under (type name, value): ``0``, ``0.0``
    # and ``False`` compare equal in a plain dict but must round-trip
    # as distinct payloads.
    return (type(value).__name__, value)


class FlatStore:
    """A frozen, columnar copy of an e-graph (see module docstring)."""

    def __init__(
        self,
        ops: List[str],
        payloads: List[object],
        arrays: Dict[str, "object"],
        shm=None,
    ) -> None:
        self.ops = ops
        self.payloads = payloads
        for key in _ARRAY_FIELDS:
            setattr(self, key, arrays[key])
        # Keeps an attached segment's buffer alive for the arrays
        # viewing it; ``None`` for in-process stores.
        self._shm = shm

    # ------------------------------------------------------------------
    # Construction from a live graph
    # ------------------------------------------------------------------

    @classmethod
    def from_egraph(cls, egraph) -> "FlatStore":
        """Snapshot a slotted :class:`EGraph` (post-rebuild state)."""
        import numpy as np

        ops: List[str] = []
        op_index: Dict[str, int] = {}
        payloads: List[object] = []
        payload_index: Dict[Tuple[str, object], int] = {}

        size_table = egraph._size_table()

        class_ids: List[int] = []
        class_node_offsets: List[int] = [0]
        node_op: List[int] = []
        node_payload: List[int] = []
        child_offsets: List[int] = [0]
        children: List[int] = []
        size_val: List[int] = []
        size_witness: List[int] = []

        for class_id, eclass in egraph._classes.items():
            class_ids.append(class_id)
            witness_row = -1
            entry = size_table.get(class_id)
            row_of_node: Dict[ENode, int] = {}
            for node in eclass.nodes:
                row = len(node_op)
                row_of_node[node] = row
                op_slot = op_index.get(node.op)
                if op_slot is None:
                    op_slot = op_index[node.op] = len(ops)
                    ops.append(node.op)
                key = _intern_key(node.payload)
                payload_slot = payload_index.get(key)
                if payload_slot is None:
                    payload_slot = payload_index[key] = len(payloads)
                    payloads.append(node.payload)
                node_op.append(op_slot)
                node_payload.append(payload_slot)
                children.extend(node.children)
                child_offsets.append(len(children))
            class_node_offsets.append(len(node_op))
            if entry is not None:
                witness_row = row_of_node.get(entry[1], -1)
            size_val.append(entry[0] if entry is not None else -1)
            size_witness.append(witness_row)

        arrays = {
            "uf": egraph._uf.snapshot_parents(),
            "class_ids": np.asarray(class_ids, dtype=np.int64),
            "class_node_offsets": np.asarray(
                class_node_offsets, dtype=np.int64
            ),
            "node_op": np.asarray(node_op, dtype=np.int64),
            "node_payload": np.asarray(node_payload, dtype=np.int64),
            "child_offsets": np.asarray(child_offsets, dtype=np.int64),
            "children": np.asarray(children, dtype=np.int64),
            "size_val": np.asarray(size_val, dtype=np.int64),
            "size_witness": np.asarray(size_witness, dtype=np.int64),
        }
        return cls(ops, payloads, arrays)

    # ------------------------------------------------------------------
    # Shared-memory round trip
    # ------------------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Raw array payload size (what scales with the graph)."""
        return sum(getattr(self, key).nbytes for key in _ARRAY_FIELDS)

    def publish(self):
        """Copy the store into a fresh shared-memory segment.

        Returns the ``SharedMemory`` object; the caller owns its
        lifecycle (``close()`` + ``unlink()`` when superseded).  Workers
        attach by name via :meth:`attach`.
        """
        from multiprocessing import shared_memory

        header = {
            "ops": self.ops,
            "payloads": self.payloads,
            "arrays": {},
        }
        offset = 0
        blobs = []
        for key in _ARRAY_FIELDS:
            array = getattr(self, key)
            offset = _pad8(offset)
            header["arrays"][key] = (str(array.dtype), len(array), offset)
            blobs.append((offset, array))
            offset += array.nbytes
        payload = pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL)
        base = _pad8(_HEADER_LEN.size + len(payload))
        total = max(1, base + offset)
        shm = shared_memory.SharedMemory(create=True, size=total)
        shm.buf[: _HEADER_LEN.size] = _HEADER_LEN.pack(len(payload))
        shm.buf[_HEADER_LEN.size : _HEADER_LEN.size + len(payload)] = payload
        import numpy as np

        for array_offset, array in blobs:
            start = base + array_offset
            view = np.frombuffer(
                shm.buf, dtype=array.dtype, count=len(array), offset=start
            )
            view[:] = array
        return shm

    @classmethod
    def attach(cls, name: str) -> "FlatStore":
        """Map a published segment read-only (no copy, no tracking).

        The returned store keeps the segment mapped for the lifetime of
        its arrays; call :meth:`detach` when done.  Attachment is
        O(header), independent of graph size.
        """
        import numpy as np

        shm = _open_untracked(name)
        (header_len,) = _HEADER_LEN.unpack_from(shm.buf, 0)
        header = pickle.loads(
            bytes(shm.buf[_HEADER_LEN.size : _HEADER_LEN.size + header_len])
        )
        base = _pad8(_HEADER_LEN.size + header_len)
        arrays = {}
        for key, (dtype, count, offset) in header["arrays"].items():
            arrays[key] = np.frombuffer(
                shm.buf, dtype=dtype, count=count, offset=base + offset
            )
        return cls(header["ops"], header["payloads"], arrays, shm=shm)

    def detach(self) -> None:
        """Release an attached segment's mapping (attached stores only)."""
        if self._shm is not None:
            for key in _ARRAY_FIELDS:
                setattr(self, key, None)
            try:
                self._shm.close()
            except BufferError:
                # Array views on the buffer are still alive somewhere;
                # the mapping is reclaimed at process exit instead.
                pass
            self._shm = None


def _open_untracked(name: str):
    """Attach to an existing segment without registering it with the
    ``resource_tracker`` — the parent owns unlinking; tracked worker
    attachments would double-unlink and warn at interpreter exit."""
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track= parameter
        # Registration must be suppressed, not undone: forked workers
        # share one tracker process, and register/unregister pairs from
        # several workers attaching the same segment interleave into
        # double-removes the tracker logs as KeyErrors at exit.
        from multiprocessing import resource_tracker

        original = resource_tracker.register

        def _skip_shm(name_, rtype):
            if rtype != "shared_memory":
                original(name_, rtype)

        resource_tracker.register = _skip_shm
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


# ---------------------------------------------------------------------------
# The search-facing view
# ---------------------------------------------------------------------------


class _ArrayUnionFind:
    """Read-only ``find`` over the compressed snapshot array."""

    def __init__(self, parents) -> None:
        self._parents = parents

    def find(self, x: int) -> int:
        return int(self._parents[x])

    def same(self, a: int, b: int) -> bool:
        return self._parents[a] == self._parents[b]

    def __len__(self) -> int:
        return len(self._parents)


class _SnapshotClass:
    """Duck-typed stand-in for :class:`EClass` (``nodes`` only)."""

    __slots__ = ("class_id", "nodes")

    def __init__(self, class_id: int, nodes: Dict[ENode, None]) -> None:
        self.class_id = class_id
        self.nodes = nodes


class _SnapshotClasses:
    """Lazy ``class_id -> _SnapshotClass`` mapping over the arrays."""

    def __init__(self, snapshot: "SnapshotEGraph") -> None:
        self._snapshot = snapshot

    def __contains__(self, class_id: int) -> bool:
        return class_id in self._snapshot._class_index

    def __getitem__(self, class_id: int) -> _SnapshotClass:
        eclass = self.get(class_id)
        if eclass is None:
            raise KeyError(class_id)
        return eclass

    def get(self, class_id: int) -> Optional[_SnapshotClass]:
        index = self._snapshot._class_index.get(class_id)
        if index is None:
            return None
        return _SnapshotClass(class_id, self._snapshot._nodes_at(index))


class _SnapshotSizeTable:
    """Dict-shaped view of the frozen smallest-term table."""

    def __init__(self, snapshot: "SnapshotEGraph") -> None:
        self._snapshot = snapshot

    def get(self, class_id: int, default=None):
        snapshot = self._snapshot
        index = snapshot._class_index.get(class_id)
        if index is None:
            return default
        size = int(snapshot._store.size_val[index])
        if size < 0:
            return default
        return (size, snapshot._node_at(int(snapshot._store.size_witness[index])))


class SnapshotEGraph:
    """Read-only e-graph over a :class:`FlatStore`.

    Implements exactly the surface the search path touches — pattern
    matching, candidate extraction, the op index — and borrows the
    extraction methods from :class:`EGraph` unbound so ordering
    behavior is shared by construction, not by parallel maintenance.
    """

    # A snapshot never changes, so the candidate memo's
    # ``(version, generation)`` key is constant: one memo serves the
    # snapshot's whole lifetime.
    version = 0
    generation = 0

    def __init__(self, store: FlatStore) -> None:
        self._store = store
        self._uf = _ArrayUnionFind(store.uf)
        # Insertion order == the live graph's ``_classes`` key order.
        self._class_index: Dict[int, int] = {
            class_id: index
            for index, class_id in enumerate(store.class_ids.tolist())
        }
        self._classes = _SnapshotClasses(self)
        self._size_view = _SnapshotSizeTable(self)
        self._node_cache: Dict[int, ENode] = {}
        self._class_nodes_cache: Dict[int, Dict[ENode, None]] = {}
        self._op_index: Optional[Dict[str, List[int]]] = None
        self._candidate_memo = None

    def dispose(self) -> None:
        """Drop every internal reference to the store's arrays.

        The snapshot and its lazy views reference each other; breaking
        the cycle here lets refcounting release the underlying buffer
        immediately (so a worker can unmap a superseded segment without
        waiting for a GC pass)."""
        self._uf = None
        self._classes = None
        self._size_view = None
        self._node_cache = {}
        self._class_nodes_cache = {}
        self._op_index = None
        self._candidate_memo = None
        self._store = None

    # -- row decoding ---------------------------------------------------

    def _node_at(self, row: int) -> ENode:
        node = self._node_cache.get(row)
        if node is None:
            store = self._store
            start = int(store.child_offsets[row])
            end = int(store.child_offsets[row + 1])
            node = ENode(
                store.ops[int(store.node_op[row])],
                store.payloads[int(store.node_payload[row])],
                tuple(store.children[start:end].tolist()),
            )
            self._node_cache[row] = node
        return node

    def _nodes_at(self, index: int) -> Dict[ENode, None]:
        nodes = self._class_nodes_cache.get(index)
        if nodes is None:
            store = self._store
            start = int(store.class_node_offsets[index])
            end = int(store.class_node_offsets[index + 1])
            nodes = {self._node_at(row): None for row in range(start, end)}
            self._class_nodes_cache[index] = nodes
        return nodes

    # -- EGraph query surface -------------------------------------------

    def find(self, class_id: int) -> int:
        return self._uf.find(class_id)

    def same(self, a: int, b: int) -> bool:
        return self._uf.same(a, b)

    def has_class(self, class_id: int) -> bool:
        return class_id in self._class_index

    def class_ids(self) -> List[int]:
        return list(self._class_index.keys())

    @property
    def num_classes(self) -> int:
        return len(self._class_index)

    def canonicalize(self, enode: ENode) -> ENode:
        return enode.map_children(self._uf.find)

    def nodes_of(self, class_id: int) -> Dict[ENode, None]:
        return self._nodes_at(self._class_index[self.find(class_id)])

    def classes_by_op(self) -> Dict[str, List[int]]:
        if self._op_index is None:
            store = self._store
            index: Dict[str, List[int]] = {}
            offsets = store.class_node_offsets
            node_op = store.node_op
            for position, class_id in enumerate(store.class_ids.tolist()):
                start, end = int(offsets[position]), int(offsets[position + 1])
                for op_slot in dict.fromkeys(node_op[start:end].tolist()):
                    index.setdefault(store.ops[op_slot], []).append(class_id)
            self._op_index = index
        return self._op_index

    def _size_table(self) -> _SnapshotSizeTable:
        return self._size_view

    # Borrowed unbound from EGraph: these only touch ``_size_table``,
    # ``_uf.find``, ``_classes[...].nodes`` and the candidate memo
    # (keyed by the constant ``version``/``generation``), all provided
    # above.
    from .egraph import EGraph as _EGraph

    extract_smallest = _EGraph.extract_smallest
    extract_candidates = _EGraph.extract_candidates
    unshifted_candidates = _EGraph.unshifted_candidates
    _compute_candidates = _EGraph._compute_candidates
    _build_term = _EGraph._build_term
    del _EGraph
