"""Unit + property tests for the union-find."""

from hypothesis import given, strategies as st

from repro.egraph.unionfind import UnionFind


class TestUnionFind:
    def test_fresh_sets_are_distinct(self):
        uf = UnionFind()
        a, b_ = uf.make_set(), uf.make_set()
        assert a != b_
        assert not uf.same(a, b_)

    def test_find_of_singleton_is_itself(self):
        uf = UnionFind()
        a = uf.make_set()
        assert uf.find(a) == a

    def test_union_merges(self):
        uf = UnionFind()
        a, b_ = uf.make_set(), uf.make_set()
        root = uf.union(a, b_)
        assert uf.same(a, b_)
        assert uf.find(a) == root
        assert uf.find(b_) == root

    def test_union_is_idempotent(self):
        uf = UnionFind()
        a, b_ = uf.make_set(), uf.make_set()
        first = uf.union(a, b_)
        second = uf.union(a, b_)
        assert first == second

    def test_transitive_union(self):
        uf = UnionFind()
        ids = [uf.make_set() for _ in range(5)]
        uf.union(ids[0], ids[1])
        uf.union(ids[1], ids[2])
        uf.union(ids[3], ids[4])
        assert uf.same(ids[0], ids[2])
        assert not uf.same(ids[2], ids[3])
        uf.union(ids[2], ids[4])
        assert uf.same(ids[0], ids[3])

    def test_len_counts_all_ids(self):
        uf = UnionFind()
        for _ in range(7):
            uf.make_set()
        assert len(uf) == 7


@given(st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=60))
def test_unionfind_matches_naive_partition(pairs):
    """Union-find agrees with a naive set-merging implementation."""
    uf = UnionFind()
    for _ in range(20):
        uf.make_set()
    naive = [{i} for i in range(20)]

    def naive_find(x):
        for group in naive:
            if x in group:
                return group
        raise AssertionError

    for a, b_ in pairs:
        uf.union(a, b_)
        group_a, group_b = naive_find(a), naive_find(b_)
        if group_a is not group_b:
            group_a.update(group_b)
            naive.remove(group_b)

    for x in range(20):
        for y in range(20):
            assert uf.same(x, y) == (naive_find(x) is naive_find(y))
