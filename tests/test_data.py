"""Dataset layout checks: the long columns, the group offsets and ids, the
on-demand GroupData views, and the bulk input checks."""

from __future__ import annotations

import re

import numpy as np
import pytest

from hiermoment.data import GroupData, GroupedDataset


def _blocks(rng):
    """Groups of 1 to 5 rows with ids 0..5, in a shuffled order."""
    blocks = []
    for gid in rng.permutation(6).tolist():
        n = int(rng.integers(1, 6))
        blocks.append(GroupData(gid, rng.normal(size=n), rng.normal(size=(n, 2)),
                                rng.normal(size=(n, 3))))
    return blocks


class TestLayout:
    def test_from_long_and_blocks_agree(self):
        """The same blocks, given in id order, make identical columns and
        views whether they come as long rows (interleaved) or as blocks."""
        rng = np.random.default_rng(3)
        blocks = sorted(_blocks(rng), key=lambda g: g.group_id)
        ids = np.concatenate([[g.group_id] * g.n for g in blocks])
        y = np.concatenate([g.y for g in blocks])
        X = np.vstack([g.X for g in blocks])
        Z = np.vstack([g.Z for g in blocks])
        # Interleave the groups' rows, each group's own rows kept in order:
        # the k-th occurrence of a label takes that group's k-th row.
        labels = rng.permutation(ids)
        mix = np.empty(ids.size, dtype=int)
        mix[np.argsort(labels, kind="stable")] = np.arange(ids.size)
        assert np.array_equal(ids[mix], labels)
        a = GroupedDataset.from_long(y[mix], X[mix], Z[mix], ids[mix])
        b = GroupedDataset(blocks, p=2, q=3)
        for name in ("y", "X", "Z", "offsets"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert a.ids == b.ids == tuple(range(6))
        assert (a.p, a.q, a.n_groups, a.n_obs) == (b.p, b.q, 6, ids.size)
        for ga, gb, g in zip(a.groups, b.groups, blocks):
            assert ga.group_id == gb.group_id == g.group_id
            for name in ("y", "X", "Z"):
                assert np.array_equal(getattr(ga, name), getattr(gb, name))
                assert np.array_equal(getattr(ga, name), getattr(g, name))

    def test_blocks_keep_given_order_and_repeated_ids(self):
        rng = np.random.default_rng(5)
        blocks = _blocks(rng)
        blocks.append(blocks[0])
        ds = GroupedDataset(blocks, p=2, q=3)
        assert ds.ids == tuple(g.group_id for g in blocks)
        assert np.array_equal(ds.sizes, [g.n for g in blocks])
        assert np.array_equal(ds.y, np.concatenate([g.y for g in blocks]))
        for view, g in zip(ds.groups, blocks):
            assert np.array_equal(view.X, g.X)

    def test_from_long_ids_sorted_rows_stable(self):
        ds = GroupedDataset.from_long([1.0, 2.0, 3.0, 4.0], np.ones((4, 1)),
                                      np.ones((4, 1)), ["b", "a", "b", "a"])
        assert ds.ids == ("a", "b")
        assert isinstance(ds.ids[0], str)
        assert np.array_equal(ds.y, [2.0, 4.0, 1.0, 3.0])
        assert np.array_equal(ds.offsets, [0, 2, 4])


class TestChecks:
    def test_nonfinite_names_first_group(self):
        X = np.ones((6, 1))
        X[4, 0] = np.inf
        y = np.arange(6.0)
        y[5] = np.nan
        with pytest.raises(ValueError, match="group 'c': non-finite"):
            GroupedDataset.from_long(y, X, np.ones((6, 1)),
                                     ["a", "a", "b", "d", "c", "d"])

    def test_block_rows_must_match(self):
        g = GroupData("g", np.ones(3), np.ones((2, 1)), np.ones((3, 1)))
        with pytest.raises(ValueError, match="group 'g'"):
            GroupedDataset([g], p=1, q=1)

    def test_empty_group_rejected(self):
        g = GroupData(7, np.ones(0), np.ones((0, 1)), np.ones((0, 1)))
        with pytest.raises(ValueError, match="group 7: empty"):
            GroupedDataset([GroupData(1, np.ones(1), np.ones((1, 1)),
                                      np.ones((1, 1))), g], p=1, q=1)

    def test_wrong_width_rejected(self):
        g = GroupData(0, np.ones(2), np.ones((2, 2)), np.ones((2, 1)))
        with pytest.raises(ValueError):
            GroupedDataset([g], p=1, q=1)

    def test_mixed_id_types_rejected(self):
        """numpy would read [1, "1", 2, "a"] as four strings and merge the
        int 1 with the str "1"; a list of ids of two types is refused."""
        y, ones = np.arange(4.0), np.ones((4, 1))
        with pytest.raises(ValueError, match="mix int and str"):
            GroupedDataset.from_long(y, ones, ones, [1, "1", 2, "a"])
        ds = GroupedDataset.from_long(y, ones, ones,
                                      np.array(["1", "1", "2", "a"]))
        assert ds.ids == ("1", "2", "a")
        assert np.array_equal(ds.sizes, [2, 1, 1])

    def test_id_ending_in_nul_rejected(self):
        """numpy's fixed-width strings drop trailing NULs, which would merge
        "a\0" with "a"; a list holding such an id is refused by name."""
        y, ones = np.arange(4.0), np.ones((4, 1))
        for ids in (["a", "a\x00", "b", "a"], [b"a", b"a\x00", b"b", b"a"]):
            with pytest.raises(ValueError,
                               match=re.escape(f"{ids[1]!r} ends in a NUL")):
                GroupedDataset.from_long(y, ones, ones, ids)
        ds = GroupedDataset.from_long(y, ones, ones, ["a", "a\x00b", "b", "a"])
        assert ds.ids == ("a", "a\x00b", "b")
