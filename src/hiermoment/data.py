"""Grouped long-format dataset container.

A :class:`GroupedDataset` stores its observations as long columns ``y``,
``X`` and ``Z`` with each group's rows one block after another: group i owns
rows ``offsets[i]:offsets[i + 1]`` and has key ``ids[i]``. Every stage of
the fit reads these columns directly; the per-group :class:`GroupData`
views in ``groups`` are built only when something reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Hashable

import numpy as np

__all__ = ["GroupData", "GroupedDataset"]


@dataclass(frozen=True)
class GroupData:
    """One group's observations: response y, fixed design X, random design Z."""

    group_id: Hashable
    y: np.ndarray
    X: np.ndarray
    Z: np.ndarray

    @property
    def n(self) -> int:
        return self.y.shape[0]


@dataclass(frozen=True, init=False, eq=False)
class GroupedDataset:
    """Observations partitioned into groups, stored as long columns.

    ``y`` (N,), ``X`` (N, p) and ``Z`` (N, q) hold the groups' row blocks
    one after another; group i is rows ``offsets[i]:offsets[i + 1]`` with
    key ``ids[i]``. Every group has at least one row and all values are
    finite. :meth:`from_long` orders the groups by ascending id;
    ``GroupedDataset(groups, p, q)`` keeps the blocks in the order given.
    """

    y: np.ndarray = field(repr=False)
    X: np.ndarray = field(repr=False)
    Z: np.ndarray = field(repr=False)
    ids: tuple = field(repr=False)
    offsets: np.ndarray = field(repr=False)
    p: int
    q: int

    def __init__(self, groups, p: int, q: int):
        """Collect GroupData blocks in the order given; ids may repeat."""
        groups = tuple(groups)
        if not groups:
            raise ValueError("dataset has no groups")
        ys = [np.asarray(g.y, dtype=float) for g in groups]
        Xs = [np.asarray(g.X, dtype=float) for g in groups]
        Zs = [np.asarray(g.Z, dtype=float) for g in groups]
        try:
            sizes = np.fromiter(map(len, ys), np.intp, len(ys))
            rows = np.fromiter(map(len, Xs + Zs), np.intp, 2 * len(ys))
            y, X, Z = np.concatenate(ys), np.concatenate(Xs), np.concatenate(Zs)
        except (TypeError, ValueError) as e:
            raise ValueError(f"group blocks do not line up: {e}") from None
        ids = tuple(g.group_id for g in groups)
        bad = np.flatnonzero((rows[:len(ys)] != sizes) | (rows[len(ys):] != sizes))
        if bad.size:
            raise ValueError(f"group {ids[bad[0]]!r}: X or Z rows differ "
                             f"from the {sizes[bad[0]]} responses")
        self._fill(y, X, Z, ids, np.concatenate([[0], np.cumsum(sizes)]), p, q)

    @classmethod
    def from_long(cls, y, X, Z, group_ids) -> "GroupedDataset":
        """Partition long-format arrays into groups by id, ascending.

        One stable sort by id; rows keep their input order within a group.

        Parameters
        ----------
        y : array-like of shape (N,)
        X : array-like of shape (N, p)
        Z : array-like of shape (N, q)
        group_ids : sequence of length N
            Orderable, hashable group keys, all of one type, not NaN; a
            string may not end in a NUL. An ndarray is taken as it is.
        """
        y = np.ascontiguousarray(y, dtype=float)
        X = np.ascontiguousarray(X, dtype=float)
        Z = np.ascontiguousarray(Z, dtype=float)
        if not isinstance(group_ids, np.ndarray):
            # numpy would turn [1, "1"] into two equal strings, one group,
            # and "a\0" into "a": its fixed-width strings drop trailing NULs.
            group_ids = list(group_ids)
            types = set(map(type, group_ids))
            if len(types) > 1:
                names = " and ".join(sorted(t.__name__ for t in types))
                raise ValueError(f"group ids mix {names} values; give ids "
                                 "of one type")
            if types and issubclass(types.pop(), (str, bytes)):
                nul = next((g for g in group_ids
                            if g[-1:] in ("\x00", b"\x00")), None)
                if nul is not None:
                    raise ValueError(f"group id {nul!r} ends in a NUL "
                                     "character")
        ids = np.asarray(group_ids)
        if ids.dtype.kind == "f" and np.isnan(ids).any():
            raise ValueError("group ids contain NaN, which is unequal to itself")
        if not (y.shape[0] == X.shape[0] == Z.shape[0] == ids.shape[0]):
            raise ValueError("y, X, Z, and group_ids must have equal length")
        if y.shape[0] == 0:
            raise ValueError("dataset has no rows")
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        first = np.flatnonzero(np.concatenate([[True], ids[1:] != ids[:-1]]))
        return cls._from_columns(y[order], X[order], Z[order],
                                 tuple(ids[first].tolist()),
                                 np.append(first, ids.shape[0]),
                                 X.shape[1], Z.shape[1])

    @classmethod
    def _from_columns(cls, y, X, Z, ids, offsets, p, q):
        """A dataset over columns whose rows are already in group blocks:
        group i is rows ``offsets[i]:offsets[i + 1]`` with key ``ids[i]``."""
        self = cls.__new__(cls)
        self._fill(y, X, Z, ids, offsets, p, q)
        return self

    def _fill(self, y, X, Z, ids, offsets, p, q):
        """Set the columns after one bulk check of shapes and values."""
        N = y.shape[0]
        if y.ndim != 1 or X.shape != (N, p) or Z.shape != (N, q):
            raise ValueError(f"columns of shapes {y.shape}, {X.shape}, "
                             f"{Z.shape} do not match p = {p}, q = {q}")
        sizes = np.diff(offsets)
        if np.any(sizes < 1):
            raise ValueError(f"group {ids[np.argmax(sizes < 1)]!r}: "
                             "empty response")
        if not (np.isfinite(y).all() and np.isfinite(X).all()
                and np.isfinite(Z).all()):
            # Row-wise only to name the group of the first bad row.
            finite = np.isfinite(y) & np.isfinite(X).all(axis=1) \
                & np.isfinite(Z).all(axis=1)
            first = np.searchsorted(offsets, np.argmin(finite), side="right")
            raise ValueError(f"group {ids[first - 1]!r}: non-finite values")
        for name, value in [("y", y), ("X", X), ("Z", Z), ("ids", ids),
                            ("offsets", offsets), ("p", p), ("q", q)]:
            object.__setattr__(self, name, value)

    def with_columns(self, X: np.ndarray, Z: np.ndarray) -> "GroupedDataset":
        """The same groups and responses with new design columns."""
        return self._from_columns(self.y, X, Z, self.ids, self.offsets,
                                  self.p, self.q)

    @property
    def n_groups(self) -> int:
        return len(self.ids)

    @property
    def n_obs(self) -> int:
        return self.y.shape[0]

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def split(self, values: np.ndarray) -> list:
        """Per-group views of a long array laid out like ``y``."""
        bounds = self.offsets.tolist()
        return list(map(values.__getitem__, map(slice, bounds[:-1], bounds[1:])))

    @cached_property
    def groups(self) -> tuple[GroupData, ...]:
        """Per-group views of the columns, built on first use."""
        return tuple(map(GroupData, self.ids, self.split(self.y),
                         self.split(self.X), self.split(self.Z)))
