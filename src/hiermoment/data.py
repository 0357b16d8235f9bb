"""Grouped long-format dataset container and the one record of its blocks.

A :class:`GroupedDataset` stores its observations as long columns ``y``,
``X`` and ``Z``, each group's rows one block after another, as its
:class:`GroupLayout` records them: checked once, and taken by every stage.
The stacked SVDs, the Firth solve and the precisions are its segment
``sums``, a subset of groups is ``take(groups)`` and prediction its
``row_dot``. Per-group :class:`GroupData` views are built on first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Hashable

import numpy as np

__all__ = ["GroupData", "GroupLayout", "GroupedDataset"]

_BLOCK_ENTRIES = 1 << 16  # entries of row-wise products held at one time


@dataclass(frozen=True, eq=False)
class GroupLayout:
    """Row blocks of M groups in one long array: group i owns rows
    ``offsets[i]:offsets[i + 1]``. ``offsets`` (M + 1,) begins at 0 and
    increases strictly, so every group has a row; M may be 0."""

    offsets: np.ndarray

    def __post_init__(self):
        offsets = np.asarray(self.offsets, dtype=np.intp)
        if offsets.ndim != 1 or offsets[:1].tolist() != [0] \
                or np.any(np.diff(offsets) < 1):
            raise ValueError("group offsets must be 1-D, begin at 0 and "
                             "increase strictly")
        object.__setattr__(self, "offsets", offsets)

    @cached_property
    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def starts(self) -> np.ndarray:
        return self.offsets[:-1]

    def take(self, groups):
        """The layout of ``groups``' blocks packed in the order given, and
        the row index of their rows in this layout."""
        sub = GroupLayout(np.append(0, np.cumsum(self.sizes[groups])))
        shift = self.starts[groups] - sub.starts
        return sub, np.arange(sub.offsets[-1]) + np.repeat(shift, sub.sizes)

    def row_group(self) -> np.ndarray:
        """The group of each row, (N,)."""
        return np.repeat(np.arange(self.sizes.size), self.sizes)

    def split(self, values) -> list:
        """Per-group views of a long array laid out in these blocks."""
        bounds = self.offsets.tolist()
        return list(map(values.__getitem__, map(slice, bounds[:-1], bounds[1:])))

    def sums(self, width, terms) -> np.ndarray:
        """Per-group sums (M, width) of row-wise products: ``terms(lo, hi)``
        gives the (hi - lo, width) products of rows lo:hi. Rows are taken in
        blocks of about ``_BLOCK_ENTRIES`` entries; a group longer than a
        block is summed in pieces counted from its own first row, so each
        group's sums depend on its own rows only."""
        block, n_rows = max(1, _BLOCK_ENTRIES // width), self.offsets[-1]
        npieces = -(-self.sizes // block)
        first = np.cumsum(npieces) - npieces
        piece = np.repeat(self.starts, npieces) + block * (
            np.arange(npieces.sum()) - np.repeat(first, npieces))
        cuts = np.unique(piece[np.searchsorted(
            piece, np.arange(0, n_rows, block), side="right") - 1])
        cuts = np.append(cuts, n_rows)
        out = np.empty((piece.size, width))
        p0 = 0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            p1 = np.searchsorted(piece, hi)
            out[p0:p1] = np.add.reduceat(terms(lo, hi), piece[p0:p1] - lo,
                                         axis=0)
            p0 = p1
        return out if piece.size == self.sizes.size \
            else np.add.reduceat(out, first, axis=0)

    def row_dot(self, F, coef, where=None) -> np.ndarray:
        """Each row's ``F[j] . coef[where[g]]`` for its group g (``where``
        defaults to g; -1 takes a zero row; ``coef`` has F's width), one
        column of ``coef.T`` at a time, so no (N, k) gather is built."""
        if coef.shape[1] != F.shape[1]:
            raise ValueError(f"coefficients of width {coef.shape[1]} for a "
                             f"design of width {F.shape[1]}")
        if where is not None:
            coef = np.vstack([coef, np.zeros(coef.shape[1])])[where]
        ct = np.ascontiguousarray(coef.T)
        eta = F[:, 0] * np.repeat(ct[0], self.sizes)
        for j in range(1, len(ct)):
            eta += F[:, j] * np.repeat(ct[j], self.sizes)
        return eta


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
    one after another, as ``layout`` records them, group i with key
    ``ids[i]``. Every group has at least one row and all values are
    finite. :meth:`from_long` orders the groups by ascending id;
    ``GroupedDataset(groups, p, q)`` keeps the blocks in the order given.
    """

    y: np.ndarray = field(repr=False)
    X: np.ndarray = field(repr=False)
    Z: np.ndarray = field(repr=False)
    ids: tuple = field(repr=False)
    layout: GroupLayout = field(repr=False)
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
        if not sizes.all():
            raise ValueError(f"group {ids[np.argmin(sizes)]!r}: empty response")
        self._fill(y, X, Z, ids, GroupLayout(np.append(0, np.cumsum(sizes))), p, q)

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
                                 GroupLayout(np.append(first, ids.shape[0])),
                                 X.shape[1], Z.shape[1])

    @classmethod
    def _from_columns(cls, y, X, Z, ids, layout, p, q):
        """A dataset over columns whose rows are already in the group
        blocks of ``layout``, group i with key ``ids[i]``."""
        self = cls.__new__(cls)
        self._fill(y, X, Z, ids, layout, p, q)
        return self

    def _fill(self, y, X, Z, ids, layout, p, q):
        """Set the columns after one bulk check of shapes and values."""
        if p < 1 or q < 1:
            raise ValueError(f"need at least one fixed and one random "
                             f"column, got p = {p}, q = {q}")
        N = y.shape[0]
        if y.ndim != 1 or X.shape != (N, p) or Z.shape != (N, q):
            raise ValueError(f"columns of shapes {y.shape}, {X.shape}, "
                             f"{Z.shape} do not match p = {p}, q = {q}")
        if not (np.isfinite(y).all() and np.isfinite(X).all()
                and np.isfinite(Z).all()):
            # Row-wise only to name the group of the first bad row.
            finite = np.isfinite(y) & np.isfinite(X).all(axis=1) \
                & np.isfinite(Z).all(axis=1)
            first = layout.row_group()[np.argmin(finite)]
            raise ValueError(f"group {ids[first]!r}: non-finite values")
        for name, value in [("y", y), ("X", X), ("Z", Z), ("ids", ids),
                            ("layout", layout), ("p", p), ("q", q)]:
            object.__setattr__(self, name, value)

    def with_columns(self, X: np.ndarray, Z: np.ndarray) -> "GroupedDataset":
        """The same groups and responses with new design columns."""
        return self._from_columns(self.y, X, Z, self.ids, self.layout,
                                  self.p, self.q)

    @property
    def n_groups(self) -> int:
        return len(self.ids)

    @property
    def n_obs(self) -> int:
        return self.y.shape[0]

    @cached_property
    def groups(self) -> tuple[GroupData, ...]:
        """Per-group views of the columns, built on first use."""
        s = self.layout.split
        return tuple(map(GroupData, self.ids, s(self.y), s(self.X), s(self.Z)))
