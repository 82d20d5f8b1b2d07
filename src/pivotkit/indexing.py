"""1-based index sets over {1, ..., n}.

Principal submatrices, pivot sets and partitions are all named by
:class:`IndexSet`.  Indices are 1-based, matching the usual written
convention for principal submatrices; ``zero_based`` converts to numpy
indexing when needed.
"""
from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np


class IndexSet:
    """A sorted, duplicate-free subset of {1, ..., n}.

    Instances are immutable and hashable; iteration is in ascending
    order.  ``bool(s)`` is ``False`` exactly for the empty set.
    """

    __slots__ = ("_indices", "_n")

    def __init__(self, indices: Iterable[int], n: int):
        if int(n) != n or n < 0:
            raise ValueError(
                f"ambient order must be a nonnegative integer, got {n!r}")
        n = int(n)
        given = tuple(indices)
        ints = tuple(map(int, given))
        if ints != given:
            raise ValueError(f"indices must be integers, got {given}")
        idx = tuple(sorted(ints))
        if len(set(idx)) != len(idx):
            raise ValueError(f"duplicate indices in {idx}")
        for i in idx:
            if not 1 <= i <= n:
                raise ValueError(f"index {i} out of range 1..{n}")
        self._indices = idx
        self._n = n

    # -- constructors -------------------------------------------------

    @classmethod
    def empty(cls, n: int) -> "IndexSet":
        return cls((), n)

    @classmethod
    def full(cls, n: int) -> "IndexSet":
        return cls(range(1, int(n) + 1), n)

    @classmethod
    def coerce(cls, value, n: int) -> "IndexSet":
        """Accept an IndexSet (order checked) or any iterable of 1-based ints."""
        if isinstance(value, cls):
            if value.n != n:
                raise ValueError(
                    f"index set over 1..{value.n} used with a matrix of order {n}")
            return value
        if value is None:
            return cls.empty(n)
        return cls(value, n)

    @classmethod
    def parse(cls, text: str, n: int) -> "IndexSet":
        """Parse the textual forms ``"1,3"``, ``"empty"`` and ``"all"``."""
        t = text.strip().lower()
        if t == "empty":
            return cls.empty(n)
        if t == "all":
            return cls.full(n)
        if not t:
            raise ValueError("empty index-set specification")
        try:
            parts = [int(p) for p in t.split(",")]
        except ValueError as exc:
            raise ValueError(f"cannot parse index set {text!r}: expected "
                             f"comma-separated integers, 'empty' or 'all'") from exc
        return cls(parts, n)

    # -- views --------------------------------------------------------

    @property
    def indices(self) -> tuple[int, ...]:
        return self._indices

    @property
    def n(self) -> int:
        return self._n

    @property
    def zero_based(self) -> np.ndarray:
        return np.array(self._indices, dtype=np.intp) - 1

    def mask(self) -> np.ndarray:
        """Boolean membership mask of length n."""
        m = np.zeros(self._n, dtype=bool)
        if self._indices:
            m[self.zero_based] = True
        return m

    def bitmask(self) -> int:
        """Bit i-1 set exactly when i is a member."""
        out = 0
        for i in self._indices:
            out |= 1 << (i - 1)
        return out

    def complement(self) -> "IndexSet":
        members = set(self._indices)
        return IndexSet((i for i in range(1, self._n + 1) if i not in members),
                        self._n)

    def spec(self) -> str:
        """Inverse of :meth:`parse`: ``"empty"``, ``"all"`` or ``"1,3"``."""
        if not self._indices:
            return "empty"
        if len(self._indices) == self._n:
            return "all"
        return ",".join(str(i) for i in self._indices)

    # -- protocol -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self._indices)

    def __contains__(self, i) -> bool:
        return i in self._indices

    def __bool__(self) -> bool:
        return bool(self._indices)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IndexSet):
            return NotImplemented
        return self._indices == other._indices and self._n == other._n

    def __hash__(self) -> int:
        return hash((self._indices, self._n))

    def __repr__(self) -> str:
        return f"IndexSet({list(self._indices)}, n={self._n})"

    def __str__(self) -> str:
        if not self._indices:
            return "{}"
        return "{" + ",".join(str(i) for i in self._indices) + "}"
