"""Cube collections as 6x6 count matrices over the variety table."""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Mapping
from functools import cached_property

from .errors import InstanceFormatError
from .varieties import CELLS, CELL_INDEX


@dataclass(frozen=True)
class Instance:
    """Multiset of cubes, counted per table cell.

    counts[i-1][j-1] is the number of cubes of variety (i, j); diagonal
    entries must be zero.  Counts are unbounded non-negative integers,
    although most callers stay at or below eight.
    """

    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.counts) != 6 or any(len(row) != 6 for row in self.counts):
            raise InstanceFormatError("count matrix must be 6x6")
        for i in range(6):
            for j in range(6):
                n = self.counts[i][j]
                if not isinstance(n, int) or isinstance(n, bool) or n < 0:
                    raise InstanceFormatError(
                        f"count at ({i + 1},{j + 1}) must be a non-negative integer"
                    )
            if self.counts[i][i] != 0:
                raise InstanceFormatError("diagonal cells carry no variety")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls) -> "Instance":
        return cls(tuple((0,) * 6 for _ in range(6)))

    @classmethod
    def from_matrix(cls, rows: Iterable[Iterable[int]]) -> "Instance":
        return cls(tuple(tuple(int(n) for n in row) for row in rows))

    @classmethod
    def from_pairs(
        cls, pairs: Mapping[tuple[int, int], int] | Iterable[tuple[tuple[int, int], int]]
    ) -> "Instance":
        items = pairs.items() if isinstance(pairs, Mapping) else pairs
        rows = [[0] * 6 for _ in range(6)]
        for (i, j), n in items:
            if not (1 <= i <= 6 and 1 <= j <= 6 and i != j):
                raise InstanceFormatError(f"({i},{j}) is not a table cell")
            rows[i - 1][j - 1] += int(n)
        return cls.from_matrix(rows)

    @classmethod
    def from_vector(cls, vector: Iterable[int]) -> "Instance":
        vec = tuple(int(n) for n in vector)
        if len(vec) != len(CELLS):
            raise InstanceFormatError(f"cell vector must have {len(CELLS)} entries")
        return cls.from_pairs(dict(zip(CELLS, vec)))

    # ------------------------------------------------------------------
    # accessors

    def count(self, i: int, j: int) -> int:
        if not (1 <= i <= 6 and 1 <= j <= 6 and i != j):
            raise InstanceFormatError(f"({i},{j}) is not a table cell")
        return self.counts[i - 1][j - 1]

    @property
    def size(self) -> int:
        return sum(sum(row) for row in self.counts)

    def vector(self) -> tuple[int, ...]:
        """Counts flattened in canonical cell order."""
        return self._vector

    @cached_property
    def _vector(self) -> tuple[int, ...]:
        # frozen counts: flattened once per instance
        return tuple(self.counts[i - 1][j - 1] for i, j in CELLS)

    def support(self) -> tuple[tuple[int, int], ...]:
        return tuple(c for c in CELLS if self.counts[c[0] - 1][c[1] - 1])

    def items(self) -> tuple[tuple[tuple[int, int], int], ...]:
        return tuple((c, self.counts[c[0] - 1][c[1] - 1]) for c in self.support())

    def with_count(self, i: int, j: int, n: int) -> "Instance":
        self.count(i, j)  # validates coordinates
        rows = [list(row) for row in self.counts]
        rows[i - 1][j - 1] = n
        return Instance.from_matrix(rows)

    # ------------------------------------------------------------------
    # text formats

    def to_text(self, style: str = "dense") -> str:
        """Text that ``parse_instance`` reads back to this instance.

        The sparse style writes the empty instance as one zero entry,
        because text without data lines does not parse.
        """
        if style == "dense":
            return "\n".join(" ".join(str(n) for n in row) for row in self.counts) + "\n"
        if style == "sparse":
            lines = [f"{i} {j} {n}" for (i, j), n in self.items()] or ["1 2 0"]
            return "\n".join(lines) + "\n"
        raise InstanceFormatError(f"unknown instance style {style!r}")

    def __str__(self) -> str:
        body = ",".join(f"({i},{j})x{n}" for (i, j), n in self.items())
        return f"Instance[{self.size}: {body or 'empty'}]"


def parse_instance(text: str) -> Instance:
    """Read dense (six rows of six counts) or sparse (`i j count`) text.

    Blank lines and `#` comments are skipped; the two layouts are told
    apart by the token count of the first data line.
    """
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    if not rows:
        raise InstanceFormatError("no instance data in input")
    width = len(rows[0])
    try:
        if width == 6:
            if len(rows) != 6:
                raise InstanceFormatError(
                    f"dense instance needs 6 rows, found {len(rows)}"
                )
            return Instance.from_matrix([[int(tok) for tok in row] for row in rows])
        if width == 3:
            pairs: list[tuple[tuple[int, int], int]] = []
            for row in rows:
                if len(row) != 3:
                    raise InstanceFormatError(f"bad sparse line: {' '.join(row)!r}")
                i, j, n = (int(tok) for tok in row)
                pairs.append(((i, j), n))
            return Instance.from_pairs(pairs)
    except InstanceFormatError:
        raise
    except ValueError as exc:
        raise InstanceFormatError(f"non-integer count: {exc}") from None
    raise InstanceFormatError(
        f"lines of {width} tokens are neither dense rows nor sparse entries"
    )
