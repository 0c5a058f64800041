"""Points of a real Hilbert space realized as flat float64 arrays with block layout.

A :class:`BlockShape` records how a flat array decomposes into blocks, each
optionally carrying 2-D extents so the same storage can be read as a signal,
an image, or a matrix.  Product spaces are shapes with several blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InvalidParameter, ShapeMismatch

__all__ = ["BlockShape", "SpacePoint"]


@dataclass(frozen=True)
class BlockShape:
    """Block layout of a flat array: per-block lengths and optional 2-D extents."""

    lengths: tuple[int, ...]
    extents: tuple[Optional[tuple[int, int]], ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        lengths = tuple(int(n) for n in self.lengths)
        object.__setattr__(self, "lengths", lengths)
        if not lengths or any(n < 1 for n in lengths):
            raise InvalidParameter("every block must have length >= 1")
        extents = self.extents
        if extents is None:
            extents = (None,) * len(lengths)
        extents = tuple(None if e is None else (int(e[0]), int(e[1])) for e in extents)
        if len(extents) != len(lengths):
            raise InvalidParameter("extents and lengths must align")
        for n, ext in zip(lengths, extents):
            if ext is not None and ext[0] * ext[1] != n:
                raise InvalidParameter(f"extents {ext} do not match block length {n}")
        object.__setattr__(self, "extents", extents)

    @classmethod
    def vector(cls, n: int) -> "BlockShape":
        return cls((n,))

    @classmethod
    def image(cls, rows: int, cols: int) -> "BlockShape":
        return cls((rows * cols,), ((rows, cols),))

    # a matrix block is stored exactly like an image block
    matrix = image

    @classmethod
    def product(cls, shapes: Iterable["BlockShape"]) -> "BlockShape":
        lengths: list[int] = []
        extents: list[Optional[tuple[int, int]]] = []
        for s in shapes:
            lengths.extend(s.lengths)
            extents.extend(s.extents)
        return cls(tuple(lengths), tuple(extents))

    @property
    def total(self) -> int:
        return sum(self.lengths)

    @property
    def block_count(self) -> int:
        return len(self.lengths)

    def offsets(self) -> tuple[int, ...]:
        out = [0]
        for n in self.lengths:
            out.append(out[-1] + n)
        return tuple(out)

    def block_numpy_shape(self, j: int) -> tuple[int, ...]:
        ext = self.extents[j]
        return (self.lengths[j],) if ext is None else ext


class SpacePoint:
    """Immutable element of a (product) Hilbert space backed by a flat float64 array."""

    __slots__ = ("_data", "_shape")

    def __init__(self, data, shape: Optional[BlockShape] = None):
        arr = np.asarray(data, dtype=np.float64)
        if shape is None:
            if arr.ndim == 2:
                shape = BlockShape.image(arr.shape[0], arr.shape[1])
            else:
                arr = arr.reshape(-1)
                shape = BlockShape.vector(arr.size)
        arr = arr.reshape(-1).copy()
        if arr.size != shape.total:
            raise ShapeMismatch(f"data length {arr.size} != shape total {shape.total}")
        if not np.all(np.isfinite(arr)):
            raise InvalidParameter("SpacePoint entries must be finite")
        arr.flags.writeable = False
        self._data = arr
        self._shape = shape

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def shape(self) -> BlockShape:
        return self._shape

    @property
    def dim(self) -> int:
        return self._data.size

    @classmethod
    def zeros(cls, shape: BlockShape) -> "SpacePoint":
        return cls(np.zeros(shape.total), shape)

    @classmethod
    def of_blocks(cls, blocks: Sequence[np.ndarray]) -> "SpacePoint":
        """Build a product-space point; 2-D blocks keep their extents."""
        arrs = [np.asarray(b, dtype=np.float64) for b in blocks]
        lengths = tuple(a.size for a in arrs)
        extents = tuple(a.shape if a.ndim == 2 else None for a in arrs)
        flat = np.concatenate([a.reshape(-1) for a in arrs]) if arrs else np.empty(0)
        return cls(flat, BlockShape(lengths, extents))

    def with_data(self, data) -> "SpacePoint":
        return SpacePoint(data, self._shape)

    def block(self, j: int) -> np.ndarray:
        off = self._shape.offsets()
        view = self._data[off[j]:off[j + 1]]
        return view.reshape(self._shape.block_numpy_shape(j))

    def blocks(self):
        return [self.block(j) for j in range(self._shape.block_count)]

    def _check_same_space(self, other: "SpacePoint"):
        if not isinstance(other, SpacePoint):
            raise TypeError("expected a SpacePoint")
        if self._shape != other._shape:
            raise ShapeMismatch(f"{self._shape} != {other._shape}")

    def __add__(self, other: "SpacePoint") -> "SpacePoint":
        self._check_same_space(other)
        return SpacePoint(self._data + other._data, self._shape)

    def __sub__(self, other: "SpacePoint") -> "SpacePoint":
        self._check_same_space(other)
        return SpacePoint(self._data - other._data, self._shape)

    def __neg__(self) -> "SpacePoint":
        return SpacePoint(-self._data, self._shape)

    def __mul__(self, alpha: float) -> "SpacePoint":
        return SpacePoint(self._data * float(alpha), self._shape)

    __rmul__ = __mul__

    def inner(self, other: "SpacePoint") -> float:
        self._check_same_space(other)
        return float(np.dot(self._data, other._data))

    def norm(self) -> float:
        return float(np.linalg.norm(self._data))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SpacePoint)
            and self._shape == other._shape
            and np.array_equal(self._data, other._data)
        )

    def __hash__(self):
        return hash((self._shape, self._data.tobytes()))

    def __repr__(self):
        return f"SpacePoint(dim={self.dim}, blocks={self._shape.block_count})"
