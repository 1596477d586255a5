"""Periodic grid substrate: sampled functions, dyadic cubes, block tables.

The ambient space is the periodic box [0, L)^n (n = 1 or 2) sampled at N
points per axis, N a power of two so that dyadic cubes are exact sample
blocks; each function is written once for every n.  Integrals are cell
sums with volume h^n, h = L/N; essential infimum/supremum are plain
min/max over samples, since on a grid every nonempty sample set has
positive measure.  A family scan (family_values) reads one table per level
of a DyadicFamily, levels 0..max_level laid end to end; the block sums and
minima it re-reads are kept in the function's BlockPyramid, any other
table is reduced from level_blocks by its one scan.  cube_region gives the
flat sample indices of any single cube.  The level-k block b has axis
indices np.unravel_index(b, (2^k,) * n), the one map behind dyadic_cube,
dyadic_address, block_cells and block_children.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridFunction",
    "Cube",
    "from_callable",
    "axis_coords",
    "cube_region",
    "DyadicFamily",
    "dyadic_cube",
    "dyadic_cubes",
    "dyadic_address",
    "block_cells",
    "block_children",
    "level_blocks",
    "block_sums",
    "half_power",
    "BlockPyramid",
    "family_values",
    "periodic_displacement",
]

# Fraction of the grid spacing used to separate cube-edge samples from
# floating-point noise in membership tests.  Must be far below 1 (so no
# genuine interior sample is misclassified) and far above accumulated
# rounding error relative to h.
_EDGE_TOL = 1e-6


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A real function sampled on the periodic box [0, L)^n.

    values has shape (N,) * n; entry [i, j, ...] is the sample at
    x = (i*h, j*h, ...).
    """

    n: int
    L: float
    N: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.n not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.n}")
        if not self.L > 0:
            raise ValueError("box side L must be positive")
        if not _is_power_of_two(self.N):
            raise ValueError(f"N must be a power of two, got {self.N}")
        vals = np.asarray(self.values, dtype=float)
        expected = (self.N,) * self.n
        if vals.shape != expected:
            raise ValueError(f"values shape {vals.shape} != {expected}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must all be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def h(self) -> float:
        return self.L / self.N

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.n, self.L, self.N, values)

    @functools.cached_property
    def pyramid(self) -> "BlockPyramid":
        """Dyadic block tables of these samples, built once per function."""
        return BlockPyramid(self.values, self.n)


def axis_coords(grid) -> np.ndarray:
    """Per-axis sample coordinates i*h, i = 0..N-1."""
    return np.arange(grid.N) * (grid.L / grid.N)


def from_callable(n: int, L: float, N: int, fn: Callable[..., np.ndarray]) -> GridFunction:
    """Sample fn on the grid; fn takes one coordinate array per axis."""
    x = np.arange(N) * (L / N)
    vals = fn(*np.meshgrid(*(x,) * n, indexing="ij"))
    return GridFunction(n, L, N, np.asarray(vals, dtype=float))


@dataclass(frozen=True)
class Cube:
    """Axis-parallel cube with given center and side length.

    Dyadic cubes (side L/2^k, tiling the box) carry their level k; derived
    cubes (doubles 2Q, ad-hoc probes) leave level unset.
    """

    center: tuple[float, ...]
    side: float
    level: int | None = None

    def __post_init__(self) -> None:
        if not self.side > 0:
            raise ValueError("cube side must be positive")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))


def periodic_displacement(x: np.ndarray, c: float, L: float) -> np.ndarray:
    """Signed displacement x - c wrapped into [-L/2, L/2)."""
    return (x - c + L / 2.0) % L - L / 2.0


def _axis_membership(grid, center: float, side: float) -> np.ndarray:
    x = axis_coords(grid)
    d = periodic_displacement(x, center, grid.L)
    eta = _EDGE_TOL * (grid.L / grid.N)
    # Half-open convention [-side/2, side/2): left-edge samples belong to
    # the cube, right-edge samples to its neighbour.
    return (d >= -side / 2.0 - eta) & (d < side / 2.0 - eta)


def cube_region(grid, cube: Cube) -> np.ndarray:
    """Ascending flat indices of the samples lying in the cube under the
    periodic half-open convention; a dyadic cube gets its block's samples."""
    if len(cube.center) != grid.n:
        raise ValueError("cube dimension does not match grid")
    masks = [_axis_membership(grid, c, cube.side) for c in cube.center]
    return np.flatnonzero(functools.reduce(np.logical_and.outer, masks))


def dyadic_cube(n: int, L: float, k: int, b: int) -> Cube:
    """The level-k dyadic cube of the box [0, L)^n with row-major block
    index b: side s = L/2^k, center (i + 0.5) s on each axis."""
    s = L / (1 << k)
    return Cube(tuple((i + 0.5) * s for i in _block_coords(n, k, b)), s,
                level=k)


class DyadicFamily(Sequence):
    """The dyadic cubes of levels 0..max_level of the box [0, L)^n, by
    level, then row-major over block indices (the block order of
    level_blocks).

    The family is immutable and knows its own dyadic addresses: levels[i]
    and blocks[i] are the (level, block) address of cube i, read-only int
    arrays.  A Cube is built only when an item is read.
    """

    def __init__(self, n: int, L: float, max_level: int):
        self.n, self.L, self.max_level = n, L, max_level
        counts = [1 << (n * k) for k in range(max_level + 1)]
        self.levels = np.repeat(np.arange(max_level + 1), counts)
        self.blocks = np.concatenate([np.arange(c) for c in counts])
        self.levels.setflags(write=False)
        self.blocks.setflags(write=False)

    def __len__(self) -> int:
        return self.levels.size

    def __getitem__(self, i) -> Cube:
        return dyadic_cube(self.n, self.L, int(self.levels[i]),
                           int(self.blocks[i]))

    def __eq__(self, other):
        if isinstance(other, DyadicFamily):
            return ((self.n, self.L, self.max_level)
                    == (other.n, other.L, other.max_level))
        return NotImplemented

    def __repr__(self) -> str:
        return (f"DyadicFamily(n={self.n}, L={self.L!r}, "
                f"max_level={self.max_level})")


def dyadic_cubes(grid, max_level: int) -> DyadicFamily:
    """All dyadic cubes of levels 0..max_level, each level tiling the box.

    Level-k cubes have side L/2^k; enumeration is by level, then row-major
    over block indices, matching the block order of level_blocks.
    """
    if max_level < 0:
        raise ValueError("max_level must be >= 0")
    if max_level > grid.N.bit_length() - 1:
        raise ValueError(f"max_level {max_level} too deep for N={grid.N}")
    return DyadicFamily(grid.n, grid.L, max_level)


def dyadic_address(grid, cube: Cube) -> tuple[int, int] | None:
    """(level, row-major block index) for a dyadic cube, else None.

    A cube is dyadic when it carries a level k with 2^k <= N, its side is
    L/2^k and its center sits on a level-k block center, taken modulo the
    box.
    """
    if len(cube.center) != grid.n:
        raise ValueError("cube dimension does not match grid")
    k = cube.level
    if k is None or not 0 <= k <= grid.N.bit_length() - 1:
        return None
    B = 1 << k
    s = grid.L / B
    if abs(cube.side - s) > 1e-12 * grid.L:
        return None
    b = np.array(cube.center) / s - 0.5
    bi = np.rint(b)
    if not np.all(np.abs(b - bi) <= 1e-9):
        return None
    i = bi.astype(np.int64) % B
    return int(k), int(np.ravel_multi_index(tuple(i), (B,) * grid.n))


def _block_coords(n: int, k: int, b):
    """Per-axis indices of the level-k block(s) with row-major index b."""
    return np.unravel_index(b, (1 << k,) * n)


def block_cells(n: int, N: int, k: int, b: int) -> tuple[slice, ...]:
    """The samples of the level-k block b, as one slice per axis."""
    size = N >> k
    return tuple(slice(i * size, (i + 1) * size)
                 for i in _block_coords(n, k, b))


def block_children(n: int, k: int, blocks: np.ndarray) -> np.ndarray:
    """Level-(k+1) children of level-k blocks, parent by parent, each
    parent's children in row-major order: the level-k blocks of the grid
    of level-(k+1) block indices."""
    ids = np.arange((2 << k) ** n).reshape((2 << k,) * n)
    return level_blocks(ids, n, k)[blocks].ravel()


def level_blocks(values: np.ndarray, n: int, level: int) -> np.ndarray:
    """Reshape sample values into (num_blocks, block_samples) dyadic blocks.

    Blocks are ordered row-major, matching dyadic_cubes enumeration within
    one level.  In 1D the result is a view of values.
    """
    B = 1 << level
    bs = values.shape[0] // B
    return values.reshape((B, bs) * n).transpose(
        *range(0, 2 * n, 2), *range(1, 2 * n, 2)).reshape(B**n, bs**n)


# Rows shorter than this are summed column by column: numpy reduces each
# row in its own inner-loop call, which costs more than the additions when
# a row holds a few samples, and its pairwise sum adds such a row left to
# right from +0.0, the order of the column-wise loop.
_PAIRWISE_MIN = 8


def block_sums(blocks: np.ndarray) -> np.ndarray:
    """blocks.sum(axis=1) of a (rows, samples) table, bit for bit.

    A row of fewer than _PAIRWISE_MIN samples is added left to right from
    +0.0, one column of the table at a time; longer rows are left to
    numpy's pairwise sum.
    """
    if blocks.shape[1] >= _PAIRWISE_MIN:
        return blocks.sum(axis=1)
    out = np.zeros(blocks.shape[0])
    for j in range(blocks.shape[1]):
        out += blocks[:, j]
    return out


def half_power(values: np.ndarray, s: float) -> np.ndarray:
    """values ** s; for a half-integer s with 0 < |s| <= 3, from products,
    one square root and, for s < 0, one reciprocal.

    |s| = j + 1/2 multiplies sqrt(values) by values j times, |s| = j
    multiplies values by itself j - 1 times, and s < 0 then takes the
    reciprocal: at most four roundings of relative size 2^-53, so a normal
    result lies within 4 ULP of the exact power.  At s = 1/2, ±1 and 2 the
    result is that of **, which takes sqrt, reciprocal or square there.
    A vectorised pow costs several square roots or products, and most on
    exact zeros.  +0.0 gives +0.0 for s > 0.  Any other s is values ** s.
    """
    twice = 2.0 * float(s)
    if not (twice.is_integer() and 0 < abs(twice) <= 6):
        return values ** s
    whole, half = divmod(int(abs(twice)), 2)
    out = np.sqrt(values) if half else np.array(values, dtype=float)
    for _ in range(whole - 1 + half):
        out *= values
    if s < 0:
        np.divide(1.0, out, out=out)
    return out


class BlockPyramid:
    """The dyadic block sums and minima of one sampled function.

    A level-k table holds one entry per level-k dyadic block, in the order
    of level_blocks, so entry b belongs to the cube at dyadic_address
    (k, b).  Only these two tables are kept, each level built the first
    time it is read: every family scan and the decomposition re-read them,
    while each other per-level quantity is read by one scan only, which
    reduces it from level_blocks itself.  Sums are reduced from
    level_blocks; minima are built bottom-up, exactly: the finest level is
    a view of the samples and each coarser level the element-wise min of
    its children's entries.  Tables are read-only.
    """

    def __init__(self, values: np.ndarray, n: int):
        self.values = values
        self.n = n
        self.N = values.shape[0]
        self.depth = self.N.bit_length() - 1
        self._tables: dict[tuple[str, int], np.ndarray] = {}

    def count(self, k: int) -> int:
        """Samples in one level-k block."""
        return (self.N >> k) ** self.n

    def blocks(self, k: int) -> np.ndarray:
        return level_blocks(self.values, self.n, k)

    def _kept(self, key: str, k: int, build: Callable[[int], np.ndarray]
              ) -> np.ndarray:
        """The level-k table named key, built as build(k) on first read."""
        out = self._tables.get((key, k))
        if out is None:
            out = build(k)
            out.setflags(write=False)
            self._tables[(key, k)] = out
        return out

    def sum(self, k: int) -> np.ndarray:
        return self._kept("sum", k, lambda k: block_sums(self.blocks(k)))

    def mean(self, k: int) -> np.ndarray:
        """Block means, read from the sum table; equal bit for bit to
        blocks(k).mean(axis=1), which divides the same row sums."""
        return self.sum(k) / self.count(k)

    def min(self, k: int) -> np.ndarray:
        def build(k):
            if k == self.depth:
                return self.values.reshape(-1)
            t = self.min(k + 1).reshape((1 << k, 2) * self.n)
            # pair axes 2n-1, ..., 3, 1: the child index along each axis
            for axis in range(2 * self.n - 1, 0, -2):
                lead = (slice(None),) * axis
                t = np.minimum(t[lead + (0,)], t[lead + (1,)])
            return t.ravel()
        return self._kept("min", k, build)

    def absdev(self, k: int) -> np.ndarray:
        """Σ_Q |v - v_Q| per block, v_Q the block mean; not kept."""
        dev = self.blocks(k) - self.mean(k)[:, None]
        return block_sums(np.abs(dev, out=dev))


def family_values(grid, family: DyadicFamily,
                  level_values: Callable[[int], Sequence[np.ndarray]]
                  ) -> np.ndarray:
    """Per-cube quantities of a dyadic family, shape (quantities, len(family)).

    level_values(k) holds one table per quantity, each with one entry per
    level-k block in block order; it is called once for each level
    k = 0..max_level and the tables are laid end to end, which is the
    family's own order, so np.argmax finds the first maximal cube.
    """
    if not isinstance(family, DyadicFamily):
        raise TypeError(f"a family scan takes a DyadicFamily, "
                        f"not a {type(family).__name__}")
    if ((family.n, family.L) != (grid.n, grid.L)
            or family.max_level > grid.N.bit_length() - 1):
        raise ValueError(f"{family!r} does not fit the {grid.n}D grid "
                         f"of side L={grid.L!r} with N={grid.N}")
    return np.concatenate([level_values(k)
                           for k in range(family.max_level + 1)], axis=1)
