"""Two-scale structured hexahedral mesh and its Q1 connectivity.

The fine grid is a uniform nx x ny x nz partition of a box with cubic cells of
edge h; the coarse grid is obtained by merging r x r x r fine cells. Around
every coarse vertex we build the neighborhood (union of adjacent coarse cells)
together with the fine-node index maps needed for local assembly.

Node and cell orderings are lexicographic with x fastest.  This module is the
one place where Q1 connectivity is built: `FineGrid.cell_nodes()` is computed
once per grid and shared read-only, and a neighborhood's local numbering
is the connectivity of its own box grid (`CoarseNeighborhood.box`), so the
patches of one mesh share a handful of patterns.
`FineGrid.dissection()`, the grid's nested dissection node order, is built
the same way; every grid-shaped sparse LU (the fine Jacobian, the online
local solves and the offline shift-invert solves) factors in the order of
its grid, and the projected coarse systems in the order of the coarse
vertex grid (`CoarseGrid.dissection()`).
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class FineGrid:
    nx: int
    ny: int
    nz: int
    h: float

    def __post_init__(self):
        for name, n in (("nx", self.nx), ("ny", self.ny), ("nz", self.nz)):
            if n < 2:
                raise ConfigError(f"{name} must be >= 2, got {n}")
        if self.h <= 0:
            raise ConfigError(f"h must be positive, got {self.h}")

    @property
    def n_nodes(self):
        return (self.nx + 1) * (self.ny + 1) * (self.nz + 1)

    @property
    def n_cells(self):
        return self.nx * self.ny * self.nz

    def node_index(self, i, j, k):
        return i + (self.nx + 1) * (j + (self.ny + 1) * k)

    def node_ijk(self, idx):
        sx, sy = self.nx + 1, self.ny + 1
        i = idx % sx
        j = (idx // sx) % sy
        k = idx // (sx * sy)
        return i, j, k

    def cell_index(self, i, j, k):
        return i + self.nx * (j + self.ny * k)

    def cell_ijk(self, idx):
        i = idx % self.nx
        j = (idx // self.nx) % self.ny
        k = idx // (self.nx * self.ny)
        return i, j, k

    def cell_nodes(self):
        """(n_cells, 8) global node indices per cell, local order x fastest;
        built once per grid and read-only."""
        return _cell_nodes(self)

    def dissection(self):
        """The node indices in geometric nested dissection order: the
        longest axis (the first of equals) is split at its middle node
        plane, and a box lists its lower half, its upper half, then the
        separator plane, each in the same order, down to single nodes.
        Every sparse LU of an operator on this grid factors in this order;
        built once per grid shape and read-only."""
        return _dissection(self.nx, self.ny, self.nz)


@functools.lru_cache(maxsize=64)
def _cell_nodes(grid):
    base = grid.node_index(*grid.cell_ijk(np.arange(grid.n_cells)))
    corners = [(dx, dy, dz) for dz in (0, 1) for dy in (0, 1) for dx in (0, 1)]
    offsets = np.array([grid.node_index(*c) for c in corners])
    cn = base[:, None] + offsets[None, :]
    cn.setflags(write=False)
    return cn


@functools.lru_cache(maxsize=64)
def _dissection(nx, ny, nz):
    """The nested dissection order of the nodes of an nx x ny x nz cell
    grid, lexicographic node indices with x fastest."""
    orders = {}  # box shape (nodes per axis) -> its node coordinates in order

    def dissect(shape):
        if shape not in orders:
            a = int(np.argmax(shape))
            if shape[a] == 1:
                orders[shape] = np.zeros((1, 3), dtype=np.int64)
            else:
                mid = (shape[a] - 1) // 2
                parts = []
                for start, size in ((0, mid), (mid + 1, shape[a] - mid - 1), (mid, 1)):
                    if size:
                        part = dissect(shape[:a] + (size,) + shape[a + 1:]).copy()
                        part[:, a] += start
                        parts.append(part)
                orders[shape] = np.concatenate(parts)
        return orders[shape]

    i, j, k = dissect((nx + 1, ny + 1, nz + 1)).T
    order = i + (nx + 1) * (j + (ny + 1) * k)
    order.setflags(write=False)
    return order


@dataclass(frozen=True)
class CoarseGrid:
    Nx: int
    Ny: int
    Nz: int
    r: int
    H: float

    @property
    def n_vertices(self):
        return (self.Nx + 1) * (self.Ny + 1) * (self.Nz + 1)

    def vertex_ijk(self, idx):
        sx, sy = self.Nx + 1, self.Ny + 1
        return idx % sx, (idx // sx) % sy, idx // (sx * sy)

    def dissection(self):
        """The vertex indices in the nested dissection order of
        `FineGrid.dissection()` on this grid; the projected systems of the
        coarse solver factor their columns in it
        (`ProjectionMatrix.factor_order`)."""
        return _dissection(self.Nx, self.Ny, self.Nz)


@dataclass(frozen=True)
class CoarseNeighborhood:
    """Fine-node bookkeeping for the patch around one coarse vertex.

    The patch is always an axis-aligned box of fine nodes [lo, hi] per axis
    (inclusive).  `nodes` are the global fine-node indices of the box in local
    lexicographic order, so local index l <-> global index nodes[l], and
    `cells` likewise for the box cells.  `box` is the box as a grid of its
    own, whose `cell_nodes()` is the patch connectivity in local numbering.

    `constrained_mask` marks the nodes on a box face that is NOT part of the
    domain boundary.  Harmonic extensions and local zero-Dirichlet solves pin
    exactly these nodes; patch faces lying on the domain boundary keep their
    natural (Neumann) role.
    """

    vertex: tuple
    n_coarse_cells: int
    box: FineGrid
    nodes: np.ndarray
    cells: np.ndarray
    constrained_mask: np.ndarray

    @property
    def n_local(self):
        return self.nodes.size

    @property
    def free_mask(self):
        """Local DOFs that participate in constrained local solves."""
        return ~self.constrained_mask


@dataclass(frozen=True)
class TwoScaleMesh:
    fine: FineGrid
    coarse: CoarseGrid
    neighborhoods: list = field(repr=False)

    @property
    def n_neighborhoods(self):
        return len(self.neighborhoods)


def _build_neighborhood(fine, coarse, idx):
    I, J, K = coarse.vertex_ijk(idx)
    r = coarse.r
    lo = (max(0, (I - 1) * r), max(0, (J - 1) * r), max(0, (K - 1) * r))
    hi = (
        min(fine.nx, (I + 1) * r),
        min(fine.ny, (J + 1) * r),
        min(fine.nz, (K + 1) * r),
    )
    n_coarse_cells = (
        (min(I, coarse.Nx - 1) - max(I - 1, 0) + 1)
        * (min(J, coarse.Ny - 1) - max(J - 1, 0) + 1)
        * (min(K, coarse.Nz - 1) - max(K - 1, 0) + 1)
    )

    box = FineGrid(hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2], fine.h)
    coords = [c + o for c, o in zip(box.node_ijk(np.arange(box.n_nodes)), lo)]
    nodes = fine.node_index(*coords)
    ci, cj, ck = box.cell_ijk(np.arange(box.n_cells))
    cells = fine.cell_index(ci + lo[0], cj + lo[1], ck + lo[2])

    dims = (fine.nx, fine.ny, fine.nz)
    constrained = np.zeros(nodes.size, dtype=bool)
    for a in range(3):
        if lo[a] > 0:
            constrained |= coords[a] == lo[a]
        if hi[a] < dims[a]:
            constrained |= coords[a] == hi[a]

    return CoarseNeighborhood(
        vertex=(I, J, K),
        n_coarse_cells=n_coarse_cells,
        box=box,
        nodes=nodes,
        cells=cells,
        constrained_mask=constrained,
    )


def build_two_scale_mesh(nx, ny, nz, r, h=1.0):
    """Build the fine grid, the exactly-coarsened coarse grid, and all
    coarse-vertex neighborhoods.

    Each fine cell count must be divisible by the refinement ratio r.
    """
    if r < 2:
        raise ConfigError(f"refinement ratio must be >= 2, got {r}")
    for name, n in (("nx", nx), ("ny", ny), ("nz", nz)):
        if n % r != 0:
            raise ConfigError(f"{name}={n} is not divisible by ratio r={r}")
    fine = FineGrid(nx=nx, ny=ny, nz=nz, h=float(h))
    coarse = CoarseGrid(Nx=nx // r, Ny=ny // r, Nz=nz // r, r=r, H=r * float(h))
    neighborhoods = [
        _build_neighborhood(fine, coarse, i) for i in range(coarse.n_vertices)
    ]
    return TwoScaleMesh(fine=fine, coarse=coarse, neighborhoods=neighborhoods)
