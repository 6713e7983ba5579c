"""Two-scale structured hexahedral mesh.

The fine grid is a uniform nx x ny x nz partition of a box with cubic cells of
edge h; the coarse grid is obtained by merging r x r x r fine cells. Around
every coarse vertex we build the neighborhood (union of adjacent coarse cells)
together with the fine-node index maps needed for local assembly.

Node and cell orderings are lexicographic with x fastest.
"""

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

    def node_coords(self):
        """(n_nodes, 3) array of node coordinates, x fastest."""
        i = np.arange(self.nx + 1)
        j = np.arange(self.ny + 1)
        k = np.arange(self.nz + 1)
        K, J, I = np.meshgrid(k, j, i, indexing="ij")
        return np.column_stack(
            [I.ravel() * self.h, J.ravel() * self.h, K.ravel() * self.h]
        )

    def cell_nodes(self):
        """(n_cells, 8) global node indices per cell, local order x fastest."""
        i = np.arange(self.nx)
        j = np.arange(self.ny)
        k = np.arange(self.nz)
        K, J, I = np.meshgrid(k, j, i, indexing="ij")
        base = self.node_index(I.ravel(), J.ravel(), K.ravel())
        offsets = np.array(
            [
                self.node_index(dx, dy, dz)
                for dz in (0, 1)
                for dy in (0, 1)
                for dx in (0, 1)
            ]
        )
        return base[:, None] + offsets[None, :]


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


@dataclass(frozen=True)
class CoarseNeighborhood:
    """Fine-node bookkeeping for the patch around one coarse vertex.

    The patch is always an axis-aligned box of fine nodes [lo, hi] per axis
    (inclusive).  `nodes` are the global fine-node indices of the box in local
    lexicographic order, so local index l <-> global index nodes[l].

    Two boundary notions are kept:
      * boundary_mask: nodes on the geometric patch boundary (any box face),
      * constrained_mask: nodes on a box face that is NOT part of the domain
        boundary.  Harmonic extensions and local zero-Dirichlet solves pin
        exactly the constrained nodes; patch faces lying on the domain
        boundary keep their natural (Neumann) role.
    """

    index: int
    vertex: tuple
    n_coarse_cells: int
    node_lo: tuple
    node_hi: tuple
    nodes: np.ndarray
    cells: np.ndarray
    boundary_mask: np.ndarray
    constrained_mask: np.ndarray

    @property
    def n_local(self):
        return self.nodes.size

    @property
    def interior_mask(self):
        return ~self.boundary_mask

    @property
    def free_mask(self):
        """Local DOFs that participate in constrained local solves."""
        return ~self.constrained_mask

    def restrict(self, v):
        v = np.asarray(v)
        return v[self.nodes]

    def extend_by_zero(self, vloc, n_fine):
        out = np.zeros(n_fine)
        out[self.nodes] = vloc
        return out


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

    ii = np.arange(lo[0], hi[0] + 1)
    jj = np.arange(lo[1], hi[1] + 1)
    kk = np.arange(lo[2], hi[2] + 1)
    KK, JJ, II = np.meshgrid(kk, jj, ii, indexing="ij")
    nodes = fine.node_index(II.ravel(), JJ.ravel(), KK.ravel())

    ci = np.arange(lo[0], hi[0])
    cj = np.arange(lo[1], hi[1])
    ck = np.arange(lo[2], hi[2])
    CK, CJ, CI = np.meshgrid(ck, cj, ci, indexing="ij")
    cells = fine.cell_index(CI.ravel(), CJ.ravel(), CK.ravel())

    coords = (II.ravel(), JJ.ravel(), KK.ravel())
    dims = (fine.nx, fine.ny, fine.nz)
    boundary = np.zeros(nodes.size, dtype=bool)
    constrained = np.zeros(nodes.size, dtype=bool)
    for a in range(3):
        on_lo = coords[a] == lo[a]
        on_hi = coords[a] == hi[a]
        boundary |= on_lo | on_hi
        if lo[a] > 0:
            constrained |= on_lo
        if hi[a] < dims[a]:
            constrained |= on_hi

    return CoarseNeighborhood(
        index=idx,
        vertex=(I, J, K),
        n_coarse_cells=n_coarse_cells,
        node_lo=lo,
        node_hi=hi,
        nodes=nodes,
        cells=cells,
        boundary_mask=boundary,
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


def neighborhood_restriction(mesh, i, v):
    """Restrict a fine nodal vector to neighborhood i (local ordering)."""
    if not 0 <= i < mesh.n_neighborhoods:
        raise ConfigError(f"invalid neighborhood id {i}")
    v = np.asarray(v)
    if v.shape[0] != mesh.fine.n_nodes:
        raise ConfigError(
            f"vector length {v.shape[0]} != fine node count {mesh.fine.n_nodes}"
        )
    return mesh.neighborhoods[i].restrict(v)
