"""Physical problem definition.

Fluid constitutive law (exponential density), permeability fields (synthetic
channelized generator and raw/text file ingestion), boundary conditions,
well sources and time grid.  Values are used in the units they are given in;
no unit-system conversion is performed anywhere.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, FieldFileError, NumericRangeError
from .grid import FineGrid

_EXP_GUARD = 700.0


@dataclass(frozen=True)
class FluidProps:
    mu: float = 5.0
    phi: float = 500.0
    c: float = 1.0e-8
    rho_ref: float = 850.0
    p_ref: float = 2.00e7

    def __post_init__(self):
        for name in ("mu", "phi", "c", "rho_ref"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"fluid property {name} must be positive")


def density(p, props):
    """rho(p) = rho_ref * exp(c * (p - p_ref)); elementwise on arrays."""
    arg = props.c * (np.asarray(p, dtype=float) - props.p_ref)
    if np.any(np.abs(arg) > _EXP_GUARD):
        raise NumericRangeError(
            "density argument c*(p - p_ref) exceeds the guarded exponent range"
        )
    return props.rho_ref * np.exp(arg)


@dataclass(frozen=True)
class PermeabilityField:
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if np.any(v <= 0) or not np.all(np.isfinite(v)):
            raise FieldFileError("permeability must be positive and finite on every cell")
        object.__setattr__(self, "values", v)

    @property
    def contrast(self):
        return float(self.values.max() / self.values.min())


def generate_channel_field(
    fine: FineGrid,
    seed,
    background,
    channel,
    n_channels,
    n_inclusions,
):
    """Synthetic high-contrast field: axis-aligned channel slabs running the
    full x extent plus box inclusions, both set to the channel value.

    Deterministic function of the seed.
    """
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if background <= 0 or channel <= 0:
        raise ConfigError("background and channel permeability must be positive")
    if n_channels < 0 or n_inclusions < 0:
        raise ConfigError("channel and inclusion counts must be >= 0")
    if n_channels > 0 and (fine.ny < 3 or fine.nz < 3):
        raise ConfigError("grid too small in y/z to place channels")
    rng = np.random.default_rng(seed)
    kappa = np.full((fine.nz, fine.ny, fine.nx), float(background))

    for _ in range(n_channels):
        j = int(rng.integers(0, fine.ny - 1))
        k = int(rng.integers(0, fine.nz - 1))
        wj = int(rng.integers(1, 3))
        wk = int(rng.integers(1, 3))
        kappa[k : min(fine.nz, k + wk), j : min(fine.ny, j + wj), :] = channel

    for _ in range(n_inclusions):
        si = int(rng.integers(1, max(2, fine.nx // 4)))
        sj = int(rng.integers(1, max(2, fine.ny // 4)))
        sk = int(rng.integers(1, max(2, fine.nz // 4)))
        i0 = int(rng.integers(0, fine.nx - si + 1))
        j0 = int(rng.integers(0, fine.ny - sj + 1))
        k0 = int(rng.integers(0, fine.nz - sk + 1))
        kappa[k0 : k0 + sk, j0 : j0 + sj, i0 : i0 + si] = channel

    return PermeabilityField(values=kappa.ravel())


def load_field_from_file(path, fine: FineGrid):
    """Read a per-cell permeability file.

    ``.txt`` files hold one value per line; anything else is raw little-endian
    float64.  Cell order is lexicographic, x fastest.
    """
    path = Path(path)
    try:
        if path.suffix == ".txt":
            values = np.loadtxt(path, dtype=float).ravel()
        else:
            values = np.fromfile(path, dtype="<f8")
    except OSError as exc:
        raise FieldFileError(f"cannot read permeability file {path}: {exc}") from exc
    except ValueError as exc:
        raise FieldFileError(f"cannot parse permeability file {path}: {exc}") from exc
    if values.size != fine.n_cells:
        raise FieldFileError(
            f"permeability file {path} has {values.size} values, "
            f"expected {fine.n_cells} (= {fine.nx}x{fine.ny}x{fine.nz} cells)"
        )
    return PermeabilityField(values=values)


def save_field_to_file(field_, path):
    path = Path(path)
    if path.suffix == ".txt":
        np.savetxt(path, field_.values, fmt="%.17g")
    else:
        field_.values.astype("<f8").tofile(path)


@dataclass(frozen=True)
class BoundarySpec:
    """Dirichlet data as explicit node lists; everything else is zero Neumann."""

    dirichlet_nodes: np.ndarray
    dirichlet_values: np.ndarray

    @staticmethod
    def all_neumann():
        return BoundarySpec(
            dirichlet_nodes=np.empty(0, dtype=int),
            dirichlet_values=np.empty(0),
        )

    @staticmethod
    def dirichlet_x_planes(fine: FineGrid, p_first, p_last):
        """Fixed pressure on the first and last yz planes, zero Neumann on the
        xy and xz boundary planes."""
        idx = np.arange(fine.n_nodes)
        i, _, _ = fine.node_ijk(idx)
        first = idx[i == 0]
        last = idx[i == fine.nx]
        nodes = np.concatenate([first, last])
        values = np.concatenate(
            [np.full(first.size, float(p_first)), np.full(last.size, float(p_last))]
        )
        return BoundarySpec(dirichlet_nodes=nodes, dirichlet_values=values)


@dataclass(frozen=True)
class SourceSpec:
    """List of (cell index array, volumetric rate) entries."""

    entries: list = field(default_factory=list)

    @staticmethod
    def corner_wells(fine: FineGrid, rate):
        """Four vertical injector columns in the corners and one balancing
        sink column in the middle; total injected rate is zero."""
        cols = [
            (0, 0),
            (fine.nx - 1, 0),
            (0, fine.ny - 1),
            (fine.nx - 1, fine.ny - 1),
        ]
        entries = []
        kk = np.arange(fine.nz)
        for ci, cj in cols:
            entries.append((fine.cell_index(ci, cj, kk), float(rate)))
        entries.append(
            (fine.cell_index(fine.nx // 2, fine.ny // 2, kk), -4.0 * float(rate))
        )
        return SourceSpec(entries=entries)


def build_source_vector(fine: FineGrid, sources: SourceSpec):
    """Nodal load vector for cell-wise constant rates: each cell spreads
    q * h^3 equally over its 8 nodes (midpoint Q1 quadrature)."""
    load = np.zeros(fine.n_nodes)
    cell_nodes = fine.cell_nodes()
    w = fine.h**3 / 8.0
    for cells, rate in sources.entries:
        cells = np.asarray(cells, dtype=int)
        if np.any(cells < 0) or np.any(cells >= fine.n_cells):
            raise ConfigError("source cells outside the grid")
        nodes = cell_nodes[cells].ravel()
        np.add.at(load, nodes, rate * w)
    return load


@dataclass(frozen=True)
class TimeGrid:
    dt: float
    n_steps: int

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.n_steps < 0:
            raise ConfigError(f"step count must be >= 0, got {self.n_steps}")


@dataclass(frozen=True)
class ProblemSpec:
    fine: FineGrid
    fluid: FluidProps
    perm: PermeabilityField
    boundary: BoundarySpec
    load: np.ndarray
    time: TimeGrid
    p0: np.ndarray

    P_HIGH = 2.16e7
    P_LOW = 2.00e7


def make_problem(fine, fluid, perm, time, preset, well_rate=0.0):
    """Build one of the two standard boundary/source regimes.

    ``mixed-bc``: fixed high/low pressure on the first/last yz planes, zero
    Neumann elsewhere, no source, initial pressure linear in x.

    ``neumann-wells``: zero Neumann everywhere, balanced corner injectors and
    center sink, constant initial pressure.
    """
    if preset == "mixed-bc":
        boundary = BoundarySpec.dirichlet_x_planes(
            fine, ProblemSpec.P_HIGH, ProblemSpec.P_LOW
        )
        load = np.zeros(fine.n_nodes)
        idx = np.arange(fine.n_nodes)
        i, _, _ = fine.node_ijk(idx)
        frac = i / fine.nx
        p0 = ProblemSpec.P_HIGH + frac * (ProblemSpec.P_LOW - ProblemSpec.P_HIGH)
    elif preset == "neumann-wells":
        boundary = BoundarySpec.all_neumann()
        load = build_source_vector(fine, SourceSpec.corner_wells(fine, well_rate))
        p0 = np.full(fine.n_nodes, ProblemSpec.P_HIGH)
    else:
        raise ConfigError(f"unknown problem preset '{preset}'")
    return ProblemSpec(
        fine=fine,
        fluid=fluid,
        perm=perm,
        boundary=boundary,
        load=load,
        time=time,
        p0=p0,
    )
