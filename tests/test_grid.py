import numpy as np
import pytest

from msflow.errors import ConfigError
from msflow.grid import build_two_scale_mesh, neighborhood_restriction


def test_counts_8_cubed_r4(mesh8):
    assert (mesh8.coarse.Nx, mesh8.coarse.Ny, mesh8.coarse.Nz) == (2, 2, 2)
    assert mesh8.n_neighborhoods == 27
    assert mesh8.fine.n_nodes == 9**3
    assert mesh8.fine.n_cells == 8**3
    assert mesh8.coarse.H == 4.0


def test_non_divisible_counts_rejected():
    with pytest.raises(ConfigError, match="nx"):
        build_two_scale_mesh(8, 8, 8, r=3)
    with pytest.raises(ConfigError, match="ny"):
        build_two_scale_mesh(8, 9, 8, r=4)
    with pytest.raises(ConfigError, match="ratio"):
        build_two_scale_mesh(8, 8, 8, r=1)


def test_grid_parameter_validation():
    with pytest.raises(ConfigError):
        build_two_scale_mesh(2, 8, 8, r=2, h=-1.0)


def test_node_index_bijection(mesh8):
    fine = mesh8.fine
    idx = np.arange(fine.n_nodes)
    i, j, k = fine.node_ijk(idx)
    assert np.array_equal(fine.node_index(i, j, k), idx)
    ci, cj, ck = fine.cell_ijk(np.arange(fine.n_cells))
    assert np.array_equal(fine.cell_index(ci, cj, ck), np.arange(fine.n_cells))


def test_node_ordering_x_fastest(mesh8):
    fine = mesh8.fine
    assert fine.node_index(1, 0, 0) == 1
    assert fine.node_index(0, 1, 0) == fine.nx + 1


def test_cell_nodes_single_cell(mesh8):
    fine = mesh8.fine
    cn = fine.cell_nodes()
    # cell (0,0,0): local order x fastest, then y, then z
    expected = [
        fine.node_index(dx, dy, dz)
        for dz in (0, 1)
        for dy in (0, 1)
        for dx in (0, 1)
    ]
    assert list(cn[0]) == expected


def test_corner_neighborhood_extent(mesh8):
    # coarse vertex (0,0,0): one adjacent coarse cell, (r+1)^3 fine nodes
    nb = mesh8.neighborhoods[0]
    assert nb.vertex == (0, 0, 0)
    assert nb.n_coarse_cells == 1
    assert nb.n_local == 5**3
    assert nb.cells.size == 4**3


def test_interior_neighborhood_extent(mesh8):
    # center coarse vertex (1,1,1) of the 2^3 coarse grid: all 8 coarse cells
    center = next(
        nb for nb in mesh8.neighborhoods if nb.vertex == (1, 1, 1)
    )
    assert center.n_coarse_cells == 8
    assert center.n_local == 9**3
    assert center.cells.size == 8**3


def test_restriction_all_ones(mesh8):
    v = np.ones(mesh8.fine.n_nodes)
    loc = neighborhood_restriction(mesh8, 0, v)
    assert np.array_equal(loc, np.ones(mesh8.neighborhoods[0].n_local))


def test_restrict_extend_round_trip(mesh8):
    rng = np.random.default_rng(3)
    v = rng.standard_normal(mesh8.fine.n_nodes)
    for i in (0, 13, 26):
        nb = mesh8.neighborhoods[i]
        loc = nb.restrict(v)
        back = np.zeros(mesh8.fine.n_nodes)
        back[nb.nodes] = loc
        # brute-force membership oracle
        member = np.zeros(mesh8.fine.n_nodes, dtype=bool)
        member[nb.nodes] = True
        assert np.array_equal(back[member], v[member])
        assert np.all(back[~member] == 0.0)
        assert np.array_equal(nb.restrict(back), loc)


def test_restriction_invalid_inputs(mesh8):
    with pytest.raises(ConfigError):
        neighborhood_restriction(mesh8, 27, np.ones(mesh8.fine.n_nodes))
    with pytest.raises(ConfigError):
        neighborhood_restriction(mesh8, 0, np.ones(5))


def test_neighborhoods_cover_all_nodes(mesh8):
    count = np.zeros(mesh8.fine.n_nodes, dtype=int)
    for nb in mesh8.neighborhoods:
        count[nb.nodes] += 1
    assert count.min() >= 1


def test_hat_support_at_most_eight(mesh8):
    """At any fine node at most 8 coarse hats are nonzero (the hats of the
    enclosing coarse cell's vertices)."""
    from msflow.offline import build_partition_of_unity

    pou = build_partition_of_unity(mesh8)
    count = np.zeros(mesh8.fine.n_nodes, dtype=int)
    for i in range(mesh8.n_neighborhoods):
        count += build_support_mask(pou, i)
    assert count.max() <= 8
    assert count.min() >= 1


def build_support_mask(pou, i):
    return (pou.chi_global(i) > 0.0).astype(int)


def test_boundary_classification_brute_force(mesh8):
    """A patch node is geometric-boundary iff it touches the patch box faces;
    it is constrained only where that face is not on the domain boundary."""
    fine = mesh8.fine
    for i in (0, 4, 13):
        nb = mesh8.neighborhoods[i]
        gi, gj, gk = fine.node_ijk(nb.nodes)
        lo, hi = nb.node_lo, nb.node_hi
        on_face = (
            (gi == lo[0]) | (gi == hi[0])
            | (gj == lo[1]) | (gj == hi[1])
            | (gk == lo[2]) | (gk == hi[2])
        )
        assert np.array_equal(nb.boundary_mask, on_face)
        constrained = np.zeros(nb.n_local, dtype=bool)
        for axis, (g, n) in enumerate(
            zip((gi, gj, gk), (fine.nx, fine.ny, fine.nz))
        ):
            if lo[axis] > 0:
                constrained |= g == lo[axis]
            if hi[axis] < n:
                constrained |= g == hi[axis]
        assert np.array_equal(nb.constrained_mask, constrained)
        assert np.array_equal(nb.free_mask, ~nb.constrained_mask)


def test_corner_patch_domain_faces_are_unconstrained(mesh8):
    """Patch faces on the domain boundary keep their natural role."""
    nb = mesh8.neighborhoods[0]  # corner patch: 3 faces on the domain boundary
    assert nb.constrained_mask.sum() < nb.boundary_mask.sum()
    # the domain corner node is on the geometric patch boundary, not constrained
    corner_local = int(np.flatnonzero(nb.nodes == 0)[0])
    assert nb.boundary_mask[corner_local]
    assert not nb.constrained_mask[corner_local]
