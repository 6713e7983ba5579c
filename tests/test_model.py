import numpy as np
import pytest

from msflow.errors import ConfigError, FieldFileError, NumericRangeError
from msflow.grid import FineGrid
from msflow.model import (
    BoundarySpec,
    FluidProps,
    PermeabilityField,
    SourceSpec,
    TimeGrid,
    build_source_vector,
    density,
    density_derivative,
    generate_channel_field,
    load_field_from_file,
    make_problem,
    save_field_to_file,
)


def test_density_at_reference(fluid):
    assert density(fluid.p_ref, fluid) == pytest.approx(fluid.rho_ref, rel=1e-15)


def test_density_doubling_pressure(fluid):
    p = fluid.p_ref + np.log(2.0) / fluid.c
    assert density(p, fluid) == pytest.approx(2.0 * fluid.rho_ref, rel=1e-12)


def test_density_standard_constants():
    # rho_ref=850, c=1e-8, p_ref=2.00e7 at p=2.16e7: 850*exp(0.016)
    props = FluidProps(mu=5.0, phi=500.0, c=1e-8, rho_ref=850.0, p_ref=2.00e7)
    assert density(2.16e7, props) == pytest.approx(
        863.7093825951807, rel=1e-13
    )  # = 850*exp(0.016)


def test_density_monotone_positive(fluid):
    p = fluid.p_ref + np.linspace(-1e7, 1e7, 11)
    rho = density(p, fluid)
    assert np.all(rho > 0)
    assert np.all(np.diff(rho) > 0)


def test_density_overflow_guard(fluid):
    with pytest.raises(NumericRangeError):
        density(fluid.p_ref + 800.0 / fluid.c, fluid)


def test_density_derivative_reference(fluid):
    assert density_derivative(fluid.p_ref, fluid) == pytest.approx(
        fluid.c * fluid.rho_ref, rel=1e-15
    )


def test_density_derivative_finite_difference(fluid):
    p = 2.1e7
    delta = 1.0
    fd = (density(p + delta, fluid) - density(p - delta, fluid)) / (2 * delta)
    assert density_derivative(p, fluid) == pytest.approx(fd, rel=1e-9)


def test_density_derivative_monotone(fluid):
    assert density_derivative(1.9e7, fluid) < density_derivative(2.2e7, fluid)


def test_fluid_props_validation():
    with pytest.raises(ConfigError):
        FluidProps(mu=-1.0)
    with pytest.raises(ConfigError):
        FluidProps(c=0.0)


def test_permeability_must_be_positive():
    with pytest.raises(FieldFileError):
        PermeabilityField(np.array([1.0, 0.0, 2.0]))
    with pytest.raises(FieldFileError):
        PermeabilityField(np.array([1.0, np.inf]))


def test_channel_field_uniform_when_empty(mesh8):
    f = generate_channel_field(mesh8.fine, seed=0, background=3.0, channel=7.0,
                               n_channels=0, n_inclusions=0)
    assert np.all(f.values == 3.0)


def test_channel_field_contrast(mesh8):
    # high/low pair with ratio 1e4
    f = generate_channel_field(mesh8.fine, seed=1, background=1e5, channel=1e9,
                               n_channels=4, n_inclusions=4)
    assert f.contrast == pytest.approx(1e4, rel=1e-12)


def test_channel_field_deterministic(mesh8):
    a = generate_channel_field(mesh8.fine, seed=5, background=1.0, channel=1e4,
                               n_channels=6, n_inclusions=8)
    b = generate_channel_field(mesh8.fine, seed=5, background=1.0, channel=1e4,
                               n_channels=6, n_inclusions=8)
    assert np.array_equal(a.values, b.values)
    c = generate_channel_field(mesh8.fine, seed=6, background=1.0, channel=1e4,
                               n_channels=6, n_inclusions=8)
    assert not np.array_equal(a.values, c.values)


def test_channel_field_validation(mesh8):
    with pytest.raises(ConfigError):
        generate_channel_field(mesh8.fine, seed=0, background=-1.0, channel=1.0,
                               n_channels=0, n_inclusions=0)


def test_field_file_round_trip_raw(mesh4, tmp_path):
    rng = np.random.default_rng(0)
    values = rng.uniform(1.0, 10.0, mesh4.fine.n_cells)
    path = tmp_path / "field.bin"
    save_field_to_file(PermeabilityField(values), path)
    back = load_field_from_file(path, mesh4.fine)
    assert np.array_equal(back.values, values)


def test_field_file_round_trip_text(mesh4, tmp_path):
    values = np.linspace(1.0, 2.0, mesh4.fine.n_cells)
    path = tmp_path / "field.txt"
    save_field_to_file(PermeabilityField(values), path)
    back = load_field_from_file(path, mesh4.fine)
    assert np.allclose(back.values, values, rtol=1e-15)


def test_field_file_size_mismatch(mesh4, tmp_path):
    path = tmp_path / "short.bin"
    np.ones(10).tofile(path)
    with pytest.raises(FieldFileError, match="10.*64|expected"):
        load_field_from_file(path, mesh4.fine)


def test_field_file_unreadable(mesh4, tmp_path):
    with pytest.raises(FieldFileError):
        load_field_from_file(tmp_path / "missing.bin", mesh4.fine)


def test_source_vector_empty(mesh4):
    load = build_source_vector(mesh4.fine, SourceSpec.empty())
    assert np.all(load == 0.0)


def test_source_vector_balanced_wells(mesh8):
    load = build_source_vector(mesh8.fine, SourceSpec.corner_wells(mesh8.fine, 7.5))
    assert abs(load.sum()) <= 1e-12 * np.abs(load).sum()


def test_source_vector_single_cell_quadrature():
    fine = FineGrid(2, 2, 2, h=1.0)
    spec = SourceSpec(entries=[(np.array([0]), 1.0)])
    load = build_source_vector(fine, spec)
    nodes = fine.cell_nodes()[0]
    assert np.allclose(load[nodes], 1.0 / 8.0)
    mask = np.zeros(fine.n_nodes, dtype=bool)
    mask[nodes] = True
    assert np.all(load[~mask] == 0.0)


def test_source_cells_outside_grid(mesh4):
    with pytest.raises(ConfigError):
        build_source_vector(
            mesh4.fine, SourceSpec(entries=[(np.array([10**6]), 1.0)])
        )


def test_dirichlet_x_planes(mesh4):
    spec = BoundarySpec.dirichlet_x_planes(mesh4.fine, 5.0, 2.0)
    i, _, _ = mesh4.fine.node_ijk(spec.dirichlet_nodes)
    assert set(np.unique(i)) == {0, mesh4.fine.nx}
    assert np.all(spec.dirichlet_values[i == 0] == 5.0)
    assert np.all(spec.dirichlet_values[i == mesh4.fine.nx] == 2.0)
    assert spec.dirichlet_nodes.size == 2 * (mesh4.fine.ny + 1) * (mesh4.fine.nz + 1)


def test_mixed_bc_preset(mesh4, fluid, uniform_perm4):
    prob = make_problem(
        mesh4.fine, fluid, uniform_perm4, TimeGrid(dt=1.0, n_steps=1), "mixed-bc"
    )
    i, _, _ = mesh4.fine.node_ijk(np.arange(mesh4.fine.n_nodes))
    assert np.all(prob.p0[i == 0] == 2.16e7)
    assert np.all(prob.p0[i == mesh4.fine.nx] == 2.00e7)
    # linear in x
    mid = prob.p0[i == mesh4.fine.nx // 2]
    assert np.allclose(mid, 0.5 * (2.16e7 + 2.00e7))
    assert np.all(prob.load == 0.0)


def test_neumann_wells_preset(mesh4, fluid, uniform_perm4):
    prob = make_problem(
        mesh4.fine, fluid, uniform_perm4, TimeGrid(dt=1.0, n_steps=1),
        "neumann-wells", well_rate=2.0,
    )
    assert prob.boundary.dirichlet_nodes.size == 0
    assert np.all(prob.p0 == 2.16e7)
    assert abs(prob.load.sum()) <= 1e-12 * np.abs(prob.load).sum()


def test_unknown_preset(mesh4, fluid, uniform_perm4):
    with pytest.raises(ConfigError):
        make_problem(mesh4.fine, fluid, uniform_perm4,
                     TimeGrid(dt=1.0, n_steps=1), "bogus")


def test_time_grid_validation():
    with pytest.raises(ConfigError):
        TimeGrid(dt=0.0, n_steps=1)
    with pytest.raises(ConfigError):
        TimeGrid(dt=1.0, n_steps=-1)
    assert TimeGrid(dt=0.5, n_steps=4).total_time == 2.0
