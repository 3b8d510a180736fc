"""The block writers of `vtkio` write the bytes that a per-value writer,
kept here as the reference, writes."""

import csv

import numpy as np
import pytest

from matmi.fields import NodalField
from matmi.mesh import build_unit_cube, build_unit_square
from matmi.vtkio import write_nodal_csv, write_slice_csv, write_vtk

_CELL_TYPE = {2: 5, 3: 10}


def _write_vtk_per_value(path, mesh, point_data):
    nloc = mesh.dim + 1
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\nmatmi\nASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write("POINTS %d double\n" % mesh.num_vertices)
        for p in mesh.vertices:
            coords = list(p) + [0.0] * (3 - mesh.dim)
            fh.write("%.17g %.17g %.17g\n" % tuple(coords))
        fh.write("CELLS %d %d\n" % (mesh.num_cells,
                                    mesh.num_cells * (nloc + 1)))
        for cell in mesh.cells:
            fh.write("%d %s\n" % (nloc, " ".join(str(int(v)) for v in cell)))
        fh.write("CELL_TYPES %d\n" % mesh.num_cells)
        fh.write(("%d\n" % _CELL_TYPE[mesh.dim]) * mesh.num_cells)
        fh.write("POINT_DATA %d\n" % mesh.num_vertices)
        for name, vals in point_data.items():
            fh.write("SCALARS %s double 1\nLOOKUP_TABLE default\n" % name)
            for v in np.asarray(vals, dtype=float):
                fh.write("%.17g\n" % v)


def _write_nodal_csv_per_value(field, path):
    mesh = field.mesh
    cols = ["x", "y", "z"][:mesh.dim]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols + ["value"])
        for p, v in zip(mesh.vertices, field.values):
            w.writerow(["%.17g" % c for c in p] + ["%.17g" % v])


def _write_slice_csv_per_value(field, z, path):
    """The field along each vertical grid edge, interpolated at height z
    between the edge's two vertices, numbered x slowest."""
    n = field.mesh.n
    k = min(int(z * n), n - 1)
    theta = z * n - k
    ticks = np.linspace(0.0, 1.0, n + 1)
    with open(path, "w", newline="") as fh:
        fh.write("x,y,value\n")
        for i, x in enumerate(ticks):
            for j, y in enumerate(ticks):
                edge = (i * (n + 1) + j) * (n + 1) + k
                v = ((1.0 - theta) * field.values[edge]
                     + theta * field.values[edge + 1])
                fh.write("%.17g,%.17g,%.17g\n" % (x, y, v))


def _values(size, seed):
    """Random values of every magnitude with the edge cases written
    first: signed zeros, values near 1e-300, a subnormal, large ones."""
    rng = np.random.default_rng(seed)
    edge = [-0.0, 0.0, 1e-300, -1e-300, 3e-301, 5e-324, 1e300, -2.5, 1.0]
    rest = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
    return np.concatenate([edge, rest])[:size]


@pytest.mark.parametrize("mesh", [build_unit_square(5), build_unit_cube(3)],
                         ids=["2d", "3d"])
def test_vtk_is_byte_identical_to_the_per_value_writer(tmp_path, mesh):
    point_data = {"gamma": _values(mesh.num_vertices, 1),
                  "other": _values(mesh.num_vertices, 2)[::-1]}
    write_vtk(str(tmp_path / "a.vtk"), mesh, point_data)
    _write_vtk_per_value(str(tmp_path / "b.vtk"), mesh, point_data)
    a, b = (tmp_path / "a.vtk").read_bytes(), (tmp_path / "b.vtk").read_bytes()
    assert b"-0\n" in a and b"\n1e-300\n" in a
    assert a == b


def test_slice_csv_is_byte_identical_to_the_per_value_writer(tmp_path):
    mesh = build_unit_cube(4)
    vals = np.ones(mesh.num_vertices)
    bottom = np.flatnonzero(mesh.vertices[:, 2] == 0.0)
    vals[bottom] = np.resize([-0.0, 1e-300, -1e-300, 5e-324, 1e300, -2.5],
                             bottom.size)
    field = NodalField(mesh, vals)
    for z in (0.0, 0.3):
        write_slice_csv(field, z, str(tmp_path / "a.csv"))
        _write_slice_csv_per_value(field, z, str(tmp_path / "b.csv"))
        a = (tmp_path / "a.csv").read_bytes()
        assert a == (tmp_path / "b.csv").read_bytes()
        if z == 0.0:
            assert b",1e-300\n" in a


@pytest.mark.parametrize("z", [-0.1, 1.5, float("nan")])
def test_slice_outside_the_cube_is_refused_before_writing(tmp_path, z):
    field = NodalField(build_unit_cube(2), np.ones(27))
    with pytest.raises(ValueError, match="must lie in \\[0, 1\\]"):
        write_slice_csv(field, z, str(tmp_path / "slice.csv"))
    assert not (tmp_path / "slice.csv").exists()


@pytest.mark.parametrize("mesh", [build_unit_square(5), build_unit_cube(3)],
                         ids=["2d", "3d"])
def test_nodal_csv_is_byte_identical_to_the_csv_writer(tmp_path, mesh):
    field = NodalField(mesh, _values(mesh.num_vertices, 4))
    write_nodal_csv(field, str(tmp_path / "a.csv"))
    _write_nodal_csv_per_value(field, str(tmp_path / "b.csv"))
    a = (tmp_path / "a.csv").read_bytes()
    assert b",-0\r\n" in a and b",1e-300\r\n" in a
    assert a == (tmp_path / "b.csv").read_bytes()
