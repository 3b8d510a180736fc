"""Per-vertex artifacts: legacy ASCII VTK for triangle and tetrahedron
meshes, the nodal CSV and the 3D slice CSV.  Every block is formatted by
one % over a row template repeated once per row (`_block`); numbers are
written with %.17g, so repeated runs produce byte-identical files."""

import numpy as np

__all__ = ["write_vtk", "write_nodal_csv", "write_slice_csv"]

_CELL_TYPE = {2: 5, 3: 10}        # VTK_TRIANGLE, VTK_TETRA


def write_vtk(field, path):
    """Write a nodal field as an unstructured-grid VTK file of its mesh,
    with the field's values as the point scalars `gamma`."""
    mesh = field.mesh
    nloc = mesh.dim + 1
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\nmatmi\nASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write("POINTS %d double\n" % mesh.num_vertices)
        pts = np.zeros((mesh.num_vertices, 3))
        pts[:, :mesh.dim] = mesh.vertices
        fh.write(_block("%.17g %.17g %.17g\n", pts))
        fh.write("CELLS %d %d\n" % (mesh.num_cells,
                                    mesh.num_cells * (nloc + 1)))
        fh.write(_block("%d" + " %d" * nloc + "\n", np.column_stack(
            [np.full(mesh.num_cells, nloc), mesh.cells])))
        fh.write("CELL_TYPES %d\n" % mesh.num_cells)
        fh.write(("%d\n" % _CELL_TYPE[mesh.dim]) * mesh.num_cells)
        fh.write("POINT_DATA %d\n" % mesh.num_vertices)
        fh.write("SCALARS gamma double 1\nLOOKUP_TABLE default\n")
        fh.write(_block("%.17g\n", field.values))


def _block(row, values):
    """`row`, one line's template, formatted once per row of `values`
    (once per entry of a 1D array) by a single %."""
    values = np.asarray(values)
    return (row * len(values)) % tuple(values.ravel().tolist())


def write_nodal_csv(field, path):
    """CSV of vertex coordinates and nodal values, for plotting, with
    the \\r\\n line ends of a `csv.writer`."""
    mesh = field.mesh
    with open(path, "w", newline="") as fh:
        fh.write(",".join("xyz"[:mesh.dim]) + ",value\r\n")
        fh.write(_block(",".join(["%.17g"] * (mesh.dim + 1)) + "\r\n",
                        np.column_stack([mesh.vertices, field.values])))


def write_slice_csv(field, z, path):
    """Sample a 3D nodal field on the plane of constant z, 0 <= z <= 1,
    and write a CSV with columns x, y, value on the (n+1)^2 grid of the
    mesh's vertical edges.  Each vertical grid edge is an edge of the
    mesh, along which the P1 field is linear: its value at height z is
    interpolated between the edge's two vertices, and on a grid plane
    it is that plane's nodal value."""
    mesh = field.mesh
    if mesh.dim != 3:
        raise ValueError("slice export requires a 3D mesh")
    z = float(z)
    if not 0.0 <= z <= 1.0:
        raise ValueError("slice level z must lie in [0, 1], got %r" % z)
    n = mesh.n
    k = min(int(z * n), n - 1)
    theta = z * n - k
    g = mesh.grid_view(field.values)
    vals = (1.0 - theta) * g[:, :, k] + theta * g[:, :, k + 1]
    ticks = np.linspace(0.0, 1.0, n + 1)
    xs, ys = np.meshgrid(ticks, ticks, indexing="ij")
    with open(path, "w", newline="") as fh:
        fh.write("x,y,value\n")
        fh.write(_block("%.17g,%.17g,%.17g\n",
                        np.column_stack([xs.ravel(), ys.ravel(),
                                         vals.ravel()])))
