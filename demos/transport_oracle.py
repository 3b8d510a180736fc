"""Walkthrough: the two building blocks of the conductivity update step.

Part 1 checks the upwind DG0 transport solver against a problem with a
known exact solution: a uniform advective field w = (1, 0) with unit
source and inflow trace x recovers gamma = x up to O(h).

Part 2 cross-checks the hand-expanded coefficient fields of the
nonlinear families (D2, D3, D4) against the generic product-rule
expansion of div(A(x, gamma) w); the two routes must agree to machine
precision on every cell.

Usage: python demos/transport_oracle.py
"""

import numpy as np

from matmi import oracles
from matmi.anisotropy import builtin
from matmi.fields import CellField, NodalField, interpolate_nodal
from matmi.mesh import build_unit_square
from matmi.neumann import solve_field


def oracle_study():
    print("DG0 upwind oracle (w = (1,0), F = 1, exact solution gamma = x)")
    fam = builtin("D1").with_t_range(-1.0, 3.0)
    for n in (16, 32, 64, 128):
        mesh = build_unit_square(n)
        E = CellField(mesh, np.tile([0.0, 1.0, 0.0], (mesh.num_cells, 1)))

        class Data:
            dg0_weak = mesh.cell_volumes.copy()

        ones = NodalField(mesh, np.ones(mesh.num_vertices))
        prob = oracles.TransportProblem(mesh, fam, E, Data(),
                                        lambda p: p[:, 0], gamma_ref=ones)
        sol = oracles.solve_linear_dg(prob)
        err = np.abs(sol.values - mesh.cell_centroids[:, 0]).max()
        print("  n = %4d : max centroid error %.3e (bound %.3e)"
              % (n, err, 2.0 / n))


def coefficient_cross_check():
    print("\ncoefficient cross-check: hand-expanded vs product rule")
    mesh = build_unit_square(24)
    gs = interpolate_nodal(
        mesh, lambda p: 1.0 + 0.3 * np.sin(3 * p[:, 0]) * np.cos(2 * p[:, 1]))
    for name in ("D2", "D3", "D4"):
        fam = builtin(name).with_t_range(-5.0, 5.0)
        _, E = solve_field(mesh, fam, gs)
        co = oracles.expand_coefficients(fam, E, mesh)
        gc, gg = gs.cell_means(), gs.cell_gradients()
        hand = oracles.closed_form_divergence(name, co.closed_form, gc, gg)
        diff = np.abs(co.divergence(gc, gg) - hand).max()
        print("  %s : max per-cell deviation %.3e" % (name, diff))


if __name__ == "__main__":
    oracle_study()
    coefficient_cross_check()
