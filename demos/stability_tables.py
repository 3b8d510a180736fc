"""Walkthrough: empirical stability constants under mesh refinement.

The reconstruction rests on two Lipschitz-type stability properties
whose continuum constants are out of numerical reach.  This demo
measures their empirical counterparts: for a set of smooth
boundary-vanishing perturbations delta it tabulates

  C_emp  = ||delta|| / ||F(gamma + delta) - F(gamma)||   (data stability)
  L_emp  = ||E(gamma + delta) - E(gamma)|| / ||delta||   (field Lipschitz)

on two mesh resolutions and reports how much each ratio drifts under
refinement.  Stable ratios indicate that the measured constants reflect
the underlying operators rather than discretization noise.

Usage: python demos/stability_tables.py [count]
"""

import sys

import numpy as np

from matmi.anisotropy import builtin
from matmi.fields import NodalField, interpolate_nodal
from matmi.mesh import build_unit_square
from matmi.stability import (field_difference_sweep, smooth_perturbations,
                             stability_sweep)


def main():
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    fam = builtin("D1").with_t_range(0.25, 4.0)
    perts = smooth_perturbations(count, seed=11, amplitude=0.05)

    tables = {}
    for n in (32, 64):
        mesh = build_unit_square(n)
        base = NodalField(mesh, np.ones(mesh.num_vertices))
        fields = [interpolate_nodal(mesh, f) for f in perts]
        rep = stability_sweep(fam, base, fields, mesh=mesh)
        pairs = [(NodalField(mesh, base.values + f.values), base)
                 for f in fields]
        frep = field_difference_sweep(fam, pairs, mesh)
        tables[n] = (rep, frep)

    print(" pair      C_emp(n=32)  C_emp(n=64)   drift    L_emp(n=64)")
    r32 = tables[32][0]
    r64, f64 = tables[64]
    field64 = {r["pair"]: r["C_emp"] for r in f64.rows}
    for a, b in r32.common_rows(r64):
        drift = abs(a["C_emp"] - b["C_emp"]) / a["C_emp"]
        print(" %-8s  %10.4f  %10.4f   %5.1f%%   %10.4f"
              % (a["pair"], a["C_emp"], b["C_emp"], 100 * drift,
                 field64[a["pair"]]))
    print("\nheadline constants at n=64: max C_emp = %.4f, max L_emp = %.4f"
          % (r64.max_ratio(), f64.max_ratio()))


if __name__ == "__main__":
    main()
