"""Walkthrough: reconstruct a Gaussian conductivity bump from interior data.

Runs the example1 benchmark (isotropic-in-plane family, Gaussian target
on background 1) at a desk-friendly resolution, prints the per-iteration
error/residual table, and writes the final iterate as VTK + CSV.

Usage: python demos/gaussian_reconstruction.py [n] [iterations]
"""

import os
import sys

from matmi.reconstruction import ReconConfig, reconstruct
from matmi.vtkio import write_nodal_csv, write_vtk


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 32
    iterations = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    config = ReconConfig(preset="example1", n=n, iterations=iterations)

    print("reconstructing the example1 target on an %d x %d grid" % (n, n))
    trace = reconstruct(config)

    print("\n iter   rel L2 error   data residual   ratio")
    ratios = trace.ratios()
    print("  init   %.6e   %.6e" % (trace.initial_error,
                                    trace.initial_residual))
    for k, (err, res, rho) in enumerate(zip(trace.error_l2,
                                            trace.data_residual, ratios)):
        print("  %3d    %.6e   %.6e   %.3f" % (k + 1, err, res, rho))

    print("\nerror reduction: %.4g -> %.4g (factor %.1f)"
          % (trace.initial_error, trace.final_error(),
             trace.initial_error / trace.final_error()))

    outdir = "demo_output"
    os.makedirs(outdir, exist_ok=True)
    final = trace.iterates[-1]
    write_vtk(final, os.path.join(outdir, "gaussian_final.vtk"))
    write_nodal_csv(final, os.path.join(outdir, "gaussian_final.csv"))
    print("final iterate written to %s/" % outdir)


if __name__ == "__main__":
    main()
