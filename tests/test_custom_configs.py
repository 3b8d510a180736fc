"""`matmi run --config` on custom configs: any family, dimension, small
resolution, iteration count and update mode, with data written by
save_functional_data, clean or with additive noise, ends with exit code
0 or 2 and no traceback; a successful run writes one trace row per
iteration and prints exactly one line naming how the outer loop ended,
and an adaptive one never raises the data residual."""

import contextlib
import io
import pathlib
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from matmi.anisotropy import BUILTIN_NAMES, builtin
from matmi.cli import main
from matmi.fields import NodalField, l2_norm_nodal
from matmi.functional import FunctionalData, save_functional_data, synthesize
from matmi.mesh import build_unit_cube, build_unit_square

ENDINGS = ("converged:", "stopped without lowering the residual:",
           "stalled:", "outer loop not converged:")


def _target(amplitude):
    """A smooth bump with boundary trace 1, the default boundary_value."""
    return lambda p: 1.0 + amplitude * np.prod(np.sin(np.pi * p), axis=1)


def _with_noise(data, level):
    """data with Gaussian noise (fixed seed) of level times its L2 norm
    added to the nodal projection, and the weak form that matches it."""
    mesh, clean = data.mesh, data.nodal_projection.values
    e = np.random.default_rng(0).standard_normal(clean.size)
    noisy = clean + (level * l2_norm_nodal(mesh, clean)
                     / l2_norm_nodal(mesh, e)) * e
    return FunctionalData(mesh, mesh.mass @ noisy, NodalField(mesh, noisy),
                          data.source_mesh_resolution)


@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(family=st.sampled_from(BUILTIN_NAMES), dim=st.sampled_from((2, 3)),
       n=st.integers(2, 6), iterations=st.integers(1, 3),
       adaptive=st.booleans(), refine=st.sampled_from((1, 2)),
       amplitude=st.floats(0.05, 0.5),
       noise=st.sampled_from((0.0, 0.01, 0.1, 1.0)))
def test_custom_config_runs_end_cleanly(family, dim, n, iterations, adaptive,
                                        refine, amplitude, noise):
    mesh = (build_unit_square if dim == 2 else build_unit_cube)(n)
    fam = builtin(family)
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        data = synthesize(fam, _target(amplitude), mesh, refine=refine)
        save_functional_data(_with_noise(data, noise),
                             str(root / "data.bin"))
        (root / "case.txt").write_text(
            "family = %s\ndim = %d\nn = %d\niterations = %d\n"
            "picard.adaptive = %s\ndata = %s\n"
            % (family, dim, n, iterations, str(adaptive).lower(),
               root / "data.bin"))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", "--config", str(root / "case.txt"),
                         "--out", str(root / "out")])
        printed = out.getvalue() + err.getvalue()
        assert code in (0, 2), printed
        assert "Traceback" not in printed
        if code == 0:
            rows = (root / "out" / "case" / "trace.csv").read_text()
            assert len(rows.splitlines()) == iterations + 1   # and a header
            endings = [line for line in out.getvalue().splitlines()
                       if line.startswith(ENDINGS)]
            assert len(endings) == 1, printed
            if adaptive:
                residual = np.loadtxt(rows.splitlines(), delimiter=",",
                                      skiprows=1, usecols=2, ndmin=1)
                assert (np.diff(residual) <= 0).all(), rows
