"""Thread pinning, locating the library under test, and the environment
record that goes with every result.

Nothing here imports numpy at module level: ``pin_threads`` has to run
before the first numpy import for the pins to take effect.
"""

import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# One client on a small machine: BLAS and OpenMP get one thread each, so
# timings do not depend on how many cores the pool happens to grab.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


class MissingLibrary(RuntimeError):
    """The checkout holds no importable matmi under src/."""


def pin_threads(env=None):
    env = os.environ if env is None else env
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def child_env():
    """Environment for a fresh interpreter that imports matmi from src/."""
    env = pin_threads(dict(os.environ))
    env["PYTHONPATH"] = SRC
    return env


def import_matmi():
    """Import matmi from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "matmi", "__init__.py")):
        raise MissingLibrary("no matmi package under %s" % SRC)
    sys.path.insert(0, SRC)
    import matmi
    import matmi.fields
    import matmi.neumann
    import matmi.stability
    import matmi.transport
    where = os.path.dirname(os.path.abspath(matmi.__file__))
    if where != os.path.join(SRC, "matmi"):
        raise MissingLibrary("matmi imported from %s, not %s" % (where, SRC))
    return matmi


def describe():
    """nproc, thread pins, interpreter and library versions, BLAS."""
    import numpy
    import scipy

    def blas(config):
        dep = config.get("Build Dependencies", {}).get("blas", {})
        return "%s %s" % (dep.get("name", "?"), dep.get("version", "?"))

    return {
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "machine": platform.machine(),
    }
