"""Reconstruction of the scalar parameter of an anisotropic conductivity
from interior magnetoacoustic data.

The package solves gamma from F = div(A(x, gamma) (E x B0)) with a known
matrix family A, known boundary trace of gamma, and B0 = (0, 0, 1); see
the README for the algorithm and the `matmi` command line.
"""

from .anisotropy import builtin, check_admissibility
from .fields import CellField, NodalField, interpolate_nodal
from .functional import (FunctionalData, load_functional_data,
                         save_functional_data, synthesize)
from .mesh import build_unit_cube, build_unit_square
from .presets import PRESET_NAMES, get_preset
from .reconstruction import (ConfigError, ReconConfig, ReconError,
                             ReconTrace, reconstruct)

__version__ = "0.1.0"

__all__ = [
    "builtin",
    "check_admissibility",
    "CellField",
    "NodalField",
    "interpolate_nodal",
    "FunctionalData",
    "synthesize",
    "save_functional_data",
    "load_functional_data",
    "build_unit_square",
    "build_unit_cube",
    "PRESET_NAMES",
    "get_preset",
    "ReconConfig",
    "ReconTrace",
    "ReconError",
    "ConfigError",
    "reconstruct",
    "__version__",
]
