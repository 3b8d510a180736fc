"""The six benchmark reconstruction experiments.

Each preset bundles a conductivity family, a closed-form target
parameter gamma*, and desk-scale defaults (mesh resolution, iteration
count, parameter range).  Presets 1-5 are 2D on the unit square;
preset 6 is 3D on the unit cube with a spherical inclusion.
"""

import numpy as np

from .anisotropy import builtin

__all__ = ["ExperimentPreset", "PRESETS", "PRESET_NAMES", "get_preset",
           "SLICE_LEVELS"]

# z-levels at which 3D reconstructions are exported as planar slices
SLICE_LEVELS = (0.0, 0.282, 0.513, 0.718, 0.897)


def _gaussian_bump(p):
    """Single Gaussian bump on background 1, centered at (0.5, 0.5)."""
    return np.exp(-(p[:, 0] - 0.5) ** 2 / 0.02
                  - (p[:, 1] - 0.5) ** 2 / 0.02) + 1.0


def _two_gaussians(p):
    """Sum of two Gaussian bumps on background 0."""
    return (np.exp(-(p[:, 0] - 0.65) ** 2 / 0.02
                   - (p[:, 1] - 0.65) ** 2 / 0.02)
            + 0.5 * np.exp(-(p[:, 0] - 0.25) ** 2 / 0.05
                           - (p[:, 1] - 0.25) ** 2 / 0.05))


def _cosine_rings(p):
    """Oscillatory radial rings damped by a wide Gaussian envelope."""
    r2x = (p[:, 0] - 0.5) ** 2
    r2y = (p[:, 1] - 0.5) ** 2
    return (np.cos(75.0 * r2x + 75.0 * r2y)
            * np.exp(-r2x / 2.0 - r2y / 2.0) + 1.0)


def _tent_profile(p):
    """Piecewise-affine ridge in x: 1 outside [0.3, 0.7], peak 2 at 0.5."""
    x = p[:, 0]
    return np.where((x >= 0.3) & (x <= 0.5), 1.0 + 5.0 * (x - 0.3),
                    np.where((x > 0.5) & (x <= 0.7),
                             2.0 - 5.0 * (x - 0.5), 1.0))


def _sine_product(p):
    """Product of four sine factors on background 1."""
    return (np.sin(10.0 * p[:, 0]) * np.sin(5.0 * p[:, 1])
            * np.sin(7.0 * (1.0 - p[:, 0])) * np.sin(p[:, 1] - 1.0) + 1.0)


def _spherical_inclusion(p):
    """Piecewise constant: 2 inside the ball of squared radius 0.4
    around (0.5, 0.5, 0.5), 1 outside."""
    r2 = ((p[:, 0] - 0.5) ** 2 + (p[:, 1] - 0.5) ** 2
          + (p[:, 2] - 0.5) ** 2)
    return np.where(r2 <= 0.4, 2.0, 1.0)


class ExperimentPreset:
    """A named reconstruction benchmark with its defaults."""

    def __init__(self, name, family_name, gamma_star, resolution, iterations,
                 lam, t_range, dim=2, description="",
                 config_defaults=None):
        self.name = name
        self.family_name = family_name
        self.gamma_star = gamma_star
        self.resolution = int(resolution)
        self.iterations = int(iterations)
        self.lam = float(lam)
        self.t_range = (float(t_range[0]), float(t_range[1]))
        self.dim = int(dim)
        self.description = description
        self.config_defaults = dict(config_defaults or {})

    def family(self):
        """The conductivity family with this preset's parameter range."""
        return builtin(self.family_name).with_t_range(*self.t_range)


PRESETS = {
    "example1": ExperimentPreset(
        "example1", "D1", _gaussian_bump, 48, 10, 4.0, (0.5, 2.5),
        description="isotropic in-plane, Gaussian bump target"),
    "example2": ExperimentPreset(
        "example2", "D2", _two_gaussians, 48, 10, 100.0, (-0.5, 1.6),
        description="quadratic diagonal, two-Gaussian target",
        config_defaults={"picard.adaptive": False, "picard.alpha": 4e-3}),
    "example3": ExperimentPreset(
        "example3", "D3", _cosine_rings, 64, 10, 100.0, (-0.5, 2.5),
        description="nonlinear off-diagonal, oscillatory ring target"),
    "example4": ExperimentPreset(
        "example4", "D4", _tent_profile, 48, 10, 4.0, (0.5, 2.5),
        description="rational off-diagonal, piecewise-affine target"),
    "example5": ExperimentPreset(
        "example5", "D5", _sine_product, 48, 10, 100.0, (-0.5, 2.4),
        description="spatially varying off-diagonal, sine-product target"),
    "example6": ExperimentPreset(
        "example6", "D6", _spherical_inclusion, 16, 10, 4.0, (0.5, 2.5),
        dim=3,
        description="3D spatially varying family, spherical inclusion",
        config_defaults={"picard.adaptive": False}),
}

PRESET_NAMES = tuple(sorted(PRESETS))


def get_preset(name):
    if name not in PRESETS:
        raise KeyError("unknown preset %r; choose from %s"
                       % (name, ", ".join(PRESET_NAMES)))
    return PRESETS[name]
