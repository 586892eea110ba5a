"""Exact reconstruction and verification of the Frobenius potentials of
orbifold projective lines from the WDVV equations.

The public surface re-exports the geometry layer (multiplets, labels,
pairing), the coefficient store with its seed modes, the WDVV equations
and residual scan, the reconstruction solver with its WDVV extraction,
the theorem checks and the canonical file formats.  Each name is read
from the module that defines it, which is imported on first use, so
importing the package or one of its modules loads only what it needs.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# module -> the public names it defines, in the order of __all__.
_EXPORTS = {
    "geometry": (
        "Geometry",
        "Multiplet",
        "MultipletClass",
        "POINT",
        "Twisted",
        "UNIT",
        "build_geometry",
        "classify",
        "format_label",
    ),
    "rationals": ("QQ", "format_rational", "parse_rational"),
    "series": (
        "Potential",
        "STANDARD",
        "SeedMode",
        "SeriesKey",
        "VANISHING",
        "VANISHING_NO_QUARTIC",
        "admissible_keys",
        "alpha_from_pairs",
        "format_exponents",
        "format_key",
        "is_admissible",
        "pairing_entries",
        "rescaled_mode",
        "s_factor",
        "seed_entries",
        "weighted_degree",
        "zero_alpha",
    ),
    "wdvv": ("ResidualReport", "WdvvQuad", "admissible_targets", "residual_scan"),
    "reconstruct": (
        "InconsistentSeed",
        "NoProgress",
        "ReconstructionError",
        "ReconstructionTrace",
        "SolverStuck",
        "build_schedule",
        "exhaustive_candidates",
        "guided_candidates",
        "probe_candidate",
        "reconstruct",
        "rescale_novikov",
        "seed",
        "wdvv_coefficient",
    ),
    "verify": (
        "CheckReport",
        "LimitRing",
        "check_euler",
        "check_limit_product",
        "check_sector_universality",
        "check_seeds",
        "check_selection",
        "check_separation",
        "check_symmetry",
        "check_vanishing",
        "sector_restriction",
    ),
    "formats": (
        "diff_potentials",
        "parse_key_query",
        "parse_potential",
        "read_potential",
        "serialize_potential",
        "write_potential",
        "write_trace",
    ),
}
__all__ = [name for names in _EXPORTS.values() for name in names]
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


class _Package(types.ModuleType):
    """The package namespace: a public name is looked up in its module on
    each access, and a module name such as ``series`` gives the module."""

    def __getattr__(self, name):
        if name in _HOME:
            return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
        if name in _EXPORTS:
            return importlib.import_module(f"{__name__}.{name}")
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

    def __setattr__(self, name, value):
        # Loading the submodule orbifrob.reconstruct binds it here, over
        # the solver function of that name: drop that binding.
        if name in _HOME and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)

    def __dir__(self):
        return sorted({*super().__dir__(), *__all__})


sys.modules[__name__].__class__ = _Package
