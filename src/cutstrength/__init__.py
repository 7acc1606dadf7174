"""Exact toolkit for planar lattice-free bodies: classification, lattice
width, cut strength against split-closure approximations, and closed-form
probability lower bounds with Monte Carlo verification.

The namespace is lazy (PEP 562): each public name is imported from the
module that defines it on its first read, and then kept here, so that
``import cutstrength`` loads no submodule and a command loads only the
modules it runs.  A submodule's name reads as the submodule.
"""

from importlib import import_module

# each module and the public names that it defines
_NAMES = {
    "geometry": (
        "LatticeFreeBody", "QuadBody", "Rational2", "SplitBody", "Type1Body", "Type2Body", "Type3Body",
        "area", "lattice_width", "point",
    ),
    "lattice": ("BodyClass", "UnimodularMap", "canonicalize", "classify"),
    "cuts": (
        "RegionId", "SplitCut", "StrengthReport", "admissible_normals", "chosen_split", "corner_rays",
        "covering_lp_min", "region_of", "split_coefficients", "strength_report", "strength_single_split",
        "strength_split_closure_approx",
    ),
    "bounds": (
        "PiecewiseBound", "bound_for", "piecewise_bound_for", "quad_bound", "quad_lower", "t1_bound", "t2_bound",
        "t3_bound", "t3_lower",
    ),
    "montecarlo": ("McEstimate", "monte_carlo_lower", "thread_count"),
    "sweeps": ("DEFAULT_STEP", "FAMILIES", "GridRow", "sweep_grid"),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _NAMES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
