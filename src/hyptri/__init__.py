"""Triangle trigonometry on the hyperbolic plane, internal-bisector
geometry, and numerical verification that equal bisectors force an
isosceles triangle.

Names resolve on first use (PEP 562): ``import hyptri`` loads no submodule,
and ``hyptri.X`` imports the submodule that defines ``X`` once, then keeps
``X`` in this namespace. ``_SUBMODULE`` below is the one list of public
names: each submodule's ``__all__`` is read from it."""

from importlib import import_module as _import_module

# public name -> defining submodule; a submodule maps to itself
_SUBMODULE = {
    name: module
    for module, names in {
        "core": (
            "DEFAULT_TOL",
            "DomainCap",
            "HypTriError",
            "InvalidInput",
            "InvalidPoint",
            "InvalidTriangle",
            "NoBracket",
            "NonConvergence",
            "NumericalFailure",
            "ToleranceConfig",
            "Triangle",
            "TriangleAngles",
            "TriangleSides",
            "defect",
            "law_of_cosines_residual",
            "law_of_sines_residual",
            "solve_from_angles",
            "solve_from_asa",
            "solve_from_sas",
            "solve_from_sss",
        ),
        "cevian": (
            "BisectorData",
            "CevianResiduals",
            "RatioResiduals",
            "bisector_lengths",
            "subtriangle_residuals",
            "unconditional_identities",
        ),
        "diskmodel": (
            "DiskPoint",
            "GeodesicArc",
            "disk_angle",
            "disk_distance",
            "embed_triangle",
            "geodesic_arc",
            "point_toward",
            "render_svg",
            "svg_document",
        ),
        "rng": ("SplitMix64",),
        "steiner_lehmus": (
            "SCAN_TOL",
            "EqualBisectorSolve",
            "EqualityStudy",
            "MonotonicityResult",
            "ProofTrace",
            "ScanReport",
            "check_monotonicity",
            "equal_bisector_report",
            "equality_study",
            "proof_trace",
            "sample_angles",
            "scan_random",
        ),
    }.items()
    for name in (module, *names)
}

__all__ = sorted(_SUBMODULE)

__version__ = "0.1.0"


def _public_names(module):
    """The ``__all__`` of submodule ``module`` (its ``__name__``): the names
    whose home it is, in table order."""
    home = module.rpartition(".")[2]
    return [name for name, owner in _SUBMODULE.items() if owner == home != name]


def __getattr__(name):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = _import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*__all__, *(n for n in globals() if n.startswith("__"))})
