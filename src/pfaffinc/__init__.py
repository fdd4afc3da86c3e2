"""pfaffinc: incidence experiments with curves driven by polynomial vector fields.

The toolkit traces catalog curves from closed forms, verifies their vector
fields and chain structure numerically, builds randomized 1/r-cuttings,
counts point-curve incidences both directly and through the cutting, and
checks the coefficient-space duality that reduces family curves to
hyperplane incidences.

`import pfaffinc` runs only this file: each submodule, and each name below,
loads its module on first access (PEP 562).
"""

__version__ = "0.1.0"

_EXPORTS = {  # submodule -> the public names it gives the package
    "chains": ("ChainLink", "PfaffianChain", "PfaffianFunction", "extend_with_integral",
               "order_and_degree", "verify_chain"),
    "cli": (),
    "curves": ("BivariatePolynomial", "CurveTrace", "PfaffianCurve", "PolyVectorField",
               "apply_linear_transform", "arctan_curve", "check_separating_conditions", "circle",
               "compose_with_polynomial", "eval_vector_field", "exp_curve", "exp_of_poly", "line",
               "log_curve", "parabola", "reciprocal_curve", "reciprocal_root", "tan_curve",
               "trace_curve"),
    "cutting": ("Cutting", "PfCell", "build_cutting", "decompose", "locate_point",
                "locate_points", "sample_curves"),
    "duality": ("FamilyCurve", "OriginHyperplane", "PfaffianFamily", "count_hyperplane_incidences",
                "dual_hyperplane", "dual_point", "generic_rotation", "project_to_pi",
                "verify_duality_chain"),
    "errors": ("ChainMismatch", "ComplexityGuard", "CuttingFailed", "DegenerateDual",
               "DomainViolation", "DuplicateCurve", "EmptyTrace", "InconsistentScene",
               "NotComposable", "NotUnivariateForm", "PfaffincError", "RotationFailed",
               "SharedComponent", "SingularMatrix"),
    "generators": ("exp_transform", "grid_lines", "random_scene", "unit_circles"),
    "incidence": ("IncidenceBreakdown", "IncidenceGraph", "bound_hyperplanes", "bound_kst",
                  "bound_kst_dual", "bound_pach_sharir", "bound_pfaffian_curves",
                  "bound_pfaffian_family", "count_incidences", "count_via_cutting", "kst_free",
                  "optimal_r"),
    "intersect": ("check_bezout", "intersect_curves", "pfaffian_bezout_bound",
                  "vertical_tangent_points"),
    "poly": (),
    "render": (),
    "scene": ("Scene", "load_scene", "prerotate_scene", "rotate_scene", "save_scene"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_OWNER)


def _submodule(name):
    # importing a submodule binds it here; unlike importlib.import_module,
    # __import__ shows in `python -X importtime`
    __import__(f"{__name__}.{name}")
    return globals()[name]


def __getattr__(name):
    if name in _EXPORTS:
        return _submodule(name)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_submodule(_OWNER[name]), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
