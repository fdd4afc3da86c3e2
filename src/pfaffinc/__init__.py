"""pfaffinc: incidence experiments with curves driven by polynomial vector fields.

The toolkit traces catalog curves from closed forms, verifies their vector
fields and chain structure numerically, builds randomized 1/r-cuttings,
counts point-curve incidences both directly and through the cutting, and
checks the coefficient-space duality that reduces family curves to
hyperplane incidences.
"""

__version__ = "0.1.0"

from .chains import (
    ChainLink,
    PfaffianChain,
    PfaffianFunction,
    extend_with_integral,
    order_and_degree,
    verify_chain,
)
from .curves import (
    BivariatePolynomial,
    CurveTrace,
    PfaffianCurve,
    PolyVectorField,
    apply_linear_transform,
    arctan_curve,
    check_separating_conditions,
    circle,
    compose_with_polynomial,
    eval_vector_field,
    exp_curve,
    exp_of_poly,
    line,
    log_curve,
    parabola,
    reciprocal_curve,
    reciprocal_root,
    tan_curve,
    trace_curve,
)
from .cutting import (
    Cutting,
    PfCell,
    build_cutting,
    decompose,
    locate_point,
    locate_points,
    sample_curves,
)
from .duality import (
    FamilyCurve,
    OriginHyperplane,
    PfaffianFamily,
    count_hyperplane_incidences,
    dual_hyperplane,
    dual_point,
    generic_rotation,
    project_to_pi,
    verify_duality_chain,
)
from .errors import (
    ChainMismatch,
    ComplexityGuard,
    CuttingFailed,
    DegenerateDual,
    DomainViolation,
    DuplicateCurve,
    EmptyTrace,
    InconsistentScene,
    NotComposable,
    NotUnivariateForm,
    PfaffincError,
    RotationFailed,
    SharedComponent,
    SingularMatrix,
)
from .generators import exp_transform, grid_lines, random_scene, unit_circles
from .incidence import (
    IncidenceBreakdown,
    IncidenceGraph,
    bound_hyperplanes,
    bound_kst,
    bound_kst_dual,
    bound_pach_sharir,
    bound_pfaffian_curves,
    bound_pfaffian_family,
    count_incidences,
    count_via_cutting,
    kst_free,
    optimal_r,
)
from .intersect import (
    check_bezout,
    intersect_curves,
    pfaffian_bezout_bound,
    vertical_tangent_points,
)
from .scene import Scene, load_scene, prerotate_scene, rotate_scene, save_scene
