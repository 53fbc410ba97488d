"""Numerical laboratory for mean curvature flow in high codimension."""

__version__ = "0.1.0"

from .curvature import (  # noqa: F401
    AdaptedSplit,
    CurvatureOperator,
    CurvatureScalars,
    NormalCurvature,
    PinchSpec,
    PointCurvature,
    adapted_split,
    cn,
    gauss_operator,
    normal_curvature,
    pinch_Q,
    pinching_pair_identity,
    reaction_estimate_gap,
    reaction_terms,
    scalars,
    traceless,
)
from .errors import CapExtinctError, DegenerateGeometryError, MinimalPointError  # noqa: F401
from .flow import (  # noqa: F401
    DiagnosticsRecord,
    FlowConfig,
    RescaleResult,
    Trajectory,
    blowup_type2,
    cfl_dt,
    classify_type,
    diagnostics,
    fit_area_decay,
    fsigma_integral,
    rescale_type1,
    run,
    step,
)
from .grid import ParamGrid  # noqa: F401
from .immersion import (  # noqa: F401
    DiscreteImmersion,
    PointGeometry,
    covariant_gradients,
    gauss_curvature,
    geometry_fields,
    integrate,
    jacobian_metric,
    load_snapshot,
    normal_frame,
    save_snapshot,
    scalar_fields,
    second_fundamental_form,
)
from .solutions import (  # noqa: F401
    SolutionSpec,
    cap_extinction_time,
    cap_radius,
    cylinder_law,
    seed_immersion,
    sphere_law,
    veronese_chart,
    veronese_law,
)
from .sphere import (  # noqa: F401
    SphereAmbient,
    SphereAux,
    aux_f,
    decay_bound,
    gradient_coefficient,
    term_I_bound_check,
    term_II,
    term_II_case1_check,
)
