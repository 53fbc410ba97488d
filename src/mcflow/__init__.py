"""Numerical laboratory for mean curvature flow in high codimension.  A
``Trajectory`` is a run's records; a rescaling reads its snapshots by index."""

__version__ = "0.1.0"

from .curvature import cn  # noqa: F401
from .errors import CapExtinctError, DegenerateGeometryError, MinimalPointError  # noqa: F401
from .flow import (  # noqa: F401
    DiagnosticsRecord,
    FlowConfig,
    Trajectory,
    blowup_type2,
    cfl_dt,
    classify_type,
    diagnostics,
    fit_area_decay,
    fsigma_integral,
    rescale_type1,
    step,
)
from .grid import ParamGrid  # noqa: F401
from .immersion import (  # noqa: F401
    DiscreteImmersion,
    geometry_fields,
    integrate,
    load_snapshot,
    normal_frame,
    save_snapshot,
    scalar_fields,
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
    decay_bound,
    gradient_coefficient,
    term_I_bound_check,
)
