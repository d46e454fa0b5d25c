"""grs: residual verification for geometric field equations.

Field equations are expressed as a bilinear pairing of a differential
image with the field itself; each named condition compiles to labeled
residual expressions that are evaluated over sample sets and reduced to
norms.
"""

from .errors import (
    DegenerateFormError,
    DegreeError,
    DimensionError,
    DomainError,
    EmptySampleSet,
    EvalSingularity,
    GrsError,
    MissingParameter,
    NonIdempotentProjection,
    NotALieAlgebra,
    ParameterError,
    SingularMetricError,
    StepError,
    UnknownEntry,
    VarianceError,
)
from .scalar import (
    Expr,
    SampleSet,
    ZERO,
    as_expr,
    bump,
    const,
    coord,
    cos,
    exp,
    fd_diff,
    is_zero,
    sin,
    sqrt,
)
from .exterior import (
    CONTRA,
    COV,
    AlternatingTensor,
    Chart,
    MetricSpec,
    form,
    hodge,
    interior,
    multivector,
    musical_tilde,
    sort_sign,
    volume_form,
    wedge,
)
from .valued import (
    LieStructure,
    PhiMap,
    ValueSpace,
    ValuedForm,
    abelian,
    su2,
)
from .diffops import (
    christoffels_from_metric,
    covariant_D,
    curvature,
    d_form,
    dirac_representation,
    dirac_residual,
    exterior_d,
    geodesic_integrate,
    lie_bracket,
    nabla_X,
    projected_lie,
    ricci,
    riemann,
    schrodinger_residual,
)
from .engine import DEFAULT_TOL, GrCondition, ResidualReport, verify
from .catalog import (
    Fixture,
    build,
    catalog_ids,
    fixtures,
    get_entry,
    minkowski,
    schwarzschild_chart,
    sphere_chart,
)

__version__ = "0.1.0"
