"""Numerical laboratory for training dynamics of deep linear networks."""

from types import ModuleType as _ModuleType

from .errors import (
    ConfigError,
    DeeplinError,
    NoRealRootError,
    NumericError,
    SingularInputError,
)
from .factor import FactorizationResult, balanced_factorization
from .lab import (
    ScenarioConfig,
    ScenarioReport,
    TargetSpec,
    gamma_margin,
    load_scenario,
    make_target,
    random_orthogonal,
    read_matrix_csv,
    run_scenario,
    scenario_from_dict,
    sweep,
    verify_all,
    write_matrix_csv,
    write_trace_csv,
)
from .matcore import (
    op_norm,
    singular_values,
    skew,
    sym,
)
from .network import (
    DeepLinearNet,
    full_gradient,
    full_hessian,
    hessian_frob_norm,
    loss,
)
from .project import (
    IdentityBall,
    project_gamma_positive,
    project_identity_ball,
)
from .trainers import (
    StepSchedule,
    TrainerConfig,
    TrainingTrace,
    run_gd,
    run_penalty_gd,
    run_power_projection,
    run_step_and_project,
    step_size_power_projection,
    step_size_symmetric_target,
)
from .verify import (
    CheckReport,
    check_commuting_normal,
    check_gradient_lower_bound,
    check_hessian_upper_bound,
    eigen_recurrence_check,
    fd_gradient_check,
    fd_hessian_check,
    simulate_scalar_recurrence,
    trace_recurrence_check,
)

__version__ = "0.1.0"

# the public names are those imported above: no module, no underscore name
__all__ = sorted(
    name for name, obj in globals().items()
    if not (name.startswith("_") or isinstance(obj, _ModuleType))
)
