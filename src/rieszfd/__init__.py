"""Finite-difference solver for one-dimensional skewed space-fractional diffusion.

Solves dC/dt = K * D_theta^alpha C on a bounded interval with Dirichlet
boundaries, where D_theta^alpha is the Riesz-Feller operator of order
0 < alpha <= 2 (alpha != 1) and skewness |theta| <= min(alpha, 2-alpha).
The discretization uses closed-form stencil weights that remain finite
across the whole order range, boundary tail sums that carry the Dirichlet
values into every interior node, and a sigma-weighted explicit/implicit
time stepper.  The dense reference system, the independent oracles and
the other cross-check helpers are imported from their modules
(``rieszfd.schemes``, ``rieszfd.linalg``, ``rieszfd.oracles``, ...).

Typical use::

    from rieszfd import (
        BoundarySpec, DtPolicy, InitialCondition, SchemeConfig,
        SimulationConfig, build_grid, run, validate_params,
    )

    config = SimulationConfig(
        grid=build_grid(-10.0, 10.0, 1000),
        scheme=SchemeConfig(params=validate_params(1.5, 0.0), k_alpha=1.0),
        initial=InitialCondition.delta(),
        t_end=1.0,
        snapshot_times=(1.0,),
        dt_policy=DtPolicy.auto(0.9),
    )
    series = run(config)
"""

from ._version import __version__
from .errors import ConfigInvalid, NoSuchSnapshot, SingularMatrix, ValidationError
from .grid import (
    BoundarySpec,
    FieldState,
    Grid1D,
    InitialCondition,
    build_grid,
    mass,
)
from .kernel import (
    FractionalParams,
    TailSums,
    WeightTable,
    validate_params,
    weight,
    weight_table,
)
from .oracles import AnalyticKernel, convergence_study
from .schemes import SchemeConfig, implicit_step, max_stable_dt
from .simulate import (
    DtPolicy,
    SimulationConfig,
    SnapshotSeries,
    config_hash,
    run,
    snapshot_error,
)

__all__ = [
    "__version__",
    "AnalyticKernel",
    "BoundarySpec",
    "ConfigInvalid",
    "DtPolicy",
    "FieldState",
    "FractionalParams",
    "Grid1D",
    "InitialCondition",
    "NoSuchSnapshot",
    "SchemeConfig",
    "SimulationConfig",
    "SingularMatrix",
    "SnapshotSeries",
    "TailSums",
    "ValidationError",
    "WeightTable",
    "build_grid",
    "config_hash",
    "convergence_study",
    "implicit_step",
    "mass",
    "max_stable_dt",
    "run",
    "snapshot_error",
    "validate_params",
    "weight",
    "weight_table",
]
