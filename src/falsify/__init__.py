"""Find error trajectories of ODE systems by multiple shooting and SQP.

An error trajectory starts inside an initial ellipsoid and reaches an unsafe
ellipsoid.  The search is posed as a regularized equality-constrained
minimization over segment start states and durations, and solved with a
line-search SQP method whose KKT systems exploit the shooting structure.
"""

from .bench import (
    BenchRow,
    BenchSpec,
    VerifyResult,
    dump_trajectory,
    emit_csv,
    generate_instance,
    initial_guess,
    run_table,
    verify,
)
from .formulation import FORMULATION_NAMES, Formulation
from .hessian import HessianApprox, init_identity
from .integrate import (
    FlowResult,
    IntegrationFailure,
    IntegratorConfig,
    flow,
    flow_with_sensitivity,
)
from .kkt import KktSolution, SaddleSystem, solve_direct, solve_ppcg
from .shooting import (
    Ellipsoid,
    ProblemInstance,
    ShootingVector,
    evaluate_many,
    evaluate_segments,
    pack,
    unpack,
)
from .sqp import RunReport, SqpConfig, Termination, run
from .systems import OdeSystem, benchmark1, benchmark2, benchmark3

__version__ = "0.1.0"
