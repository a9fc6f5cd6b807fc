"""The benchmark's workloads and the seeded inputs each cell solves.

A cell is one SQP solve: a benchmark system, a segment count N, a named
formulation, a BFGS variant and a KKT method, with the `SqpConfig`
defaults, horizon 5 and radius 1/4 of `falsify bench`.

Inputs come from the seed only through the system's symmetries.  Seed 0 is
the identity, so it rebuilds exactly the instance and initial guess of
`falsify bench`.  Any other seed maps the stock initial center and the
guess perturbation through an orthogonal map Q that commutes with the
dynamics (f(Qx) = Q f(x)), and takes the unsafe center as the flow of the
mapped initial center.  The solver then works on a different problem with
the same geometry.  Random shifts of the initial center are not used,
because a shift of 0.05 moved `wide-linear` from 23 to 51-123 iterations
per cell, which changes the work measured far more than the code does.

    benchmark2      rotation of the (x1, x2) plane by one seeded angle
    benchmark3(n)   a seeded rotation of each 2-block of the state
    benchmark1(n)   x -> -x, its only such map, on about half of the seeds
"""

import hashlib
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# Run the checkout's sources, never an installed copy of the package.
sys.path.insert(0, str(SRC))

import falsify  # noqa: E402
from falsify import integrate  # noqa: E402
from falsify.bench import make_system, perturbation  # noqa: E402
from falsify.formulation import Formulation  # noqa: E402
from falsify.shooting import Ellipsoid, ProblemInstance  # noqa: E402
from falsify.sqp import SqpConfig  # noqa: E402

if Path(falsify.__file__).resolve().parent != SRC / "falsify":
    raise ImportError(f"falsify was imported from {falsify.__file__}, not from {SRC}")

HORIZON = 5.0
RADIUS = 0.25
EPS4 = 1e-4


@dataclass(frozen=True)
class Cell:
    system: str
    dim: int
    n_segments: int
    formulation: str
    hessian: str
    kkt: str

    @property
    def name(self):
        return (
            f"{self.system}-n{self.dim}-N{self.n_segments}-{self.formulation}"
            f"-{self.hessian}-{self.kkt}"
        )

    def sqp_config(self):
        return SqpConfig(hessian_variant=self.hessian, kkt_method=self.kkt)


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple
    #: seed-0 shares of the traced pass time (`--trace 1`, 2-core x86 host,
    #: numpy path); seeds 1 and 2 stayed within 0.05 of each
    shares: dict = None


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's table on the nonlinear system.  Integration with
        # sensitivities dominates and there are ~1.15 trial evaluations per
        # iteration: a batched integrator or a cached iterate shows here.
        Workload(
            "nonlinear-table",
            tuple(
                Cell("benchmark2", 3, count, form, "full", "ppcg")
                for count in (5, 10, 20)
                for form in ("eq8", "eq9")
            ),
            dict(integrate=0.71, assembly=0.21, ppcg=0.05, direct=0.0,
                 line_search_self=0.003, hessian=0.002),
        ),
        # Wide KKT systems (m1=420, m2=382).  The dense direct solve dominates
        # its cell; the integrator takes few steps on a 420-wide augmented
        # state, where batching lanes gains least.
        Workload(
            "wide-linear",
            tuple(
                Cell("benchmark3", 20, 20, "eq8", "blockdiag", kkt)
                for kkt in ("ppcg", "direct")
            ),
            dict(integrate=0.29, assembly=0.21, ppcg=0.06, direct=0.43,
                 line_search_self=0.001, hessian=0.005),
        ),
        # ~1.9 trial evaluations per iteration, each integrated with full
        # sensitivities: flow-only trials or a step-length bound show here.
        Workload(
            "backtrack",
            (
                Cell("benchmark1", 4, 10, "eq5", "full", "ppcg"),
                Cell("benchmark2", 3, 10, "eq5", "full", "ppcg"),
                Cell("benchmark3", 4, 10, "eq5", "full", "ppcg"),
            ),
            dict(integrate=0.84, assembly=0.11, ppcg=0.03, direct=0.0,
                 line_search_self=0.003, hessian=0.001),
        ),
        # The smallest cell, for the benchmark's own test; not measured.
        Workload("smoke", (Cell("benchmark2", 3, 5, "eq8", "full", "ppcg"),)),
    )
}


def symmetry(system_name, dim, rng):
    """Orthogonal map commuting with the system's dynamics, drawn from ``rng``."""
    if system_name == "benchmark1":
        return -np.eye(dim) if rng.integers(2) else np.eye(dim)
    q = np.eye(dim)
    blocks = [(0, 1)] if system_name == "benchmark2" else [(i, i + 1) for i in range(0, dim, 2)]
    for i, j in blocks:
        angle = rng.uniform(0.0, 2.0 * np.pi)
        c, s = np.cos(angle), np.sin(angle)
        q[np.ix_([i, j], [i, j])] = [[c, s], [-s, c]]
    return q


@dataclass(frozen=True)
class Inputs:
    """Everything one cell hands to the library."""

    cell: Cell
    instance: ProblemInstance
    guess: object
    formulation: Formulation
    config: SqpConfig


def make_inputs(cell, seed, index):
    """Instance and initial guess of ``cell`` for ``seed``; ``index`` tells cells apart."""
    system = make_system(cell.system, cell.dim)
    n = system.dim
    if seed == 0:
        q = np.eye(n)
    else:
        q = symmetry(cell.system, n, np.random.default_rng([seed, index]))
    c_init = q @ np.ones(n)
    c_unsafe = integrate.flow(system, c_init, HORIZON)
    instance = ProblemInstance(
        system,
        Ellipsoid.ball(c_init, RADIUS),
        Ellipsoid.ball(c_unsafe, RADIUS),
        cell.n_segments,
    )
    guess = falsify.initial_guess(
        instance, cell.n_segments, HORIZON, u=q @ perturbation(n)
    )
    return Inputs(
        cell, instance, guess, Formulation.by_name(cell.formulation), cell.sqp_config()
    )


def workload_inputs(workload, seed):
    return [make_inputs(cell, seed, index) for index, cell in enumerate(workload.cells)]


def digest(inputs):
    """Hash of every array the cells hand to the library."""
    h = hashlib.sha256()
    for item in inputs:
        h.update(item.cell.name.encode())
        for array in (
            item.instance.init.center,
            item.instance.unsafe_set.center,
            item.guess.states,
            item.guess.times,
        ):
            h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()
