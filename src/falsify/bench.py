"""Benchmark methodology: build instances by simulation, solve, verify, tabulate.

An instance is manufactured so that an error trajectory certainly exists:
pick a center c_I, simulate the system for the horizon T to get c_U, and
surround both points with balls of radius 1/4.  The initial guess splits
the center trajectory into N equal-length segments and perturbs every
segment start by a fixed vector u.  After the solver finishes, the
candidate is checked by one long re-simulation from its first state; rows
whose candidate fails any check are flagged "F" in the result table.
"""

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .formulation import Formulation
from .integrate import DEFAULT_CONFIG, IntegrationFailure
from .shooting import Ellipsoid, ProblemInstance, ShootingVector
from .sqp import RunReport, SqpConfig, Termination, run
from .systems import benchmark1, benchmark2, benchmark3
from . import integrate

__all__ = [
    "SYSTEM_NAMES",
    "BenchSpec",
    "BenchRow",
    "VerifyResult",
    "perturbation",
    "generate_instance",
    "initial_guess",
    "verify",
    "run_table",
    "emit_csv",
    "dump_trajectory",
]

SYSTEM_NAMES = ("benchmark1", "benchmark2", "benchmark3")

_STATUS_DIGIT = {
    Termination.S1_CONVERGED: "1",
    Termination.S2_MAXIT: "2",
    Termination.S3_STEP_TOO_SMALL: "3",
}


def make_system(name, dim):
    """Benchmark system by name; ``dim`` is ignored for the fixed-size one."""
    if name == "benchmark1":
        return benchmark1(dim)
    if name == "benchmark2":
        if dim not in (None, 3):
            raise ValueError("benchmark2 is a fixed three-state system")
        return benchmark2()
    if name == "benchmark3":
        return benchmark3(dim)
    raise ValueError(f"unknown system {name!r}; expected one of {SYSTEM_NAMES}")


@dataclass(frozen=True)
class BenchSpec:
    """One benchmark sweep: a system family crossed with segment counts."""

    system: str
    dims: tuple
    segment_counts: tuple
    formulation: Formulation
    hessian_variant: str = "full"
    kkt_method: str = "ppcg"
    horizon: float = 5.0
    radius: float = 0.25
    eps4: float = 1e-4
    max_iter: int = 400

    def __post_init__(self):
        if self.system not in SYSTEM_NAMES:
            raise ValueError(f"unknown system {self.system!r}")
        if self.radius <= 0 or self.horizon <= 0:
            raise ValueError("radius and horizon must be positive")
        if self.eps4 <= 0:
            raise ValueError("eps4 must be positive")

    def sqp_config(self):
        return SqpConfig(
            hessian_variant=self.hessian_variant,
            kkt_method=self.kkt_method,
            max_iter=self.max_iter,
        )


@dataclass(frozen=True)
class BenchRow:
    """One table cell: problem size, iterations used, and the status flag.

    ``status`` is the stopping-criterion digit ("1"/"2"/"3"), overridden by
    "F" whenever verification fails; ``reasons`` records why.
    """

    n: int
    N: int
    nit: int
    status: str
    reasons: tuple = ()
    report: Optional[RunReport] = None

    def __post_init__(self):
        if self.status not in ("1", "2", "3", "F"):
            raise ValueError(f"invalid status {self.status!r}")
        if self.status == "F" and not self.reasons:
            raise ValueError("status 'F' requires at least one recorded reason")


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reasons: tuple
    init_distance: float
    unsafe_distance: float


def perturbation(dim):
    """Alternating offset u = 0.5 * [-1, 1, ..., (-1)^n] applied to each state."""
    return 0.5 * np.array([(-1.0) ** k for k in range(1, dim + 1)])


def generate_instance(spec, dim, n_segments=None, cfg=None):
    """Instance with init ball at ones(n) and unsafe ball at its flow image."""
    system = make_system(spec.system, dim)
    c_init = np.ones(system.dim)
    c_unsafe = integrate.flow(system, c_init, spec.horizon, cfg)
    if n_segments is None:
        n_segments = spec.segment_counts[0] if spec.segment_counts else 1
    return ProblemInstance(
        system,
        Ellipsoid.ball(c_init, spec.radius),
        Ellipsoid.ball(c_unsafe, spec.radius),
        n_segments,
    )


def initial_guess(instance, n_segments, horizon=5.0, u=None, cfg=None):
    """Equal-length split of the center trajectory, every start shifted by u.

    ``u=None`` uses the standard alternating perturbation; passing an
    explicit zero vector builds the exact split (used by oracle tests).
    """
    if n_segments < 1:
        raise ValueError("need at least one segment")
    dim = instance.system.dim
    if u is None:
        u = perturbation(dim)
    u = np.asarray(u, dtype=float)
    states = np.empty((n_segments, dim))
    times = np.full(n_segments, horizon / n_segments)
    point = instance.init.center.copy()
    states[0] = point + u
    for i in range(1, n_segments):
        point = integrate.flow(instance.system, point, horizon / n_segments, cfg)
        states[i] = point + u
    return ShootingVector(states, times)


def verify(instance, vec, eps4=1e-4, cfg=None):
    """Re-simulation check of a candidate error trajectory.

    Simulates for the summed segment lengths from the first shooting state
    and accepts only if every length is nonnegative and both endpoints lie
    within the (slightly inflated) ellipsoid bounds.
    """
    reasons = []
    if np.any(vec.times < 0.0):
        reasons.append("negative_length")
    start = vec.states[0]
    init_distance = instance.init.distance(start)
    unsafe_distance = np.inf
    try:
        end = integrate.flow(instance.system, start, float(vec.times.sum()), cfg)
        unsafe_distance = instance.unsafe_set.distance(end)
    except IntegrationFailure:
        reasons.append("integration_failure")
    if init_distance > 1.0 + eps4:
        reasons.append("init_boundary")
    if np.isfinite(unsafe_distance) and unsafe_distance > 1.0 + eps4:
        reasons.append("unsafe_boundary")
    return VerifyResult(not reasons, tuple(reasons), float(init_distance), float(unsafe_distance))


def _solve_cell(spec, sqp_cfg, dim, n_segments):
    try:
        instance = generate_instance(spec, dim, n_segments)
        guess = initial_guess(instance, n_segments, spec.horizon)
    except IntegrationFailure:
        return BenchRow(dim, n_segments, 0, "F", ("integration_failure",))
    report = run(spec.formulation, instance, guess, sqp_cfg)
    if report.termination is Termination.INTEGRATION_FAILURE:
        return BenchRow(dim, n_segments, report.nit, "F", ("integration_failure",), report)
    checked = verify(instance, report.final_X, spec.eps4)
    digit = _STATUS_DIGIT[report.termination]
    status = digit if checked.ok else "F"
    return BenchRow(dim, n_segments, report.nit, status, checked.reasons, report)


def run_table(spec, jobs=1, sqp=None):
    """All (n, N) cells of the sweep, in deterministic row-major order.

    Per-cell failures become "F" rows; they never abort the table.  With
    ``jobs > 1`` cells run on a thread pool, results still gathered in
    order.  The solver runs mostly as Python bytecode on small arrays and so
    holds the interpreter lock most of the time: threads overlap little.
    """
    sqp_cfg = sqp or spec.sqp_config()
    cells = [(dim, count) for dim in spec.dims for count in spec.segment_counts]
    if jobs > 1 and len(cells) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(lambda c: _solve_cell(spec, sqp_cfg, *c), cells))
    else:
        rows = [_solve_cell(spec, sqp_cfg, *cell) for cell in cells]
    return rows


def emit_csv(rows, sink):
    """Write rows as `n,N,NIT,S` CSV with LF line endings."""
    if isinstance(sink, (str, Path)):
        with open(sink, "w", newline="") as handle:
            emit_csv(rows, handle)
        return
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["n", "N", "NIT", "S"])
    for row in rows:
        writer.writerow([row.n, row.N, row.nit, row.status])


def dump_trajectory(instance, vec, sink, cfg=None, samples_per_segment=50):
    """Plot-ready dump: `t x1 ... xn` per line, '#' lines between segments.

    Each segment is sampled at equally spaced times by chained short
    integrations; the time column is cumulative across segments.
    """
    if isinstance(sink, (str, Path)):
        with open(sink, "w", newline="") as handle:
            dump_trajectory(instance, vec, handle, cfg, samples_per_segment)
        return
    cfg = cfg or DEFAULT_CONFIG
    offset = 0.0
    for index, (state, length) in enumerate(vec.segments(), start=1):
        sink.write(f"# segment {index}\n")
        step = length / samples_per_segment
        point = np.asarray(state, dtype=float)
        for j in range(samples_per_segment + 1):
            if j > 0:
                point = integrate.flow(instance.system, point, step, cfg)
            coords = " ".join(f"{value:.12g}" for value in point)
            sink.write(f"{offset + j * step:.12g} {coords}\n")
        offset += length
