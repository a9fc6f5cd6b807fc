"""Benchmark methodology: build instances by simulation, solve, verify, tabulate.

A :class:`BenchSpec` describes the problem only: the system, the sizes
n x N, the formulation and the two balls.  How it is solved is an
:class:`~falsify.sqp.SqpConfig`, passed to :func:`run_table` beside it.

An instance is manufactured so that an error trajectory certainly exists:
pick a center c_I, simulate the system for the horizon T to get c_U, and
surround both points with balls of radius 1/4.  The initial guess splits
the center trajectory into N equal-length segments and perturbs every
segment start by a fixed vector u.  After the solver finishes, the
candidate is checked by one long re-simulation from its first state; rows
whose candidate fails any check are flagged "F" in the result table.
"""

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .formulation import Formulation
from .integrate import IntegrationFailure
from .shooting import DegenerateInstance, Ellipsoid, ProblemInstance, ShootingVector
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
    """One benchmark sweep: a system family crossed with segment counts.

    Construction is the one validity check of a problem: every dim must
    build the system and every segment count must be at least one.  An
    empty ``segment_counts`` is a sweep with no cells.
    """

    system: str
    dims: tuple
    segment_counts: tuple
    formulation: Formulation
    horizon: float = 5.0
    radius: float = 0.25
    eps4: float = 1e-4

    def __post_init__(self):
        if self.system not in SYSTEM_NAMES:
            raise ValueError(f"unknown system {self.system!r}")
        for dim in self.dims:
            try:
                make_system(self.system, dim)
            except ValueError as exc:
                raise ValueError(f"dim {dim} is invalid for {self.system}: {exc}") from None
        if any(count < 1 for count in self.segment_counts):
            raise ValueError(f"segments must be at least 1, got {self.segment_counts}")
        for name in ("horizon", "radius", "eps4"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and positive")


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


def generate_instance(spec, dim, n_segments):
    """Instance with init ball at ones(n) and unsafe ball at its flow image."""
    system = make_system(spec.system, dim)
    c_init = np.ones(system.dim)
    c_unsafe = integrate.flow(system, c_init, spec.horizon)
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
    except DegenerateInstance:
        return BenchRow(dim, n_segments, 0, "F", ("degenerate_instance",))
    report = run(spec.formulation, instance, guess, sqp_cfg)
    if report.termination is Termination.INTEGRATION_FAILURE:
        return BenchRow(dim, n_segments, report.nit, "F", ("integration_failure",), report)
    checked = verify(instance, report.final_X, spec.eps4)
    digit = _STATUS_DIGIT[report.termination]
    status = digit if checked.ok else "F"
    return BenchRow(dim, n_segments, report.nit, status, checked.reasons, report)


def run_table(spec, sqp=None):
    """All (n, N) cells of the sweep, in deterministic row-major order,
    each solved with ``sqp`` (default :class:`SqpConfig`).

    Per-cell failures become "F" rows; they never abort the table.
    """
    sqp_cfg = sqp or SqpConfig()
    return [
        _solve_cell(spec, sqp_cfg, dim, count)
        for dim in spec.dims
        for count in spec.segment_counts
    ]


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


def dump_trajectory(instance, vec, sink, samples_per_segment=50):
    """Plot-ready dump: `t x1 ... xn` per line, '#' lines between segments.

    Each segment is sampled at equally spaced times by chained short
    integrations, all segments as lanes of one batch per sample; the time
    column is cumulative across segments.
    """
    if isinstance(sink, (str, Path)):
        with open(sink, "w", newline="") as handle:
            dump_trajectory(instance, vec, handle, samples_per_segment)
        return
    steps = vec.times / samples_per_segment
    samples = [np.asarray(vec.states, dtype=float)]
    for _ in range(samples_per_segment):
        samples.append(integrate.flow(instance.system, samples[-1], steps))
    offset = 0.0
    for index, (length, step) in enumerate(zip(vec.times, steps)):
        sink.write(f"# segment {index + 1}\n")
        for j, points in enumerate(samples):
            coords = " ".join(f"{value:.12g}" for value in points[index])
            sink.write(f"{offset + j * step:.12g} {coords}\n")
        offset += length
