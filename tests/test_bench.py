"""Tests for instance generation, the perturbed split guess, verification,
and table emission."""

import io

import numpy as np
import pytest

from falsify.bench import (
    BenchRow,
    BenchSpec,
    dump_trajectory,
    emit_csv,
    generate_instance,
    initial_guess,
    make_system,
    perturbation,
    run_table,
    verify,
)
from falsify.formulation import Formulation
from falsify.integrate import flow
from falsify.shooting import ShootingVector
from falsify.sqp import SqpConfig, Termination

from oracles import TIGHT, scipy_flow, singular_kkt_on_third_solve

EQ8 = Formulation.by_name("eq8")


def small_spec(**kwargs):
    base = dict(
        system="benchmark3",
        dims=(2,),
        segment_counts=(5,),
        formulation=EQ8,
    )
    base.update(kwargs)
    return BenchSpec(**base)


def test_perturbation_alternates_and_scales():
    np.testing.assert_array_equal(perturbation(3), [-0.5, 0.5, -0.5])
    np.testing.assert_array_equal(perturbation(4), [-0.5, 0.5, -0.5, 0.5])


def test_generate_instance_geometry():
    spec = small_spec()
    instance = generate_instance(spec, 2, 5)
    np.testing.assert_array_equal(instance.init.center, np.ones(2))
    np.testing.assert_array_equal(instance.init.shape, 16.0 * np.eye(2))
    np.testing.assert_array_equal(instance.unsafe_set.shape, 16.0 * np.eye(2))
    # closed form: rotation of [1, 1] by 5 time units
    expected = np.array([np.cos(5.0) + np.sin(5.0), -np.sin(5.0) + np.cos(5.0)])
    np.testing.assert_allclose(instance.unsafe_set.center, expected, atol=1e-8)
    assert not np.array_equal(instance.init.center, instance.unsafe_set.center)


def test_generate_instance_against_reference_integrator():
    spec = BenchSpec("benchmark2", (3,), (5,), EQ8)
    instance = generate_instance(spec, 3, 5)
    reference = scipy_flow(make_system("benchmark2", 3), np.ones(3), 5.0)
    np.testing.assert_allclose(instance.unsafe_set.center, reference, atol=1e-8)


def test_initial_guess_splits_the_center_trajectory():
    spec = BenchSpec("benchmark2", (3,), (4,), EQ8)
    instance = generate_instance(spec, 3, 4)
    guess = initial_guess(instance, 4)
    np.testing.assert_array_equal(guess.times, np.full(4, 1.25))
    u = perturbation(3)
    system = make_system("benchmark2", 3)
    for i in range(4):
        on_trajectory = scipy_flow(system, np.ones(3), i * 1.25) if i else np.ones(3)
        np.testing.assert_allclose(guess.states[i], on_trajectory + u, atol=1e-8)


def test_initial_guess_single_segment():
    spec = small_spec(segment_counts=(1,))
    instance = generate_instance(spec, 2, 1)
    guess = initial_guess(instance, 1)
    np.testing.assert_array_equal(guess.states, (np.ones(2) + perturbation(2))[None, :])
    np.testing.assert_array_equal(guess.times, [5.0])


def test_verify_accepts_exact_split():
    spec = small_spec()
    instance = generate_instance(spec, 2, 5)
    exact = initial_guess(instance, 5, u=np.zeros(2), cfg=TIGHT)
    result = verify(instance, exact, cfg=TIGHT)
    assert result.ok
    assert result.reasons == ()
    assert result.init_distance == pytest.approx(0.0, abs=1e-12)
    assert result.unsafe_distance == pytest.approx(0.0, abs=1e-6)


def test_verify_unsafe_side_threshold():
    spec = small_spec()
    instance = generate_instance(spec, 2, 1)
    # rotation is an isometry: start 0.3/0.25 of the radius off-center and
    # the re-simulated endpoint stays exactly that far from c_U
    start = instance.init.center + np.array([0.3, 0.0])
    vec = ShootingVector(start[None, :], np.array([5.0]))
    result = verify(instance, vec, cfg=TIGHT)
    assert not result.ok
    assert set(result.reasons) == {"init_boundary", "unsafe_boundary"}
    assert result.unsafe_distance == pytest.approx(1.2, abs=1e-6)


def test_bench_row_validation():
    with pytest.raises(ValueError):
        BenchRow(2, 5, 3, "4")
    with pytest.raises(ValueError):
        BenchRow(2, 5, 3, "F")  # F needs a reason
    row = BenchRow(2, 5, 3, "F", ("negative_length",))
    assert row.reasons == ("negative_length",)


def test_run_table_rows_and_order():
    spec = small_spec(dims=(2, 4), segment_counts=(5, 10))
    rows = run_table(spec)
    assert [(row.n, row.N) for row in rows] == [(2, 5), (2, 10), (4, 5), (4, 10)]
    for row in rows:
        assert row.status == "1", (row.n, row.N, row.status, row.reasons)
        # any success row re-verifies from its stored report
        instance = generate_instance(spec, row.n, row.N)
        assert verify(instance, row.report.final_X).ok


def test_run_table_flags_unverified_rows():
    # an immediate S2 stop leaves the perturbed guess, which fails the
    # boundary checks: digit overridden to F with the reasons recorded
    rows = run_table(small_spec(), SqpConfig(max_iter=0))
    assert rows[0].status == "F"
    assert "init_boundary" in rows[0].reasons


def test_run_table_flags_degenerate_instances():
    # a negligible horizon maps the initial center onto itself: each cell
    # becomes an F row instead of aborting the table
    rows = run_table(small_spec(horizon=1e-300, segment_counts=(5, 10)))
    assert [(row.N, row.nit, row.status, row.reasons) for row in rows] == [
        (5, 0, "F", ("degenerate_instance",)),
        (10, 0, "F", ("degenerate_instance",)),
    ]


def test_run_table_flags_singular_kkt_cells(monkeypatch):
    # a run whose KKT ladder produces no finite step on its third iteration
    # becomes an unverified F row that keeps its two iterations and its
    # report, and the next cell is still solved and verified
    singular_kkt_on_third_solve(monkeypatch)
    first, second = run_table(small_spec(segment_counts=(5, 10)))
    assert (first.N, first.nit, first.status, first.reasons) == (5, 2, "F", ("singular_kkt",))
    assert first.report.termination is Termination.SINGULAR_SYSTEM
    assert len(first.report.trace) == 2 and first.check is None
    assert (second.N, second.status) == (10, "1") and second.check.ok


def test_run_table_empty_segment_list():
    assert run_table(small_spec(segment_counts=())) == []


def test_emit_csv_exact_bytes():
    rows = [
        BenchRow(2, 5, 17, "1"),
        BenchRow(2, 10, 400, "F", ("unsafe_boundary",)),
    ]
    buffer = io.StringIO()
    emit_csv(rows, buffer)
    assert buffer.getvalue() == "n,N,NIT,S\n2,5,17,1\n2,10,400,F\n"


def test_emit_csv_to_path(tmp_path):
    path = tmp_path / "table.csv"
    emit_csv([BenchRow(2, 5, 17, "1")], path)
    assert path.read_bytes() == b"n,N,NIT,S\n2,5,17,1\n"


def test_make_system_validation():
    with pytest.raises(ValueError):
        make_system("benchmark2", 4)
    with pytest.raises(ValueError):
        make_system("benchmark9", 3)
    assert make_system("benchmark1", 4).dim == 4


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(system="lorenz")
    with pytest.raises(ValueError):
        small_spec(radius=0.0)
    with pytest.raises(ValueError):
        small_spec(eps4=-1.0)
    with pytest.raises(ValueError, match="dim"):
        small_spec(system="benchmark3", dims=(3,))
    with pytest.raises(ValueError, match="dim"):
        small_spec(system="benchmark2", dims=(4,))
    with pytest.raises(ValueError, match="segments"):
        small_spec(segment_counts=(5, 0))
    for name in ("horizon", "radius", "eps4"):
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match=name):
                small_spec(**{name: value})


def test_dump_trajectory_format(tmp_path):
    spec = small_spec(segment_counts=(2,))
    instance = generate_instance(spec, 2, 2)
    vec = initial_guess(instance, 2, u=np.zeros(2))
    buffer = io.StringIO()
    dump_trajectory(instance, vec, buffer, samples_per_segment=4)
    lines = buffer.getvalue().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    samples = [line for line in lines if not line.startswith("#")]
    assert comments == ["# segment 1", "# segment 2"]
    assert len(samples) == 2 * 5  # samples_per_segment + 1 rows per segment
    first_times = [float(line.split()[0]) for line in samples[:5]]
    np.testing.assert_allclose(first_times, np.linspace(0.0, 2.5, 5), atol=1e-12)
    # the time column continues across the segment boundary
    second_times = [float(line.split()[0]) for line in samples[5:]]
    np.testing.assert_allclose(second_times, np.linspace(2.5, 5.0, 5), atol=1e-12)
    # sampled coordinates follow the flow from the segment start
    last = np.array([float(v) for v in samples[4].split()[1:]])
    expected = flow(instance.system, vec.states[0], 2.5)
    np.testing.assert_allclose(last, expected, atol=1e-6)


def per_segment_dump(instance, vec, sink, samples_per_segment=50):
    """Reference dump: each segment sampled by its own chain of one-lane flows."""
    offset = 0.0
    for index, (state, length) in enumerate(zip(vec.states, vec.times), start=1):
        sink.write(f"# segment {index}\n")
        step = length / samples_per_segment
        point = np.asarray(state, dtype=float)
        for j in range(samples_per_segment + 1):
            if j > 0:
                point = flow(instance.system, point, step)
            coords = " ".join(f"{value:.12g}" for value in point)
            sink.write(f"{offset + j * step:.12g} {coords}\n")
        offset += length


def test_batched_dump_equals_the_per_segment_loop():
    """Segments of unequal, zero and negative length, sampled as lanes of
    one batch, print byte for byte what one-lane chains print."""
    spec = small_spec(system="benchmark2", dims=(3,), segment_counts=(5,))
    instance = generate_instance(spec, 3, 5)
    guess = initial_guess(instance, 5)
    vec = ShootingVector(guess.states, guess.times * np.array([1.0, 0.3, 0.0, 1.7, -0.4]))
    for samples in (1, 7, 50):
        batched, reference = io.StringIO(), io.StringIO()
        dump_trajectory(instance, vec, batched, samples_per_segment=samples)
        per_segment_dump(instance, vec, reference, samples_per_segment=samples)
        assert batched.getvalue() == reference.getvalue()
