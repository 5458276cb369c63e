"""Energy ledger, difference-quotient bounds, uniqueness probe, monitors."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from kirchflow import diagnostics
from kirchflow.config import gaussian_lens, load_config
from kirchflow.diagnostics import (
    BLOCK_STATES,
    DiagnosticsError,
    EnergyReport,
    energy_report,
    initial_condition_check,
    max_principle_check,
    regularity_monitor,
    uniqueness_probe,
)
from kirchflow.grid import (
    Column,
    Field,
    grad_sq_array,
    integrate_array,
    l2_norm,
    laplacian_array,
)
from kirchflow.stepper import StepConfig, Trajectory, project_initial, run
from oracles.compactness import time_quotient


BENCH = dict(h=0.01, gamma=0.1, t_end=1.0, newton_tol=1.0e-7)


def _bench_column(n=200):
    return Column(length=1.0, n_cells=n, gravity_sign=-1.0)


def _lens(col, depth=0.2, width=0.15, center=0.5):
    return Field(gaussian_lens(col.nodes(), center, width, depth), col)


def _manual_trajectory(states, h, tail=0, **stepping):
    """Trajectory through the Fields ``states``, one step ``h`` apart, its other
    ``StepConfig`` fields from ``stepping``; the last ``tail`` states repeat the
    one before and are left to ``rows``, as a march past its fixed point leaves
    them."""
    n = len(states) - 1
    return Trajectory(
        stepping=StepConfig(h=h, t_end=h * n, **stepping),
        values=np.stack([s.values for s in states[:len(states) - tail]]),
        column=states[0].column,
        newton_iters=tuple([1] * n),
        residual_norms=tuple([0.0] * n),
    )


# ---------------------------------------------------------------------------
# energy report
# ---------------------------------------------------------------------------


def test_energy_report_zero_trajectory(table):
    col = _bench_column(40)
    cfg = StepConfig(**BENCH)
    traj = run(Field.zeros(col), cfg, table)
    rep = energy_report(traj, cfg, table)
    assert np.all(rep.b_integral == 0.0)
    assert np.all(rep.grad_sq == 0.0)
    assert np.all(rep.lap_sq == 0.0)
    assert np.all(rep.cum_dissipation == 0.0)
    assert rep.gronwall_bound == pytest.approx(np.exp(1.0))
    assert rep.gronwall().passed and rep.energy_inequality().passed


def test_energy_report_compares_and_hashes_by_identity(table):
    col = _bench_column(40)
    cfg = StepConfig(**BENCH)
    rep = energy_report(run(Field.zeros(col), cfg, table), cfg, table)
    twin = dataclasses.replace(rep)  # the same arrays in a second report
    assert rep == rep and rep != twin and not (rep == twin)
    assert hash(rep) != hash(twin)
    assert len({rep, twin, rep}) == 2


def test_energy_report_matches_hand_quadrature(table):
    # two-state trajectory with made-up fields, every entry re-derived
    # with explicit loops over the quadrature weights
    col = Column(length=1.0, n_cells=9)
    z = col.nodes()
    h = 0.25
    f0 = Field(-0.1 * np.sin(np.pi * z), col)
    f1 = Field(-0.05 * z * (1.0 - z), col)
    traj = _manual_trajectory([f0, f1], h, gamma=0.3, newton_tol=1.0e-10)
    cfg = StepConfig(h=h, gamma=0.3, t_end=h, newton_tol=1.0e-10)
    rep = energy_report(traj, cfg, table)

    dz = col.dz
    for i, f in enumerate((f0, f1)):
        v = f.values
        bval = table.legendre_B(v)
        hand_b = dz * (1.5 * bval[0] + bval[1:-1].sum() + 1.5 * bval[-1])
        assert rep.b_integral[i] == pytest.approx(hand_b, abs=1.0e-12)

        hand_grad = v[0] ** 2 / dz + v[-1] ** 2 / dz
        for j in range(8):
            hand_grad += (v[j + 1] - v[j]) ** 2 / dz
        assert rep.grad_sq[i] == pytest.approx(hand_grad, abs=1.0e-12)

        lap = np.empty(9)
        for j in range(1, 8):
            lap[j] = (v[j - 1] - 2.0 * v[j] + v[j + 1]) / dz**2
        lap[0] = (v[1] - 2.0 * v[0]) / dz**2
        lap[-1] = (v[-2] - 2.0 * v[-1]) / dz**2
        sq = lap**2
        hand_lap = 0.3 * dz * (1.5 * sq[0] + sq[1:-1].sum() + 1.5 * sq[-1])
        assert rep.lap_sq[i] == pytest.approx(hand_lap, abs=1.0e-12)

    assert rep.cum_dissipation[0] == 0.0
    hand_cum = h * (0.5 * rep.grad_sq[1] + rep.lap_sq[1])
    assert rep.cum_dissipation[1] == pytest.approx(hand_cum, abs=1.0e-12)
    hand_bound = (rep.b_integral[0] + 1.0 * 1.0 * h) * np.exp(1.0 * h)
    assert rep.gronwall_bound == pytest.approx(hand_bound, abs=1.0e-12)


def test_energy_report_refuses_settings_the_trajectory_was_not_marched_with(table):
    # the estimates hold for the march's own h, gamma and Newton slack; read
    # with another, the default run's energy-inequality value of -1.195e-2
    # would be -8.11e-3 (h = 0.02), -1.538e-2 (gamma = 0) or -2.195e-2
    # (newton_tol = 1e-3, a slack 1e4 times wider)
    cfg = load_config(None)
    stepping = cfg.build_stepping()
    traj = run(cfg.initial_state(cfg.build_column()), stepping, table)
    value = energy_report(traj, stepping, table).energy_inequality().value
    assert value == pytest.approx(-1.195e-2, abs=5.0e-6)
    for changes, named in [({"h": 0.02}, "h"), ({"gamma": 0.0}, "gamma"),
                           ({"newton_tol": 1.0e-3}, "newton_tol"),
                           ({"newton_tol": 1.0e-3, "h": 0.02}, "h, newton_tol")]:
        other = dataclasses.replace(stepping, **changes)
        with pytest.raises(DiagnosticsError,
                           match=f"^cfg: differs from traj.stepping in {named}$"):
            energy_report(traj, other, table)


def test_energy_report_benchmark_bounds(table):
    col = _bench_column()
    cfg = StepConfig(**BENCH)
    traj = run(project_initial(_lens(col)), cfg, table)
    rep = energy_report(traj, cfg, table)
    assert np.all(rep.b_integral >= 0.0)
    assert np.all(np.diff(rep.cum_dissipation) >= 0.0)
    assert np.max(rep.b_integral) <= rep.gronwall_bound
    assert rep.cum_dissipation[-1] <= rep.gronwall_bound
    assert rep.gronwall().passed
    slack = 10.0 * cfg.newton_tol * np.arange(1, rep.times.size)
    assert np.all(rep.inequality_defect() <= slack)
    assert rep.energy_inequality().passed


def _multi_block_trajectory(h, repeats=False):
    # 32 full blocks and a partial 33rd, with wet (u >= 0) and dry nodes
    col = Column(length=1.0, n_cells=23, gravity_sign=-1.0)
    rng = np.random.default_rng(11)
    base = _lens(col, depth=0.15).values
    states = [
        Field(base * (1.0 + 0.3 * rng.random()) + 0.01 * rng.standard_normal(23), col)
        for _ in range(32 * BLOCK_STATES + 77)
    ]
    if repeats:
        # equal rows across a block boundary and at 300/301, and a final run
        # stored once, as a march past its fixed point stores it
        states[BLOCK_STATES - 9:BLOCK_STATES + 20] = [states[BLOCK_STATES - 9]] * 29
        states[-150:] = [states[-150]] * 150
        states[301] = Field(states[300].values, col)
    return col, states, _manual_trajectory(states, h, tail=149 if repeats else 0)


def test_blocked_energy_report_equals_per_state_definitions(table):
    h = 1.0e-3
    for repeats in (False, True):
        col, states, traj = _multi_block_trajectory(h, repeats)
        cfg = StepConfig(h=h, gamma=0.1, t_end=h * (len(states) - 1), newton_tol=1.0e-7)
        rep = energy_report(traj, cfg, table)
        b_int = [float(integrate_array(table.legendre_B(s.values), col.dz))
                 for s in states]
        grad_sq = [float(grad_sq_array(s.values, col.dz)) for s in states]
        lap_sq = [
            cfg.gamma * float(integrate_array(laplacian_array(s.values, col.dz) ** 2,
                                              col.dz))
            for s in states
        ]
        # bitwise, not approximately: blocking and evaluating the stored
        # tail state once must not move a single rounding
        assert np.array_equal(rep.b_integral, b_int)
        assert np.array_equal(rep.grad_sq, grad_sq)
        assert np.array_equal(rep.lap_sq, lap_sq)


def test_blocked_regularity_monitor_equals_per_state_definition(table):
    h = 1.0e-3
    for repeats in (False, True):
        col, states, traj = _multi_block_trajectory(h, repeats)
        total = 0.0
        for n in range(1, len(states)):
            quot = (states[n].values - states[n - 1].values) / h
            total += h * float(integrate_array(quot**2, col.dz))
        assert regularity_monitor(traj) == total


def _written_out_verdicts(rep):
    """The energy-inequality and Gronwall decisions, as first defined."""
    slack = 10.0 * rep.newton_tol * np.arange(1, rep.times.size)
    return (bool(np.all(rep.inequality_defect() <= slack)),
            bool(np.max(rep.b_integral) <= rep.gronwall_bound
                 and rep.cum_dissipation[-1] <= rep.gronwall_bound))


def _check_verdicts(rep):
    ineq, gron = rep.energy_inequality(), rep.gronwall()
    assert ineq.name == "energy-inequality" and ineq.bound == 0.0
    assert gron.name == "gronwall-bound" and gron.bound == rep.gronwall_bound
    assert (rep.energy_inequality_ok(), rep.gronwall_ok()) == (ineq.passed, gron.passed)
    return ineq, gron


def test_energy_checks_decide_as_the_written_out_definitions(table):
    h = 1.0e-3
    for repeats in (False, True):
        _, states, traj = _multi_block_trajectory(h, repeats)
        cfg = StepConfig(h=h, gamma=0.1, t_end=h * (len(states) - 1), newton_tol=1.0e-7)
        rep = energy_report(traj, cfg, table)
        ineq, gron = _check_verdicts(rep)
        assert (ineq.passed, gron.passed) == _written_out_verdicts(rep)
        slack = 10.0 * cfg.newton_tol * np.arange(1, rep.times.size)
        assert ineq.value == np.max(rep.inequality_defect() - slack)
        assert gron.value == max(np.max(rep.b_integral), rep.cum_dissipation[-1])


def _hand_report(b_integral, cum_dissipation, gronwall_bound):
    # beta = 0 leaves defect[n-1] = b[n] + cum[n] - b[0]; the slack
    # 10*tol*n is exact for a power-of-two tol
    n = len(b_integral)
    return EnergyReport(
        times=np.arange(float(n)), b_integral=np.array(b_integral, dtype=float),
        grad_sq=np.zeros(n), lap_sq=np.zeros(n),
        cum_dissipation=np.array(cum_dissipation, dtype=float),
        gronwall_bound=gronwall_bound, h=1.0, beta=0.0, omega=1.0,
        newton_tol=2.0**-10)


@pytest.mark.parametrize("b, cum, bound, expected", [
    # the largest defect (n = 2) equals its slack 20*tol exactly
    ([0.0, 0.0, 0.0], [0.0, 0.0, 20 * 2.0**-10], 1.0, (True, True)),
    # ... or sits one ulp above it
    ([0.0, 0.0, 0.0], [0.0, 0.0, np.nextafter(20 * 2.0**-10, 1.0)], 1.0,
     (False, True)),
    # the largest B_int equals the bound, or sits one ulp above it
    ([0.0, 0.5, 0.0], [0.0, 0.0, 0.0], 0.5, (False, True)),
    ([0.0, np.nextafter(0.5, 1.0), 0.0], [0.0, 0.0, 0.0], 0.5, (False, False)),
    # a report of one state has no defect to check
    ([0.0], [0.0], 1.0, (True, True)),
    # NaN fails both, wherever it sits
    ([0.0, np.nan, 0.0], [0.0, 0.0, 0.0], 1.0, (False, False)),
    ([0.0, 0.0, 0.0], [0.0, 0.0, np.nan], 1.0, (False, False)),
])
def test_energy_checks_decide_as_the_definitions_at_the_boundary(b, cum, bound,
                                                                 expected):
    rep = _hand_report(b, cum, bound)
    ineq, gron = _check_verdicts(rep)
    assert (ineq.passed, gron.passed) == _written_out_verdicts(rep) == expected


def test_check_passes_iff_value_is_at_most_bound():
    check = diagnostics.Check
    assert check("x", 1.0, 1.0).passed and check("x", -np.inf, 0.0).passed
    assert not check("x", np.nextafter(1.0, 2.0), 1.0).passed
    assert not check("x", np.nan, 1.0).passed and not check("x", 0.0, np.nan).passed


def test_energy_report_rejects_a_series_off_the_time_grid():
    series = ("b_integral", "grad_sq", "lap_sq", "cum_dissipation")
    for name in series:
        arrays = {key: np.zeros(2 if key == name else 3) for key in series}
        with pytest.raises(DiagnosticsError, match=f"^{name} must align with times$"):
            EnergyReport(times=np.zeros(3), **arrays, gronwall_bound=1.0, h=0.5,
                         beta=1.0, omega=1.0, newton_tol=1.0e-7)


# ---------------------------------------------------------------------------
# time quotient (the compactness oracle)
# ---------------------------------------------------------------------------


def test_time_quotient_constant_trajectory_is_zero(table):
    col = _bench_column(30)
    f = _lens(col, depth=0.1)
    traj = _manual_trajectory([f, f, f, f], h=0.1)
    states = traj.values[traj.rows]
    assert time_quotient(states, 0.1, col.dz, 1, table) == 0.0
    assert time_quotient(states, 0.1, col.dz, 3, table) == 0.0


def test_time_quotient_bounded_across_refinement(table):
    col = _bench_column()
    u0 = project_initial(_lens(col))
    values = []
    for h in (0.02, 0.01, 0.005):
        cfg = StepConfig(h=h, gamma=0.1, t_end=1.0, newton_tol=1.0e-7)
        traj = run(u0, cfg, table)
        values.append(time_quotient(traj.values[traj.rows], h, col.dz, 1, table))
    assert all(v >= 0.0 for v in values)
    assert all(v <= 2.0 * values[0] for v in values)


def test_time_quotient_nonnegative_at_longer_lag(table):
    col = _bench_column(80)
    cfg = StepConfig(h=0.01, gamma=0.1, t_end=0.3, newton_tol=1.0e-7)
    traj = run(project_initial(_lens(col)), cfg, table)
    assert time_quotient(traj.values[traj.rows], cfg.h, col.dz, 3, table) >= 0.0


# ---------------------------------------------------------------------------
# regularity monitor
# ---------------------------------------------------------------------------


def test_regularity_trivial_trajectories(table):
    col = _bench_column(30)
    f = _lens(col, depth=0.1)
    assert regularity_monitor(_manual_trajectory([f, f, f], h=0.1)) == 0.0
    zero = Field.zeros(col)
    assert regularity_monitor(_manual_trajectory([zero, zero], h=0.1)) == 0.0


def test_regularity_bounded_under_step_halving(table):
    # resolved regime for the fourth-order spectrum; the acceptance
    # suite runs the third halving on top of these two
    col = _bench_column()
    u0 = project_initial(_lens(col))
    values = []
    for h in (2.5e-4, 1.25e-4):
        cfg = StepConfig(h=h, gamma=0.1, t_end=1.0, newton_tol=1.0e-7)
        values.append(regularity_monitor(run(u0, cfg, table)))
    assert values[1] / values[0] <= 1.2


# ---------------------------------------------------------------------------
# uniqueness probe
# ---------------------------------------------------------------------------


def test_uniqueness_probe_deterministic_is_exact(table, monkeypatch):
    col = _bench_column(60)
    cfg = StepConfig(h=0.01, gamma=0.1, t_end=0.1, newton_tol=1.0e-7)
    monkeypatch.setattr(diagnostics, "_GUESS_PERTURBATION", 0.0)
    assert uniqueness_probe(_lens(col), cfg, table) == 0.0


def test_uniqueness_probe_perturbed_stays_at_tolerance(table):
    col = _bench_column()
    cfg = StepConfig(h=0.01, gamma=0.1, t_end=0.2, newton_tol=1.0e-7)
    gap = uniqueness_probe(_lens(col), cfg, table, seed=0)
    assert gap <= 10.0 * cfg.newton_tol


def test_uniqueness_probe_seed_7_on_the_default_problem(table):
    # pins the order of the noise draws, one vector per step in step order;
    # seed 0 is pinned through the README's probe-uniqueness line
    doc = load_config(None)
    u0, cfg = doc.initial_state(doc.build_column()), doc.build_stepping()
    assert uniqueness_probe(u0, cfg, table, seed=7) == 3.82891353372179e-11


def test_uniqueness_probe_keeps_no_perturbed_trajectory(table):
    # each perturbed state is folded into the gap as it arrives, so from 100
    # to 500 steps the peak grows only by the base run's per-step scalars
    # (times, iteration counts and norms: 32 bytes a step measured); a probe
    # that kept its 60-node states would add at least 480 bytes a step
    u0 = _lens(_bench_column(60))

    def peak(n_steps):
        cfg = StepConfig(h=0.01, gamma=0.1, t_end=0.01 * n_steps, newton_tol=1.0e-7)
        assert cfg.n_steps == n_steps
        tracemalloc.start()
        try:
            uniqueness_probe(u0, cfg, table)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # warm-up
    assert peak(500) - peak(100) <= 64 * 400


def test_probe_scale_detects_distinct_dynamics(table):
    # control: the gap metric is not blind — physically different
    # models are far apart on its scale
    col = _bench_column()
    u0 = project_initial(_lens(col))
    t1 = run(u0, StepConfig(h=0.01, gamma=0.1, t_end=0.2, newton_tol=1.0e-7), table)
    t0 = run(u0, StepConfig(h=0.01, gamma=0.0, t_end=0.2, newton_tol=1.0e-7), table)
    gaps = [
        l2_norm(a - b, col.dz)
        for a, b in zip(t1.values[t1.rows], t0.values[t0.rows])
    ]
    assert max(gaps) > 1.0e-2


# ---------------------------------------------------------------------------
# maximum principle / initial condition
# ---------------------------------------------------------------------------


def test_max_principle_zero_trajectory(table):
    col = _bench_column(30)
    cfg = StepConfig(h=0.01, gamma=0.0, t_end=0.05, newton_tol=1.0e-11)
    assert max_principle_check(run(Field.zeros(col), cfg, table)) == 0.0


def test_max_principle_gamma_zero_benchmark(table):
    col = _bench_column()
    cfg = StepConfig(h=0.01, gamma=0.0, t_end=1.0, newton_tol=1.0e-11)
    traj = run(project_initial(_lens(col)), cfg, table)
    assert max_principle_check(traj) <= 1.0e-8


def test_max_principle_gamma_zero_random_smooth_ics(table):
    rng = np.random.default_rng(42)
    col = _bench_column(100)
    z = col.nodes()
    cfg = StepConfig(h=0.01, gamma=0.0, t_end=0.2, newton_tol=1.0e-11)
    for _ in range(5):
        coeff = rng.uniform(-0.08, 0.02, size=4)
        vals = sum(
            c * np.sin((k + 1) * np.pi * z) for k, c in enumerate(coeff)
        ) - 0.05
        traj = run(project_initial(Field(vals, col)), cfg, table)
        assert max_principle_check(traj) <= 1.0e-8


def test_max_principle_reports_synthetic_overshoot(table):
    col = _bench_column(30)
    base = _lens(col, depth=0.1)
    bumped = Field(base.values + 0.02, col)
    traj = _manual_trajectory([base, bumped], h=0.1)
    expected = float(np.max(bumped.values)) - max(float(np.max(base.values)), 0.0)
    assert max_principle_check(traj) == pytest.approx(expected, abs=1.0e-15)


def test_initial_condition_check_on_runs(table):
    col = _bench_column(80)
    u0 = _lens(col)
    cfg = StepConfig(h=0.01, gamma=0.1, t_end=0.05, newton_tol=1.0e-7)
    traj = run(project_initial(u0), cfg, table)
    assert initial_condition_check(traj, u0, table) <= 1.0e-12
    zero = Field.zeros(col)
    ztraj = run(zero, cfg, table)
    assert initial_condition_check(ztraj, zero, table) == 0.0


def test_initial_condition_check_flags_corruption(table):
    col = _bench_column(40)
    u0 = _lens(col)
    cfg = StepConfig(h=0.01, gamma=0.1, t_end=0.03, newton_tol=1.0e-7)
    traj = run(project_initial(u0), cfg, table)
    values = traj.values.copy()
    values[0] -= 0.05
    corrupted = Trajectory(
        stepping=traj.stepping,
        values=values,
        column=col,
        newton_iters=traj.newton_iters,
        residual_norms=traj.residual_norms,
    )
    assert initial_condition_check(corrupted, u0, table) > 1.0e-3
