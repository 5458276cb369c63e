"""Release gate: every shipped guarantee, at its contract tolerance.

One test per criterion; each prints a single ``criterion NN [...]:
PASS/FAIL`` line (visible on failure, or under ``pytest -s``) carrying
the measured numbers, then asserts the same conditions.
"""

import time

import numpy as np
import pytest

from kirchflow.config import gaussian_lens
from kirchflow.constitutive import BETA, TOL_Q
from kirchflow.diagnostics import (
    certify,
    energy_report,
    max_principle_check,
    regularity_monitor,
    uniqueness_probe,
)
from kirchflow.grid import Column, Field
from kirchflow.harness import MMS_ORDER_MIN, convergence_study, fitted_order
from kirchflow.stepper import StepConfig, StepConfigError, project_initial, run
from oracles.banded import banded_step
from oracles.dense import dense_reference_step
from oracles.recovery import gradient_consistency

BENCH = dict(h=0.01, gamma=0.1, t_end=1.0, newton_tol=1.0e-7)


def _report(num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'}{tail}")


def _lens(col, center=0.5, width=0.15, depth=0.2):
    return Field(gaussian_lens(col.nodes(), center, width, depth), col)


def _verdict(traj, name):
    """The check ``name`` of ``certify(traj)``, with the bound it carries."""
    (check,) = [c for c in certify(traj) if c.name == name]
    return check


@pytest.fixture(scope="module")
def bench(table):
    """Reference trajectory shared by the estimate/uniqueness/recovery gates."""
    col = Column(length=1.0, n_cells=200, gravity_sign=-1.0)
    u0 = project_initial(_lens(col))
    cfg = StepConfig(**BENCH)
    start = time.perf_counter()
    traj = run(u0, cfg, table)
    return col, u0, cfg, traj, time.perf_counter() - start


def test_criterion_01_convex_energy_bracket(table):
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    lo = table.u_samples[0]
    z = rng.uniform(lo, 5.0, 10_000)
    z0 = rng.uniform(lo, 5.0, 10_000)
    bz, bz0 = table.all_channels(z)[0], table.all_channels(z0)[0]
    Bz, Bz0 = table.legendre_B(z), table.legendre_B(z0)
    slack = 10.0 * TOL_Q
    lower_defect = float(np.max((bz - bz0) * z0 - (Bz - Bz0)))
    upper_defect = float(np.max((Bz - Bz0) - (bz - bz0) * z))
    elapsed = time.perf_counter() - start
    ok = lower_defect <= slack and upper_defect <= slack and elapsed < 5.0
    _report(
        1,
        "convex-energy-bracket",
        ok,
        f"defects {lower_defect:.2e}/{upper_defect:.2e} vs slack {slack:.0e}, "
        f"{elapsed:.2f}s",
    )
    assert lower_defect <= slack
    assert upper_defect <= slack
    assert elapsed < 5.0


def test_criterion_02_transform_round_trip(model, table):
    start = time.perf_counter()
    p = np.linspace(-50.0, 10.0, 1000)
    round_trip = float(np.max(np.abs(table.kirchhoff_inverse(table.kirchhoff(p)) - p)))
    delta = 1.0e-5
    central = (table.kirchhoff(p + delta) - table.kirchhoff(p - delta)) / (2 * delta)
    slope_gap = float(np.max(np.abs(central - model.conductivity_vs_pressure(p))))
    elapsed = time.perf_counter() - start
    ok = round_trip <= 1.0e-8 and slope_gap <= 1.0e-6 and elapsed < 2.0
    _report(
        2,
        "transform-round-trip",
        ok,
        f"round-trip {round_trip:.2e} <= 1e-8, slope gap {slope_gap:.2e} <= 1e-6, "
        f"{elapsed:.2f}s",
    )
    assert round_trip <= 1.0e-8
    assert slope_gap <= 1.0e-6
    assert elapsed < 2.0


def test_criterion_03_growth_certificate_and_step_guard(table):
    rng = np.random.default_rng(202)
    z = rng.uniform(table.u_samples[0], 8.0, 10_000)
    certificate_defect = float(
        np.max(table.all_channels(z)[1] ** 2 - BETA * (1.0 + table.legendre_B(z)))
    )
    boundary = 1.0 / BETA
    StepConfig(h=boundary)  # must construct
    with pytest.raises(StepConfigError):
        StepConfig(h=np.nextafter(boundary, np.inf))
    ok = certificate_defect <= 1.0e-12
    _report(
        3,
        "growth-certificate-step-guard",
        ok,
        f"certificate defect {certificate_defect:.2e}, boundary h={boundary} "
        f"accepted, h above it rejected",
    )
    assert certificate_defect <= 1.0e-12


def test_criterion_04_discrete_energy_estimate(bench, table):
    col, u0, cfg, traj, run_elapsed = bench
    start = time.perf_counter()
    rep = energy_report(traj, cfg, table)
    pre_bound = rep.energy_inequality()
    # the explicit bound holds at every step with no Newton slack at all
    explicit_defect = float(
        np.max(rep.b_integral[1:] + rep.cum_dissipation[1:] - rep.gronwall_bound)
    )
    elapsed = run_elapsed + time.perf_counter() - start
    ok = pre_bound.passed and explicit_defect <= 0.0 and elapsed < 30.0
    _report(
        4,
        "discrete-energy-estimate",
        ok,
        f"pre-bound defect {pre_bound.value:.2e} <= {pre_bound.bound:.0e}, "
        f"explicit-bound defect {explicit_defect:.2e} (peak storage "
        f"{np.max(rep.b_integral):.3e} vs bound {rep.gronwall_bound:.3e}), "
        f"{elapsed:.2f}s",
    )
    assert pre_bound.passed
    assert explicit_defect <= 0.0
    assert elapsed < 30.0


def test_criterion_05_manufactured_convergence_orders(table):
    start = time.perf_counter()
    spatial = convergence_study("spatial", table)
    temporal = convergence_study("temporal", table)
    order_s = fitted_order(spatial)
    order_t = fitted_order(temporal)
    elapsed = time.perf_counter() - start
    min_s, min_t = MMS_ORDER_MIN["spatial"], MMS_ORDER_MIN["temporal"]
    ok = order_s >= min_s and order_t >= min_t and elapsed < 120.0
    _report(
        5,
        "manufactured-convergence",
        ok,
        f"spatial order {order_s:.4f} >= {min_s}, temporal order {order_t:.4f} >= "
        f"{min_t}, {elapsed:.1f}s",
    )
    assert order_s >= min_s
    assert order_t >= min_t
    assert elapsed < 120.0


def test_criterion_06_uniqueness_probe(bench, table):
    col, u0, cfg, traj, _ = bench
    probe = uniqueness_probe(traj, seed=0)
    _report(6, "uniqueness-probe", probe.passed,
            f"discrepancy {probe.value:.2e} <= {probe.bound:.0e}")
    assert probe.passed


def test_criterion_07_max_principle_and_overshoot(table):
    col = Column(length=1.0, n_cells=100, gravity_sign=-1.0)
    z = col.nodes()
    rng = np.random.default_rng(42)
    cfg_classical = StepConfig(h=0.01, gamma=0.0, t_end=0.2, newton_tol=1.0e-11)
    checks = []
    for _ in range(5):
        coeff = rng.uniform(-0.08, 0.02, size=4)
        vals = sum(c * np.sin((m + 1) * np.pi * z) for m, c in enumerate(coeff)) - 0.05
        u0 = project_initial(Field(vals, col))
        checks.append(_verdict(run(u0, cfg_classical, table), "max-principle"))
    worst = max(c.value for c in checks)
    # regularized contrast on the demo problem; the amplitude is logged,
    # only its strict positivity is asserted
    col_demo = Column(length=1.0, n_cells=200, gravity_sign=-1.0)
    u0_demo = project_initial(_lens(col_demo, width=0.1))
    cfg_demo = StepConfig(h=5.0e-5, gamma=0.1, t_end=0.02, newton_tol=1.0e-7)
    amplitude = max_principle_check(run(u0_demo, cfg_demo, table))
    ok = all(c.passed for c in checks) and amplitude > 0.0
    _report(
        7,
        "max-principle-and-overshoot",
        ok,
        f"classical violation {worst:.2e} <= {checks[0].bound:.0e} over 5 random ICs, "
        f"regularized overshoot amplitude {amplitude:.6e} (logged)",
    )
    assert all(c.passed for c in checks)
    assert amplitude > 0.0


def test_criterion_08_recovery_consistency(bench, table):
    errs = []
    for n in (51, 103, 207):
        col_n = Column(length=1.0, n_cells=n, gravity_sign=-1.0)
        errs.append(gradient_consistency(_lens(col_n, depth=0.1, width=0.2), table))
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    col, u0, cfg, traj, _ = bench
    ic = _verdict(traj, "initial-condition")
    # second run in the other regime: the initial-state identity must
    # hold regardless of the fourth-order term
    col_c = Column(length=1.0, n_cells=80, gravity_sign=-1.0)
    u0_c = project_initial(_lens(col_c, depth=0.1))
    traj_c = run(u0_c, StepConfig(h=0.01, gamma=0.0, t_end=0.05, newton_tol=1e-10), table)
    ic_c = _verdict(traj_c, "initial-condition")
    ok = min(orders) >= 1.9 and ic.passed and ic_c.passed
    _report(
        8,
        "recovery-consistency",
        ok,
        f"gradient chain-rule orders {orders[0]:.2f}/{orders[1]:.2f} >= 1.9, "
        f"initial-state defects {ic.value:.2e}/{ic_c.value:.2e} <= {ic.bound:.0e}",
    )
    assert min(orders) >= 1.9
    assert ic.passed
    assert ic_c.passed


def test_criterion_09_dense_reference_agreement(table):
    rng = np.random.default_rng(20260819)
    worst_ratio = 0.0
    for trial in range(20):
        n = int(rng.integers(20, 401))
        gamma = 0.1 if trial % 2 == 0 else 0.0
        h = float(rng.choice([0.005, 0.01, 0.02]))
        col = Column(length=1.0, n_cells=n, gravity_sign=-1.0)
        z = col.nodes()
        coeff = rng.uniform(-0.08, 0.0125, size=4)
        vals = sum(c * np.sin((m + 1) * np.pi * z) for m, c in enumerate(coeff))
        u_old = Field(np.clip(vals, -0.3, 0.05), col)
        if trial % 3 == 0:
            src = float(rng.uniform(-0.05, 0.05)) * np.sin(np.pi * z)
        else:
            src = None
        # tolerance sits above the fourth-difference round-off floor,
        # which grows like (n+1)^4 when the fourth-order term is active
        floor = 8.5e-7 * ((n + 1) / 401.0) ** 4 if gamma else 0.0
        tol = max(1e-10, 20.0 * floor)
        cfg = StepConfig(h=h, gamma=gamma, t_end=h, newton_tol=tol)
        banded = banded_step(u_old, cfg, table, source=src)
        dense = dense_reference_step(u_old, cfg, table, source=src)
        gap = float(np.max(np.abs(banded.values - dense.values)))
        worst_ratio = max(worst_ratio, gap / (100.0 * tol))
        assert gap <= 100.0 * tol, f"trial {trial}: n={n} gamma={gamma} gap={gap:.3e}"
    ok = worst_ratio <= 1.0
    _report(
        9,
        "dense-reference-agreement",
        ok,
        f"20 instances, worst gap at {worst_ratio:.2e} of the 100*newton_tol bound",
    )
    assert ok


def test_criterion_10_time_derivative_energy_bounded(table):
    col = Column(length=1.0, n_cells=200, gravity_sign=-1.0)
    u0 = project_initial(_lens(col))
    totals = []
    for h in (2.5e-4, 1.25e-4, 6.25e-5):
        cfg = StepConfig(h=h, gamma=0.1, t_end=1.0, newton_tol=1.0e-7)
        totals.append(regularity_monitor(run(u0, cfg, table)))
    ratios = [totals[i + 1] / totals[i] for i in range(2)]
    ok = max(ratios) <= 1.2
    _report(
        10,
        "time-derivative-energy",
        ok,
        f"totals {totals[0]:.4f}/{totals[1]:.4f}/{totals[2]:.4f}, "
        f"successive ratios {ratios[0]:.3f}/{ratios[1]:.3f} <= 1.2",
    )
    assert max(ratios) <= 1.2
