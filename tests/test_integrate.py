import math
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline  # the oracle of the resampler's refusals

from vacuumflow import integrate, presets, verify
from vacuumflow.config import load_config
from vacuumflow.core import ModelKind, Particle, PhasePoint, emergent_rest_mass, init_phase
from vacuumflow.dynamics import hamiltonian
from vacuumflow.errors import ConfigError, NoConvergence, NoOverlap, SubluminalViolation
from vacuumflow.fields import FieldSource, VacuumField, jac_t_dot
from vacuumflow.integrate import (
    RK4,
    RK45,
    ImplicitMidpoint,
    TrajectoryRecord,
    _hermite,
    compare_trajectories,
    simulate,
    step,
)
from vacuumflow.presets import standard_flyby

ORIGIN = np.zeros(3)


@pytest.mark.parametrize("tau_end, h, name", [(0.0, 0.1, "tau_end"), (1.0, -0.1, "h"), (1.0, 1e-8, "h"),
                                               (1.0, 2.5, "h")])
def test_simulate_checks_its_span_through_step_count(uniform_field, tau_end, h, name):
    """tau_end > 0, 0 < h <= tau_end and the step cap are step_count's, each naming
    its argument first: a step longer than the span would run the record past it."""
    with pytest.raises(ConfigError, match=f"^{name}: "):
        simulate(ModelKind.M1, Particle(q=1.0, u0=(0, 0, 0)), uniform_field, ORIGIN, tau_end, RK4(), h)


@pytest.mark.parametrize("build, name", [(lambda: ImplicitMidpoint(tol=0.0), "tol"),
                                         (lambda: ImplicitMidpoint(max_iter=0), "max_iter"),
                                         (lambda: RK45(atol=float("nan")), "atol"),
                                         (lambda: RK45(rtol=-1.0), "rtol")])
def test_integrator_parameters_are_checked_by_their_kind(build, name):
    with pytest.raises(ConfigError, match=f"^{name}: "):
        build()


def test_linear_flow_exact(uniform_field):
    """Uniform W: momentum frozen, position advances linearly for any stepper.

    RK45 is adaptive and runs through simulate only; step refuses it."""
    particle = Particle(q=1.0, u0=(0.6, 0, 0))
    ph0 = init_phase(ModelKind.M1, particle, uniform_field, ORIGIN)
    ends = []
    for integ in (RK4(), ImplicitMidpoint()):
        ph1 = step(integ, ModelKind.M1, ph0, uniform_field, 0.4)
        ends.append((ph1.r, ph1.mom, ph1.t))
    rec = simulate(ModelKind.M1, particle, uniform_field, ORIGIN, 0.4, RK45(), 0.4)
    ends.append((rec.r[-1], rec.mom[-1], rec.t[-1]))
    for r, mom, t in ends:
        npt.assert_allclose(r, [0.75 * 0.4, 0, 0], rtol=1e-12)
        npt.assert_allclose(mom, ph0.mom, atol=1e-13)
        npt.assert_allclose(t, 1.25 * 0.4, rtol=1e-12)
    with pytest.raises(ValueError, match="simulate"):
        step(RK45(), ModelKind.M1, ph0, uniform_field, 0.4)


def test_rk4_one_step_fifth_order(static_source_field):
    sc = standard_flyby()
    ph0 = init_phase(ModelKind.M1, sc.particle, static_source_field, sc.r0)

    def one_step_error(h):
        ref = ph0
        n = 64
        for _ in range(n):
            ref = step(RK4(), ModelKind.M1, ref, static_source_field, h / n)
        one = step(RK4(), ModelKind.M1, ph0, static_source_field, h)
        return np.max(np.abs(np.concatenate([one.r - ref.r, one.mom - ref.mom, [one.t - ref.t]])))

    ratio = one_step_error(0.2) / one_step_error(0.1)
    assert 22.0 <= ratio <= 45.0, f"one-step Richardson ratio {ratio}"


def test_midpoint_reversible(static_source_field):
    sc = standard_flyby()
    ph0 = init_phase(ModelKind.M1, sc.particle, static_source_field, sc.r0)
    integ = ImplicitMidpoint(tol=1e-14)
    fwd = step(integ, ModelKind.M1, ph0, static_source_field, 0.05)
    back = step(integ, ModelKind.M1, fwd, static_source_field, -0.05)
    npt.assert_allclose(back.r, ph0.r, atol=1e-13)
    npt.assert_allclose(back.mom, ph0.mom, atol=1e-13)
    npt.assert_allclose(back.t, ph0.t, atol=1e-13)


def test_midpoint_no_convergence(static_source_field):
    sc = standard_flyby()
    ph0 = init_phase(ModelKind.M1, sc.particle, static_source_field, sc.r0)
    with pytest.raises(NoConvergence):
        step(ImplicitMidpoint(tol=1e-15, max_iter=2), ModelKind.M1, ph0, static_source_field, 0.5)


def test_free_particle_straight_line(uniform_field):
    traj = simulate(
        ModelKind.M1, Particle(q=1.0, u0=(0.5, 0.1, 0)), uniform_field, ORIGIN, 10.0,
        ImplicitMidpoint(), 1e-2,
    )
    assert traj.max_relative_energy_drift() <= 1e-13
    # straight line: r proportional to tau
    rdir = traj.r[-1] / traj.tau[-1]
    npt.assert_allclose(traj.r, np.outer(traj.tau, rdir), atol=1e-12)
    assert np.all(np.diff(traj.tau) > 0) and np.all(np.diff(traj.t) > 0)


def test_flyby_drift_bound(static_source_field):
    sc = standard_flyby()
    traj = simulate(ModelKind.M1, sc.particle, static_source_field, sc.r0, sc.tau_end,
                    ImplicitMidpoint(), sc.h)
    assert traj.max_relative_energy_drift() <= 1e-8


def test_m3_zero_a_matches_m1_exactly(static_source_field):
    sc = standard_flyby()
    t1 = simulate(ModelKind.M1, sc.particle, static_source_field, sc.r0, 2.0, ImplicitMidpoint(), 1e-3)
    t3 = simulate(ModelKind.M3, sc.particle, static_source_field, sc.r0, 2.0, ImplicitMidpoint(), 1e-3)
    npt.assert_allclose(t1.r, t3.r, atol=1e-12)
    npt.assert_allclose(t1.mom, t3.mom, atol=1e-12)
    npt.assert_allclose(t1.t, t3.t, atol=1e-12)


def test_compare_identical_is_zero(static_source_field):
    """A record against itself: no position deviation, and the second slot is
    the record's own relative energy drift."""
    sc = standard_flyby()
    traj = simulate(ModelKind.M1, sc.particle, static_source_field, sc.r0, 2.0, RK4(), 1e-2)
    pos, drift = compare_trajectories(traj, traj)
    assert pos == 0.0 and drift == traj.max_relative_energy_drift() > 0.0


def test_compare_no_overlap(uniform_field):
    a = simulate(ModelKind.M1, Particle(q=1.0, u0=(0.5, 0, 0)), uniform_field, ORIGIN, 1.0, RK4(), 1e-2)
    b = simulate(ModelKind.M1, Particle(q=1.0, u0=(0.5, 0, 0)), uniform_field, ORIGIN, 1.0, RK4(), 1e-2)
    b.t = b.t + 100.0
    with pytest.raises(NoOverlap):
        compare_trajectories(a, b)


@settings(max_examples=200)
@given(n=st.integers(2, 200), seed=st.integers(0, 2**32 - 1), t0=st.floats(-1e3, 1e3),
       scale=st.integers(-4, 3))
def test_hermite_reproduces_a_cubic(n, seed, t0, scale):
    """Fed a cubic's exact values and derivatives, the resampler gives the cubic
    back to round-off, inside the samples and a little past either end."""
    rng = np.random.default_rng(seed)
    t = t0 + np.cumsum(rng.uniform(0.01, 1.0, n)) * 10.0 ** scale
    assume(np.all(np.diff(t) > 0))
    mid, half = 0.5 * (t[0] + t[-1]), 0.5 * (t[-1] - t[0])
    coef = rng.normal(size=(4, 3))  # the cubic in x = (t - mid) / half, per component

    def cubic(ts):
        x = ((ts - mid) / half)[:, None]
        return coef[0] + x * (coef[1] + x * (coef[2] + x * coef[3]))

    def slope(ts):
        x = ((ts - mid) / half)[:, None]
        return (coef[1] + x * (2 * coef[2] + x * 3 * coef[3])) / half

    ts = np.concatenate((t, rng.uniform(t[0], t[-1], 64), [t[0] - 0.1 * half, t[-1] + 0.1 * half]))
    got = _hermite(t, cubic(t), slope(t), ts)
    # the chord (r1 - r0) / dt loses |t| / dt digits of the times' rounding
    tol = 1e-12 * (1.0 + np.max(np.abs(t - mid)) / np.min(np.diff(t)))
    npt.assert_allclose(got, cubic(ts), rtol=0, atol=tol * np.max(np.abs(coef)))


def test_hermite_error_falls_16x_per_halving_on_the_gyration_circle():
    """On samples of the gyration circle with its exact lab velocity, the
    resampler's largest error falls by about 2^4 = 16 per halving of the
    sample step: a fourth-order interpolant."""
    b, u = 1.0, 0.6
    fine = np.linspace(0.0, 4 * math.pi, 4001)

    def circle_velocity(ts):
        return np.stack([u * np.cos(b * ts), -u * np.sin(b * ts), np.zeros_like(ts)], axis=1)

    errors = []
    for steps in (40, 80, 160):
        t = np.linspace(0.0, 4 * math.pi, steps + 1)
        got = _hermite(t, presets.gyration_analytic(t, b=b, u=u), circle_velocity(t), fine)
        errors.append(np.max(np.linalg.norm(got - presets.gyration_analytic(fine, b=b, u=u), axis=1)))
    for coarse, finer in zip(errors, errors[1:]):
        assert 15.0 <= coarse / finer <= 17.0, errors


@pytest.mark.parametrize("model, fld", [(ModelKind.M0, presets.gyration().field),
                                        *((m, presets.moving_source_field()) for m in presets.VACUUM_MODELS)],
                         ids=lambda v: getattr(v, "value", ""))
def test_u_lab_is_the_lab_velocity(model, fld):
    """Every model's u_lab is dr/dt, which the resampler takes as its slopes: the
    central difference of r over t meets it to O(h^2)."""
    particle = Particle(q=1.0, u0=(0.3, 0.2, -0.1))

    def gap(h):
        rec = simulate(model, particle, fld, np.array([0.2, -0.1, 0.3]), 1.0, RK4(), h)
        fd = (rec.r[2:] - rec.r[:-2]) / (rec.t[2:] - rec.t[:-2])[:, None]
        return np.max(np.abs(fd - rec.u_lab[1:-1]))

    g1, g2 = gap(2e-2), gap(1e-2)
    assert g1 < 1e-3 and 3.5 <= g1 / g2 <= 4.5, (g1, g2)


@pytest.mark.parametrize("x, y", [([0.0, np.nan, 2.0], [1.0, 2.0, 3.0]), ([0.0, 1.0, np.inf], [1.0, 2.0, 3.0]),
                                  ([0.0, 1.0, 2.0], [1.0, -np.inf, 3.0]), ([0.0, 1.0, 1.0], [1.0, 2.0, 3.0]),
                                  ([0.0, 2.0, 1.0], [1.0, 2.0, 3.0]), ([0.0], [1.0]), ([0.0, 1.0], [1.0, 2.0, 3.0])])
def test_spline_refuses_what_scipy_refuses(x, y):
    """The resampler refuses, as a ValueError, each record that scipy's
    CubicSpline refuses: a non-finite time or position, times that do not
    strictly increase, fewer than two samples and a length mismatch.
    compare_trajectories passes the ValueError on, except for a record of one
    sample: it spans no lab time, so no range is common (NoOverlap)."""
    with pytest.raises(ValueError):
        CubicSpline(np.array(x), np.array(y))
    t, r = np.array(x), np.outer(y, [1.0, -1.0, 0.5])
    with pytest.raises(ValueError):
        _hermite(t, r, np.zeros_like(r), np.array([0.5]))
    rec = TrajectoryRecord(tau=t, t=t, r=r, mom=np.zeros_like(r), energy=np.ones(len(t)),
                           w=-np.ones(len(t)), u_lab=np.zeros_like(r))
    good = TrajectoryRecord(tau=np.arange(3.0), t=np.arange(3.0), r=np.zeros((3, 3)), mom=np.zeros((3, 3)),
                            energy=np.ones(3), w=-np.ones(3), u_lab=np.zeros((3, 3)))
    for pair in ((rec, good), (good, rec)):
        with pytest.raises(NoOverlap if len(t) == 1 else ValueError):
            compare_trajectories(*pair)


def test_rk45_agrees_with_midpoint(static_source_field):
    """Adaptive at 1e-10 vs symplectic at h = 1e-4 on the standard flyby."""
    sc = standard_flyby()
    a = simulate(ModelKind.M1, sc.particle, sc.field, sc.r0, sc.tau_end,
                 RK45(atol=1e-10, rtol=1e-10), sc.h)
    b = simulate(ModelKind.M1, sc.particle, sc.field, sc.r0, sc.tau_end,
                 ImplicitMidpoint(), 1e-4)
    pos, _ = compare_trajectories(a, b)
    assert pos <= 1e-7, f"integrator cross-check deviation {pos}"


def test_clock_identity_bound():
    """(dt)^2 - (dr)^2 = (dtau)^2 per step to O(h^3) under halving.

    The midpoint update satisfies the identity exactly (its increments all
    evaluate at the same midpoint state), so it sits at the round-off floor;
    RK4 shows the generic truncation-order behaviour.
    """
    sc = standard_flyby()

    def defect(integ, h):
        traj = simulate(ModelKind.M1, sc.particle, sc.field, sc.r0, 2.0, integ, h)
        dtau = np.diff(traj.tau)
        dt = np.diff(traj.t)
        dr = np.diff(traj.r, axis=0)
        return np.max(np.abs(dt**2 - np.einsum("ij,ij->i", dr, dr) - dtau**2))

    for h in (2e-3, 1e-3):
        assert defect(ImplicitMidpoint(), h) <= 1e-2 * h**3
    d1, d2 = defect(RK4(), 4e-2), defect(RK4(), 2e-2)
    assert d1 <= 1.0 * 4e-2**3
    assert d1 / d2 >= 6.0, f"clock defect ratio {d1 / d2}"


def test_m2_m3_split_with_nonuniform_a():
    """With spatially varying A the M2 and M3 paths must visibly separate,
    on the scale of the accumulated force-gap estimate (the negative control
    of criterion 4's uniform-A coincidence)."""
    sc = presets.nonuniform_a_pair()
    m2 = simulate(ModelKind.M2, sc.particle, sc.field, sc.r0, sc.tau_end, RK4(), sc.h)
    m3 = simulate(ModelKind.M3, sc.particle, sc.field, sc.r0, sc.tau_end, RK4(), sc.h)
    pos_dev, _ = compare_trajectories(m2, m3)
    # crude kinematic lower-bound estimate: double time integral of the
    # force-gap magnitude along the M3 trajectory, scaled by the heavy mass
    jac = sc.field.a_jac(m3.r, m3.t)
    gap = np.linalg.norm(sc.field.q_test * jac_t_dot(jac, m3.u_lab), axis=1)
    mass = float(np.max(-m3.w))
    dp = np.concatenate([[0.0], np.cumsum(0.5 * (gap[1:] + gap[:-1]) * np.diff(m3.t))])
    gap_estimate = float(np.cumsum(0.5 * (dp[1:] + dp[:-1]) * np.diff(m3.t))[-1]) / mass
    assert pos_dev > 1e-3
    assert pos_dev >= 0.1 * gap_estimate
    # contrast: the uniform-A pair stays together
    assert verify.uniform_a_deviation()["pos_dev"] <= 1e-8


@pytest.mark.parametrize("integ", [RK4(), ImplicitMidpoint()], ids=["rk4", "midpoint"])
@pytest.mark.parametrize("tau_end", [30.0, 2.4])
def test_truncated_record_ends_at_its_last_valid_sample(integ, tau_end):
    """The state after step 48 lies past the guard, and step 49's first evaluation
    raises there.  The record ends at sample 47, with that error as its
    termination, also when tau_end = 2.4 ends the run at step 48."""
    fld = VacuumField(
        w_inf=-1.0,
        sources=(FieldSource(qs=30.0, r0=(6.0, 0, 0), uf=(-0.8, 0, 0), eps=0.05),),
        q_test=1.0,
    )
    rec = simulate(ModelKind.M1, Particle(q=1.0, u0=(-0.5, 0, 0)), fld, ORIGIN, tau_end, integ, 0.05)
    assert len(rec) == 48 and rec.meta["termination"].startswith("step 49: W^2 - |mom|^2 = -")
    assert rec.meta["stats"]["guard_min"] > 0.0
    assert np.all(np.isfinite(rec.energy)) and math.isfinite(rec.max_relative_energy_drift())


@pytest.mark.parametrize("integ", [RK4(), ImplicitMidpoint(), RK45()], ids=["rk4", "midpoint", "rk45"])
def test_every_record_ends_before_its_first_sample_past_the_guard(monkeypatch, integ):
    """One guard rule for every integrator: _build_record cuts the record at its
    first sample whose guard is at or below the floor.  The floor of the cut is
    raised to 0.1 here, which the guard of the overrun run above crosses at
    sample 187 (point_rhs keeps its own floor, so the steps run on)."""
    fld = VacuumField(
        w_inf=-1.0,
        sources=(FieldSource(qs=30.0, r0=(6.0, 0, 0), uf=(-0.8, 0, 0), eps=0.05),),
        q_test=1.0,
    )

    def run():
        return simulate(ModelKind.M1, Particle(q=1.0, u0=(-0.5, 0, 0)), fld, ORIGIN, 2.3, integ, 1e-2)

    full = run()
    guard = full.w * full.w - np.einsum("ij,ij->i", full.mom, full.mom)
    assert len(full) == 231 and int(np.argmax(guard <= 0.1)) == 187
    monkeypatch.setattr(integrate, "SUBLUMINAL_EPS", 0.1)
    rec = run()
    assert len(rec) == 187 and rec.meta["stats"]["guard_min"] > 0.1
    npt.assert_array_equal(rec.r, full.r[:187])


def test_flyby_scenario_evaluation_count():
    """Each model of scenarios/flyby.json (10^4 steps) takes one evaluation per step
    and a few more; the Euler start of every step took 36,190."""
    cfg = load_config(Path(__file__).resolve().parents[1] / "scenarios" / "flyby.json")
    for model in cfg.models:
        rec = simulate(model, cfg.particle, cfg.field, cfg.r0, cfg.tau_end, cfg.integrator, cfg.h)
        assert len(rec) == 10_001 and "termination" not in rec.meta
        assert rec.meta["stats"]["rhs_evals"] <= 10_100 and rec.meta["stats"]["fp_restarts"] == 0


def test_a_failed_extrapolated_start_restarts_from_the_euler_start(monkeypatch, static_source_field):
    """A guard error on the extrapolated start of a step retries that step from
    f(y_n): the run goes on, fp_restarts counts the step, and its evaluations
    keep the counter identity.  The states match the clean run to round-off."""
    sc = standard_flyby()

    def run():
        return simulate(ModelKind.M1, sc.particle, static_source_field, sc.r0, 1.0, ImplicitMidpoint(), 1e-2)

    clean = run()
    point_rhs = integrate.point_rhs
    calls = []

    def tripping(*args):
        calls.append(None)
        if len(calls) == 50:  # an iteration of step 20 or so, from an extrapolated start
            raise SubluminalViolation("injected")
        return point_rhs(*args)

    monkeypatch.setattr(integrate, "point_rhs", tripping)
    rec = run()
    stats = rec.meta["stats"]
    assert "termination" not in rec.meta and stats["fp_restarts"] == 1
    assert stats["rhs_evals"] == len(calls) == 3 + 1 + round(100 * stats["fp_iter_mean"])
    npt.assert_allclose(rec.r, clean.r, rtol=0.0, atol=1e-12)
    npt.assert_allclose(rec.mom, clean.mom, rtol=0.0, atol=1e-12)


def test_early_termination_diagnostics():
    """A strong moving source overruns the particle; both drivers must stop
    with a diagnostic instead of stepping through the guard."""
    fld = VacuumField(
        w_inf=-1.0,
        sources=(FieldSource(qs=30.0, r0=(6.0, 0, 0), uf=(-0.8, 0, 0), eps=0.05),),
        q_test=1.0,
    )
    particle = Particle(q=1.0, u0=(-0.5, 0, 0))
    tr = simulate(ModelKind.M1, particle, fld, ORIGIN, 30.0, ImplicitMidpoint(), 1e-3)
    assert tr.meta.get("termination") and tr.tau[-1] < 30.0
    tr2 = simulate(ModelKind.M1, particle, fld, ORIGIN, 30.0, RK45(), 1e-2)
    assert tr2.meta.get("termination") and tr2.tau[-1] < 30.0


def test_rk45_rejects_trial_stages_past_the_guard(monkeypatch):
    """Near the guard, RK45 trial stages step past it; point_rhs raises there,
    which rejects the step with the smallest step factor and skips the rest of
    its stages, and the run goes on to tau_end.  The fixed-step integrators
    stop at their first step here."""
    fld = VacuumField(w_inf=-1.0, sources=(FieldSource(qs=2.0, r0=(0, 0, 0), uf=(0, 0, 0), eps=0.05),))
    particle = Particle(q=1.0, u0=(0.9999, 0, 0))
    r0 = (-0.3, 0.01, 0.0)
    tripped = []
    point_rhs = integrate.point_rhs

    def counted(*args):
        try:
            return point_rhs(*args)
        except SubluminalViolation:
            tripped.append(args[1][6])
            raise

    monkeypatch.setattr(integrate, "point_rhs", counted)
    rec = simulate(ModelKind.M1, particle, fld, r0, 1.0, RK45(), 1e-2)
    assert tripped and len(rec) == 101 and "termination" not in rec.meta
    assert rec.meta["stats"]["guard_min"] > 0.0
    stats = rec.meta["stats"]
    trials = stats["accepted"] + stats["rejected"]
    assert stats["rejected"] > 0 and 2 + 6 * trials - 5 * stats["rejected"] <= stats["nfev"] < 2 + 6 * trials
    for integ in (RK4(), ImplicitMidpoint()):
        assert simulate(ModelKind.M1, particle, fld, r0, 1.0, integ, 1e-2).meta["termination"].startswith("step 1:")


@pytest.mark.parametrize("model, periods", [(ModelKind.M3, 1.0), (ModelKind.M0, 1.0), (ModelKind.M1, None)])
def test_rk45_takes_scipys_steps(model, periods):
    """The package's Dormand-Prince stepper takes the steps of scipy's RK45 (same
    tableau, first step and step control): the same evaluations, and samples
    that agree with solve_ivp's dense output to round-off, on a gyration and
    on the standard flyby."""
    from scipy.integrate import solve_ivp

    sc = presets.gyration(periods=periods) if periods else standard_flyby()
    integ = RK45(atol=1e-12, rtol=1e-12) if periods else RK45()
    tau_end, h = (verify.m0_lab_span(sc.particle, sc.tau_end, sc.h) if model is ModelKind.M0
                  else (sc.tau_end, sc.h))
    rec = simulate(model, sc.particle, sc.field, sc.r0, tau_end, integ, h)
    rest_mass = emergent_rest_mass(sc.particle, sc.field, sc.r0) if model is ModelKind.M0 else None
    y0 = integrate._pack(init_phase(model, sc.particle, sc.field, sc.r0))
    sol = solve_ivp(lambda _s, y: integrate.point_rhs(model, y.tolist(), sc.field, rest_mass), (0.0, rec.tau[-1]),
                    y0, method="RK45", t_eval=rec.tau, rtol=integ.rtol, atol=integ.atol)
    assert "termination" not in rec.meta and rec.meta["stats"]["nfev"] == sol.nfev
    npt.assert_allclose(rec.r, sol.y[0:3].T, rtol=0.0, atol=1e-13)
    npt.assert_allclose(rec.mom, sol.y[3:6].T, rtol=0.0, atol=1e-13)


def test_rk45_samples_do_not_depend_on_the_dense_batch(monkeypatch, static_source_field):
    """The dense output fills its samples in batches of accepted steps; every
    batch size gives the same bytes."""
    sc = standard_flyby()

    def run():
        integ = RK45(atol=1e-12, rtol=1e-12)
        return simulate(ModelKind.M1, sc.particle, static_source_field, sc.r0, 2.0, integ, 1e-3)

    ref = run()
    assert ref.meta["stats"]["accepted"] > 20
    for batch in (1, 7):
        monkeypatch.setattr(integrate, "_DENSE_BATCH", batch)
        rec = run()
        assert rec.meta == ref.meta
        for name in ("tau", "t", "r", "mom", "energy"):
            assert getattr(rec, name).tobytes() == getattr(ref, name).tobytes()


@pytest.mark.parametrize("overrun", [False, True], ids=["complete", "guard_stop"])
def test_midpoint_states_do_not_depend_on_the_row_batch(monkeypatch, static_source_field, overrun):
    """The implicit midpoint and RK4 write their states to the record in batches
    of rows; every batch size gives the same bytes, on 2,000 steps of the
    standard flyby and on the overrun run above, which a guard ends at step 49."""
    if overrun:
        fld = VacuumField(
            w_inf=-1.0,
            sources=(FieldSource(qs=30.0, r0=(6.0, 0, 0), uf=(-0.8, 0, 0), eps=0.05),),
            q_test=1.0,
        )
        particle, r0, tau_end, h = Particle(q=1.0, u0=(-0.5, 0, 0)), ORIGIN, 30.0, 0.05
    else:
        sc = standard_flyby()
        particle, fld, r0, tau_end, h = sc.particle, static_source_field, sc.r0, 2.0, 1e-3
    default = integrate._ROW_BATCH
    for integ in (ImplicitMidpoint(), RK4()):
        monkeypatch.setattr(integrate, "_ROW_BATCH", default)
        ref = simulate(ModelKind.M1, particle, fld, r0, tau_end, integ, h)
        assert len(ref) == (48 if overrun else 2001) and ("termination" in ref.meta) == overrun
        for batch in (1, 7, 5000):
            monkeypatch.setattr(integrate, "_ROW_BATCH", batch)
            rec = simulate(ModelKind.M1, particle, fld, r0, tau_end, integ, h)
            assert rec.meta == ref.meta
            for name in ("tau", "t", "r", "mom", "energy"):
                assert getattr(rec, name).tobytes() == getattr(ref, name).tobytes()


def test_meta_names_the_integrator_and_its_parameters(uniform_field):
    """meta["integrator"] is the config kind with the dataclass's fields, floats as :g."""
    names = {RK4(): "rk4", ImplicitMidpoint(): "implicit_midpoint(tol=1e-12,max_iter=50)",
             RK45(): "rk45(atol=1e-10,rtol=1e-10)",
             ImplicitMidpoint(tol=2.5e-9, max_iter=1234567): "implicit_midpoint(tol=2.5e-09,max_iter=1234567)"}
    for integ, name in names.items():
        rec = simulate(ModelKind.M1, Particle(q=1.0, u0=(0.5, 0, 0)), uniform_field, ORIGIN, 0.1, integ, 0.01)
        assert rec.meta["integrator"] == name


def test_a_collapsing_rk45_step_ends_the_record(monkeypatch, uniform_field):
    """A right-hand side that raises past lab time 0.5, where no guard of the
    field lies, rejects every trial step that reaches past it.  The step shrinks
    below 10 ulps of tau, and the record ends at its last sample before the wall
    with a termination that names the error; nothing raises."""
    point_rhs = integrate.point_rhs

    def walled(model, y, *args):
        if y[6] > 0.5:
            raise SubluminalViolation("wall at t = 0.5")
        return point_rhs(model, y, *args)

    monkeypatch.setattr(integrate, "point_rhs", walled)
    rec = simulate(ModelKind.M1, Particle(q=1.0, u0=(0.5, 0, 0)), uniform_field, ORIGIN, 1.0, RK45(), 1e-2)
    gamma = 1.0 / math.sqrt(1.0 - 0.25)
    assert len(rec) == math.floor(0.5 / gamma / 1e-2) + 1 and rec.t[-1] < 0.5
    assert rec.meta["termination"].startswith(f"step {len(rec)}: RK45 step fell below 10 ulps of tau = ")
    assert rec.meta["termination"].endswith("after a trial stage raised: wall at t = 0.5")
    assert rec.meta["stats"]["rejected"] > 0


def test_broken_guard_warns_nothing():
    """A checked call on a broken guard raises, and a truncated run whose last
    state lies past the guard builds its record, which drops that state,
    without a numpy warning."""
    fld = VacuumField(
        w_inf=-1.0,
        sources=(FieldSource(qs=30.0, r0=(6.0, 0, 0), uf=(-0.8, 0, 0), eps=0.05),),
        q_test=1.0,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SubluminalViolation):
            hamiltonian(ModelKind.M1, PhasePoint(ORIGIN, (1.5, 0, 0)), fld)
        rec = simulate(ModelKind.M1, Particle(q=1.0, u0=(-0.5, 0, 0)), fld, ORIGIN, 30.0, RK4(), 0.05)
    assert rec.meta["termination"].startswith(f"step {len(rec) + 1}: ")


def test_trajectory_csv_roundtrip(tmp_path, uniform_field):
    import csv

    traj = simulate(ModelKind.M1, Particle(q=1.0, u0=(0.5, 0, 0)), uniform_field, ORIGIN, 1.0,
                    RK4(), 1e-2)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(traj.CSV_COLUMNS)
    assert len(rows) == len(traj) + 1
    npt.assert_allclose(float(rows[5][0]), traj.tau[4], rtol=0)  # 17g round-trips
    npt.assert_allclose(float(rows[5][8]), traj.energy[4], rtol=0)


def test_trajectory_csv_bytes_match_csv_writer(tmp_path):
    """The streamed CSV is byte-identical to csv.writer rows of f"{v:.17g}" cells."""
    import csv

    special = [-0.0, 5e-324, 1e300, float("nan")]
    n = len(special)
    col = np.array(special)
    vec = np.column_stack([col, col[::-1], col])
    traj = TrajectoryRecord(tau=col, t=col[::-1], r=vec, mom=vec[:, ::-1], energy=col,
                            w=col[::-1], u_lab=vec)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)

    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(traj.CSV_COLUMNS)
        for i in range(n):
            row = [traj.tau[i], traj.t[i], *traj.r[i], *traj.mom[i], traj.energy[i], traj.w[i],
                   *traj.u_lab[i]]
            writer.writerow([f"{v:.17g}" for v in row])
    assert path.read_bytes() == ref.read_bytes()


def test_run_stats_counters(static_source_field):
    """meta["stats"] counts the work of each run, identically on a rerun."""
    sc = standard_flyby()

    def run(integ, h, model=ModelKind.M1):
        return simulate(model, sc.particle, static_source_field, sc.r0, 1.0, integ, h)

    def guard_min(rec):
        # the smallest W^2 - |mom|^2 over the samples (k = mom: M1, no A)
        m = rec.mom
        return float(np.min(rec.w * rec.w - (m[:, 0] * m[:, 0] + m[:, 1] * m[:, 1] + m[:, 2] * m[:, 2])))

    rec = run(ImplicitMidpoint(), 1e-2)
    mid = rec.meta
    steps = 100
    stats = mid["stats"]
    # an Euler-start evaluation in each of the three steps without a slope
    # history and in each restarted step, plus one per fixed-point iteration
    assert stats["fp_restarts"] == 0
    assert stats["rhs_evals"] == 3 + stats["fp_restarts"] + round(steps * stats["fp_iter_mean"])
    assert 1 <= stats["fp_iter_mean"] <= stats["fp_iter_max"] <= ImplicitMidpoint().max_iter
    assert stats["guard_min"] == guard_min(rec) > 0.0
    assert run(ImplicitMidpoint(), 1e-2).meta == mid
    rk4 = run(RK4(), 1e-2)
    assert rk4.meta["stats"] == {"rhs_evals": 4 * steps, "guard_min": guard_min(rk4)}
    rk45 = run(RK45(), 1e-2)
    stats = rk45.meta["stats"]
    assert set(stats) == {"nfev", "accepted", "rejected", "guard_min"} and stats["accepted"] > 0
    # k1 and the first-step probe, then six evaluations per trial step
    assert stats["nfev"] == 2 + 6 * (stats["accepted"] + stats["rejected"])
    assert stats["guard_min"] == guard_min(rk45)
    assert run(RK45(), 1e-2).meta == rk45.meta
    # M0 has no square-root guard, so it records none
    assert run(RK4(), 1e-2, ModelKind.M0).meta["stats"] == {"rhs_evals": 4 * steps}
