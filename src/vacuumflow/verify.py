"""Verification computations and their pass/fail rules, shared by the CLI and
the acceptance suite.

Each computation returns plain values/dicts.  CRITERIA, at the end, maps every
report to the values it checks as (label, value, tolerance key), and check()
judges one value against its key; the CLI (with a scenario's tolerances) and
the acceptance suite (with config.DEFAULT_TOLERANCES) read every PASS from
there.  Wall-clock gates ride along in the table but only the acceptance
suite asserts them, so the CLI's artifacts and exit codes never depend on
timing.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import presets
from .config import DEFAULT_TOLERANCES
from .core import ModelKind, PhasePoint
from .dynamics import (
    ForceKind,
    euler_lagrange_residual,
    force,
    hamiltonian,
    lagrangian,
    legendre_momentum,
    m2_xidot,
    vector_field,
)
from .fields import VacuumField
from .integrate import RK45, ImplicitMidpoint, RK4, TrajectoryRecord, compare_trajectories, simulate
from .maxwell import advected_integral, evolve_wave, maxwell_residuals, sample_scalar_series, solution_error
from .quantum import (
    QuantumKind,
    QuantumModel,
    build_hamiltonian,
    cn_step,
    cn_step_psi,
    dispersion_check,
    free_packet_sigma,
    gaussian_packet,
    l2_norm,
    model_gap,
    packet_sigma,
    plane_wave,
)

# -- criterion 1/2: conservation along the flyby ---------------------------------


def energy_drift_by_model(models=presets.VACUUM_MODELS, scenario=None) -> dict:
    """Relative Hamiltonian drift and wall time per model on the standard flyby."""
    sc = scenario or presets.standard_flyby()
    integ = ImplicitMidpoint()
    out = {}
    for model in models:
        t0 = time.perf_counter()
        traj = simulate(model, sc.particle, sc.field, sc.r0, sc.tau_end, integ, sc.h)
        elapsed = time.perf_counter() - t0
        out[model.value] = {
            "drift": traj.max_relative_energy_drift(),
            "seconds": elapsed,
            "samples": len(traj),
            "terminated": traj.meta.get("termination"),
        }
    return out


def mass_law_deviation(traj: TrajectoryRecord) -> float:
    """max |-W sqrt(1-u^2) - E0| / E0 along a recorded trajectory."""
    u2 = np.einsum("ij,ij->i", traj.u_lab, traj.u_lab)
    mass_law = -traj.w * np.sqrt(1.0 - u2)
    e0 = traj.energy[0]
    return float(np.max(np.abs(mass_law - e0)) / abs(e0))


def flyby_m1(scenario=None) -> TrajectoryRecord:
    sc = scenario or presets.standard_flyby()
    return simulate(ModelKind.M1, sc.particle, sc.field, sc.r0, sc.tau_end, ImplicitMidpoint(), sc.h)


# -- criterion 3: gyration equivalence -------------------------------------------


def gyration_deviations(periods: float = 5.0) -> dict:
    """M3 canonical flow vs direct M0 Lorentz integration vs the analytic circle."""
    sc = presets.gyration(periods=periods)
    u = float(np.linalg.norm(sc.particle.u0))
    gamma = 1.0 / math.sqrt(1.0 - u * u)
    t_span = sc.tau_end * gamma
    integ = RK45(atol=1e-12, rtol=1e-12)
    t_start = time.perf_counter()
    m3 = simulate(ModelKind.M3, sc.particle, sc.field, sc.r0, sc.tau_end, integ, sc.h)
    m0 = simulate(ModelKind.M0, sc.particle, sc.field, sc.r0, t_span, integ, t_span / 4000.0)
    elapsed = time.perf_counter() - t_start
    pos_dev, energy_dev = compare_trajectories(m3, m0)
    m3_circle = float(np.max(np.linalg.norm(m3.r - presets.gyration_analytic(m3.t), axis=1)))
    m0_circle = float(np.max(np.linalg.norm(m0.r - presets.gyration_analytic(m0.t), axis=1)))
    return {
        "m3_vs_m0": pos_dev,
        "energy_dev": energy_dev,
        "m3_vs_circle": m3_circle,
        "m0_vs_circle": m0_circle,
        "seconds": elapsed,
    }


# -- criterion 4: force gap and uniform-A coincidence ------------------------------


def force_gap_stats(seed: int = 0, n_states: int = 1000, fld: VacuumField | None = None) -> dict:
    """max |force(classical) - force(modified) - q grad<A,u>| over random states.

    rows is an (n_states, 14) array holding r, u, t, F_classical, F_modified
    and the deviation of each state.
    """
    fld = fld or presets.moving_source_field()
    rng = np.random.default_rng(seed)
    q = fld.q_test
    worst = 0.0
    rows = np.empty((n_states, 14))
    for row in rows:
        r = rng.uniform(-1.5, 1.5, 3)
        u = rng.uniform(-1.0, 1.0, 3)
        nu = np.linalg.norm(u)
        if nu >= 0.95:
            u *= 0.9 / nu
        t = rng.uniform(0.0, 2.0)
        fc = force(ForceKind.ClassicalLorentz, fld, r, u, q, t)
        fm = force(ForceKind.ModifiedLorentz, fld, r, u, q, t)
        grad_au = fld.a_jac(r, t).T @ u
        dev = float(np.max(np.abs(fc - fm - q * grad_au)))
        worst = max(worst, dev)
        row[:] = (*r, *u, t, *fc, *fm, dev)
    return {"max_identity_dev": worst, "states": n_states, "rows": rows}


def uniform_a_deviation(a_mag: float = 1e-5) -> dict:
    """Position deviation between the M2 and M3 flows with a uniform static A."""
    sc = presets.uniform_a_pair(a_mag=a_mag)
    integ = RK4()
    m2 = simulate(ModelKind.M2, sc.particle, sc.field, sc.r0, sc.tau_end, integ, sc.h)
    m3 = simulate(ModelKind.M3, sc.particle, sc.field, sc.r0, sc.tau_end, integ, sc.h)
    pos_dev, energy_dev = compare_trajectories(m2, m3)
    return {"pos_dev": pos_dev, "energy_dev": energy_dev, "a_mag": a_mag}


def nonuniform_a_deviation() -> dict:
    """M2-vs-M3 split with a spatially varying A, against the force-gap estimate."""
    sc = presets.nonuniform_a_pair()
    integ = RK4()
    m2 = simulate(ModelKind.M2, sc.particle, sc.field, sc.r0, sc.tau_end, integ, sc.h)
    m3 = simulate(ModelKind.M3, sc.particle, sc.field, sc.r0, sc.tau_end, integ, sc.h)
    pos_dev, _ = compare_trajectories(m2, m3)
    # crude kinematic lower-bound estimate: double time integral of the
    # force-gap magnitude along the M3 trajectory, scaled by the heavy mass
    q = sc.field.q_test
    jac = sc.field.a_jac(m3.r, m3.t)
    gap = np.linalg.norm(q * np.einsum("nji,nj->ni", jac, m3.u_lab), axis=1)
    mass = float(np.max(-m3.w))
    dp = np.concatenate([[0.0], np.cumsum(0.5 * (gap[1:] + gap[:-1]) * np.diff(m3.t))])
    dr = np.concatenate([[0.0], np.cumsum(0.5 * (dp[1:] + dp[:-1]) * np.diff(m3.t))]) / mass
    return {"pos_dev": pos_dev, "gap_estimate": float(dr[-1])}


# -- criterion 5: Legendre / Hamiltonian consistency -------------------------------


def _random_state(rng, model: ModelKind, fld: VacuumField):
    r = rng.uniform(-1.5, 1.5, 3)
    t = rng.uniform(0.0, 2.0)
    rdot = rng.uniform(-1.5, 1.5, 3)
    if model is ModelKind.M0:
        nu = np.linalg.norm(rdot)
        if nu >= 0.85:
            rdot *= 0.8 / nu
    return r, rdot, t

def _fd_momentum(model, r, rdot, fld, t, rest_mass, step=1e-6):
    # the M2 mover data is external under velocity variations: freeze it
    xidot = m2_xidot(r, rdot, fld, t) if model is ModelKind.M2 else None
    out = np.empty(3)
    for i in range(3):
        up = rdot.copy()
        dn = rdot.copy()
        up[i] += step
        dn[i] -= step
        lp = lagrangian(model, r, up, fld, t, rest_mass=rest_mass, xidot=xidot)
        lm = lagrangian(model, r, dn, fld, t, rest_mass=rest_mass, xidot=xidot)
        out[i] = (lp - lm) / (2.0 * step)
    return out


def legendre_consistency(seed: int = 1, n_states: int = 1000) -> dict:
    """Per model: worst relative <P,rdot> - L vs H gap, and dL/drdot vs FD gap.

    M0 runs on a source-free field (its Lagrangian is the free form, so the
    identity holds where the potential term vanishes); the vacuum models run on
    the generic moving-source field.
    """
    rng = np.random.default_rng(seed)
    field_vac = presets.moving_source_field()
    field_m0 = presets.gyration().field
    rest_mass = 0.8
    out = {}
    for model in presets.ALL_MODELS:
        fld = field_m0 if model is ModelKind.M0 else field_vac
        worst_h = 0.0
        worst_p = 0.0
        for _ in range(n_states):
            r, rdot, t = _random_state(rng, model, fld)
            mom = legendre_momentum(model, r, rdot, fld, t, rest_mass=rest_mass)
            lag = lagrangian(model, r, rdot, fld, t, rest_mass=rest_mass)
            ham = hamiltonian(model, PhasePoint(r, mom, 0.0, t), fld, rest_mass=rest_mass)
            gap = abs(float(mom @ rdot) - lag - ham) / max(abs(ham), 1e-12)
            worst_h = max(worst_h, gap)
            fd = _fd_momentum(model, r, rdot, fld, t, rest_mass)
            perr = float(np.max(np.abs(mom - fd))) / max(float(np.max(np.abs(mom))), 1.0)
            worst_p = max(worst_p, perr)
        out[model.value] = {"hamiltonian_rel": worst_h, "momentum_fd_rel": worst_p}
    return out


def vector_field_fd(seed: int = 2, n_states: int = 200, step: float = 1e-6) -> dict:
    """Canonical right-hand side vs central finite differences of hamiltonian."""
    rng = np.random.default_rng(seed)
    field_vac = presets.moving_source_field()
    field_m0 = presets.gyration().field
    rest_mass = 0.8
    out = {}
    for model in presets.ALL_MODELS:
        fld = field_m0 if model is ModelKind.M0 else field_vac
        worst = 0.0
        for _ in range(n_states):
            r = rng.uniform(-1.5, 1.5, 3)
            t = rng.uniform(0.0, 2.0)
            w = fld.w(r, t)
            mom = rng.uniform(-0.5, 0.5, 3) * abs(w)
            if model is ModelKind.M2:
                # keep the guard healthy after the qA shift
                mom *= 0.8
            phase = PhasePoint(r, mom, 0.0, t)
            try:
                rdot, momdot = vector_field(model, phase, fld, rest_mass=rest_mass)
            except Exception:
                continue
            fd_r = np.empty(3)
            fd_m = np.empty(3)
            for i in range(3):
                mp = mom.copy(); mp[i] += step
                mm = mom.copy(); mm[i] -= step
                fd_r[i] = (
                    hamiltonian(model, PhasePoint(r, mp, 0.0, t), fld, rest_mass=rest_mass)
                    - hamiltonian(model, PhasePoint(r, mm, 0.0, t), fld, rest_mass=rest_mass)
                ) / (2.0 * step)
                rp = r.copy(); rp[i] += step
                rm = r.copy(); rm[i] -= step
                fd_m[i] = -(
                    hamiltonian(model, PhasePoint(rp, mom, 0.0, t), fld, rest_mass=rest_mass)
                    - hamiltonian(model, PhasePoint(rm, mom, 0.0, t), fld, rest_mass=rest_mass)
                ) / (2.0 * step)
            scale = max(float(np.max(np.abs(rdot))), 1.0)
            dev = float(np.max(np.abs(rdot - fd_r))) / scale
            if model is not ModelKind.M0:  # M0 momdot is the Lorentz force, not -dH/dr
                scale_m = max(float(np.max(np.abs(momdot))), 1.0)
                dev = max(dev, float(np.max(np.abs(momdot - fd_m))) / scale_m)
            worst = max(worst, dev)
        out[model.value] = worst
    return out


# -- criterion 6: Euler-Lagrange convergence ----------------------------------------


def el_convergence(scenario=None) -> dict:
    """M1 flyby EL defect at h and h/2; second order means a ratio near 4."""
    sc = scenario or presets.standard_flyby()
    integ = ImplicitMidpoint()
    res = {}
    for label, h in (("h", sc.h), ("h2", sc.h / 2.0)):
        traj = simulate(ModelKind.M1, sc.particle, sc.field, sc.r0, sc.tau_end, integ, h)
        res[label] = euler_lagrange_residual(ModelKind.M1, traj, sc.field)
    res["ratio"] = res["h"] / res["h2"]
    return res


# -- criterion 7: wave-equation / Maxwell equivalence --------------------------------


_RESIDUAL_KEYS = ("gauss", "faraday", "ampere", "nomono", "gauge", "continuity")


def _run_grid(builder, n, **kwargs):
    grid, steps, report_index = builder(n, **kwargs) if kwargs else builder(n)
    evolve_wave(grid, steps)
    return grid, maxwell_residuals(grid, report_index), report_index


def prop1_suite(n_coarse: int = 48, n_fine: int = 96) -> dict:
    """Convergence table for the plane-wave and dipole runs + the gauge-violated
    sharpness check; all residuals evaluated at the same physical time."""
    t0 = time.perf_counter()
    out: dict = {}
    for name, builder, kwargs in (
        ("plane", presets.plane_wave_grid, {}),
        ("dipole", presets.dipole_grid, {}),
        ("violated", presets.dipole_grid, {"gauge_violation": 0.08}),
    ):
        gc, rc, idx_c = _run_grid(builder, n_coarse, **kwargs)
        gf, rf, idx_f = _run_grid(builder, n_fine, **kwargs)
        entry = {
            "coarse": {**rc.to_dict(), "stats": dict(gc.stats)},
            "fine": {**rf.to_dict(), "stats": dict(gf.stats)},
            "ratio": {},
        }
        for key in _RESIDUAL_KEYS:
            c = getattr(rc, key)
            f = getattr(rf, key)
            entry["ratio"][key] = (c / f) if f > 1e-14 else None
        if name == "plane":
            ec = solution_error(gc, idx_c)
            ef = solution_error(gf, idx_f)
            entry["l2_error"] = {"coarse": ec, "fine": ef, "ratio": ec / ef}
        out[name] = entry
    out["seconds"] = time.perf_counter() - t0
    return out


# -- criterion 8: advected integral ---------------------------------------------------


def advected_report(n: int = 48, h: float = 0.1) -> dict:
    fld, times, ball, uf = presets.advected_setup()
    series = sample_scalar_series(lambda pts, t: fld.coulomb(pts, t), n, h, times)
    comoving = advected_integral(series, uf, ball)
    fixed = advected_integral(series, np.zeros(3), ball)

    def rel_var(vals):
        return float((vals.max() - vals.min()) / abs(vals.mean()))

    return {
        "comoving_rel_variation": rel_var(comoving),
        "fixed_rel_variation": rel_var(fixed),
        "comoving": comoving.tolist(),
        "fixed": fixed.tolist(),
        "times": times.tolist(),
    }


# -- criteria 9/10: quantization -------------------------------------------------------


def dispersion_report(hbar: float = presets.HBAR_DEFAULT, w_const: float = -1.0) -> dict:
    rows = []
    for hk in presets.DISPERSION_SWEEP_HK:
        k = hk / hbar
        exact, truncated, err = dispersion_check(k, w_const, hbar)
        rows.append({"hk": hk, "exact": exact, "truncated": truncated, "error": err})
    logs = np.log([r["error"] for r in rows])
    exponent = float(np.polyfit(np.log(presets.DISPERSION_SWEEP_HK), logs, 1)[0])
    return {"rows": rows, "exponent": exponent, "error_at_0p2": rows[-1]["error"]}


def norm_drift_report(steps: int = 1000, dtau: float = 0.01) -> dict:
    dx, w, a = presets.quantum_profiles()
    hbar = presets.HBAR_DEFAULT
    n = w.size
    length = n * dx
    out = {}
    for kind in QuantumKind:
        prof_a = np.zeros(n) if kind is QuantumKind.FreeVacuum else a
        model = QuantumModel(kind, w, prof_a, q=1.0)
        op = build_hamiltonian(model, dx, hbar, "periodic")
        psi = gaussian_packet(n, dx, x0=0.5 * length, sigma0=0.8, k0=2.0, hbar=hbar).psi
        worst = 0.0
        for _ in range(steps):
            psi = cn_step_psi(op, psi, dtau)
            worst = max(worst, abs(l2_norm(psi, dx) - 1.0))
        out[kind.value] = worst
    return out


def packet_dispersion_report(tau_end: float = 15.0, dtau: float = 0.0025) -> dict:
    """Free Gaussian on a constant-mass profile vs the analytic spreading law.

    dtau must resolve the full phase rate |H|/hbar ~ 20 (the baseline potential
    dominates it); the Cayley map compresses frequency differences by
    ~(omega dtau/2)^2, which shows up directly as a spreading-rate deficit.
    """
    hbar = presets.HBAR_DEFAULT
    n = 4096
    length = 40.0
    dx = length / n
    sigma0 = 0.5
    w = -np.ones(n)
    model = QuantumModel(QuantumKind.FreeVacuum, w, np.zeros(n), q=1.0)
    op = build_hamiltonian(model, dx, hbar, "fixed")
    state = gaussian_packet(n, dx, x0=0.5 * length, sigma0=sigma0, k0=0.0, hbar=hbar, domain="fixed")
    steps = int(round(tau_end / dtau))
    for _ in range(steps):
        state = cn_step(op, state, dtau)
    measured = packet_sigma(state)
    predicted = free_packet_sigma(tau_end, sigma0, 1.0, hbar)
    return {
        "measured": measured,
        "predicted": predicted,
        "rel_err": abs(measured - predicted) / predicted,
        "stats": dict(op.stats),
    }


def model_gap_report(a_const: float = 0.1, q: float = 1.0, mode: int = 4, n: int = 16384) -> dict:
    hbar = presets.HBAR_DEFAULT
    dx = 2.0 * math.pi / n
    state = plane_wave(n, dx, mode, hbar)
    w = -np.ones(n)
    a = np.full(n, a_const)
    k = 2.0 * math.pi * mode / (n * dx)
    gap = model_gap(state, w, a, q)
    closed = q * q * a_const * a_const / 2.0 * (1.0 + (hbar * k) ** 2)
    return {
        "gap": gap,
        "closed_form": closed,
        "abs_err": abs(gap - closed),
        "gap_zero_a": model_gap(state, w, np.zeros(n), q),
        "gap_zero_q": model_gap(state, w, a, 0.0),
    }


# -- the criteria table ------------------------------------------------------------


def check(value, key, tolerance=DEFAULT_TOLERANCES.__getitem__) -> tuple[bool, str]:
    """(passed, "value rule") for one value against the tolerance key that tolerance looks up.

    A band [low, high] is inclusive, a *_max bound strict from above, a *_min
    bound strict from below; dispersion_error_width bounds the distance to
    dispersion_error_center; the key None asks for exactly 0.0; any other
    bound is inclusive from above.  None never passes.
    """
    bound = None if key is None else tolerance(key)
    if key is None:
        ok, rule = (lambda v: v == 0.0), "== 0"
    elif isinstance(bound, list):
        ok, rule = (lambda v: bound[0] <= v <= bound[1]), f"in [{bound[0]:g}, {bound[1]:g}]"
    elif key == "dispersion_error_width":
        center = tolerance("dispersion_error_center")
        ok, rule = (lambda v: abs(v - center) <= bound), f"within {bound:g} of {center:g}"
    elif key.endswith("_max"):
        ok, rule = (lambda v: v < bound), f"< {bound:g}"
    elif key.endswith("_min"):
        ok, rule = (lambda v: v > bound), f"> {bound:g}"
    else:
        ok, rule = (lambda v: v <= bound), f"<= {bound:g}"
    shown = "None" if value is None else f"{value:.6g}"
    return value is not None and bool(ok(value)), f"{shown} {rule}"


@dataclass(frozen=True)
class Criterion:
    """A report's paper criterion and checked values.  run makes the acceptance
    report (None: the verify function of the row's name, defaults); gate_s
    bounds wall(report) seconds, asserted by the acceptance suite only."""

    number: int
    values: Callable[[object], list]
    run: Callable[[], object] | None = None
    gate_s: float | None = None
    wall: Callable[[object], float] = lambda report: report["seconds"]


def _each(rep: dict, key: str, field: str | None = None) -> list:
    """One check per model (or operator) of a report keyed by model."""
    return [(f"{m} {field or key}", v if field is None else v[field], key) for m, v in rep.items()]


CRITERIA: dict[str, Criterion] = {
    "energy_drift_by_model": Criterion(1, lambda r: _each(r, "energy_drift", "drift"), gate_s=5.0,
                                       wall=lambda r: max(v["seconds"] for v in r.values())),
    "mass_law_deviation": Criterion(2, lambda dev: [("max |mass law - E0|/E0", dev, "mass_law")],
                                    run=lambda: mass_law_deviation(flyby_m1())),
    "gyration_deviations": Criterion(3, lambda g: [(k, g[k], "gyration_pos_dev")
                                                   for k in ("m3_vs_m0", "m3_vs_circle", "m0_vs_circle")],
                                     gate_s=5.0),
    "force_gap_stats": Criterion(4, lambda g: [("max identity dev", g["max_identity_dev"], "force_gap")]),
    "uniform_a_deviation": Criterion(4, lambda u: [("M2/M3 pos dev", u["pos_dev"], "uniform_a_pos_dev")]),
    "legendre_consistency": Criterion(5, lambda r: _each(r, "legendre_rel", "hamiltonian_rel")
                                      + _each(r, "momentum_fd_rel", "momentum_fd_rel")),
    "vector_field_fd": Criterion(5, lambda r: _each(r, "gradient_fd_rel")),
    "el_convergence": Criterion(6, lambda el: [("residual ratio", el["ratio"], "el_ratio_band")]),
    "prop1_suite": Criterion(7, lambda s: [(f"{n} {k} ratio", s[n]["ratio"][k], "maxwell_ratio_band")
                                           for n in ("plane", "dipole")
                                           for k in ("gauss", "faraday", "ampere", "nomono")]
                             + [("violated gauss ratio", s["violated"]["ratio"]["gauss"],
                                 "gauge_violated_ratio_max")], gate_s=60.0),
    "advected_report": Criterion(8, lambda a: [
        ("co-moving variation", a["comoving_rel_variation"], "advected_comoving_rel"),
        ("fixed-ball variation", a["fixed_rel_variation"], "advected_fixed_min")]),
    "dispersion_report": Criterion(9, lambda d: [("exponent", d["exponent"], "dispersion_exponent_band"),
                                                 ("error(0.2)", d["error_at_0p2"], "dispersion_error_width")]),
    "norm_drift_report": Criterion(10, lambda r: _each(r, "norm_drift")),
    "packet_dispersion_report": Criterion(10, lambda p: [("packet law", p["rel_err"], "packet_sigma_rel")]),
    "model_gap_report": Criterion(10, lambda g: [("gap_zero_a", g["gap_zero_a"], None),
                                                 ("gap_zero_q", g["gap_zero_q"], None),
                                                 ("plane-wave gap err", g["abs_err"], "model_gap")]),
}


def passed(tolerance=DEFAULT_TOLERANCES.__getitem__, **reports) -> bool:
    """Every value CRITERIA checks in each report (keyed by its row's name) passes; no wall gate."""
    return all(check(value, key, tolerance)[0]
               for name, report in reports.items() for _, value, key in CRITERIA[name].values(report))
