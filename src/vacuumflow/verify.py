"""Verification computations and their pass/fail rules, shared by the CLI and
the acceptance suite.

Each computation returns plain values/dicts.  CRITERIA, at the end, maps every
report to the values it checks as (label, value, tolerance key), and check()
judges one value against its key; the CLI (with a scenario's tolerances) and
the acceptance suite (with config.DEFAULT_TOLERANCES) read every PASS from
there.  Wall-clock gates ride along in the table but only the acceptance
suite asserts them, so the CLI's artifacts and exit codes never depend on
timing.  compare and the quantum snapshot reuse run_models, circle_deviation
and periodic_packet, so the CLI repeats none of the criteria's runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import presets
from .config import DEFAULT_TOLERANCES
from .core import ModelKind
from .dynamics import (
    _force_eval,
    _hamiltonian_eval,
    _lagrangian_eval,
    _rhs_eval,
    euler_lagrange_residual,
    m2_xidot,
)
from .fields import VacuumField, dot3
from .integrate import RK45, ImplicitMidpoint, RK4, TrajectoryRecord, compare_trajectories, simulate
from .maxwell import advected_integral, evolve_wave, maxwell_residuals, sample_scalar_series, solution_error
from .quantum import (
    QuantumKind,
    QuantumModel,
    build_hamiltonian,
    cayley_power,
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


def energy_drift_by_model() -> dict:
    """Relative Hamiltonian drift and wall time per vacuum model on the standard flyby."""
    sc = presets.standard_flyby()
    integ = ImplicitMidpoint()
    out = {}
    for model in presets.VACUUM_MODELS:
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
    u2 = dot3(traj.u_lab, traj.u_lab)
    mass_law = -traj.w * np.sqrt(1.0 - u2)
    e0 = traj.energy[0]
    return float(np.max(np.abs(mass_law - e0)) / abs(e0))


def flyby_m1() -> TrajectoryRecord:
    sc = presets.standard_flyby()
    return simulate(ModelKind.M1, sc.particle, sc.field, sc.r0, sc.tau_end, ImplicitMidpoint(), sc.h)


# -- criterion 3: gyration equivalence -------------------------------------------


def m0_lab_span(particle, tau_end: float, h: float) -> tuple[float, float]:
    """(span, step) of an M0 run, which runs on the lab clock, beside a run of tau_end at h:
    tau_end stretched by the start gamma, in as many steps (at least 2)."""
    u = math.sqrt(dot3(particle.u0, particle.u0))
    span = tau_end * (1.0 / math.sqrt(1.0 - u * u))
    return span, span / max(2, int(round(tau_end / h)))


def run_models(models, particle, fld, r0, tau_end: float, integ, h: float) -> list[TrajectoryRecord]:
    """One record per model from the same start, each run for tau_end at h;
    M0 runs on the lab clock over m0_lab_span instead."""
    records = []
    for model in models:
        span, step = m0_lab_span(particle, tau_end, h) if model is ModelKind.M0 else (tau_end, h)
        records.append(simulate(model, particle, fld, r0, span, integ, step))
    return records


def circle_deviation(traj: TrajectoryRecord, particle, fld: VacuumField, r0) -> float:
    """max |r(t) - circle(t)| along a record of a charge q = 1 started at r0 with
    u0 = (u, 0, 0) in the uniform field B = (0, 0, b), W = -1: the gyration
    circle, shifted to r0 (a uniform field is translation invariant)."""
    circle = presets.gyration_analytic(traj.t, b=float(fld.b_uniform[2]), u=float(particle.u0[0]))
    return float(np.max(np.linalg.norm(traj.r - r0 - circle, axis=1)))


def gyration_deviations() -> dict:
    """M3 canonical flow vs direct M0 Lorentz integration vs the analytic circle."""
    sc = presets.gyration()
    t_start = time.perf_counter()
    m3, m0 = run_models((ModelKind.M3, ModelKind.M0), sc.particle, sc.field, sc.r0, sc.tau_end,
                        RK45(atol=1e-12, rtol=1e-12), sc.h)
    elapsed = time.perf_counter() - t_start
    pos_dev, energy_drift = compare_trajectories(m3, m0)
    return {"m3_vs_m0": pos_dev, "energy_drift": energy_drift, "seconds": elapsed,
            "m3_vs_circle": circle_deviation(m3, sc.particle, sc.field, sc.r0),
            "m0_vs_circle": circle_deviation(m0, sc.particle, sc.field, sc.r0)}


# -- criterion 4: force gap and uniform-A coincidence ------------------------------


def force_gap_stats(seed: int = 0, n_states: int = 1000, fld: VacuumField | None = None) -> dict:
    """max |force(classical) - force(modified) - q grad<A,u>| over random states.

    All states are drawn first, in the per-state order r, u, t, and one field
    evaluation serves them all.  rows is an (n_states, 14) array holding r, u,
    t, F_classical, F_modified and the deviation of each state.
    """
    fld = fld or presets.moving_source_field()
    rng = np.random.default_rng(seed)
    states = rng.uniform([-1.5] * 3 + [-1.0] * 3 + [0.0], [1.5] * 3 + [1.0] * 3 + [2.0], (n_states, 7))
    r, u, t = states[:, 0:3], states[:, 3:6], states[:, 6]
    nu = np.sqrt(dot3(u, u))
    fast = nu >= 0.95
    u[fast] *= (0.9 / nu[fast])[:, None]
    fc, grad_au = _force_eval(fld, r, u, fld.q_test, t)
    fm = fc - grad_au
    dev = np.max(np.abs(fc - fm - grad_au), axis=1)
    rows = np.column_stack([states, fc, fm, dev])
    return {"max_identity_dev": float(np.max(dev, initial=0.0)), "states": n_states, "rows": rows}


def uniform_a_deviation() -> dict:
    """Position deviation between the M2 and M3 flows with a uniform static A."""
    sc = presets.uniform_a_pair()
    m2, m3 = run_models((ModelKind.M2, ModelKind.M3), sc.particle, sc.field, sc.r0, sc.tau_end, RK4(), sc.h)
    pos_dev, energy_drift = compare_trajectories(m2, m3)
    return {"pos_dev": pos_dev, "energy_drift": energy_drift, "a_mag": float(sc.field.a_uniform[2])}


# -- criterion 5: Legendre / Hamiltonian consistency -------------------------------


def _random_states(rng, n_states: int, v_max: float):
    """(r, v, t) columns of n_states draws made in the per-state order r, t, v:
    r in [-1.5, 1.5]^3, t in [0, 2] and v in [-v_max, v_max]^3."""
    x = rng.uniform([-1.5] * 3 + [0.0] + [-v_max] * 3, [1.5] * 3 + [2.0] + [v_max] * 3, (n_states, 7))
    return x[:, 0:3], x[:, 4:7], x[:, 3]


def _probes(step: float) -> np.ndarray:
    """Central-difference offsets (6, 1, 3): step * e_i for i = 0, 1, 2, then -step * e_i."""
    return step * np.concatenate([np.eye(3), -np.eye(3)])[:, None, :]


def _central_diff(f_probes: np.ndarray, step: float) -> np.ndarray:
    """(f(x + step e_i) - f(x - step e_i)) / (2 step) per state, (n, 3), from f at x + _probes(step)."""
    return ((f_probes[:3] - f_probes[3:]) / (2.0 * step)).T


def _row_max(a: np.ndarray) -> np.ndarray:
    return np.max(np.abs(a), axis=1)


def legendre_consistency(seed: int | np.random.SeedSequence = 1, n_states: int = 1000) -> dict:
    """Per model: worst relative <P,rdot> - L vs H gap, and dL/drdot vs FD gap.

    M0 runs on a source-free field (its Lagrangian is the free form, so the
    identity holds where the potential term vanishes); the vacuum models run on
    the generic moving-source field.  Each model draws all its states, then
    evaluates them and their velocity probes in column calls.
    """
    rng = np.random.default_rng(seed)
    field_vac = presets.moving_source_field()
    field_m0 = presets.gyration().field
    rest_mass = 0.8
    step = 1e-6
    out = {}
    for model in presets.ALL_MODELS:
        fld = field_m0 if model is ModelKind.M0 else field_vac
        r, rdot, t = _random_states(rng, n_states, 1.5)
        if model is ModelKind.M0:
            nu = np.sqrt(dot3(rdot, rdot))
            fast = nu >= 0.85
            rdot[fast] *= (0.8 / nu[fast])[:, None]
        lag, mom, _ = _lagrangian_eval(model, r, rdot, t, fld, rest_mass, derivatives=True)
        ham = _hamiltonian_eval(model, r, mom, t, fld, rest_mass)
        gap = np.abs(dot3(mom, rdot) - lag - ham) / np.maximum(np.abs(ham), 1e-12)
        # the M2 mover data is external under velocity variations: freeze it
        xidot = m2_xidot(r, rdot, fld, t) if model is ModelKind.M2 else None
        fd = _central_diff(_lagrangian_eval(model, r, rdot + _probes(step), t, fld, rest_mass, xidot), step)
        perr = _row_max(mom - fd) / np.maximum(_row_max(mom), 1.0)
        out[model.value] = {"hamiltonian_rel": float(np.max(gap, initial=0.0)),
                            "momentum_fd_rel": float(np.max(perr, initial=0.0))}
    return out


def vector_field_fd(seed: int | np.random.SeedSequence = 2, n_states: int = 200) -> dict:
    """Canonical right-hand side vs central finite differences of hamiltonian.

    Each model draws all its states first; the 12 probes of every state go
    through one column Hamiltonian call, and the right-hand side of every state
    through one column call of point_rhs (_rhs_eval).
    """
    rng = np.random.default_rng(seed)
    field_vac = presets.moving_source_field()
    field_m0 = presets.gyration().field
    rest_mass = 0.8
    step = 1e-6
    out = {}
    for model in presets.ALL_MODELS:
        fld = field_m0 if model is ModelKind.M0 else field_vac
        r, mom, t = _random_states(rng, n_states, 0.5)
        mom *= np.abs(fld._eval(r, t, "w")[0])[:, None]
        if model is ModelKind.M2:
            # keep the guard healthy after the qA shift
            mom *= 0.8
        rdot, momdot, _rate = _rhs_eval(model, r, mom, t, fld, rest_mass)
        probes = _probes(step)
        r6, mom6 = np.broadcast_to(r, (6, *r.shape)), np.broadcast_to(mom, (6, *mom.shape))
        ham = _hamiltonian_eval(model, np.concatenate([r6, r + probes]), np.concatenate([mom + probes, mom6]),
                                t, fld, rest_mass)
        dev = _row_max(rdot - _central_diff(ham[:6], step)) / np.maximum(_row_max(rdot), 1.0)
        if model is not ModelKind.M0:  # M0 momdot is the Lorentz force, not -dH/dr
            dev_m = _row_max(momdot + _central_diff(ham[6:], step)) / np.maximum(_row_max(momdot), 1.0)
            dev = np.maximum(dev, dev_m)
        out[model.value] = float(np.max(dev, initial=0.0))
    return out


# -- criterion 6: Euler-Lagrange convergence ----------------------------------------


def el_convergence() -> dict:
    """M1 flyby EL defect at h and h/2; second order means a ratio near 4."""
    sc = presets.standard_flyby()
    integ = ImplicitMidpoint()
    res = {}
    for label, h in (("h", sc.h), ("h2", sc.h / 2.0)):
        traj = simulate(ModelKind.M1, sc.particle, sc.field, sc.r0, sc.tau_end, integ, h)
        res[label] = euler_lagrange_residual(ModelKind.M1, traj, sc.field)
    res["ratio"] = res["h"] / res["h2"]
    return res


# -- criterion 7: wave-equation / Maxwell equivalence --------------------------------


_RESIDUAL_KEYS = ("gauss", "faraday", "ampere", "nomono", "gauge", "continuity")


def _run_grid(builder, n, plane, **kwargs):
    """Evolve builder's grid at n to its report level: (the residual report with
    the grid's stats, the L2 error of a plane wave, else None).  The grid dies
    here, so the suite holds one grid at a time."""
    grid, steps, report_index = builder(n, **kwargs)
    evolve_wave(grid, steps)
    report = {**maxwell_residuals(grid, report_index).to_dict(), "stats": dict(grid.stats)}
    return report, solution_error(grid, report_index) if plane else None


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
        rc, ec = _run_grid(builder, n_coarse, name == "plane", **kwargs)
        rf, ef = _run_grid(builder, n_fine, name == "plane", **kwargs)
        out[name] = {"coarse": rc, "fine": rf,
                     "ratio": {key: rc[key] / rf[key] if rf[key] > 1e-14 else None for key in _RESIDUAL_KEYS}}
        if ec is not None:
            out[name]["l2_error"] = {"coarse": ec, "fine": ef, "ratio": ec / ef}
    out["seconds"] = time.perf_counter() - t0
    return out


# -- criterion 8: advected integral ---------------------------------------------------


def advected_report() -> dict:
    fld, times, ball, uf = presets.advected_setup()
    series = sample_scalar_series(lambda pts, t: fld.coulomb(pts, t), 48, 0.1, times)
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


def dispersion_report() -> dict:
    hbar = presets.HBAR_DEFAULT
    rows = []
    for hk in presets.DISPERSION_SWEEP_HK:
        exact, truncated, err = dispersion_check(hk / hbar, -1.0, hbar)
        rows.append({"hk": hk, "exact": exact, "truncated": truncated, "error": err})
    # the least-squares slope of log error over log hbar k in closed form, on
    # floats with math.fsum: the same bits on every CPU, unlike a LAPACK fit
    xs = [math.log(hk) for hk in presets.DISPERSION_SWEEP_HK]
    ys = [math.log(r["error"]) for r in rows]
    x_mean, y_mean = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    exponent = (math.fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
                / math.fsum((x - x_mean) * (x - x_mean) for x in xs))
    return {"rows": rows, "exponent": exponent, "error_at_0p2": rows[-1]["error"]}


def periodic_packet(kind: QuantumKind) -> tuple:
    """(op, state): criterion 10's periodic operator of kind on presets.quantum_profiles
    (A = 0 for the free vacuum) and its Gaussian packet, sigma0 = 0.8, k0 = 2.0 and
    x0 at half the length."""
    dx, w, a = presets.quantum_profiles()
    hbar = presets.HBAR_DEFAULT
    prof_a = np.zeros(w.size) if kind is QuantumKind.FreeVacuum else a
    op = build_hamiltonian(QuantumModel(kind, w, prof_a, q=1.0), dx, hbar, "periodic")
    return op, gaussian_packet(w.size, dx, x0=0.5 * w.size * dx, sigma0=0.8, k0=2.0, hbar=hbar)


def norm_drift_report(steps: int = 1000) -> dict:
    """Worst |norm - 1| per operator over steps Crank-Nicolson steps of the periodic packet."""
    out = {}
    for kind in QuantumKind:
        op, state = periodic_packet(kind)
        psi, worst = state.psi, 0.0
        for _ in range(steps):
            psi = cn_step_psi(op, psi, 0.01)
            worst = max(worst, abs(l2_norm(psi, state.dx) - 1.0))
        out[kind.value] = worst
    return out


def packet_dispersion_report(tau_end: float = 15.0, dtau: float = 0.0025) -> dict:
    """Free Gaussian on a constant-mass profile vs the analytic spreading law.

    The operator has constant bands on a fixed domain, so the tau_end/dtau
    Cayley steps are taken as one power in its sine basis (cayley_power), equal
    to stepping to round-off.  dtau still sets the Cayley symbol and must
    resolve the full phase rate |H|/hbar ~ 20 (the baseline potential dominates
    it): the Cayley map compresses frequency differences by ~(omega dtau/2)^2,
    which shows up directly as a spreading-rate deficit.
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
    state = replace(state, psi=cayley_power(op, state.psi, dtau, steps))
    measured = packet_sigma(state)
    predicted = free_packet_sigma(tau_end, sigma0, 1.0, hbar)
    return {
        "measured": measured,
        "predicted": predicted,
        "rel_err": abs(measured - predicted) / predicted,
        "stats": dict(op.stats),
    }


def model_gap_report() -> dict:
    hbar = presets.HBAR_DEFAULT
    a_const, q, mode, n = 0.1, 1.0, 4, 16384
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
