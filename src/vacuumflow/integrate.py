"""Time stepping over tau (t for M0), trajectory records and comparisons.

The integrated state is y = [r, mom, t]: the lab clock rides along as a seventh
component with dt/dtau = clock_rate, which makes the system autonomous even for
moving sources (the field time is y[6]).  For the implicit midpoint rule this
is algebraically identical to accumulating t by midpoint quadrature of the
clock rate within each step; for RK4/RK45 the clock inherits the integrator's
own order.

Implicit midpoint (fixed-point iteration) is the symplectic default; RK4 is
the fixed-step explicit alternative; RK45 wraps scipy's adaptive solver, which
rejects a trial stage past a guard (NaN derivatives) and whose terminal guard
event (_guard_margin) ends the record.

Within simulate, each implicit-midpoint step after the third starts its
iteration from the midpoint slope extrapolated from the last three steps
(Hairer, Lubich & Wanner, Geometric Numerical Integration, VIII.6), about one
right-hand-side evaluation per step in place of about four from the Euler
start f(y_n).  The fixed point and the convergence test are the same, so the
states change by round-off.  A step whose extrapolated start trips a guard or
does not converge is retried from f(y_n), and only that retry's failure ends
the record or raises.  The single-step step() has no history and keeps the
Euler start, so a chain of step() calls is the reference the tests compare
simulate with.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field as dc_field
from operator import sub

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from .core import (
    SUBLUMINAL_EPS,
    ModelKind,
    Particle,
    PhasePoint,
    PhaseTerms,
    emergent_rest_mass,
    init_phase,
    phase_terms,
)
from .dynamics import point_rhs
from .errors import ConfigError, NoConvergence, NonNegativeField, NoOverlap, SubluminalViolation
from .fields import VacuumField, as_vec3

#: event margin for the adaptive integrator; generous so the solver localizes
#: the crossing before trial stages hit the hard 1e-12 guard
_EVENT_MARGIN = 1e-9

#: the most recorded steps one run may take: at this cap the (steps + 1, 7)
#: float64 state array is 560 MB
MAX_STEPS = 10**7


def step_count(tau_end: float, h: float) -> int:
    """Recorded steps from 0 to tau_end > 0 at step 0 < h <= tau_end, at most MAX_STEPS;
    ConfigError otherwise.  The last recorded tau is within h/2 of tau_end."""
    if not tau_end > 0.0:
        raise ConfigError(f"tau_end: must be > 0, got {tau_end}")
    if not h > 0.0:
        raise ConfigError(f"h: step must be > 0, got {h}")
    if not h <= tau_end:  # one step of h would run the record to tau = h, past tau_end
        raise ConfigError(f"h: step must be <= tau_end = {tau_end}, got {h}")
    ratio = tau_end / h
    if not ratio <= MAX_STEPS:  # also rejects inf
        raise ConfigError(f"h: tau_end / h = {ratio:g} steps, more than the cap of {MAX_STEPS}")
    return max(1, int(round(ratio)))


@dataclass(frozen=True)
class RK4:
    pass


@dataclass(frozen=True)
class ImplicitMidpoint:
    tol: float = 1e-12
    max_iter: int = 50

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ConfigError(f"tol: must be > 0, got {self.tol}")
        if not self.max_iter >= 1:
            raise ConfigError(f"max_iter: must be >= 1, got {self.max_iter}")


#: the smallest rtol scipy's RK45 honours; it raises a smaller one to this with a warning
RK45_RTOL_MIN = 100.0 * np.finfo(float).eps


@dataclass(frozen=True)
class RK45:
    atol: float = 1e-10
    rtol: float = 1e-10

    def __post_init__(self):
        if not self.atol > 0.0:
            raise ConfigError(f"atol: must be > 0, got {self.atol}")
        if not self.rtol >= RK45_RTOL_MIN:
            raise ConfigError(f"rtol: must be >= {RK45_RTOL_MIN:.6g}, got {self.rtol}")


IntegratorKind = RK4 | ImplicitMidpoint | RK45


def integrator_name(integ: IntegratorKind) -> str:
    if isinstance(integ, RK4):
        return "rk4"
    if isinstance(integ, ImplicitMidpoint):
        return f"implicit_midpoint(tol={integ.tol:g},max_iter={integ.max_iter})"
    return f"rk45(atol={integ.atol:g},rtol={integ.rtol:g})"


@dataclass
class TrajectoryRecord:
    """Sampled trajectory: clocks, state, per-sample energy/potential/lab velocity."""

    tau: np.ndarray
    t: np.ndarray
    r: np.ndarray
    mom: np.ndarray
    energy: np.ndarray
    w: np.ndarray
    u_lab: np.ndarray
    meta: dict = dc_field(default_factory=dict)

    def __len__(self) -> int:
        return self.tau.size

    CSV_COLUMNS = ("tau", "t", "rx", "ry", "rz", "px", "py", "pz", "energy", "w", "ux", "uy", "uz")

    #: one CSV row: 17 significant digits, csv.writer's default line end
    _CSV_ROW = ",".join(["%.17g"] * len(CSV_COLUMNS)) + "\r\n"

    def to_csv(self, path) -> None:
        rows = zip(self.tau, self.t, *self.r.T, *self.mom.T, self.energy, self.w, *self.u_lab.T)
        with open(path, "w", newline="") as fh:
            fh.write(",".join(self.CSV_COLUMNS) + "\r\n")
            for row in rows:
                fh.write(self._CSV_ROW % row)

    def max_relative_energy_drift(self) -> float:
        e0 = self.energy[0]
        return float(np.max(np.abs(self.energy - e0)) / abs(e0))


# -- single steps --------------------------------------------------------------
#
# The stepped state is a list of 7 plain floats [r, mom, t]; numpy calls on
# 3-vectors would cost more than the arithmetic they do.


def _pack(phase: PhasePoint) -> list[float]:
    return [*phase.r.tolist(), *phase.mom.tolist(), float(phase.t)]


def _rhs(model: ModelKind, fld: VacuumField, rest_mass: float | None):
    """The model's right-hand side as a function of the state list; f.calls counts evaluations."""

    def f(y):
        f.calls += 1
        return point_rhs(model, y, fld, rest_mass)

    f.calls = 0
    return f


def _step_rk4(f, y, h):
    k1 = f(y)
    k2 = f([a + (0.5 * h) * b for a, b in zip(y, k1)])
    k3 = f([a + (0.5 * h) * b for a, b in zip(y, k2)])
    k4 = f([a + h * b for a, b in zip(y, k3)])
    return [
        a + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
    ]


def _step_midpoint(f, y, h, tol, max_iter, k0=None):
    """One implicit-midpoint step by fixed-point iteration: (y1, iterations, k).

    k is the step's midpoint slope, the last f evaluated (y1 = y + h k up to
    round-off).  The iteration starts from ym = y + (h/2) k0; without a start
    slope k0 it spends one evaluation on the Euler start k0 = f(y).  simulate
    passes the slope extrapolated from the last three steps, an O(h^3) guess
    of k that saves that evaluation and about two iterations, and retries
    from f(y) if that start fails (_run_midpoint_step).  step() has no
    history, so it keeps the Euler start.
    """
    half = 0.5 * h
    ym = [a + half * b for a, b in zip(y, f(y) if k0 is None else k0)]
    for it in range(1, max_iter + 1):
        k = f(ym)
        ym_next = [a + half * b for a, b in zip(y, k)]
        delta = max(map(abs, map(sub, ym_next, ym)))
        ym = ym_next
        # max() can pass over a NaN that is not first; a non-finite iterate
        # must never count as converged
        if delta <= tol and math.isfinite(sum(ym)):
            return [2.0 * a - b for a, b in zip(ym, y)], it, k
    raise NoConvergence(
        f"implicit midpoint failed to reach tol={tol:g} in {max_iter} iterations (h={h:g})"
    )


def step(
    integrator: IntegratorKind,
    model: ModelKind,
    phase: PhasePoint,
    fld: VacuumField,
    h: float,
    *,
    rest_mass: float | None = None,
) -> PhasePoint:
    """Advance one step of size h in tau (in t for M0) with RK4 or implicit midpoint.

    RK45 is adaptive and runs through simulate only.
    """
    if h == 0.0:
        raise ValueError("step size must be nonzero")
    if isinstance(integrator, RK45):
        raise ValueError("step: RK45 is adaptive; integrate with simulate instead")
    y = _pack(phase)
    f = _rhs(model, fld, rest_mass)
    if isinstance(integrator, RK4):
        y1 = _step_rk4(f, y, h)
    else:
        y1, _, _ = _step_midpoint(f, y, h, integrator.tol, integrator.max_iter)
    if model is ModelKind.M0:
        return PhasePoint(r=y1[0:3], mom=y1[3:6], tau=phase.tau + h, t=phase.t + h)
    return PhasePoint(r=y1[0:3], mom=y1[3:6], tau=phase.tau + h, t=y1[6])


# -- full runs -----------------------------------------------------------------


def _build_record(model, integ, h, fld, taus, state, rest_mass, stats, termination=None):
    """Record from the (n, 7) stepped states; M0 samples take tau as their lab clock.

    Energy, W and the lab velocity (k/G for M0, k/(-W) for M1 and M3,
    (kappa P - qA)/(G rate) for M2) come from one core.phase_terms call over
    the samples.  stats gains guard_min, the smallest guard W^2 - |k|^2 over
    the samples (not for M0, which has no such guard).

    A fixed-step record ends before its first state with W >= 0 or a guard
    <= SUBLUMINAL_EPS, and the error that f raises there is the termination
    (step n + 1, the step that starts there).  RK4 and the Euler start
    evaluate f at a step's start state, but a step from the extrapolated
    slope does not, so such a state can lie inside the run.
    """
    if model is ModelKind.M0:
        state[:, 6] = taus  # lab clock is the independent variable
    terms = phase_terms(model, state[:, 0:3], state[:, 3:6], state[:, 6], fld, rest_mass)
    if not isinstance(integ, RK45):
        valid = terms.w < 0.0
        if terms.guard is not None:
            valid &= terms.guard > SUBLUMINAL_EPS
        if not valid.all():
            n = int(np.argmin(valid))
            try:
                point_rhs(model, state[n].tolist(), fld, rest_mass)
            except (SubluminalViolation, NonNegativeField) as exc:
                termination = f"step {n + 1}: {exc}"
            taus, state = taus[:n], state[:n]
            terms = PhaseTerms(*(c[:n] if np.ndim(c) else c for c in terms))
    if terms.guard is not None:
        stats["guard_min"] = float(np.min(terms.guard))
    # column by column: numpy broadcasts over a trailing axis of 3 slowly
    if model is ModelKind.M2:
        grate = terms.g * terms.rate
        u = [(terms.kappa * p - fld.q_test * a) / grate for p, a in zip(terms.k.T, terms.a.T)]
    else:
        d = terms.g if model is ModelKind.M0 else -terms.w
        u = [p / d for p in terms.k.T]
    meta = {
        "model": model.value,
        "integrator": integrator_name(integ),
        "h": h,
        "field": fld.stable_hash(),
        "stats": stats,
    }
    if termination is not None:
        meta["termination"] = termination
    return TrajectoryRecord(
        tau=taus, t=state[:, 6], r=state[:, 0:3], mom=state[:, 3:6],
        energy=terms.energy, w=terms.w, u_lab=np.stack(u, axis=1), meta=meta,
    )


def simulate(
    model: ModelKind,
    particle: Particle,
    fld: VacuumField,
    r0,
    tau_end: float,
    integrator: IntegratorKind,
    h: float,
) -> TrajectoryRecord:
    """Integrate from init_phase to tau_end, recording every h.

    Terminates early with a diagnostic in meta["termination"] if a model
    invariant trips (fixed-step integrators) or the guard event fires (RK45).
    """
    n_steps = step_count(tau_end, h)
    r0 = as_vec3(r0)
    phase0 = init_phase(model, particle, fld, r0)
    rest_mass = emergent_rest_mass(particle, fld, r0) if model is ModelKind.M0 else None

    if isinstance(integrator, RK45):
        return _simulate_adaptive(model, fld, phase0, rest_mass, integrator, h, n_steps)

    f = _rhs(model, fld, rest_mass)
    y = _pack(phase0)
    state = np.empty((n_steps + 1, 7))
    state[0] = y
    n = 1
    iter_sum = iter_max = restarts = 0
    slopes = deque(maxlen=3)  # midpoint slopes of the last three steps, oldest first
    termination = None
    for k in range(1, n_steps + 1):
        try:
            if isinstance(integrator, RK4):
                y = _step_rk4(f, y, h)
            else:
                y, it, restarted = _run_midpoint_step(f, y, h, integrator, slopes)
                restarts += restarted
                iter_sum += it
                iter_max = max(iter_max, it)
        except (SubluminalViolation, NonNegativeField) as exc:
            termination = f"step {k}: {exc}"
            break
        state[k] = y
        n = k + 1
    stats = {"rhs_evals": f.calls}
    if isinstance(integrator, ImplicitMidpoint):
        stats["fp_iter_max"] = iter_max
        stats["fp_iter_mean"] = iter_sum / (n - 1) if n > 1 else 0.0
        stats["fp_restarts"] = restarts
    return _build_record(model, integrator, h, fld, h * np.arange(n), state[:n], rest_mass, stats,
                         termination)


def _run_midpoint_step(f, y, h, integ, slopes):
    """One implicit-midpoint step of a run: (y1, iterations, restarted).

    slopes is a deque of the last (at most three) midpoint slopes, oldest
    first, and gains this step's.  Once it is full, the iteration starts from
    their quadratic extrapolation 3k_n - 3k_{n-1} + k_{n-2}.  If that start
    trips a guard or fails to converge, the step is retried from the Euler
    start f(y), so only a failure of the Euler start ends the run; restarted
    is then 1, and iterations also counts the evaluations of the abandoned
    attempt.
    """
    restarted = wasted = 0
    if len(slopes) == 3:
        start = [3.0 * (a - b) + c for c, b, a in zip(*slopes)]
        calls = f.calls
        try:
            y1, it, k = _step_midpoint(f, y, h, integ.tol, integ.max_iter, start)
        except (SubluminalViolation, NonNegativeField, NoConvergence):
            restarted, wasted = 1, f.calls - calls
        else:
            slopes.append(k)
            return y1, it, 0
    y1, it, k = _step_midpoint(f, y, h, integ.tol, integ.max_iter)
    slopes.append(k)
    return y1, wasted + it, restarted


def _guard_margin(model, fld):
    q = fld.q_test
    floor = max(_EVENT_MARGIN, 10.0 * SUBLUMINAL_EPS)

    def margin(_s, y):
        x, yy, z, px, py, pz, t = y.tolist()
        w, _gw, (ax, ay, az), _adot, _jac = fld.point_state(x, yy, z, t)
        if model is ModelKind.M0:
            return -w - _EVENT_MARGIN
        if model is ModelKind.M3:
            px, py, pz = px - q * ax, py - q * ay, pz - q * az
        return w * w - (px * px + py * py + pz * pz) - floor

    margin.terminal = True
    margin.direction = -1
    return margin


def _simulate_adaptive(model, fld, phase0, rest_mass, integ, h, n_steps):
    tau_grid = h * np.arange(n_steps + 1)

    def rhs(_s, y):
        try:
            return point_rhs(model, y.tolist(), fld, rest_mass)
        except (SubluminalViolation, NonNegativeField):
            # a trial stage past a guard: RK45's step-size control rejects
            # the step; the terminal event decides where the record stops
            return [math.nan] * 7

    # with a tiny atol, scipy's first-step estimate overflows (f0 / atol where y is
    # 0); it then starts from its minimum step, and error control takes over
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(rhs, (0.0, tau_grid[-1]), np.array(_pack(phase0)), method="RK45", t_eval=tau_grid,
                        rtol=integ.rtol, atol=integ.atol, events=_guard_margin(model, fld))
    if sol.status < 0:
        raise NoConvergence(f"adaptive integration failed: {sol.message}")
    termination = None
    if sol.status == 1:
        termination = f"guard event at tau = {sol.t_events[0][0]:.6g}"
    stats = {"nfev": int(sol.nfev)}
    return _build_record(model, integ, h, fld, sol.t, sol.y.T, rest_mass, stats, termination)


def compare_trajectories(a: TrajectoryRecord, b: TrajectoryRecord) -> tuple[float, float]:
    """Resample both records onto 2001 common lab times (cubic) and report
    (max position deviation, max energy deviation)."""
    lo = max(a.t[0], b.t[0])
    hi = min(a.t[-1], b.t[-1])
    if hi <= lo:
        raise NoOverlap(f"no common lab-time range: [{a.t[0]}, {a.t[-1]}] vs [{b.t[0]}, {b.t[-1]}]")
    grid = np.linspace(lo, hi, 2001)
    ra = CubicSpline(a.t, a.r, axis=0)(grid)
    rb = CubicSpline(b.t, b.r, axis=0)(grid)
    ea = CubicSpline(a.t, a.energy)(grid)
    eb = CubicSpline(b.t, b.energy)(grid)
    pos_dev = float(np.max(np.linalg.norm(ra - rb, axis=1)))
    energy_dev = float(np.max(np.abs(ea - eb)))
    return pos_dev, energy_dev
