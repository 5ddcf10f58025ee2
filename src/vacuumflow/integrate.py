"""Time stepping over tau (t for M0), trajectory records and comparisons.

The integrated state is y = [r, mom, t]: the lab clock rides along as a seventh
component with dt/dtau = clock_rate, which makes the system autonomous even for
moving sources (the field time is y[6]).  For the implicit midpoint rule this
is algebraically identical to accumulating t by midpoint quadrature of the
clock rate within each step; for RK4/RK45 the clock inherits the integrator's
own order.

Implicit midpoint (fixed-point iteration) is the symplectic default; RK4 is
the fixed-step explicit alternative; RK45 is the adaptive Dormand & Prince
(1980) 5(4) pair with the dense output of Hairer, Norsett & Wanner, Solving
ODEs I, II.5-II.6, and the first-step rule and step control of scipy's RK45,
stepped on plain floats here.  A trial stage past a guard (point_rhs raises)
rejects its step with the smallest step factor.  Every integrator's record
ends before its first sample past a guard (_build_record).

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

The midpoint step is straight-line float arithmetic on the seven state
components as named locals, like point_rhs: each iterate, the max-norm of its
change, the finiteness test and the update 2 ym - y, and in simulate the
extrapolated start, component by component.  Each component goes through
the same operations in the same order as in an elementwise loop over the
seven, so no bit depends on the unrolling.  RK4 and the midpoint rule share
one loop, _fill, that writes the new states into the state array in batches
of rows.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field as dc_field, fields as dc_fields
from operator import sub
from typing import ClassVar

import numpy as np

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

#: the most recorded steps one run may take: at this cap the (steps + 1, 7)
#: float64 state array is 560 MB
MAX_STEPS = 10**7

#: RK45 ends its record when its right-hand-side evaluations exceed this many
#: per recorded step of the run; the shipped runs take 1-3
RK45_MAX_EVALS = 1000

#: accepted RK45 steps whose samples the dense output fills in one batch
_DENSE_BATCH = 1024

#: fixed-step states written to the state array in one batch
_ROW_BATCH = 1024


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
    kind: ClassVar[str] = "rk4"


@dataclass(frozen=True)
class ImplicitMidpoint:
    kind: ClassVar[str] = "implicit_midpoint"
    tol: float = 1e-12
    max_iter: int = 50

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ConfigError(f"tol: must be > 0, got {self.tol}")
        if not self.max_iter >= 1:
            raise ConfigError(f"max_iter: must be >= 1, got {self.max_iter}")


#: the smallest rtol RK45 accepts (scipy's floor): below it the error target
#: sits under the round-off of a step
RK45_RTOL_MIN = 100.0 * np.finfo(float).eps


@dataclass(frozen=True)
class RK45:
    kind: ClassVar[str] = "rk45"
    atol: float = 1e-10
    rtol: float = 1e-10

    def __post_init__(self):
        if not self.atol > 0.0:
            raise ConfigError(f"atol: must be > 0, got {self.atol}")
        if not self.rtol >= RK45_RTOL_MIN:
            raise ConfigError(f"rtol: must be >= {RK45_RTOL_MIN:.6g}, got {self.rtol}")


IntegratorKind = RK4 | ImplicitMidpoint | RK45


def integrator_name(integ: IntegratorKind) -> str:
    """The config kind with its fields, floats as :g: "implicit_midpoint(tol=1e-12,max_iter=50)"."""
    params = ",".join(f"{p.name}={getattr(integ, p.name):{'g' if isinstance(p.default, float) else ''}}"
                      for p in dc_fields(integ))
    return f"{integ.kind}({params})" if params else integ.kind


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
        # Python floats format faster than numpy scalars, to the same text
        rows = zip(self.tau.tolist(), self.t.tolist(), *self.r.T.tolist(), *self.mom.T.tolist(),
                   self.energy.tolist(), self.w.tolist(), *self.u_lab.T.tolist())
        with open(path, "w", newline="") as fh:
            fh.write(",".join(self.CSV_COLUMNS) + "\r\n")
            for row in rows:
                fh.write(self._CSV_ROW % row)

    def max_relative_energy_drift(self) -> float | None:
        """max |E - E0| / |E0| over the record; None where E0 = 0, which has no relative drift."""
        e0 = self.energy[0]
        if e0 == 0.0:
            return None
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
    from f(y) if that start fails.  step() has no history, so it keeps the
    Euler start.

    The iteration runs on the seven components as named floats: the iterate
    ym, the max-norm of its change (max passes over a NaN that is not first,
    so the sum of the iterate must also be finite) and y1 = 2 ym - y.
    """
    half = 0.5 * h
    a0, a1, a2, a3, a4, a5, a6 = y
    s0, s1, s2, s3, s4, s5, s6 = f(y) if k0 is None else k0
    m0, m1, m2, m3, m4, m5, m6 = (a0 + half * s0, a1 + half * s1, a2 + half * s2, a3 + half * s3,
                                  a4 + half * s4, a5 + half * s5, a6 + half * s6)
    for it in range(1, max_iter + 1):
        k = f((m0, m1, m2, m3, m4, m5, m6))
        s0, s1, s2, s3, s4, s5, s6 = k
        n0, n1, n2, n3, n4, n5, n6 = (a0 + half * s0, a1 + half * s1, a2 + half * s2, a3 + half * s3,
                                      a4 + half * s4, a5 + half * s5, a6 + half * s6)
        delta = max(abs(n0 - m0), abs(n1 - m1), abs(n2 - m2), abs(n3 - m3),
                    abs(n4 - m4), abs(n5 - m5), abs(n6 - m6))
        m0, m1, m2, m3, m4, m5, m6 = n0, n1, n2, n3, n4, n5, n6
        if delta <= tol and math.isfinite(m0 + m1 + m2 + m3 + m4 + m5 + m6):
            return [2.0 * m0 - a0, 2.0 * m1 - a1, 2.0 * m2 - a2, 2.0 * m3 - a3,
                    2.0 * m4 - a4, 2.0 * m5 - a5, 2.0 * m6 - a6], it, k
    raise NoConvergence(
        f"implicit midpoint failed to reach tol={tol:g} in {max_iter} iterations (h={h:g})"
    )


# Dormand & Prince (1980) 5(4), scipy's RK45 values: the stage rows of A, the
# weights B of the fifth-order solution, E = B - B^ of the error estimate (over
# all seven slopes, the last f(y1)), and P, the fourth-order dense output of
# Shampine (1986) (Hairer, Norsett & Wanner, Solving ODEs I, II.6), one row of
# x, x^2, x^3, x^4 coefficients per slope.
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B = (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)  # B2 = 0 left out
_DP_E = (-71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)  # E2 = 0 left out
_DP_P = (
    (1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0, 0, 0, 0),
    (0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)


def _rms(v, scale):
    """The RMS of v / scale over the components, summed left to right."""
    total = 0.0
    for a, b in zip(v, scale):
        q = a / b
        total += q * q
    return math.sqrt(total) / 7 ** 0.5


def _step_dopri5(f, y, k1, h, atol, rtol):
    """One Dormand-Prince trial step of size h from y, k1 = f(y): (y1, slopes, error).

    slopes are the seven stage slopes, the last f(y1) (the next step's k1);
    error is the RMS of err / (atol + max(|y|, |y1|) rtol), and the step is
    accepted below 1.  The stage sums run left to right on plain floats.
    """
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (a61, a62, a63, a64, a65) = _DP_A
    b1, b3, b4, b5, b6 = _DP_B
    e1, e3, e4, e5, e6, e7 = _DP_E
    k2 = f([a + (a21 * c1) * h for a, c1 in zip(y, k1)])
    k3 = f([a + (a31 * c1 + a32 * c2) * h for a, c1, c2 in zip(y, k1, k2)])
    k4 = f([a + (a41 * c1 + a42 * c2 + a43 * c3) * h for a, c1, c2, c3 in zip(y, k1, k2, k3)])
    k5 = f([a + (a51 * c1 + a52 * c2 + a53 * c3 + a54 * c4) * h
            for a, c1, c2, c3, c4 in zip(y, k1, k2, k3, k4)])
    k6 = f([a + (a61 * c1 + a62 * c2 + a63 * c3 + a64 * c4 + a65 * c5) * h
            for a, c1, c2, c3, c4, c5 in zip(y, k1, k2, k3, k4, k5)])
    y1 = [a + h * (b1 * c1 + b3 * c3 + b4 * c4 + b5 * c5 + b6 * c6)
          for a, c1, c3, c4, c5, c6 in zip(y, k1, k3, k4, k5, k6)]
    k7 = f(y1)
    err = [(e1 * c1 + e3 * c3 + e4 * c4 + e5 * c5 + e6 * c6 + e7 * c7) * h
           for c1, c3, c4, c5, c6, c7 in zip(k1, k3, k4, k5, k6, k7)]
    scale = [atol + max(abs(a), abs(b)) * rtol for a, b in zip(y, y1)]
    return y1, (k1, k2, k3, k4, k5, k6, k7), _rms(err, scale)


def _first_step(f, y, k1, span, atol, rtol):
    """scipy's first RK45 step (Hairer, Norsett & Wanner, II.4), at most span.

    It spends one evaluation, at y + h0 k1.  Where that evaluation trips a
    guard its slope difference counts as NaN, which max() passes over, as
    scipy's NaN derivatives do.  Where k1 / atol overflows, the estimate is 0
    and the run starts from its smallest step.
    """
    scale = [atol + abs(a) * rtol for a in y]
    d0, d1 = _rms(y, scale), _rms(k1, scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    try:
        k2 = f([a + h0 * b for a, b in zip(y, k1)])
        d2 = _rms(map(sub, k2, k1), scale) / h0 if h0 > 0.0 else math.inf
    except (SubluminalViolation, NonNegativeField):
        d2 = math.nan
    d = max(d1, d2)
    h1 = max(1e-6, h0 * 1e-3) if d <= 1e-15 else (0.01 / d) ** 0.2
    return min(100.0 * h0, h1, span)


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
    the recorded samples only (not for M0, which has no such guard): the
    states between samples, the midpoint iterates and the RK45 stages are not
    in it.

    Every record ends before its first state with W >= 0 or a guard
    <= SUBLUMINAL_EPS, and the error that f raises there is the termination
    (step n + 1, the step that starts there).  RK4 and the Euler start
    evaluate f at a step's start state, but a step from the extrapolated
    slope does not, and an RK45 sample comes from the dense output, so such a
    state can lie inside the run.
    """
    if model is ModelKind.M0:
        state[:, 6] = taus  # lab clock is the independent variable
    terms = phase_terms(model, state[:, 0:3], state[:, 3:6], state[:, 6], fld, rest_mass)
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
    """Integrate from init_phase to tau_end, recording every h.  The runner of
    the integrator's type steps from state[0] and fills the rows of state in
    turn: (f, h, taus, integ, state) -> (states filled, stats, termination).

    Terminates early with a diagnostic in meta["termination"] if a model
    invariant trips, or if RK45's step collapses or exceeds its evaluation cap.
    """
    n_steps = step_count(tau_end, h)
    r0 = as_vec3(r0)
    phase0 = init_phase(model, particle, fld, r0)
    rest_mass = emergent_rest_mass(particle, fld, r0) if model is ModelKind.M0 else None

    f = _rhs(model, fld, rest_mass)
    taus = h * np.arange(n_steps + 1)
    state = np.empty((n_steps + 1, 7))
    state[0] = _pack(phase0)
    n, stats, termination = _RUNNERS[type(integrator)](f, h, taus, integrator, state)
    return _build_record(model, integrator, h, fld, taus[:n], state[:n], rest_mass, stats, termination)


def _fill(advance, state):
    """Fill state[k] = advance(state[k - 1]) for k = 1, 2, ...: (states filled,
    termination).  A guard error of step k ends the fill with the termination
    "step k: <error>".  The new states go into state _ROW_BATCH rows at a
    time, which costs less than one numpy row write per step."""
    y = state[0].tolist()
    filled, rows = 1, []  # states written to state, and those still to write
    termination = None
    for k in range(1, len(state)):
        try:
            y = advance(y)
        except (SubluminalViolation, NonNegativeField) as exc:
            termination = f"step {k}: {exc}"
            break
        rows.append(y)
        if len(rows) == _ROW_BATCH:
            state[filled:filled + _ROW_BATCH] = rows
            filled += _ROW_BATCH
            rows = []
    n = filled + len(rows)
    if rows:
        state[filled:n] = rows
    return n, termination


def _run_rk4(f, h, taus, integ, state):
    n, termination = _fill(lambda y: _step_rk4(f, y, h), state)
    return n, {"rhs_evals": f.calls}, termination


def _run_midpoint(f, h, taus, integ, state):
    """Step the implicit midpoint rule.

    From the fourth step on, the iteration starts from the quadratic
    extrapolation 3(k_n - k_{n-1}) + k_{n-2} of the last three midpoint
    slopes, component by component.  If that start trips a guard or fails to
    converge, the step is retried from the Euler start f(y), so only a failure
    of the Euler start ends the run (a guard error ends the record with a
    termination; NoConvergence raises).  A retried step counts in fp_restarts
    once it succeeds, and its iterations also count the evaluations of the
    abandoned attempt.
    """
    tol, max_iter = integ.tol, integ.max_iter
    iter_sum = iter_max = restarts = 0
    kc = kb = ka = None  # midpoint slopes of the last three steps, oldest first

    def advance(y):
        nonlocal iter_sum, iter_max, restarts, kc, kb, ka
        if kc is None:
            y, it, slope = _step_midpoint(f, y, h, tol, max_iter)
        else:
            a0, a1, a2, a3, a4, a5, a6 = ka
            b0, b1, b2, b3, b4, b5, b6 = kb
            c0, c1, c2, c3, c4, c5, c6 = kc
            start = (3.0 * (a0 - b0) + c0, 3.0 * (a1 - b1) + c1, 3.0 * (a2 - b2) + c2,
                     3.0 * (a3 - b3) + c3, 3.0 * (a4 - b4) + c4, 3.0 * (a5 - b5) + c5,
                     3.0 * (a6 - b6) + c6)
            calls = f.calls
            try:
                y, it, slope = _step_midpoint(f, y, h, tol, max_iter, start)
            except (SubluminalViolation, NonNegativeField, NoConvergence):
                wasted = f.calls - calls
                y, it, slope = _step_midpoint(f, y, h, tol, max_iter)
                it += wasted
                restarts += 1
        kc, kb, ka = kb, ka, slope
        iter_sum += it
        if it > iter_max:
            iter_max = it
        return y

    n, termination = _fill(advance, state)
    stats = {
        "rhs_evals": f.calls,
        "fp_iter_max": iter_max,
        "fp_iter_mean": iter_sum / (n - 1) if n > 1 else 0.0,
        "fp_restarts": restarts,
    }
    return n, stats, termination


def _run_dopri5(f, h, taus, integ, state):
    """Step RK45 to taus[-1], filling state[j] at taus[j] from the dense output;
    the stats count evaluations (nfev), accepted and rejected steps.

    scipy's step control: a rejected step shrinks by max(0.2, 0.9 error^-1/5),
    an accepted one grows by min(10, 0.9 error^-1/5) (at most 1 after a
    rejection), and the last one is cut at taus[-1].  A trial stage that
    raises rejects its step with factor 0.2.  The run ends with a termination
    when the step falls below 10 ulps of tau, or when its evaluations exceed
    RK45_MAX_EVALS per recorded step of the run.
    """
    grid = taus.tolist()
    t, t_end = 0.0, grid[-1]
    y = state[0].tolist()
    k1 = f(y)
    h_abs = _first_step(f, y, k1, t_end, integ.atol, integ.rtol)
    accepted = rejected = 0
    j = 1  # the next sample to fill
    budget = RK45_MAX_EVALS * (len(grid) - 1)
    pending = []  # accepted steps that reach samples not yet filled
    termination = None
    while t < t_end:
        min_step = 10.0 * math.ulp(t)
        if not h_abs >= min_step:  # also a NaN first step
            h_abs = min_step
        retried, error = False, None
        while True:
            if h_abs < min_step:
                termination = f"step {j}: RK45 step fell below 10 ulps of tau = {t:.6g}"
                if error is not None:
                    termination += f" after a trial stage raised: {error}"
                break
            if f.calls > budget:
                termination = (f"step {j}: RK45 took more than {budget} evaluations, "
                               f"{RK45_MAX_EVALS} per recorded step")
                break
            t_new = min(t + h_abs, t_end)
            h_abs = t_new - t
            try:
                y1, slopes, err = _step_dopri5(f, y, k1, h_abs, integ.atol, integ.rtol)
            except (SubluminalViolation, NonNegativeField) as exc:
                error, err = exc, math.inf
            if err < 1.0:
                break
            rejected += 1
            retried = True
            h_abs *= max(0.2, 0.9 * err ** -0.2)  # 0.2 for an infinite or NaN error
        if termination is not None:
            break
        accepted += 1
        factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.2)
        reach = bisect_right(grid, t_new, j)
        if reach > j:
            pending.append((j, reach, t, h_abs, y, slopes))
            j = reach
            if len(pending) == _DENSE_BATCH:
                _dense_fill(state, taus, pending)
                pending.clear()
        h_abs *= min(1.0, factor) if retried else factor
        t, y, k1 = t_new, y1, slopes[6]
    if pending:
        _dense_fill(state, taus, pending)
    return j, {"nfev": f.calls, "accepted": accepted, "rejected": rejected}, termination


def _dense_fill(state, taus, steps):
    """Fill the samples j0:j1 of each accepted step (j0, j1, t, h, y, slopes):
    y + h (Q1 x + Q2 x^2 + Q3 x^3 + Q4 x^4) at x = (tau - t) / h, with Qc the
    slopes weighted by column c of _DP_P.  Elementwise numpy over all the
    steps at once, in one fixed order: no dot product and no reduction, so no
    BLAS kernel changes a bit.
    """
    j0, j1 = steps[0][0], steps[-1][1]
    at = np.repeat(np.arange(len(steps)), [b - a for a, b, *_ in steps])  # each sample's step
    _, _, t, h, y, slopes = (np.array(c) for c in zip(*steps))
    q = []
    for col in zip(*_DP_P):
        acc = slopes[:, 0] * col[0]  # slopes: (step, slope, component)
        for s in range(1, 7):
            acc = acc + slopes[:, s] * col[s]
        q.append(acc[at])
    h = h[at]
    x = ((taus[j0:j1] - t[at]) / h)[:, None]
    x2 = x * x
    x3 = x2 * x
    state[j0:j1] = y[at] + h[:, None] * (q[0] * x + q[1] * x2 + q[2] * x3 + q[3] * (x3 * x))


_RUNNERS = {RK4: _run_rk4, ImplicitMidpoint: _run_midpoint, RK45: _run_dopri5}


def _hermite(t, r, u, ts):
    """The piecewise cubic Hermite interpolant of positions r (n, 3) with slopes
    u = dr/dt at times t, at the times ts (Hairer, Norsett & Wanner, Solving
    ODEs I, II.6).  Each interval's cubic takes r and u at its two ends, so it
    needs no solve; a time past the ends takes the nearest interval's cubic.
    Raises ValueError unless there are n >= 2 finite, strictly increasing
    times with finite positions and slopes."""
    n = len(t)
    if not (n >= 2 and t.shape == (n,) and r.shape == u.shape == (n, 3)
            and np.isfinite(np.column_stack((t, r, u))).all() and (np.diff(t) > 0).all()):
        raise ValueError(f"resample: need n >= 2 finite, strictly increasing times with finite (n, 3) "
                         f"positions and slopes; got shapes {t.shape}, {r.shape}, {u.shape}")
    dt = np.diff(t)[:, None]
    chord = np.diff(r, axis=0) / dt
    c3 = (u[:-1] + u[1:] - 2 * chord) / dt
    c2 = (chord - u[:-1]) / dt - c3
    c3 = c3 / dt
    i = np.clip(np.searchsorted(t, ts, side="right") - 1, 0, n - 2)
    z = (ts - t[i])[:, None]
    return r[i] + z * (u[i] + z * (c2[i] + z * c3[i]))


def compare_trajectories(a: TrajectoryRecord, b: TrajectoryRecord) -> tuple[float, float | None]:
    """Resample both records' positions onto 2001 common lab times (cubic
    Hermite on t, r and u_lab): (max position deviation, the larger of the two
    records' own relative energy drifts, None if either has none).  Each model
    conserves its own energy, so the two energies are not subtracted."""
    lo = max(a.t[0], b.t[0])
    hi = min(a.t[-1], b.t[-1])
    if hi <= lo:
        raise NoOverlap(f"no common lab-time range: [{a.t[0]}, {a.t[-1]}] vs [{b.t[0]}, {b.t[-1]}]")
    grid = np.linspace(lo, hi, 2001)
    ra = _hermite(a.t, a.r, a.u_lab, grid)
    rb = _hermite(b.t, b.r, b.u_lab, grid)
    pos_dev = float(np.max(np.linalg.norm(ra - rb, axis=1)))
    drifts = (a.max_relative_energy_drift(), b.max_relative_energy_drift())
    return pos_dev, None if None in drifts else max(drifts)
