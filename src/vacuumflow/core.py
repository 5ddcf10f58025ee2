"""Shared domain types, unit conventions, clocks and the per-model phase-space terms.

Natural units with light speed c = 1 throughout; hbar is configurable where it
enters (quantum module).  A particle's dynamical mass is m = -W(r,t), so the
rest mass is never stored: it emerges as the conserved energy of the initial
state (see emergent_rest_mass).

Model dictionary:
  M0  classical relativistic particle, evolved in lab time t, state momentum is
      the kinetic p = m u;
  M1  free vacuum-field model, canonical (r, p) in proper time tau;
  M2  interacting vacuum-field model, canonical (r, P) with P = p + qA and the
      mover velocity folded in through A;
  M3  dual model, canonical (r, P), reproduces the classical Lorentz force.

phase_terms is the one column definition of every model's phase-space terms,
checking nothing; checked_phase_terms adds a phase point's checks (W < 0,
then the guard, checked_guard).  dynamics.point_rhs keeps its own arithmetic
for the integrators, on floats and on columns, and a property test pins its
float call to phase_terms bit for bit.

All types here are immutable values; every operation is pure.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, NonNegativeField, SubluminalViolation, SuperluminalInit
from .fields import VacuumField, as_vec3, dot3

#: strict positivity threshold for every square-root guard W^2 - |mom|^2
SUBLUMINAL_EPS = 1e-12


class ModelKind(Enum):
    M0 = "M0"
    M1 = "M1"
    M2 = "M2"
    M3 = "M3"


@dataclass(frozen=True)
class Particle:
    """Test particle: signed charge and initial lab velocity, |u0| < 1 strictly."""

    q: float
    u0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u0", as_vec3(self.u0))
        speed = math.hypot(*self.u0.tolist())  # cannot overflow
        if not speed < 1.0:
            raise SuperluminalInit(f"u0: |u0| must be < 1, got {speed}")


@dataclass(frozen=True)
class PhasePoint:
    """Canonical state (r, mom) plus the two clocks (tau, t).

    mom is p for M0/M1 and the common particle-field momentum P for M2/M3.
    """

    r: np.ndarray
    mom: np.ndarray
    tau: float = 0.0
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "r", as_vec3(self.r))
        object.__setattr__(self, "mom", as_vec3(self.mom))


def guarded_root(arg: float) -> float:
    """sqrt of a square-root-guard argument, aborting on loss of positivity (and on nan)."""
    if not arg > SUBLUMINAL_EPS:
        raise SubluminalViolation(f"W^2 - |mom|^2 = {arg:g} <= {SUBLUMINAL_EPS:g}")
    return math.sqrt(arg)


def negative_w(w, r, t):
    """w after the trajectory invariant W < 0, at one state or on columns (r (..., 3), t
    scalar or per state); the error names the first state that breaks it."""
    ok = np.asarray(w) < 0.0  # false at nan too
    if not ok.all():
        i = np.unravel_index(np.argmin(ok), ok.shape)
        raise NonNegativeField(f"W(r,t) = {np.asarray(w)[i]:g} >= 0 at r = {np.asarray(r)[i].tolist()}, "
                               f"t = {np.broadcast_to(t, ok.shape)[i]:g}")
    return w


def emergent_rest_mass(particle: Particle, fld: VacuumField, r0) -> float:
    """Rest mass of the initial state, m0 = -W(r0,0) sqrt(1 - |u0|^2).

    This is the invariant energy of the initial data; the configuration never
    stores m0 directly.
    """
    r0 = as_vec3(r0)
    w0 = negative_w(fld.w(r0, 0.0), r0, 0.0)
    return -w0 * math.sqrt(1.0 - float(dot3(particle.u0, particle.u0)))


def init_phase(model: ModelKind, particle: Particle, fld: VacuumField, r0) -> PhasePoint:
    """Initial canonical state at tau = t = 0 for the given model.

    M0/M1 store the kinetic momentum -W u0; M2/M3 add the field momentum qA.
    The one check of a start state: q == q_test, W(r0, 0) < 0 and the M1-M3
    square-root guard; each error names what broke first (q, r0 or model).
    """
    r0 = as_vec3(r0)
    if particle.q != fld.q_test:
        raise ConfigError(f"q: must equal the field's q_test ({particle.q} != {fld.q_test})")
    w0 = fld.w(r0, 0.0)
    if not w0 < 0.0:
        raise NonNegativeField(f"r0: W(r0, 0) = {w0} must be negative")
    mom = -w0 * particle.u0
    if model in (ModelKind.M2, ModelKind.M3):
        mom = mom + particle.q * fld.a(r0, 0.0)
    phase = PhasePoint(r=r0, mom=mom, tau=0.0, t=0.0)
    if model is not ModelKind.M0:
        try:
            # an overflowing W^2 or |k|^2 fails the guard as nan or -inf
            checked_phase_terms(model, phase.r, phase.mom, phase.t, fld)
        except SubluminalViolation as exc:
            raise SubluminalViolation(f"model: {model.value} start state breaks its guard, {exc}") from None
    return phase


def _require_rest_mass(rest_mass: float | None) -> float:
    if rest_mass is None:
        raise ValueError("M0 operations need the emergent rest mass (see emergent_rest_mass)")
    return float(rest_mass)


#: a model's phase-space terms at phase points; see phase_terms
PhaseTerms = namedtuple("PhaseTerms", "w a k guard g kappa rate energy")


def phase_terms(model: ModelKind, r, mom, t, fld: VacuumField, rest_mass=None) -> PhaseTerms:
    """The one definition of every model's phase-space terms, checking nothing.

    From one field evaluation at phase points (r, mom, t) (W alone for M0 and
    M1, which runs with q_test = 0): W, A (None for M0/M1), the guarded
    momentum k (P - qA for M3, mom otherwise), the guard W^2 - |k|^2 (None for
    M0), G = sqrt(guard) (sqrt(m0^2 + |p|^2) for M0), kappa = 1 - q<A,P>/G^2
    (1 but for M2), the clock rate dt/dtau and the conserved energy (-H; H for
    M0).  r and mom are (3,) or (..., 3), t scalar or one per point; sums run
    left to right, so each row is the one-point call.  A broken guard shows as
    nan or inf, without numpy warnings; checked_phase_terms raises instead.
    """
    if model in (ModelKind.M2, ModelKind.M3):
        w, a = fld._eval(r, t, "wa")
    else:
        (w,), a = fld._eval(r, t, "w"), None
    q = fld.q_test
    with np.errstate(all="ignore"):
        k = mom - q * a if model is ModelKind.M3 else mom
        k2 = dot3(k, k)
        if model is ModelKind.M0:
            m0 = _require_rest_mass(rest_mass)
            g = np.sqrt(m0 * m0 + k2)
            return PhaseTerms(w, a, k, None, g, 1.0, 1.0, g + (w - fld.w_inf))
        guard = w * w - k2
        g = np.sqrt(guard)
        if model is not ModelKind.M2:
            return PhaseTerms(w, a, k, guard, g, 1.0, -w / g, g)
        ap = dot3(a, mom)
        kappa = 1.0 - q * ap / (g * g)
        rate = np.sqrt(1.0 + k2 * kappa * kappa / (g * g))
        return PhaseTerms(w, a, k, guard, g, kappa, rate, g + q * ap / g)


def checked_guard(guard):
    """guard after guard > SUBLUMINAL_EPS on every row (nan fails), at one point or on columns."""
    if not np.all(guard > SUBLUMINAL_EPS):
        raise SubluminalViolation(f"W^2 - |mom|^2 = {np.min(guard):g} <= {SUBLUMINAL_EPS:g}")
    return guard


def checked_phase_terms(model: ModelKind, r, mom, t, fld: VacuumField, rest_mass=None) -> PhaseTerms:
    """phase_terms at phase points that keep W < 0 (negative_w) and, but for M0,
    guard > SUBLUMINAL_EPS (checked_guard); the first broken invariant raises."""
    terms = phase_terms(model, r, mom, t, fld, rest_mass)
    negative_w(terms.w, r, t)
    if terms.guard is not None:
        checked_guard(terms.guard)
    return terms


def clock_rate(model: ModelKind, phase: PhasePoint, fld: VacuumField) -> float:
    """dt/dtau at the given state: (1 + |rdot|^2)^(1/2) with rdot from the model flow.

    M2 uses the relative velocity rdot - xidot with xidot = -qA (W^2-P^2)^(-1/2);
    M0 is evolved directly in t, so its rate is 1.
    """
    if model is ModelKind.M0:
        return 1.0
    return float(checked_phase_terms(model, phase.r, phase.mom, phase.t, fld).rate)
