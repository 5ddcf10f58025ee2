"""Shared domain types, unit conventions, clocks and the per-model scalar terms.

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

All types here are immutable values; every operation is pure.
"""

from __future__ import annotations

import math
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


def guarded_sqrt(arg):
    """guarded_root for numpy values and columns: one check of every argument, then np.sqrt."""
    if not np.all(arg > SUBLUMINAL_EPS):
        raise SubluminalViolation(f"W^2 - |mom|^2 = {np.min(arg):g} <= {SUBLUMINAL_EPS:g}")
    return np.sqrt(arg)


def negative_w(w, r, t):
    """w after the trajectory invariant W < 0, at one state or on columns (r (..., 3), t
    scalar or per state); the error names the first state that breaks it."""
    bad = np.asarray(w) >= 0.0
    if bad.any():
        i = np.unravel_index(np.argmax(bad), bad.shape)
        raise NonNegativeField(f"W(r,t) = {np.asarray(w)[i]:g} >= 0 at r = {np.asarray(r)[i].tolist()}, "
                               f"t = {np.broadcast_to(t, bad.shape)[i]:g}")
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
            with np.errstate(over="ignore", invalid="ignore"):
                phase_terms(model, phase.r, phase.mom, phase.t, fld)
        except SubluminalViolation as exc:
            raise SubluminalViolation(f"model: {model.value} start state breaks its guard, {exc}") from None
    return phase


def model_terms(model: ModelKind, w, k2, ap, q: float, root):
    """(guard, G, kappa, rate, energy) of a vacuum model M1-M3: the one definition.

    guard = W^2 - |k|^2 (k = P - qA for M3, the stored momentum otherwise),
    G = root(guard), kappa = 1 - q<A,P>/G^2 (1 for M1/M3), rate = dt/dtau and
    energy = -H.  k2 = |k|^2 and ap = <A,P> (M2 only) come from the caller,
    summed in its own order.  Only + - * / and root are used, so it runs on
    floats (root = guarded_root), on phase points and their columns (root =
    guarded_sqrt, see phase_terms) and on sample columns (root = np.sqrt).
    """
    guard = w * w - k2
    g = root(guard)
    if model is not ModelKind.M2:
        return guard, g, 1.0, -w / g, g
    kappa = 1.0 - q * ap / (g * g)
    return guard, g, kappa, root(1.0 + k2 * kappa * kappa / (g * g)), g + q * ap / g


def phase_terms(model: ModelKind, r, mom, t, fld: VacuumField):
    """model_terms of M1-M3 at phase points (r, mom, t) from one field evaluation (W alone
    for M1, which runs with q_test = 0), with |k|^2 and <A,P> summed left to right.

    r and mom are one point's (3,) vectors or (..., 3) columns, with t scalar or one
    per point; each row equals the one-point call.
    """
    w, a = fld._eval(r, t, "wa") if model is not ModelKind.M1 else (fld._eval(r, t, "w")[0], None)
    w = negative_w(w, r, t)
    q = fld.q_test
    k = mom - q * a if model is ModelKind.M3 else mom
    ap = dot3(a, mom) if model is ModelKind.M2 else 0.0
    return model_terms(model, w, dot3(k, k), ap, q, guarded_sqrt)


def clock_rate(model: ModelKind, phase: PhasePoint, fld: VacuumField) -> float:
    """dt/dtau at the given state: (1 + |rdot|^2)^(1/2) with rdot from the model flow.

    M2 uses the relative velocity rdot - xidot with xidot = -qA (W^2-P^2)^(-1/2);
    M0 is evolved directly in t, so its rate is 1.
    """
    if model is ModelKind.M0:
        return 1.0
    return float(phase_terms(model, phase.r, phase.mom, phase.t, fld)[3])
