"""Model dynamics: Lagrangians, Legendre momenta, Hamiltonians, canonical flows.

Conventions used throughout (c = 1):

  M0  H = sqrt(m0^2 + p^2) + q*phi, evolved in lab time by the Lorentz force
      dp/dt = qE + q u x B with u = p / sqrt(m0^2 + p^2).
  M1  L = -W sqrt(1 + rdot^2),            H = -sqrt(W^2 - p^2).
  M2  L = -W sqrt(1 + |rdot - xidot|^2),  H = -G - q<A,P>/G, G = sqrt(W^2 - P^2),
      with the mover velocity recovered from the field, u_eff = qA/W, so that
      xidot = u_eff * dt/dtau = -qA/G.  The evolution is the exact canonical
      flow of H (its gradients include the <A,P>/G substitution terms).
  M3  L = -W sqrt(1 + rdot^2) + q<A,rdot>, H = -sqrt(W^2 - (P - qA)^2).

The momdot expressions are exact partial derivatives of the Hamiltonians, so
finite differences of hamiltonian() reproduce vector_field() to discretization
error.  M0 is the exception: its stored momentum is kinetic, and its momdot is
the Lorentz force, not -dH/dr.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .core import SUBLUMINAL_EPS, ModelKind, PhasePoint, checked_w, guarded_root, phase_terms
from .errors import NonNegativeField, SubluminalViolation, SuperluminalInit, TooShort
from .fields import VacuumField, as_vec3


class ForceKind(Enum):
    ClassicalLorentz = "classical"
    ModifiedLorentz = "modified"


def _require_rest_mass(rest_mass: float | None) -> float:
    if rest_mass is None:
        raise ValueError("M0 operations need the emergent rest mass (see emergent_rest_mass)")
    return float(rest_mass)


def _soft_root(arg: float) -> float:
    return math.sqrt(arg if arg > SUBLUMINAL_EPS else SUBLUMINAL_EPS)


def _soft_w(w: float) -> float:
    return w if w < -SUBLUMINAL_EPS else -SUBLUMINAL_EPS


def _hard_w(w: float) -> float:
    if w >= 0.0:
        raise SubluminalViolation(f"W = {w:g} >= 0 reached by trajectory")
    return w


def _mover_velocity(q: float, a: np.ndarray, w: float) -> np.ndarray:
    """Effective external-mover velocity u_eff = qA/W recovered from the field."""
    u = q * a / w
    if float(u @ u) >= 1.0:
        raise SubluminalViolation(f"effective mover speed |qA/W| = {np.linalg.norm(u)} >= 1")
    return u


def _relative_rate(b, uf2, rd2, root=math.sqrt):
    """Solve s = sqrt(1 + |rdot - u_eff*s|^2) for the M2 clock factor s = dt/dtau.

    b = <rdot, u_eff>, uf2 = |u_eff|^2 and rd2 = |rdot|^2: floats, or numpy
    sample columns with root = np.sqrt.
    """
    return (-b + root(b * b + (1.0 - uf2) * (1.0 + rd2))) / (1.0 - uf2)


def m2_xidot(r, rdot, fld: VacuumField, tau_time: float = 0.0) -> np.ndarray:
    """Self-consistent mover velocity xidot at an M2 state (r, rdot).

    In the variational treatment xidot is external data: variations of rdot
    hold it fixed.  Freeze this value when probing the M2 Lagrangian by finite
    differences.
    """
    r = as_vec3(r)
    rdot = as_vec3(rdot)
    w = checked_w(fld, r, tau_time)
    u_eff = _mover_velocity(fld.q_test, fld.a(r, tau_time), w)
    return u_eff * _relative_rate(float(rdot @ u_eff), float(u_eff @ u_eff), float(rdot @ rdot))


# -- Lagrangian side ----------------------------------------------------------


def _velocity_terms(model: ModelKind, r, rdot, fld: VacuumField, tau_time: float, xidot):
    """(W, s, eta, A) of a vacuum model at (r, rdot), with s = sqrt(1 + |eta|^2).

    L = -W s and dL/drdot = -W eta / s, plus q<A, rdot> and qA for M3 (A is
    None for M1/M2).  M2's eta = rdot - xidot, with xidot = u_eff * s by default.
    """
    w = checked_w(fld, r, tau_time)
    if model is ModelKind.M2 and xidot is None:
        u_eff = _mover_velocity(fld.q_test, fld.a(r, tau_time), w)
        s = _relative_rate(float(rdot @ u_eff), float(u_eff @ u_eff), float(rdot @ rdot))
        return w, s, rdot - u_eff * s, None
    eta = rdot - as_vec3(xidot) if model is ModelKind.M2 else rdot
    a = fld.a(r, tau_time) if model is ModelKind.M3 else None
    return w, math.sqrt(1.0 + float(eta @ eta)), eta, a


def lagrangian(
    model: ModelKind,
    r,
    rdot,
    fld: VacuumField,
    tau_time: float = 0.0,
    *,
    rest_mass: float | None = None,
    xidot=None,
) -> float:
    """Model Lagrangian at (r, rdot).

    rdot is the proper-time velocity for M1/M2/M3 (unbounded) and the lab
    velocity u (|u| < 1) for M0.  tau_time is the field evaluation time (the
    lab clock for moving sources).  For M2, xidot optionally supplies the
    external mover velocity; by default it is resolved self-consistently at
    (r, rdot) (see m2_xidot).
    """
    r = as_vec3(r)
    rdot = as_vec3(rdot)
    if model is ModelKind.M0:
        m0 = _require_rest_mass(rest_mass)
        u2 = float(rdot @ rdot)
        if u2 >= 1.0:
            raise SuperluminalInit(f"M0 lagrangian needs |u| < 1, got |u|^2 = {u2}")
        return -m0 * math.sqrt(1.0 - u2)
    w, s, _eta, a = _velocity_terms(model, r, rdot, fld, tau_time, xidot)
    return -w * s if a is None else -w * s + fld.q_test * float(a @ rdot)


def legendre_momentum(
    model: ModelKind,
    r,
    rdot,
    fld: VacuumField,
    tau_time: float = 0.0,
    *,
    rest_mass: float | None = None,
    xidot=None,
) -> np.ndarray:
    """Closed-form dL/drdot; matches central finite differences of lagrangian.

    For M2 the derivative holds the mover velocity fixed (xidot is external
    data in the variational treatment); probe the finite differences with the
    same frozen xidot.
    """
    r = as_vec3(r)
    rdot = as_vec3(rdot)
    if model is ModelKind.M0:
        m0 = _require_rest_mass(rest_mass)
        u2 = float(rdot @ rdot)
        if u2 >= 1.0:
            raise SuperluminalInit(f"M0 momentum needs |u| < 1, got |u|^2 = {u2}")
        return m0 * rdot / math.sqrt(1.0 - u2)
    w, s, eta, a = _velocity_terms(model, r, rdot, fld, tau_time, xidot)
    return -w * eta / s if a is None else -w * eta / s + fld.q_test * a


# -- Hamiltonian side ---------------------------------------------------------


def hamiltonian(
    model: ModelKind,
    phase: PhasePoint,
    fld: VacuumField,
    *,
    rest_mass: float | None = None,
) -> float:
    """Model Hamiltonian at the phase point (M0 returns +energy, M1-M3 -energy of model_terms)."""
    if model is not ModelKind.M0:
        return -phase_terms(model, phase, fld)[4]
    w = checked_w(fld, phase.r, phase.t)
    m0 = _require_rest_mass(rest_mass)
    return math.sqrt(m0 * m0 + float(phase.mom @ phase.mom)) + (w - fld.w_inf)


def invariant_energy(
    model: ModelKind,
    phase: PhasePoint,
    fld: VacuumField,
    *,
    rest_mass: float | None = None,
) -> float:
    """The conserved energy of the model (positive for the vacuum models)."""
    h = hamiltonian(model, phase, fld, rest_mass=rest_mass)
    return h if model is ModelKind.M0 else -h


def point_rhs(
    model: ModelKind,
    y,
    fld: VacuumField,
    rest_mass: float | None = None,
    soft: bool = False,
) -> list[float]:
    """Fused canonical right-hand side on plain floats: [r, mom, t] -> [rdot, momdot, dt/dtau].

    y holds 7 floats.  For M0 the derivatives are with respect to lab time and
    the rate is 1.  One field evaluation (VacuumField.point_state) is shared by
    all pieces; this is the integrator hot path.  soft=True clamps the
    square-root guards instead of raising; the adaptive driver uses it for
    trial stages only, with a terminal guard event deciding where the reported
    trajectory actually stops.
    """
    x, yy, z, px, py, pz, t = y
    w, (gx, gy, gz), a, adot, jac = fld.point_state(x, yy, z, t)
    q = fld.q_test
    root = _soft_root if soft else guarded_root
    if model is ModelKind.M0:
        m0 = _require_rest_mass(rest_mass)
        if not soft:
            _hard_w(w)
        ekin = math.sqrt(m0 * m0 + (px * px + py * py + pz * pz))
        ux, uy, uz = px / ekin, py / ekin, pz / ekin
        (_j00, j01, j02), (j10, _j11, j12), (j20, j21, _j22) = jac
        bx, by, bz = j21 - j12, j02 - j20, j10 - j01
        adx, ady, adz = adot
        return [
            ux, uy, uz,
            (-gx - q * adx) + q * (uy * bz - uz * by),
            (-gy - q * ady) + q * (uz * bx - ux * bz),
            (-gz - q * adz) + q * (ux * by - uy * bx),
            1.0,
        ]
    w = _soft_w(w) if soft else _hard_w(w)
    if model is ModelKind.M1:
        g = root(w * w - (px * px + py * py + pz * pz))
        c = w / g
        return [px / g, py / g, pz / g, c * gx, c * gy, c * gz, -w / g]

    ax, ay, az = a
    (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = jac
    if model is ModelKind.M3:
        kx, ky, kz = px - q * ax, py - q * ay, pz - q * az
        g = root(w * w - (kx * kx + ky * ky + kz * kz))
        return [
            kx / g, ky / g, kz / g,
            (w * gx + q * (j00 * kx + j10 * ky + j20 * kz)) / g,
            (w * gy + q * (j01 * kx + j11 * ky + j21 * kz)) / g,
            (w * gz + q * (j02 * kx + j12 * ky + j22 * kz)) / g,
            -w / g,
        ]

    # M2: exact gradients of H = -G - q<A,P>/G
    p2 = px * px + py * py + pz * pz
    g = root(w * w - p2)
    kappa = 1.0 - q * (ax * px + ay * py + az * pz) / (g * g)
    kw = kappa * w
    return [
        (kappa * px - q * ax) / g,
        (kappa * py - q * ay) / g,
        (kappa * pz - q * az) / g,
        (kw * gx + q * (j00 * px + j10 * py + j20 * pz)) / g,
        (kw * gy + q * (j01 * px + j11 * py + j21 * pz)) / g,
        (kw * gz + q * (j02 * px + j12 * py + j22 * pz)) / g,
        math.sqrt(1.0 + p2 * kappa * kappa / (g * g)),
    ]


def model_rhs(
    model: ModelKind,
    r: np.ndarray,
    mom: np.ndarray,
    t: float,
    fld: VacuumField,
    rest_mass: float | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """point_rhs with array arguments and results: (rdot, momdot, dt/dtau)."""
    y = [*map(float, r), *map(float, mom), float(t)]
    out = point_rhs(model, y, fld, rest_mass)
    return np.array(out[0:3]), np.array(out[3:6]), out[6]


def vector_field(
    model: ModelKind,
    phase: PhasePoint,
    fld: VacuumField,
    *,
    rest_mass: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Canonical right-hand side (rdot, momdot) in tau (in t for M0)."""
    rdot, momdot, _rate = model_rhs(model, phase.r, phase.mom, phase.t, fld, rest_mass)
    return rdot, momdot


# -- Force laws ---------------------------------------------------------------


def force(kind: ForceKind, fld: VacuumField, r, u, q: float, t: float = 0.0) -> np.ndarray:
    """Pointwise force law: classical qE + q u x B, or the modified variant
    carrying the extra -q grad<A,u> term (u held fixed in the gradient)."""
    r = as_vec3(r)
    u = as_vec3(u)
    if float(u @ u) >= 1.0:
        raise SuperluminalInit(f"force needs |u| < 1, got {np.linalg.norm(u)}")
    gw, adot, jac = fld._eval(r, t, "gdj")
    e, b = fld.assemble_e_b(gw, adot, jac)
    lorentz = q * (e + np.cross(u, b))
    if kind is ForceKind.ClassicalLorentz:
        return lorentz
    return lorentz - q * (jac.T @ u)


# -- Variational diagnostics --------------------------------------------------


def _sample_rdots(taus: np.ndarray, rs: np.ndarray) -> np.ndarray:
    """Velocities from the samples: centered in the interior, one-sided at the ends."""
    rd = np.empty_like(rs)
    rd[1:-1] = (rs[2:] - rs[:-2]) / (taus[2:] - taus[:-2])[:, None]
    rd[0] = (rs[1] - rs[0]) / (taus[1] - taus[0])
    rd[-1] = (rs[-1] - rs[-2]) / (taus[-1] - taus[-2])
    return rd


def _lagrangian_samples(model: ModelKind, traj, fld: VacuumField, rest_mass: float | None,
                        rows=slice(None), derivatives: bool = False):
    """L at the samples rows of traj, or with derivatives=True the rows (dL/drdot, dL/dr).

    Velocities come from _sample_rdots; one batched field evaluation serves
    all rows.  For M2 the derivatives hold the mover velocity xidot = u_eff * s
    fixed (external data).
    """
    rs = np.asarray(traj.r)
    rdots = _sample_rdots(np.asarray(traj.tau), rs)[rows]
    rs, ts = rs[rows], np.asarray(traj.t)[rows]
    rd2 = np.einsum("ij,ij->i", rdots, rdots)
    if model is ModelKind.M0:
        m0 = _require_rest_mass(rest_mass)
        if np.any(rd2 >= 1.0):
            raise SuperluminalInit("M0 sample velocity reached |u| >= 1")
        root = np.sqrt(1.0 - rd2)
        if derivatives:
            return m0 * rdots / root[:, None], np.zeros_like(rdots)
        return -m0 * root
    parts = "wg" if derivatives else "w"
    if model is not ModelKind.M1:
        parts += "aj" if derivatives and model is ModelKind.M3 else "a"
    f = dict(zip(parts, fld._eval(rs, ts, parts)))
    w = f["w"]
    if np.any(w >= 0.0):
        raise NonNegativeField(f"W(r,t) = {np.max(w):g} >= 0 at a sample")
    q = fld.q_test
    eta = rdots
    if model is ModelKind.M2:
        u_eff = q * f["a"] / w[:, None]
        uf2 = np.einsum("ij,ij->i", u_eff, u_eff)
        if np.any(uf2 >= 1.0):
            raise SubluminalViolation(f"effective mover speed |qA/W| = {np.sqrt(np.max(uf2))} >= 1")
        s = _relative_rate(np.einsum("ij,ij->i", rdots, u_eff), uf2, rd2, np.sqrt)
        eta = rdots - u_eff * s[:, None]
    else:
        s = np.sqrt(1.0 + rd2)
    if not derivatives:
        lag = -w * s
        return lag + q * np.einsum("ij,ij->i", f["a"], rdots) if model is ModelKind.M3 else lag
    pi = -w[:, None] * eta / s[:, None]
    dldr = -f["g"] * s[:, None]
    if model is ModelKind.M3:
        pi += q * f["a"]
        dldr += q * np.einsum("nji,nj->ni", f["j"], rdots)
    return pi, dldr


def action(model: ModelKind, traj, fld: VacuumField, *, rest_mass: float | None = None) -> float:
    """Trapezoidal quadrature of the Lagrangian along the trajectory in tau.

    Velocities are reconstructed from the samples, so the functional is defined
    for perturbed (non-solution) sample paths as well.
    """
    taus = np.asarray(traj.tau)
    if taus.size < 2:
        raise TooShort(f"action needs at least 2 samples, got {taus.size}")
    return float(np.trapezoid(_lagrangian_samples(model, traj, fld, rest_mass), taus))


def euler_lagrange_residual(
    model: ModelKind, traj, fld: VacuumField, *, rest_mass: float | None = None
) -> float:
    """Max-norm discrete Euler-Lagrange defect |d/dtau(dL/drdot) - dL/dr|.

    Centered differences on the recorded samples; second-order in the step.
    For M2 the mover term xidot is held as external data along the samples.
    """
    taus = np.asarray(traj.tau)
    n = taus.size
    if n < 5:
        raise TooShort(f"euler_lagrange_residual needs at least 5 samples, got {n}")
    # momenta at samples 1..n-2 (centered velocities available there), the
    # defect at samples 2..n-3
    pis, dldr = _lagrangian_samples(model, traj, fld, rest_mass, slice(1, n - 1), derivatives=True)
    dpi = (pis[2:] - pis[:-2]) / (taus[3:-1] - taus[1:-3])[:, None]
    return float(np.max(np.abs(dpi - dldr[1:-1]), initial=0.0))
