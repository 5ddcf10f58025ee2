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

Three column kernels carry the Lagrangian side, the Hamiltonian and its
canonical flow.  Their field values come from the one field kernel,
VacuumField.point_state, which VacuumField._eval runs on coordinate columns.
_lagrangian_eval gives L, dL/drdot and dL/dr at (..., 3) columns of states
from one batched field evaluation, and velocity probes of the same states are
column arithmetic on it; _hamiltonian_eval gives H from
core.checked_phase_terms.  Every 3-vector sum runs left to right, so each row
is bit-identical to a one-row call: lagrangian, legendre_momentum and
hamiltonian are those one-row selections, and the trajectory diagnostics and
the random-state criteria 4-5 (verify) call the kernels on whole columns.
point_rhs, the integrator hot path, runs its model arithmetic on plain floats,
pinned bit for bit to core.phase_terms by a property test; it raises on a
broken guard, and RK45 (integrate) counts that as a rejected trial step.
_rhs_eval runs the same statements on columns, as _eval runs point_state.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .core import (
    ModelKind,
    PhasePoint,
    _require_rest_mass,
    checked_guard,
    checked_phase_terms,
    guarded_root,
    negative_w,
)
from .errors import NonNegativeField, SubluminalViolation, SuperluminalInit, TooShort
from .fields import VacuumField, as_vec3, dot3, jac_t_dot


class ForceKind(Enum):
    ClassicalLorentz = "classical"
    ModifiedLorentz = "modified"


def _hard_w(w: float) -> float:
    if w >= 0.0:
        raise NonNegativeField(f"W = {w:g} >= 0 reached by trajectory")
    return w


def _mover_velocity(q: float, a, w):
    """Effective external-mover velocity u_eff = qA/W recovered from the field."""
    u = q * a / np.expand_dims(w, -1)
    uf2 = dot3(u, u)
    if np.any(uf2 >= 1.0):
        raise SubluminalViolation(f"effective mover speed |qA/W| = {np.sqrt(np.max(uf2))} >= 1")
    return u


def _relative_rate(b, uf2, rd2):
    """Solve s = sqrt(1 + |rdot - u_eff*s|^2) for the M2 clock factor s = dt/dtau.

    b = <rdot, u_eff>, uf2 = |u_eff|^2 and rd2 = |rdot|^2: floats or columns.
    """
    return (-b + np.sqrt(b * b + (1.0 - uf2) * (1.0 + rd2))) / (1.0 - uf2)


def _mover(q: float, a, w, rdot):
    """(xidot, s) of M2 at velocity rdot: the mover velocity u_eff * s and the clock factor s."""
    u_eff = _mover_velocity(q, a, w)
    s = _relative_rate(dot3(rdot, u_eff), dot3(u_eff, u_eff), dot3(rdot, rdot))
    return u_eff * np.expand_dims(s, -1), s


def m2_xidot(r, rdot, fld: VacuumField, tau_time=0.0) -> np.ndarray:
    """Self-consistent mover velocity xidot at M2 states (r, rdot), one or (..., 3) columns.

    In the variational treatment xidot is external data: variations of rdot
    hold it fixed.  Freeze this value when probing the M2 Lagrangian by finite
    differences.
    """
    w, a = fld._eval(r, tau_time, "wa")
    return _mover(fld.q_test, a, negative_w(w, r, tau_time), np.asarray(rdot, dtype=float))[0]


# -- Lagrangian side ----------------------------------------------------------


def _lagrangian_eval(model: ModelKind, r, rdot, t, fld: VacuumField, rest_mass=None, xidot=None,
                     derivatives: bool = False):
    """The Lagrangian kernel: L at states (r, rdot, t), or with derivatives=True
    (L, dL/drdot, dL/dr).

    r is (..., 3) with t scalar or one time per state, and rdot broadcasts
    against r: velocity probes (k, n, 3) of n states (n, 3) share one field
    evaluation at the states.  Every 3-vector sum runs left to right, so each
    row equals the one-row call bit for bit.  M2's mover velocity xidot is
    resolved at (r, rdot) unless given; the derivatives hold it fixed.
    """
    if model is ModelKind.M0:
        m0 = _require_rest_mass(rest_mass)
        u2 = dot3(rdot, rdot)
        if np.any(u2 >= 1.0):
            raise SuperluminalInit(f"M0 Lagrangian needs |u| < 1, got |u|^2 = {np.max(u2)}")
        root = np.sqrt(1.0 - u2)
        if not derivatives:
            return -m0 * root
        dldr = np.zeros(np.broadcast_shapes(np.shape(r), rdot.shape))
        return -m0 * root, m0 * rdot / np.expand_dims(root, -1), dldr
    self_consistent = model is ModelKind.M2 and xidot is None
    parts = "wg" if derivatives else "w"
    if model is ModelKind.M3 or self_consistent:
        parts += "aj" if derivatives and model is ModelKind.M3 else "a"
    f = dict(zip(parts, fld._eval(r, t, parts)))
    w = negative_w(f["w"], r, t)
    q = fld.q_test
    if self_consistent:
        xidot, s = _mover(q, f["a"], w, rdot)
        eta = rdot - xidot
    else:
        eta = rdot - xidot if model is ModelKind.M2 else rdot
        s = np.sqrt(1.0 + dot3(eta, eta))
    lag = -w * s
    if model is ModelKind.M3:
        lag = lag + q * dot3(f["a"], rdot)
    if not derivatives:
        return lag
    w, s = np.expand_dims(w, -1), np.expand_dims(s, -1)
    if model is not ModelKind.M3:
        return lag, -w * eta / s, -f["g"] * s
    return lag, -w * eta / s + q * f["a"], -f["g"] * s + q * jac_t_dot(f["j"], rdot)


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
    """Model Lagrangian at (r, rdot): one row of _lagrangian_eval.

    rdot is the proper-time velocity for M1/M2/M3 (unbounded) and the lab
    velocity u (|u| < 1) for M0.  tau_time is the field evaluation time (the
    lab clock for moving sources).  For M2, xidot optionally supplies the
    external mover velocity; by default it is resolved self-consistently at
    (r, rdot) (see m2_xidot).
    """
    xidot = None if xidot is None else as_vec3(xidot)
    return float(_lagrangian_eval(model, as_vec3(r), as_vec3(rdot), tau_time, fld, rest_mass, xidot))


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
    """Closed-form dL/drdot, one row of _lagrangian_eval; matches central finite
    differences of lagrangian.

    For M2 the derivative holds the mover velocity fixed (xidot is external
    data in the variational treatment); probe the finite differences with the
    same frozen xidot.
    """
    xidot = None if xidot is None else as_vec3(xidot)
    return _lagrangian_eval(model, as_vec3(r), as_vec3(rdot), tau_time, fld, rest_mass, xidot, True)[1]


# -- Hamiltonian side ---------------------------------------------------------


def _hamiltonian_eval(model: ModelKind, r, mom, t, fld: VacuumField, rest_mass=None):
    """H at phase points (r, mom, t), (..., 3) columns with t scalar or one per point:
    core.checked_phase_terms' energy for M0, minus it for M1-M3.  Each row is the one-point call."""
    energy = checked_phase_terms(model, r, mom, t, fld, rest_mass).energy
    return energy if model is ModelKind.M0 else -energy


def hamiltonian(
    model: ModelKind,
    phase: PhasePoint,
    fld: VacuumField,
    *,
    rest_mass: float | None = None,
) -> float:
    """Model Hamiltonian at the phase point: one row of _hamiltonian_eval."""
    return float(_hamiltonian_eval(model, phase.r, phase.mom, phase.t, fld, rest_mass))


def invariant_energy(
    model: ModelKind,
    phase: PhasePoint,
    fld: VacuumField,
    *,
    rest_mass: float | None = None,
) -> float:
    """The conserved energy of the model (positive for the vacuum models)."""
    return float(checked_phase_terms(model, phase.r, phase.mom, phase.t, fld, rest_mass).energy)


def point_rhs(
    model: ModelKind,
    y,
    fld: VacuumField,
    rest_mass: float | None = None,
    _sqrt=math.sqrt,
    _root=guarded_root,
    _negative_w=_hard_w,
) -> list[float]:
    """Fused canonical right-hand side: [r, mom, t] -> [rdot, momdot, dt/dtau].

    y holds 7 floats.  For M0 the derivatives are with respect to lab time and
    the rate is 1.  One field evaluation (VacuumField.point_state) is shared by
    all pieces; on plain floats this is the integrator hot path, and a property
    test pins its k/G and rate bit for bit to core.phase_terms.  _rhs_eval
    passes 7 columns instead, with the square root, the guarded root and the
    W < 0 check for columns.
    """
    x, yy, z, px, py, pz, t = y
    w, (gx, gy, gz), a, adot, jac = fld.point_state(x, yy, z, t, _sqrt)
    q = fld.q_test
    if model is ModelKind.M0:
        m0 = _require_rest_mass(rest_mass)
        _negative_w(w)
        ekin = _sqrt(m0 * m0 + (px * px + py * py + pz * pz))
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
    w = _negative_w(w)
    if model is ModelKind.M1:
        g = _root(w * w - (px * px + py * py + pz * pz))
        c = w / g
        return [px / g, py / g, pz / g, c * gx, c * gy, c * gz, -w / g]

    ax, ay, az = a
    (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = jac
    if model is ModelKind.M3:
        kx, ky, kz = px - q * ax, py - q * ay, pz - q * az
        g = _root(w * w - (kx * kx + ky * ky + kz * kz))
        return [
            kx / g, ky / g, kz / g,
            (w * gx + q * (j00 * kx + j10 * ky + j20 * kz)) / g,
            (w * gy + q * (j01 * kx + j11 * ky + j21 * kz)) / g,
            (w * gz + q * (j02 * kx + j12 * ky + j22 * kz)) / g,
            -w / g,
        ]

    # M2: exact gradients of H = -G - q<A,P>/G
    p2 = px * px + py * py + pz * pz
    g = _root(w * w - p2)
    kappa = 1.0 - q * (ax * px + ay * py + az * pz) / (g * g)
    kw = kappa * w
    return [
        (kappa * px - q * ax) / g,
        (kappa * py - q * ay) / g,
        (kappa * pz - q * az) / g,
        (kw * gx + q * (j00 * px + j10 * py + j20 * pz)) / g,
        (kw * gy + q * (j01 * px + j11 * py + j21 * pz)) / g,
        (kw * gz + q * (j02 * px + j12 * py + j22 * pz)) / g,
        _sqrt(1.0 + p2 * kappa * kappa / (g * g)),
    ]


def _column_root(arg):
    return np.sqrt(checked_guard(arg))


def _rhs_eval(model: ModelKind, r, mom, t, fld: VacuumField, rest_mass=None):
    """point_rhs at phase points (r, mom, t), (..., 3) columns with t scalar or one
    per point: (rdot, momdot, dt/dtau), each row the float call bit for bit.

    A state with W >= 0 raises NonNegativeField (core.negative_w names the first
    one), a broken guard SubluminalViolation (core.checked_guard).  A part that
    stays a float on every row (M0's rate 1) is broadcast to the column shape.
    """
    r, mom, t = (np.asarray(v, dtype=float) for v in (r, mom, t))
    y = [*np.moveaxis(r, -1, 0), *np.moveaxis(mom, -1, 0), t]
    # far from a source the kernels overflow to their 0 limit, as VacuumField._eval allows
    with np.errstate(over="ignore"):
        out = point_rhs(model, y, fld, rest_mass, np.sqrt, _column_root, lambda w: negative_w(w, r, t))
    out = [np.broadcast_to(v, r.shape[:-1]) for v in out]
    return np.stack(out[0:3], axis=-1), np.stack(out[3:6], axis=-1), out[6].copy()


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


def _force_eval(fld: VacuumField, r, u, q: float, t):
    """(q(E + u x B), q J^T u) at probes r (..., 3) with velocities u, from one field
    evaluation: the classical Lorentz force and the term the modified law subtracts."""
    u2 = dot3(u, u)
    if np.any(u2 >= 1.0):
        raise SuperluminalInit(f"force needs |u| < 1, got {np.sqrt(np.max(u2))}")
    gw, adot, jac = fld._eval(r, t, "gdj")
    e, b = fld.assemble_e_b(gw, adot, jac)
    (ux, uy, uz), (bx, by, bz) = np.moveaxis(u, -1, 0), np.moveaxis(b, -1, 0)
    u_cross_b = np.stack([uy * bz - uz * by, uz * bx - ux * bz, ux * by - uy * bx], axis=-1)
    return q * (e + u_cross_b), q * jac_t_dot(jac, u)


def force(kind: ForceKind, fld: VacuumField, r, u, q: float, t: float = 0.0) -> np.ndarray:
    """Pointwise force law: classical qE + q u x B, or the modified variant
    carrying the extra -q grad<A,u> term (u held fixed in the gradient)."""
    lorentz, grad_au = _force_eval(fld, as_vec3(r), as_vec3(u), q, t)
    return lorentz if kind is ForceKind.ClassicalLorentz else lorentz - grad_au


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
    """_lagrangian_eval at the samples rows of traj, with velocities from _sample_rdots."""
    rs = np.asarray(traj.r)
    rdots = _sample_rdots(np.asarray(traj.tau), rs)[rows]
    return _lagrangian_eval(model, rs[rows], rdots, np.asarray(traj.t)[rows], fld, rest_mass,
                            derivatives=derivatives)


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
    _, pis, dldr = _lagrangian_samples(model, traj, fld, rest_mass, slice(1, n - 1), derivatives=True)
    dpi = (pis[2:] - pis[:-2]) / (taus[3:-1] - taus[1:-3])[:, None]
    return float(np.max(np.abs(dpi - dldr[1:-1]), initial=0.0))
