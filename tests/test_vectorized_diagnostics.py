"""The vectorized diagnostics against their per-sample loop versions.

euler_lagrange_residual, action and the record columns (energy, w, u_lab)
evaluate all samples in one batched field call, and verify.vector_field_fd
takes the right-hand side of all its states in one column call of point_rhs.
The per-sample loops they replaced are kept here as oracles, written on the
point evaluators: the record columns and vector_field_fd must match bit for
bit (same arithmetic in the same order), the action to 1e-12 and the EL
residual to 1e-6 (its centred difference amplifies the round-off of the
reordered sums).
"""

import math

import numpy as np
import numpy.testing as npt
import pytest

from vacuumflow import verify
from vacuumflow.core import ModelKind, Particle, emergent_rest_mass
from vacuumflow.dynamics import (
    _mover_velocity,
    _relative_rate,
    _rhs_eval,
    _sample_rdots,
    action,
    euler_lagrange_residual,
    legendre_momentum,
    point_rhs,
)
from vacuumflow.fields import FieldSource, VacuumField
from vacuumflow.integrate import RK45, ImplicitMidpoint, simulate

Q = 1.5
FIELD = VacuumField(
    w_inf=-1.0,
    sources=(
        FieldSource(qs=0.8, r0=(0.3, -0.2, 0.1), uf=(0.35, 0.1, -0.2), eps=0.2),
        FieldSource(qs=-0.5, r0=(-0.6, 0.4, 0.2), uf=(0.0, -0.25, 0.15), eps=0.25),
        FieldSource(qs=0.4, r0=(0.0, 0.8, -0.5), uf=(0.0, 0.0, 0.0), eps=0.3),
    ),
    q_test=Q,
    a_uniform=(0.01, -0.02, 0.015),
    b_uniform=(0.05, 0.02, -0.04),
)
PARTICLE = Particle(q=Q, u0=(0.4, 0.1, 0.0))
R0 = np.array([-1.0, 0.5, 0.0])


def sample_row(model, y, fld, rest_mass):
    """(energy, w, u_lab) at one sample on point_state."""
    x, yy, z, px, py, pz, t = y
    w, _gw, (ax, ay, az), _adot, _jac = fld.point_state(x, yy, z, t)
    q = fld.q_test
    p2 = px * px + py * py + pz * pz
    if model is ModelKind.M0:
        ekin = math.sqrt(rest_mass * rest_mass + p2)
        return ekin + (w - fld.w_inf), w, (px / ekin, py / ekin, pz / ekin)
    if model is ModelKind.M1:
        g = math.sqrt(w * w - p2)
        return g, w, (px / -w, py / -w, pz / -w)
    if model is ModelKind.M3:
        kx, ky, kz = px - q * ax, py - q * ay, pz - q * az
        g = math.sqrt(w * w - (kx * kx + ky * ky + kz * kz))
        return g, w, (kx / -w, ky / -w, kz / -w)
    g = math.sqrt(w * w - p2)
    ap = ax * px + ay * py + az * pz
    kappa = 1.0 - q * ap / (g * g)
    rate = math.sqrt(1.0 + p2 * kappa * kappa / (g * g))
    grate = g * rate
    u = ((kappa * px - q * ax) / grate, (kappa * py - q * ay) / grate, (kappa * pz - q * az) / grate)
    return g + q * ap / g, w, u


def grad_l_r(model, r, rdot, fld, t):
    """dL/dr at one sample; M2 holds the mover velocity fixed."""
    if model is ModelKind.M0:
        return np.zeros(3)
    gw = fld.grad_w(r, t)
    if model is ModelKind.M1:
        return -gw * math.sqrt(1.0 + float(rdot @ rdot))
    if model is ModelKind.M3:
        return -gw * math.sqrt(1.0 + float(rdot @ rdot)) + fld.q_test * (fld.a_jac(r, t).T @ rdot)
    u_eff = _mover_velocity(fld.q_test, fld.a(r, t), fld.w(r, t))
    return -gw * _relative_rate(float(rdot @ u_eff), float(u_eff @ u_eff), float(rdot @ rdot))


def el_residual_loop(model, traj, fld, rest_mass):
    taus, ts, rs = traj.tau, traj.t, traj.r
    n = taus.size
    rdots = _sample_rdots(taus, rs)
    pis = np.empty((n, 3))
    for i in range(1, n - 1):
        pis[i] = legendre_momentum(model, rs[i], rdots[i], fld, ts[i], rest_mass=rest_mass)
    worst = 0.0
    for i in range(2, n - 2):
        dpi = (pis[i + 1] - pis[i - 1]) / (taus[i + 1] - taus[i - 1])
        worst = max(worst, float(np.max(np.abs(dpi - grad_l_r(model, rs[i], rdots[i], fld, ts[i])))))
    return worst


def action_loop(model, traj, fld, rest_mass):
    taus, ts, rs = traj.tau, traj.t, traj.r
    rdots = _sample_rdots(taus, rs)
    rd2 = np.einsum("ij,ij->i", rdots, rdots)
    if model is ModelKind.M0:
        return float(np.trapezoid(-rest_mass * np.sqrt(1.0 - rd2), taus))
    ws = np.array([fld.w(rs[i], ts[i]) for i in range(len(ts))])
    avs = np.array([fld.a(rs[i], ts[i]) for i in range(len(ts))])
    if model is ModelKind.M1:
        lag = -ws * np.sqrt(1.0 + rd2)
    elif model is ModelKind.M3:
        lag = -ws * np.sqrt(1.0 + rd2) + fld.q_test * np.einsum("ij,ij->i", avs, rdots)
    else:
        u_eff = fld.q_test * avs / ws[:, None]
        uf2 = np.einsum("ij,ij->i", u_eff, u_eff)
        bb = np.einsum("ij,ij->i", rdots, u_eff)
        lag = -ws * (-bb + np.sqrt(bb * bb + (1.0 - uf2) * (1.0 + rd2))) / (1.0 - uf2)
    return float(np.trapezoid(lag, taus))


@pytest.fixture(scope="module")
def runs():
    """One implicit-midpoint and one RK45 record per model on the moving-source field."""
    rest_mass = emergent_rest_mass(PARTICLE, FIELD, R0)
    out = {}
    for model in ModelKind:
        for integ in (ImplicitMidpoint(), RK45()):
            out[model, type(integ).__name__] = simulate(model, PARTICLE, FIELD, R0, 1.0, integ, 1e-2)
    return out, rest_mass


@pytest.mark.parametrize("model", list(ModelKind))
def test_record_columns_match_per_sample_rows(runs, model):
    recs, rest_mass = runs
    for rec in (recs[model, "ImplicitMidpoint"], recs[model, "RK45"]):
        assert len(rec) > 50 and "termination" not in rec.meta
        state = np.column_stack([rec.r, rec.mom, rec.t])
        rows = [sample_row(model, y, FIELD, rest_mass if model is ModelKind.M0 else None)
                for y in state.tolist()]
        assert np.array_equal(rec.energy, [row[0] for row in rows])
        assert np.array_equal(rec.w, [row[1] for row in rows])
        assert np.array_equal(rec.u_lab, [row[2] for row in rows])


@pytest.mark.parametrize("model", list(ModelKind))
def test_el_residual_and_action_match_loops(runs, model):
    recs, rest_mass = runs
    rec = recs[model, "ImplicitMidpoint"]
    m0 = rest_mass if model is ModelKind.M0 else None
    residual = euler_lagrange_residual(model, rec, FIELD, rest_mass=m0)
    assert residual > 0.0
    npt.assert_allclose(residual, el_residual_loop(model, rec, FIELD, m0), rtol=1e-6)
    npt.assert_allclose(action(model, rec, FIELD, rest_mass=m0), action_loop(model, rec, FIELD, m0), rtol=1e-12)


def per_state_rhs(model, r, mom, t, fld, rest_mass):
    """The right-hand side as vector_field_fd took it before its column call: point_rhs state by state."""
    rhs = np.array([point_rhs(model, y, fld, rest_mass) for y in np.column_stack([r, mom, t]).tolist()])
    return rhs[:, 0:3], rhs[:, 3:6], rhs[:, 6]


def same_bits(got, want) -> bool:
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("seed", [2, 977, np.random.SeedSequence(7).spawn(2)[1]], ids=["2", "977", "checks-child"])
def test_vector_field_fd_matches_the_per_state_loop(monkeypatch, seed):
    """Every state's right-hand side, and so every value, is the per-state loop's bit for bit."""
    calls = []

    def both(*args):
        got = _rhs_eval(*args)
        calls.append((got, per_state_rhs(*args)))
        return got

    monkeypatch.setattr(verify, "_rhs_eval", both)
    got = verify.vector_field_fd(seed=seed)
    assert len(calls) == len(ModelKind)
    for columns, rows in calls:
        assert all(same_bits(c, w) for c, w in zip(columns, rows, strict=True))
    monkeypatch.setattr(verify, "_rhs_eval", per_state_rhs)
    want = verify.vector_field_fd(seed=seed)
    assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}
