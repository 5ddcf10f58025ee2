import numpy as np
import numpy.testing as npt
import pytest

from vacuumflow.core import ModelKind, Particle, PhasePoint
from vacuumflow.dynamics import (
    ForceKind,
    _rhs_eval,
    action,
    euler_lagrange_residual,
    force,
    hamiltonian,
    invariant_energy,
    lagrangian,
    legendre_momentum,
    m2_xidot,
    point_rhs,
    vector_field,
)
from vacuumflow.errors import NonNegativeField, SubluminalViolation, SuperluminalInit, TooShort
from vacuumflow.fields import FieldSource, VacuumField
from vacuumflow.integrate import RK4, ImplicitMidpoint, TrajectoryRecord, simulate
from vacuumflow.presets import standard_flyby

ORIGIN = np.zeros(3)


def test_lagrangian_examples(uniform_field):
    assert lagrangian(ModelKind.M1, ORIGIN, (0, 0, 0), uniform_field) == 1.0
    npt.assert_allclose(lagrangian(ModelKind.M1, ORIGIN, (0.75, 0, 0), uniform_field), 1.25)
    fld = VacuumField(w_inf=-1.0, a_uniform=(0.3, -0.2, 0.1))
    npt.assert_allclose(lagrangian(ModelKind.M3, ORIGIN, (0, 0, 0), fld), 1.0)
    with pytest.raises(SuperluminalInit):
        lagrangian(ModelKind.M0, ORIGIN, (1.0, 0, 0), uniform_field, rest_mass=1.0)


def test_legendre_examples(uniform_field):
    npt.assert_array_equal(legendre_momentum(ModelKind.M1, ORIGIN, (0, 0, 0), uniform_field), ORIGIN)
    npt.assert_allclose(
        legendre_momentum(ModelKind.M1, ORIGIN, (0.75, 0, 0), uniform_field), [0.6, 0, 0]
    )
    fld = VacuumField(w_inf=-1.0, a_uniform=(0, 0.1, 0))
    npt.assert_allclose(
        legendre_momentum(ModelKind.M3, ORIGIN, (0.75, 0, 0), fld), [0.6, 0.1, 0], rtol=1e-15
    )


def test_hamiltonian_examples(uniform_field):
    assert hamiltonian(ModelKind.M1, PhasePoint(ORIGIN, ORIGIN), uniform_field) == -1.0
    npt.assert_allclose(
        hamiltonian(ModelKind.M1, PhasePoint(ORIGIN, (0.6, 0, 0)), uniform_field), -0.8
    )
    # M2 reduces to M1 when A = 0
    npt.assert_allclose(
        hamiltonian(ModelKind.M2, PhasePoint(ORIGIN, (0.6, 0, 0)), uniform_field), -0.8
    )
    with pytest.raises(SubluminalViolation):
        hamiltonian(ModelKind.M1, PhasePoint(ORIGIN, (1.2, 0, 0)), uniform_field)


def test_non_negative_w_raises_one_error_class():
    """At W >= 0 the float right-hand side and the Hamiltonian raise the same error."""
    fld = VacuumField(w_inf=-1.0, sources=(FieldSource(qs=5.0, r0=ORIGIN, uf=ORIGIN, eps=0.1),))
    assert fld.w(ORIGIN, 0.0) > 2.9
    y = [0.0] * 7
    with pytest.raises(NonNegativeField, match="reached by trajectory"):
        point_rhs(ModelKind.M0, y, fld, rest_mass=1.0)
    with pytest.raises(NonNegativeField, match="reached by trajectory"):
        point_rhs(ModelKind.M1, y, fld)
    with pytest.raises(NonNegativeField):
        hamiltonian(ModelKind.M1, PhasePoint(ORIGIN, ORIGIN), fld)


@pytest.mark.parametrize("model", list(ModelKind))
def test_column_rhs_names_the_first_state_with_w_at_least_0(model):
    """In a column of states, the first with W >= 0 raises NonNegativeField, named by r and t."""
    fld = VacuumField(w_inf=-1.0, sources=(FieldSource(qs=5.0, r0=ORIGIN, uf=ORIGIN, eps=0.1),))
    r = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.05, 0.0, 0.0]])
    assert fld.w(r[0], 0.0) < 0.0 < fld.w(r[2], 0.0)
    with pytest.raises(NonNegativeField, match=r"at r = \[0\.0, 0\.0, 0\.0\], t = 0\.5$"):
        _rhs_eval(model, r, np.zeros((3, 3)), np.array([0.25, 0.5, 0.75]), fld, rest_mass=1.0)


@pytest.mark.parametrize("model", [ModelKind.M1, ModelKind.M2, ModelKind.M3])
def test_column_rhs_raises_past_the_guard(model, static_source_field):
    """One state with |mom| > |W| in a column of good ones raises SubluminalViolation (A = 0 here)."""
    r = np.eye(3)
    mom = np.array([[0.1, 0.0, 0.0], [0.0, 5.0, 0.0], [0.0, 0.0, 0.1]])
    _rhs_eval(model, r, 0.1 * mom, 0.0, static_source_field)
    with pytest.raises(SubluminalViolation, match=r"^W\^2 - \|mom\|\^2 = -2\d\.\d+ <= 1e-12$"):
        _rhs_eval(model, r, mom, 0.0, static_source_field)


def test_invariant_energy_examples(uniform_field):
    assert invariant_energy(ModelKind.M1, PhasePoint(ORIGIN, ORIGIN), uniform_field) == 1.0
    npt.assert_allclose(
        invariant_energy(ModelKind.M1, PhasePoint(ORIGIN, (0.6, 0, 0)), uniform_field), 0.8
    )
    # M3 with A = 0 equals M1 on identical state
    npt.assert_allclose(
        invariant_energy(ModelKind.M3, PhasePoint(ORIGIN, (0.6, 0, 0)), uniform_field),
        invariant_energy(ModelKind.M1, PhasePoint(ORIGIN, (0.6, 0, 0)), uniform_field),
    )


def test_hamiltonian_legendre_consistency(moving_field, rng):
    """<P, rdot> - L = H at random states (1e-9 relative, all models)."""
    gyr = VacuumField(w_inf=-1.0, b_uniform=(0, 0, 1.0))
    for model in ModelKind:
        fld = gyr if model is ModelKind.M0 else moving_field
        for _ in range(60):
            r = rng.uniform(-1.3, 1.3, 3)
            t = rng.uniform(0, 2)
            rdot = rng.uniform(-1.2, 1.2, 3)
            if model is ModelKind.M0 and np.linalg.norm(rdot) >= 0.85:
                rdot *= 0.8 / np.linalg.norm(rdot)
            mom = legendre_momentum(model, r, rdot, fld, t, rest_mass=0.8)
            lag = lagrangian(model, r, rdot, fld, t, rest_mass=0.8)
            ham = hamiltonian(model, PhasePoint(r, mom, 0.0, t), fld, rest_mass=0.8)
            npt.assert_allclose(float(mom @ rdot) - lag, ham, rtol=1e-9)


def test_momentum_matches_fd_with_frozen_mover(moving_field, rng):
    """dL/drdot vs central differences; M2 freezes the external mover data."""
    step = 1e-6
    for model in (ModelKind.M1, ModelKind.M2, ModelKind.M3):
        for _ in range(30):
            r = rng.uniform(-1.3, 1.3, 3)
            t = rng.uniform(0, 2)
            rdot = rng.uniform(-1.2, 1.2, 3)
            xid = m2_xidot(r, rdot, moving_field, t) if model is ModelKind.M2 else None
            mom = legendre_momentum(model, r, rdot, moving_field, t, xidot=xid)
            fd = np.empty(3)
            for i in range(3):
                up, dn = rdot.copy(), rdot.copy()
                up[i] += step
                dn[i] -= step
                fd[i] = (
                    lagrangian(model, r, up, moving_field, t, xidot=xid)
                    - lagrangian(model, r, dn, moving_field, t, xidot=xid)
                ) / (2 * step)
            npt.assert_allclose(mom, fd, rtol=1e-6, atol=1e-8)


def test_vector_field_examples(uniform_field):
    rdot, momdot = vector_field(ModelKind.M1, PhasePoint(ORIGIN, (0.6, 0, 0)), uniform_field)
    npt.assert_allclose(rdot, [0.75, 0, 0], rtol=1e-15)
    npt.assert_allclose(momdot, ORIGIN, atol=1e-15)
    # M3 with A = 0 reduces to M1
    ph = PhasePoint((0.3, -0.2, 0.5), (0.2, 0.4, -0.1))
    r1 = vector_field(ModelKind.M1, ph, uniform_field)
    r3 = vector_field(ModelKind.M3, ph, uniform_field)
    npt.assert_allclose(r1[0], r3[0], rtol=1e-15)
    npt.assert_allclose(r1[1], r3[1], atol=1e-15)


def test_vector_field_at_rest_in_gradient(static_source_field):
    """At p = 0 the momentum flow is W grad(W) / |W|."""
    r = np.array([1.2, 0.3, -0.4])
    rdot, momdot = vector_field(ModelKind.M1, PhasePoint(r, ORIGIN), static_source_field)
    npt.assert_array_equal(rdot, ORIGIN)
    w = static_source_field.w(r, 0.0)
    gw = static_source_field.grad_w(r, 0.0)
    npt.assert_allclose(momdot, w * gw / abs(w), rtol=1e-14)


def test_vector_field_matches_hamiltonian_gradients(moving_field, rng):
    """Symplectic structure: closed forms equal FD gradients of H (1e-6 rel)."""
    step = 1e-6
    for model in (ModelKind.M1, ModelKind.M2, ModelKind.M3):
        for _ in range(25):
            r = rng.uniform(-1.3, 1.3, 3)
            t = rng.uniform(0, 2)
            w = moving_field.w(r, t)
            mom = rng.uniform(-0.4, 0.4, 3) * abs(w)
            ph = PhasePoint(r, mom, 0.0, t)
            rdot, momdot = vector_field(model, ph, moving_field)
            fd_r, fd_m = np.empty(3), np.empty(3)
            for i in range(3):
                mp, mm = mom.copy(), mom.copy()
                mp[i] += step
                mm[i] -= step
                fd_r[i] = (
                    hamiltonian(model, PhasePoint(r, mp, 0.0, t), moving_field)
                    - hamiltonian(model, PhasePoint(r, mm, 0.0, t), moving_field)
                ) / (2 * step)
                rp, rm = r.copy(), r.copy()
                rp[i] += step
                rm[i] -= step
                fd_m[i] = -(
                    hamiltonian(model, PhasePoint(rp, mom, 0.0, t), moving_field)
                    - hamiltonian(model, PhasePoint(rm, mom, 0.0, t), moving_field)
                ) / (2 * step)
            npt.assert_allclose(rdot, fd_r, rtol=1e-6, atol=1e-7)
            npt.assert_allclose(momdot, fd_m, rtol=1e-6, atol=1e-7)


def test_m3_lorentz_velocity_chain(moving_field, rng):
    """rdot branch equals u (1-u^2)^(-1/2) with p = P - qA and u = p/(-W)."""
    q = moving_field.q_test
    for _ in range(40):
        r = rng.uniform(-1.3, 1.3, 3)
        t = rng.uniform(0, 2)
        w = moving_field.w(r, t)
        mom = rng.uniform(-0.4, 0.4, 3) * abs(w)
        ph = PhasePoint(r, mom, 0.0, t)
        rdot, _ = vector_field(ModelKind.M3, ph, moving_field)
        p = mom - q * moving_field.a(r, t)
        u = p / (-w)
        expected = u / np.sqrt(1.0 - float(u @ u))
        npt.assert_allclose(rdot, expected, rtol=1e-12, atol=1e-12)


def test_force_examples():
    fld = VacuumField(w_inf=-1.0, b_uniform=(0, 0, 2.0))
    f = force(ForceKind.ClassicalLorentz, fld, ORIGIN, (0.5, 0, 0), 1.0)
    npt.assert_allclose(f, [0, -1.0, 0], atol=1e-15)
    # at rest both kinds give qE
    e_only = VacuumField(w_inf=-1.0, a_uniform=(0, 0, 0))
    for kind in ForceKind:
        npt.assert_allclose(force(kind, e_only, ORIGIN, ORIGIN, 1.0), np.zeros(3), atol=1e-15)
    with pytest.raises(SuperluminalInit):
        force(ForceKind.ClassicalLorentz, fld, ORIGIN, (1.0, 0, 0), 1.0)


def test_force_gap_identity(moving_field, rng):
    """classical - modified = q grad<A,u> to 1e-12."""
    q = moving_field.q_test
    for _ in range(200):
        r = rng.uniform(-1.5, 1.5, 3)
        u = rng.uniform(-0.6, 0.6, 3)
        t = rng.uniform(0, 2)
        fc = force(ForceKind.ClassicalLorentz, moving_field, r, u, q, t)
        fm = force(ForceKind.ModifiedLorentz, moving_field, r, u, q, t)
        gap = q * (moving_field.a_jac(r, t).T @ u)
        npt.assert_allclose(fc - fm, gap, atol=1e-12)


def test_force_kinds_agree_for_uniform_a(rng):
    fld = VacuumField(w_inf=-1.0, a_uniform=(0.2, -0.1, 0.3))
    for _ in range(10):
        r = rng.uniform(-1, 1, 3)
        u = rng.uniform(-0.5, 0.5, 3)
        fc = force(ForceKind.ClassicalLorentz, fld, r, u, 1.0, 0.0)
        fm = force(ForceKind.ModifiedLorentz, fld, r, u, 1.0, 0.0)
        npt.assert_array_equal(fc, fm)


def test_el_residual_free_trajectory(uniform_field):
    traj = simulate(
        ModelKind.M1, Particle(q=1.0, u0=(0.5, 0.2, 0)), uniform_field, ORIGIN, 2.0, RK4(), 1e-2
    )
    assert euler_lagrange_residual(ModelKind.M1, traj, uniform_field) <= 1e-12


def test_el_residual_too_short(uniform_field):
    traj = simulate(
        ModelKind.M1, Particle(q=1.0, u0=(0.5, 0, 0)), uniform_field, ORIGIN, 0.03, RK4(), 1e-2
    )
    with pytest.raises(TooShort):
        euler_lagrange_residual(ModelKind.M1, traj, uniform_field)


def test_el_residual_m3_uniform_a_equals_m1(static_source_field):
    """A uniform A adds an exact total derivative: same defect as M1."""
    sc = standard_flyby()
    fld_a = VacuumField(
        w_inf=-1.0, sources=static_source_field.sources, q_test=1.0, a_uniform=(0, 0.05, 0)
    )
    t1 = simulate(ModelKind.M1, sc.particle, static_source_field, sc.r0, 2.0, ImplicitMidpoint(), 2e-3)
    t3 = simulate(ModelKind.M3, sc.particle, fld_a, sc.r0, 2.0, ImplicitMidpoint(), 2e-3)
    r1 = euler_lagrange_residual(ModelKind.M1, t1, static_source_field)
    r3 = euler_lagrange_residual(ModelKind.M3, t3, fld_a)
    npt.assert_allclose(r1, r3, rtol=1e-6, atol=1e-14)


def test_el_residual_second_order(static_source_field):
    sc = standard_flyby()
    res = {}
    for h in (2e-3, 1e-3):
        traj = simulate(ModelKind.M1, sc.particle, static_source_field, sc.r0, 4.0, ImplicitMidpoint(), h)
        res[h] = euler_lagrange_residual(ModelKind.M1, traj, static_source_field)
    ratio = res[2e-3] / res[1e-3]
    assert 3.5 <= ratio <= 4.5, f"EL defect ratio {ratio}"


def test_action_examples(uniform_field):
    rest = simulate(ModelKind.M1, Particle(q=1.0, u0=(0, 0, 0)), uniform_field, ORIGIN, 2.0, RK4(), 1e-2)
    npt.assert_allclose(action(ModelKind.M1, rest, uniform_field), 2.0, rtol=1e-12)
    mov = simulate(ModelKind.M1, Particle(q=1.0, u0=(0.6, 0, 0)), uniform_field, ORIGIN, 2.0, RK4(), 1e-2)
    npt.assert_allclose(action(ModelKind.M1, mov, uniform_field), 2.5, rtol=1e-12)
    with pytest.raises(TooShort):
        action(ModelKind.M1, TrajectoryRecord(
            tau=np.array([0.0]), t=np.array([0.0]), r=np.zeros((1, 3)), mom=np.zeros((1, 3)),
            energy=np.ones(1), w=-np.ones(1), u_lab=np.zeros((1, 3))), uniform_field)


def test_action_stationary_quadratic_bump(static_source_field):
    """Interior bumps change the action at second order in the amplitude."""
    sc = standard_flyby()
    traj = simulate(ModelKind.M1, sc.particle, static_source_field, sc.r0, 4.0, ImplicitMidpoint(), 2e-3)
    s0 = action(ModelKind.M1, traj, static_source_field)
    bump = np.exp(-0.5 * ((traj.tau - 2.0) / 0.5) ** 2)
    bump[0] = bump[-1] = 0.0
    eps = np.array([1e-3, 2e-3, 4e-3, 8e-3])
    devs = []
    for e in eps:
        perturbed = TrajectoryRecord(
            tau=traj.tau, t=traj.t, r=traj.r + np.outer(bump * e, [0, 1, 0]), mom=traj.mom,
            energy=traj.energy, w=traj.w, u_lab=traj.u_lab,
        )
        devs.append(abs(action(ModelKind.M1, perturbed, static_source_field) - s0))
    slope = np.polyfit(np.log(eps), np.log(devs), 1)[0]
    assert 1.9 <= slope <= 2.1, f"bump exponent {slope}"
