import math

import numpy as np
import numpy.testing as npt
import pytest

from vacuumflow.core import (
    SUBLUMINAL_EPS,
    ModelKind,
    Particle,
    PhasePoint,
    clock_rate,
    emergent_rest_mass,
    guarded_root,
    init_phase,
)
from vacuumflow.dynamics import hamiltonian, model_rhs
from vacuumflow.errors import ConfigError, NonNegativeField, SubluminalViolation, SuperluminalInit
from vacuumflow.fields import FieldSource, VacuumField


def test_init_rest_particle(uniform_field):
    ph = init_phase(ModelKind.M1, Particle(q=1.0, u0=(0, 0, 0)), uniform_field, (1, 2, 3))
    npt.assert_array_equal(ph.mom, np.zeros(3))
    assert ph.tau == 0.0 and ph.t == 0.0


def test_init_m1_momentum(uniform_field):
    ph = init_phase(ModelKind.M1, Particle(q=1.0, u0=(0.6, 0, 0)), uniform_field, (0, 0, 0))
    npt.assert_allclose(ph.mom, [0.6, 0, 0], rtol=1e-15)


def test_init_m3_adds_field_momentum():
    fld = VacuumField(w_inf=-1.0, a_uniform=(0, 0.1, 0))
    ph = init_phase(ModelKind.M3, Particle(q=1.0, u0=(0.6, 0, 0)), fld, (0, 0, 0))
    npt.assert_allclose(ph.mom, [0.6, 0.1, 0], rtol=1e-15)


def test_init_m0_is_kinetic():
    fld = VacuumField(w_inf=-1.0, a_uniform=(0, 0.1, 0))
    ph = init_phase(ModelKind.M0, Particle(q=1.0, u0=(0.6, 0, 0)), fld, (0, 0, 0))
    npt.assert_allclose(ph.mom, [0.6, 0, 0], rtol=1e-15)


def test_init_errors(uniform_field):
    with pytest.raises(SuperluminalInit):
        Particle(q=1.0, u0=(1.0, 0, 0))
    bad = VacuumField(
        w_inf=-1.0, sources=(FieldSource(qs=30.0, r0=(0, 0, 0), uf=(0, 0, 0)),), q_test=1.0
    )
    with pytest.raises(NonNegativeField):
        init_phase(ModelKind.M1, Particle(q=1.0, u0=(0, 0, 0)), bad, (0.1, 0, 0))
    with pytest.raises(ConfigError):
        init_phase(ModelKind.M1, Particle(q=2.0, u0=(0, 0, 0)), uniform_field, (0, 0, 0))
    # M2 subluminal invariant checked at init: |P| = |qA| exceeds |W|
    strong_a = VacuumField(w_inf=-1.0, a_uniform=(1.5, 0, 0))
    with pytest.raises(SubluminalViolation):
        init_phase(ModelKind.M2, Particle(q=1.0, u0=(0, 0, 0)), strong_a, (0, 0, 0))


def test_guarded_root_rejects_nan():
    assert guarded_root(4.0) == 2.0
    for arg in (SUBLUMINAL_EPS, float("nan")):
        with pytest.raises(SubluminalViolation):
            guarded_root(arg)


def test_phase_terms_read_the_field_once(moving_field, monkeypatch):
    """One point_state pass per hamiltonian; M1 asks for W alone, so it runs with q_test = 0."""
    calls = []
    point_state = VacuumField.point_state
    monkeypatch.setattr(VacuumField, "point_state", lambda *a: calls.append(1) or point_state(*a))
    phase = PhasePoint((0.2, -0.3, 0.1), (0.1, 0.05, -0.02), 0.0, 0.4)
    for model in (ModelKind.M1, ModelKind.M2, ModelKind.M3):
        calls.clear()
        hamiltonian(model, phase, moving_field)
        assert len(calls) == 1
    neutral = VacuumField(w_inf=-1.0, q_test=0.0)
    assert hamiltonian(ModelKind.M1, phase, neutral) == -math.sqrt(1.0 - float(phase.mom @ phase.mom))


def test_clock_rate_examples(uniform_field):
    rest = PhasePoint((0, 0, 0), (0, 0, 0))
    assert clock_rate(ModelKind.M1, rest, uniform_field) == 1.0
    moving = PhasePoint((0, 0, 0), (0.6, 0, 0))
    npt.assert_allclose(clock_rate(ModelKind.M1, moving, uniform_field), 1.25, rtol=1e-15)
    assert clock_rate(ModelKind.M0, moving, uniform_field) == 1.0


def test_clock_rate_at_least_one(moving_field, rng):
    for model in (ModelKind.M1, ModelKind.M2, ModelKind.M3):
        for _ in range(50):
            r = rng.uniform(-1.2, 1.2, 3)
            t = rng.uniform(0, 2)
            w = moving_field.w(r, t)
            mom = rng.uniform(-0.4, 0.4, 3) * abs(w)
            rate = clock_rate(model, PhasePoint(r, mom, 0.0, t), moving_field)
            assert rate >= 1.0


def test_clock_rate_guard():
    fld = VacuumField(w_inf=-1.0)
    with pytest.raises(SubluminalViolation):
        clock_rate(ModelKind.M1, PhasePoint((0, 0, 0), (1.5, 0, 0)), fld)


def test_velocity_recovery_exact_m0_m1_m3(moving_field, rng):
    """init_phase then rdot*dtau/dt returns u0 (exact for M0/M1/M3)."""
    for model in (ModelKind.M0, ModelKind.M1, ModelKind.M3):
        for _ in range(20):
            u0 = rng.uniform(-0.5, 0.5, 3)
            r0 = rng.uniform(-1.0, 1.0, 3)
            particle = Particle(q=1.0, u0=u0)
            ph = init_phase(model, particle, moving_field, r0)
            rm = emergent_rest_mass(particle, moving_field, r0) if model is ModelKind.M0 else None
            rdot, _momdot, rate = model_rhs(model, ph.r, ph.mom, 0.0, moving_field, rm)
            npt.assert_allclose(rdot / rate, u0, atol=1e-12)


def test_velocity_recovery_m2_quadratic_in_a(static_source_field):
    """M2 evolves by the canonical flow of the substituted Hamiltonian, so the
    init-velocity recovery is exact only as A -> 0; the defect shrinks ~ a^2."""
    u0 = np.array([0.3, 0.2, 0.0])
    particle = Particle(q=1.0, u0=u0)

    def defect(a_mag):
        fld = VacuumField(
            w_inf=-1.0,
            sources=static_source_field.sources,
            q_test=1.0,
            a_uniform=(0.0, 0.0, a_mag),
        )
        ph = init_phase(ModelKind.M2, particle, fld, (-2.0, 0.75, 0.0))
        rdot, _m, rate = model_rhs(ModelKind.M2, ph.r, ph.mom, 0.0, fld, None)
        return float(np.max(np.abs(rdot / rate - u0)))

    assert defect(0.0) <= 1e-15
    d2, d3 = defect(1e-2), defect(1e-3)
    assert 50.0 < d2 / d3 < 200.0  # quadratic shrinkage
    assert defect(1e-5) <= 1e-10  # deviation scale at the comparison amplitude


def test_emergent_rest_mass(uniform_field):
    m0 = emergent_rest_mass(Particle(q=1.0, u0=(0.6, 0, 0)), uniform_field, (0, 0, 0))
    npt.assert_allclose(m0, 0.8, rtol=1e-15)


def test_mass_relation_restatement(static_source_field, rng):
    """-W(r) sqrt(1-u^2) equals the invariant energy at matched states."""
    from vacuumflow.dynamics import invariant_energy

    for _ in range(20):
        r = rng.uniform(-1.5, 1.5, 3)
        u0 = rng.uniform(-0.6, 0.6, 3)
        if np.linalg.norm(u0) >= 0.9:
            continue
        particle = Particle(q=1.0, u0=u0)
        ph = init_phase(ModelKind.M1, particle, static_source_field, r)
        w = static_source_field.w(r, 0.0)
        lhs = -w * np.sqrt(1.0 - float(u0 @ u0))
        npt.assert_allclose(
            lhs, invariant_energy(ModelKind.M1, ph, static_source_field), rtol=1e-13
        )
