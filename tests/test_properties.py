"""Property tests: the field kernel, the phase-space kernel, the model kernel
on floats and on columns, the column Lagrangian and Hamiltonian kernels and
the midpoint integrator.

Over random fields (1-3 static or moving sources, uniform A and B,
q_test != 1): every row of the batched evaluator VacuumField._eval, and of
the selections over it, is bit-identical to VacuumField.point_state on
floats, and every parts string returns the same bits as the all-parts call;
dynamics.point_rhs reproduces the per-model flows written with numpy below to
round-off, and its k/G and clock rate are core.phase_terms' bit for bit; every
term of core.phase_terms on columns is the one-point call's; every row of the
column kernels _lagrangian_eval and _hamiltonian_eval is bit-identical to the
one-row call, every row of _rhs_eval (point_rhs on columns, also on fields
with no source) is the float point_rhs call, and <P, rdot> - L = H holds row
by row; an implicit-midpoint step is undone by the step back and keeps the
symplectic form of (r, mom), which RK4 breaks; M1 and M3 run
the same trajectory where A = 0; a uniform shift of A leaves M3's r(t); and
simulate's extrapolated midpoint start changes a run only by round-off
against a chain of step() calls, and gives the records of the
list-comprehension midpoint oracle bit for bit.
"""

import math
from collections import deque
from operator import sub

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vacuumflow import integrate
from vacuumflow.core import ModelKind, Particle, PhasePoint, emergent_rest_mass, init_phase, phase_terms
from vacuumflow.dynamics import (
    _hamiltonian_eval,
    _lagrangian_eval,
    _rhs_eval,
    hamiltonian,
    lagrangian,
    legendre_momentum,
    m2_xidot,
    model_rhs,
    point_rhs,
)
from vacuumflow.errors import NoConvergence, NonNegativeField, SubluminalViolation
from vacuumflow.fields import FOUR_PI, FieldSource, VacuumField, as_vec3, dot3
from vacuumflow.integrate import MAX_ITER, ImplicitMidpoint, simulate, step

PROPERTY = settings(max_examples=150)


def vec(lo, hi):
    return st.tuples(*[st.floats(lo, hi)] * 3)


@st.composite
def sources(draw, moving=st.booleans()):
    return FieldSource(
        qs=draw(st.floats(-1.0, 1.0)),
        r0=draw(vec(-1.0, 1.0)),
        uf=draw(vec(-0.5, 0.5)) if draw(moving) else (0.0, 0.0, 0.0),
        eps=draw(st.floats(0.05, 0.5)),
    )


@st.composite
def fields(draw, moving=st.booleans(), potential=vec(-0.3, 0.3), magnetic=vec(-0.5, 0.5)):
    """Random fields; moving, potential and magnetic draw each source's motion and the uniform A and B."""
    sign = draw(st.sampled_from((-1.0, 1.0)))
    q = sign * draw(st.floats(0.2, 2.5).filter(lambda v: v != 1.0))
    return VacuumField(
        w_inf=draw(st.floats(-2.0, -0.3)),
        sources=tuple(draw(st.lists(sources(moving), min_size=1, max_size=3))),
        q_test=q,
        a_uniform=draw(potential),
        b_uniform=draw(magnetic),
    )


static_fields = fields(moving=st.just(False))
#: static sources and no uniform terms: A = 0 everywhere
zero_a_fields = fields(moving=st.just(False), potential=st.just((0.0, 0.0, 0.0)),
                       magnetic=st.just((0.0, 0.0, 0.0)))


probes = st.tuples(vec(-2.0, 2.0), st.floats(0.0, 3.0))


@st.composite
def batches(draw):
    """(n, 3) probes with one shared time or one time per probe."""
    n = draw(st.integers(1, 6))
    r = np.array(draw(st.lists(vec(-2.0, 2.0), min_size=n, max_size=n)))
    times = st.floats(0.0, 3.0)
    t = np.array(draw(st.lists(times, min_size=n, max_size=n))) if draw(st.booleans()) else draw(times)
    return r, t


def term_scale(fld, r) -> float:
    """Size of the largest summand any kernel output can hold; round-off is relative to it."""
    src = sum(abs(s.qs) / (FOUR_PI * s.eps**2) for s in fld.sources)
    return (abs(fld.w_inf) + np.linalg.norm(fld.a_uniform)
            + np.linalg.norm(fld.b_uniform) * (1.0 + np.linalg.norm(r)) + (1.0 + abs(fld.q_test)) * src)


#: every parts string a caller passes to _eval
PARTS = ["w", "g", "a", "d", "j", "wa", "wg", "wga", "wgaj", "gdj"]
#: static sources and no uniform B: A and its derivatives never become arrays
unmoved_fields = fields(moving=st.just(False), magnetic=st.just((0.0, 0.0, 0.0)))


@PROPERTY
@given(st.one_of(fields(), unmoved_fields), batches(), st.sampled_from(PARTS))
def test_point_state_matches_batched_evaluators(fld, batch, parts):
    r, t = batch
    w, gw, a, adot, jac = fld._eval(r, t, "wgadj")
    # a subset of the parts, also over an extra leading axis, is the same bits with the probe shape
    every = dict(zip("wgadj", (w, gw, a, adot, jac)))
    for probes, times, lead in ((r, t, ()), (r[None], t, (1,))):
        for c, got in zip(parts, fld._eval(probes, times, parts), strict=True):
            want = every[c].reshape(lead + every[c].shape)
            assert got.shape == want.shape and got.dtype == np.float64
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    for i in range(len(r)):
        row = fld.point_state(*r[i].tolist(), float(t[i] if np.ndim(t) else t))
        for got, want in zip((w[i], gw[i], a[i], adot[i], jac[i]), row):
            assert np.array_equal(got, want)
    # a single probe at a single time runs on 0-d columns: the float call's bits and shapes
    t0 = float(t[0] if np.ndim(t) else t)
    row = dict(zip("wgadj", fld.point_state(*r[0].tolist(), t0)))
    for c, got in zip(parts, fld._eval(r[0], t0, parts), strict=True):
        want = np.array(row[c])
        assert got.shape == want.shape and got.shape in ((), (3,), (3, 3)) and got.dtype == np.float64
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    # the selections are the same rows, each computing only its own part
    assert np.array_equal(fld.w(r, t), w) and np.array_equal(fld.grad_w(r, t), gw)
    assert np.array_equal(fld.a(r, t), a) and np.array_equal(fld.a_dot(r, t), adot)
    assert np.array_equal(fld.a_jac(r, t), jac)
    e, b = fld.e_b(r, t)
    assert np.array_equal(e, -gw / fld.q_test - adot)
    assert np.array_equal(b[:, 0], jac[:, 2, 1] - jac[:, 1, 2])


def reference_rhs(model, r, mom, t, fld, m0):
    """The per-model canonical flows written on the batched evaluators."""
    q = fld.q_test
    w, gw, a = fld.w(r, t), fld.grad_w(r, t), fld.a(r, t)
    jac = fld.a_jac(r, t)
    if model is ModelKind.M0:
        u = mom / math.sqrt(m0 * m0 + mom @ mom)
        b = np.array([jac[2, 1] - jac[1, 2], jac[0, 2] - jac[2, 0], jac[1, 0] - jac[0, 1]])
        return u, -gw - q * fld.a_dot(r, t) + q * np.cross(u, b), 1.0
    if model is ModelKind.M1:
        g = math.sqrt(w * w - mom @ mom)
        return mom / g, (w / g) * gw, -w / g
    if model is ModelKind.M3:
        pk = mom - q * a
        g = math.sqrt(w * w - pk @ pk)
        return pk / g, (w * gw + q * (jac.T @ pk)) / g, -w / g
    p2 = mom @ mom
    g = math.sqrt(w * w - p2)
    kappa = 1.0 - q * (a @ mom) / (g * g)
    return ((kappa * mom - q * a) / g, (kappa * w * gw + q * (jac.T @ mom)) / g,
            math.sqrt(1.0 + p2 * kappa * kappa / (g * g)))


@PROPERTY
@given(fields(), probes, vec(-0.5, 0.5), st.sampled_from(list(ModelKind)))
def test_point_rhs_matches_reference_flows(fld, probe, u, model):
    r, t, u = np.array(probe[0]), probe[1], np.array(u)
    w = fld.w(r, t)
    assume(w < -0.05)
    m0 = -w * math.sqrt(1.0 - u @ u)
    mom = -w * u
    if model is ModelKind.M3:
        mom = mom + fld.q_test * fld.a(r, t)
    rest_mass = m0 if model is ModelKind.M0 else None

    y = [*r.tolist(), *mom.tolist(), t]
    out = point_rhs(model, y, fld, rest_mass)
    rdot, momdot, rate = reference_rhs(model, r, mom, t, fld, m0)
    # round-off relative to the largest summand: field terms times momenta over G >= |W|/2
    atol = 1e-12 * term_scale(fld, r) ** 2 * (1.0 + np.linalg.norm(mom)) ** 2 / w**2
    npt.assert_allclose(out[0:3], rdot, rtol=1e-12, atol=atol)
    npt.assert_allclose(out[3:6], momdot, rtol=1e-12, atol=atol)
    npt.assert_allclose(out[6], rate, rtol=1e-12, atol=atol)

    # the array adapter is the same kernel
    a_rdot, a_momdot, a_rate = model_rhs(model, r, mom, t, fld, rest_mass)
    assert a_rdot.tolist() == out[0:3] and a_momdot.tolist() == out[3:6] and a_rate == out[6]


@PROPERTY
@given(fields(), probes, vec(-0.5, 0.5), st.sampled_from(list(ModelKind)))
def test_point_rhs_matches_the_kernel(fld, probe, u, model):
    """point_rhs keeps its own float arithmetic on the hot path; its k/G (M2:
    (kappa P - qA)/G) and rate are core.phase_terms' bit for bit."""
    (x, y, z), t = probe
    w, _gw, a, _adot, _jac = fld.point_state(x, y, z, t)
    assume(w < -0.05)
    u = np.array(u)
    mom = -w * u
    if model is ModelKind.M3:
        mom = mom + fld.q_test * np.array(a)
    rest_mass = -w * math.sqrt(1.0 - float(dot3(u, u))) if model is ModelKind.M0 else None
    terms = phase_terms(model, np.array([x, y, z]), mom, t, fld, rest_mass)

    state = [x, y, z, *mom.tolist(), t]
    out = point_rhs(model, state, fld, rest_mass)
    if model is ModelKind.M2:
        assert out[0:3] == ((terms.kappa * mom - fld.q_test * terms.a) / terms.g).tolist()
    else:
        assert out[0:3] == (terms.k / terms.g).tolist()
    assert out[6] == terms.rate


# -- the column Lagrangian and Hamiltonian kernels -------------------------------


@st.composite
def states(draw, fld, model):
    """n states (r, rdot, t) of a model on fld, with W < -0.05 at every r; M0 velocities have |u| < 1."""
    n = draw(st.integers(1, 24))  # numpy may sum long columns in another order than short ones
    r = np.array(draw(st.lists(vec(-2.0, 2.0), min_size=n, max_size=n)))
    t = np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n)))
    speed = 0.6 if model is ModelKind.M0 else 1.5
    rdot = np.array(draw(st.lists(vec(-speed, speed), min_size=n, max_size=n)))
    assume(np.all(fld.w(r, t) < -0.05))
    return r, rdot, t


M0_REST_MASS = 0.8


@PROPERTY
@given(fields(), st.sampled_from(list(ModelKind)), st.data())
def test_phase_terms_columns_match_rows(fld, model, data):
    """Every term of core.phase_terms on columns (the record path) is the
    one-point call's, also where the qA shift breaks an M2 guard (nan)."""
    r, u, t = data.draw(states(fld, ModelKind.M0))
    mom = -fld.w(r, t)[:, None] * u
    if model in (ModelKind.M2, ModelKind.M3):
        mom = mom + fld.q_test * fld.a(r, t)
    cols = phase_terms(model, r, mom, t, fld, M0_REST_MASS)
    for i in range(len(r)):
        row = phase_terms(model, r[i], mom[i], t[i], fld, M0_REST_MASS)
        for col, value in zip(cols, row, strict=True):
            if value is None:
                assert col is None
            else:
                want = np.asarray(value)
                got = np.broadcast_to(col, (len(r), *want.shape))[i]
                assert np.array_equal(got, want, equal_nan=True)


@PROPERTY
@given(fields(), st.sampled_from(list(ModelKind)), st.data())
def test_lagrangian_kernel_rows_are_one_row_calls(fld, model, data):
    """Each row of _lagrangian_eval, on states and on a stack of velocity probes
    of them, is lagrangian / legendre_momentum / the one-row kernel bit for bit;
    for M2 with the self-consistent and with a frozen xidot."""
    r, rdot, t = data.draw(states(fld, model))
    probes = rdot + np.array(data.draw(st.lists(vec(-0.1, 0.1), min_size=2, max_size=2)))[:, None, :]
    try:
        xidot = m2_xidot(r, rdot, fld, t) if model is ModelKind.M2 else None
        lag, mom, dldr = _lagrangian_eval(model, r, rdot, t, fld, M0_REST_MASS, derivatives=True)
        lag_probes = _lagrangian_eval(model, r, probes, t, fld, M0_REST_MASS, xidot)
    except SubluminalViolation:  # an M2 mover at |qA/W| >= 1
        assume(False)
    for i in range(len(r)):
        args = (model, r[i], rdot[i], fld, t[i])
        assert lagrangian(*args, rest_mass=M0_REST_MASS) == lag[i]
        assert np.array_equal(legendre_momentum(*args, rest_mass=M0_REST_MASS), mom[i])
        row = _lagrangian_eval(model, r[i], rdot[i], t[i], fld, M0_REST_MASS, derivatives=True)
        assert np.array_equal(row[2], dldr[i])
        if xidot is not None:
            assert np.array_equal(m2_xidot(r[i], rdot[i], fld, t[i]), xidot[i])
        for k in range(len(probes)):
            frozen = None if xidot is None else xidot[i]
            assert lagrangian(model, r[i], probes[k, i], fld, t[i], rest_mass=M0_REST_MASS,
                              xidot=frozen) == lag_probes[k, i]


@PROPERTY
@given(fields(), st.sampled_from(list(ModelKind)), st.data())
def test_hamiltonian_kernel_rows_are_one_row_calls(fld, model, data):
    r, u, t = data.draw(states(fld, ModelKind.M0))
    mom = -fld.w(r, t)[:, None] * u
    if model in (ModelKind.M2, ModelKind.M3):
        mom = mom + fld.q_test * fld.a(r, t)
    try:
        ham = _hamiltonian_eval(model, r, mom, t, fld, M0_REST_MASS)
    except SubluminalViolation:  # an M2 guard W^2 - |P|^2 broken by the qA shift
        assume(False)
    for i in range(len(r)):
        assert hamiltonian(model, PhasePoint(r[i], mom[i], 0.0, t[i]), fld, rest_mass=M0_REST_MASS) == ham[i]


#: no source at all: W, grad W and the Jacobian stay floats on columns
sourceless_fields = st.builds(VacuumField, w_inf=st.floats(-2.0, -0.3), q_test=st.floats(0.2, 2.5),
                              a_uniform=vec(-0.3, 0.3), b_uniform=vec(-0.5, 0.5))


def float_bits(values) -> list[str]:
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("model", list(ModelKind))
@settings(max_examples=100)
@given(st.one_of(fields(moving=st.just(True)), unmoved_fields, sourceless_fields), batches(), st.data())
def test_rhs_kernel_rows_are_point_rhs_calls(model, fld, batch, data):
    """Each row of _rhs_eval is the float point_rhs call bit for bit, sign bits
    included, with one time or one time per state, also where field parts stay
    floats on the columns; where a row breaks its guard, the column call raises."""
    r, t = batch
    w = np.broadcast_to(fld.w(r, t), r.shape[:-1])
    assume(np.all(w < -0.05))
    u = np.array(data.draw(st.lists(vec(-0.5, 0.5), min_size=len(r), max_size=len(r))))
    mom = -w[:, None] * u
    if model in (ModelKind.M2, ModelKind.M3):
        mom = mom + fld.q_test * fld.a(r, t)
    times = np.broadcast_to(t, w.shape).tolist()
    try:
        rows = [point_rhs(model, [*r[i].tolist(), *mom[i].tolist(), times[i]], fld, M0_REST_MASS)
                for i in range(len(r))]
    except SubluminalViolation:  # an M2 guard W^2 - |P|^2 broken by the qA shift
        with pytest.raises(SubluminalViolation):
            _rhs_eval(model, r, mom, t, fld, M0_REST_MASS)
        return
    rdot, momdot, rate = _rhs_eval(model, r, mom, t, fld, M0_REST_MASS)
    assert rdot.shape == momdot.shape == r.shape and rate.shape == w.shape
    for i, row in enumerate(rows):
        assert float_bits([*rdot[i], *momdot[i], rate[i]]) == float_bits(row)


@PROPERTY
@given(fields(), st.sampled_from(list(ModelKind)), st.data())
def test_legendre_transform_of_l_is_h(fld, model, data):
    """<P, rdot> - L = H at each state, with P = dL/drdot.  M0's Lagrangian is
    the free form, so it runs on the field without its sources (W = w_inf)."""
    if model is ModelKind.M0:
        fld = VacuumField(w_inf=fld.w_inf, q_test=fld.q_test, a_uniform=fld.a_uniform,
                          b_uniform=fld.b_uniform)
    r, rdot, t = data.draw(states(fld, model))
    try:
        lag, mom, _ = _lagrangian_eval(model, r, rdot, t, fld, M0_REST_MASS, derivatives=True)
        ham = _hamiltonian_eval(model, r, mom, t, fld, M0_REST_MASS)
    except SubluminalViolation:
        assume(False)
    legendre = dot3(mom, rdot) - lag
    scale = np.abs(dot3(mom, rdot)) + np.abs(lag) + np.abs(ham)
    npt.assert_allclose(legendre, ham, rtol=0.0, atol=1e-13 * float(np.max(scale)))


# -- the implicit-midpoint integrator -----------------------------------------------


def start_state(data, fld, model):
    """(particle, r0) with W(r0, 0) < -0.05 and |u0| <= 0.5 whose start state passes the model's guard."""
    r0 = np.array(data.draw(vec(-2.0, 2.0)))
    assume(fld.w(r0, 0.0) < -0.05)
    particle = Particle(q=fld.q_test, u0=data.draw(vec(-0.25, 0.25)))
    try:
        init_phase(model, particle, fld, r0)
    except SubluminalViolation:
        assume(False)
    return particle, r0


@settings(max_examples=100)
@given(static_fields, st.sampled_from([ModelKind.M1, ModelKind.M2, ModelKind.M3]), st.data())
def test_midpoint_step_is_reversible(fld, model, data):
    """An implicit-midpoint step of h followed by one of -h returns to the start."""
    particle, r0 = start_state(data, fld, model)
    ph0 = init_phase(model, particle, fld, r0)
    integ = ImplicitMidpoint(tol=1e-14)
    h = data.draw(st.floats(0.005, 0.02))
    back = step(integ, model, step(integ, model, ph0, fld, h), fld, -h)
    scale = 1.0 + float(np.max(np.abs(ph0.mom)))
    npt.assert_allclose(back.r, ph0.r, rtol=0.0, atol=1e-12 * scale)
    npt.assert_allclose(back.mom, ph0.mom, rtol=0.0, atol=1e-12 * scale)
    npt.assert_allclose(back.t, ph0.t, rtol=0.0, atol=1e-12 * scale)


#: the symplectic form of the canonical pairs (r, mom)
_OMEGA = np.block([[np.zeros((3, 3)), np.eye(3)], [-np.eye(3), np.zeros((3, 3))]])
#: bound on max |J^T Omega J - Omega| / max(1, max |J|)^2 for the midpoint step.
#: Over about 6,400 drawn cases of one_source_fields at h in [0.05, 0.2] the
#: largest was 9.6e-12; on the field of test_midpoint_is_symplectic_where_rk4_is_not
#: RK4 reads 1.8e-9 (M1), 3.1e-8 (M2) and 2.9e-8 (M3)
_SYMPLECTIC_TOL = 1e-10


@st.composite
def one_source_fields(draw):
    """A static field of one source, soft enough (eps >= 0.2) for a finite-difference
    Jacobian, with uniform A and B."""
    sign = draw(st.sampled_from((-1.0, 1.0)))
    source = FieldSource(qs=draw(st.floats(-1.0, 1.0)), r0=draw(vec(-1.0, 1.0)), uf=(0.0, 0.0, 0.0),
                         eps=draw(st.floats(0.2, 0.5)))
    return VacuumField(w_inf=draw(st.floats(-2.0, -0.3)), sources=(source,),
                       q_test=sign * draw(st.floats(0.2, 2.5)), a_uniform=draw(vec(-0.3, 0.3)),
                       b_uniform=draw(vec(-0.5, 0.5)))


def symplectic_defect(advance, y, d=1e-4) -> tuple[float, float]:
    """(max |J^T Omega J - Omega|, max |J|) for the Jacobian J of advance over
    (r, mom), the clock y[6] riding along, by the fourth-order central
    difference of step d.  The second-order one at d = 1e-5 left truncation
    errors up to 1.4e-9 |J|^2 near a source, as large as RK4's own defect."""
    cols = []
    for i in range(6):
        def at(s):
            shifted = list(y)
            shifted[i] += s * d
            return np.array(advance(shifted)[:6])
        cols.append((8.0 * (at(1) - at(-1)) - (at(2) - at(-2))) / (12.0 * d))
    jac = np.array(cols).T
    return float(np.max(np.abs(jac.T @ _OMEGA @ jac - _OMEGA))), float(np.max(np.abs(jac)))


def _midpoint(model, fld, h):
    f = integrate._rhs(model, fld, None)
    return lambda y: integrate._step_midpoint(f, y, h, 1e-15, MAX_ITER)[0]


@settings(max_examples=100, deadline=None)
@given(one_source_fields(), st.sampled_from([ModelKind.M1, ModelKind.M2, ModelKind.M3]),
       st.floats(0.05, 0.2), st.data())
def test_midpoint_step_is_symplectic(fld, model, h, data):
    """In a static field M1-M3 are canonical in (r, mom), so the implicit-midpoint
    step's Jacobian J keeps Omega: J^T Omega J = Omega within _SYMPLECTIC_TOL."""
    particle, r0 = start_state(data, fld, model)
    y = integrate._pack(init_phase(model, particle, fld, r0))
    try:
        defect, size = symplectic_defect(_midpoint(model, fld, h), y)
    except (NoConvergence, SubluminalViolation, NonNegativeField):  # a perturbed start past a guard
        assume(False)
    assert defect <= _SYMPLECTIC_TOL * max(1.0, size) ** 2


@pytest.mark.parametrize("model", [ModelKind.M1, ModelKind.M2, ModelKind.M3])
def test_midpoint_is_symplectic_where_rk4_is_not(model):
    """On one field, h = 0.2, the midpoint step passes the symplectic test
    (1.4e-12, 1.5e-12 and 9.8e-13 for M1-M3) and RK4 fails it, so the test can
    tell a symplectic step from a fourth-order one that is not."""
    fld = VacuumField(w_inf=-1.0, sources=(FieldSource(qs=0.5, r0=(0.0, 0.0, 0.0), uf=(0.0, 0.0, 0.0), eps=0.3),),
                      q_test=1.0, a_uniform=(0.0, 0.02, 0.0), b_uniform=(0.05, -0.03, 0.2))
    y = integrate._pack(init_phase(model, Particle(q=1.0, u0=(0.0, 0.0, 0.0)), fld, (-0.6, 0.4, 0.1)))
    midpoint, size = symplectic_defect(_midpoint(model, fld, 0.2), y)
    f = integrate._rhs(model, fld, None)
    rk4, _ = symplectic_defect(lambda y: integrate._step_rk4(f, y, 0.2), y)
    assert midpoint <= _SYMPLECTIC_TOL * max(1.0, size) ** 2 < rk4


@settings(max_examples=50)
@given(zero_a_fields, st.data())
def test_m1_and_m3_agree_where_a_vanishes(fld, data):
    """With static sources and no uniform A or B, P = p and the M3 flow is the M1 flow."""
    particle, r0 = start_state(data, fld, ModelKind.M1)
    integ = ImplicitMidpoint()
    m1 = simulate(ModelKind.M1, particle, fld, r0, 0.5, integ, 0.01)
    m3 = simulate(ModelKind.M3, particle, fld, r0, 0.5, integ, 0.01)
    assert "termination" not in m1.meta and "termination" not in m3.meta
    scale = 1.0 + float(np.max(np.abs(m1.mom)))
    for a, b in ((m1.r, m3.r), (m1.mom, m3.mom), (m1.t, m3.t)):
        npt.assert_allclose(a, b, rtol=0.0, atol=1e-11 * scale)


@settings(max_examples=50)
@given(static_fields, vec(-1.0, 1.0), st.data())
def test_uniform_a_shift_leaves_m3_positions(fld, c, data):
    """M3 sees A only through P - qA: adding a constant c to A (init_phase adds q c
    to P) leaves r(t) and t(tau) unchanged over 100 midpoint steps, and P stays
    shifted by q c.  The tolerance, 1e-11 (1 + max |P|), is about 270 times the
    largest deviation of r, t or P - q c over 3,000 drawn cases (3.7e-14 (1 + max |P|))."""
    particle, r0 = start_state(data, fld, ModelKind.M3)
    shifted = VacuumField(w_inf=fld.w_inf, sources=fld.sources, q_test=fld.q_test,
                          a_uniform=fld.a_uniform + np.array(c), b_uniform=fld.b_uniform)
    integ = ImplicitMidpoint()
    try:
        base = simulate(ModelKind.M3, particle, fld, r0, 1.0, integ, 1e-2)
    except NoConvergence:  # escapes simulate near a hard source; the property needs a whole run
        assume(False)
    assume("termination" not in base.meta)
    moved = simulate(ModelKind.M3, particle, shifted, r0, 1.0, integ, 1e-2)
    assert "termination" not in moved.meta and len(moved.r) == 101
    atol = 1e-11 * (1.0 + float(np.max(np.abs(moved.mom))))
    npt.assert_allclose(moved.r, base.r, rtol=0.0, atol=atol)
    npt.assert_allclose(moved.t, base.t, rtol=0.0, atol=atol)
    npt.assert_allclose(moved.mom - base.mom, np.broadcast_to(fld.q_test * np.array(c), base.mom.shape),
                        rtol=0.0, atol=atol)


def stepped_run(model, particle, fld, r0, n_steps, integ, h):
    """A chain of integrate.step calls, each from the Euler start f(y_n): the
    states it reached, and the step that raised with its error (None, None if
    every step ran)."""
    ph = init_phase(model, particle, fld, r0)
    states = [[*ph.r, *ph.mom, ph.t]]
    for k in range(1, n_steps + 1):
        try:
            ph = step(integ, model, ph, fld, h)
        except (SubluminalViolation, NonNegativeField, NoConvergence) as exc:
            return states, k, exc
        states.append([*ph.r, *ph.mom, ph.t])
    return states, None, None


def guard_breaks(model, y, fld) -> bool:
    """Whether point_rhs, the first evaluation of a step from y, raises on a guard."""
    try:
        point_rhs(model, y, fld)
    except (SubluminalViolation, NonNegativeField):
        return True
    return False


#: a moving-source M3 run whose extrapolated start fails to converge at a step
#: that the Euler start ends with a guard stop: without the restart from f(y_n),
#: simulate raises NoConvergence there
FALLBACK_CASE = dict(
    fld=VacuumField(w_inf=-0.3567, sources=(FieldSource(qs=-0.9305, r0=(-0.031, 0.6084, -0.0458),
                                                         uf=(0.1639, 0.3535, -0.3228), eps=0.4181),),
                    q_test=2.1337, a_uniform=(0.0841, -0.1064, 0.2702), b_uniform=(0.4145, 0.4413, -0.0448)),
    model=ModelKind.M3, h=1e-2, aim=(0, (-0.4655, 0.0057, -0.2317), 0.8062),
)


@settings(max_examples=150)
@example(**FALLBACK_CASE)
@given(fields(), st.sampled_from([ModelKind.M1, ModelKind.M2, ModelKind.M3]), st.sampled_from([1e-3, 1e-2]),
       st.tuples(st.integers(0, 2), vec(-0.6, 0.6), st.floats(0.0, 0.99)))
def test_extrapolated_start_changes_only_round_off(fld, model, h, aim):
    """simulate starts each step from the slope extrapolated from the last three;
    a chain of step() calls starts from f(y_n).  The particle starts at r0 =
    source + d, heading for the source at |u0| < 0.99, so some runs end at a
    guard.  Every state both reach agrees to 1e-9 (1 + |y|), and:

    - a chain that runs through, or stops at a state past the guard, is
      matched exactly (simulate's record drops that state);
    - where the chain's own iteration fails from a state inside the guard (its
      Euler predictor or an iterate crosses it, or it does not converge),
      simulate gets at least as far, and raises NoConvergence only if the chain
      did: its better start can converge where the Euler start fails.
    """
    src, d, speed = aim
    d = np.array(d)
    assume(math.sqrt(dot3(d, d)) > 0.01)
    r0 = fld.sources[src % len(fld.sources)].r0 + d
    assume(fld.w(r0, 0.0) < -0.05)
    particle = Particle(q=fld.q_test, u0=-speed * d / math.sqrt(dot3(d, d)))
    try:
        init_phase(model, particle, fld, r0)
    except SubluminalViolation:
        assume(False)
    integ, n_steps = ImplicitMidpoint(), 150
    states, stop, exc = stepped_run(model, particle, fld, r0, n_steps, integ, h)
    try:
        rec = simulate(model, particle, fld, r0, n_steps * h, integ, h)
    except NoConvergence:
        assert isinstance(exc, NoConvergence)
        return
    if stop is None:
        assert "termination" not in rec.meta and len(rec) == len(states)
    elif not isinstance(exc, NoConvergence) and guard_breaks(model, states[-1], fld):
        states.pop()
        assert rec.meta["termination"].startswith(f"step {stop}: ") and len(rec) == len(states)
    else:
        assert len(rec) >= stop
    n = min(len(rec), len(states))
    ref = np.array(states[:n])
    got = np.column_stack([rec.r, rec.mom, rec.t])[:n]
    npt.assert_array_less(np.abs(got - ref), 1e-9 * (1.0 + np.abs(ref)))



# -- the midpoint oracle ----------------------------------------------------------
#
# The implicit-midpoint step on 7-float lists, one list comprehension per
# operation, and its run loop with a deque of slopes: simulate steps on named
# floats in the same operation order, so its records must be these bits.


def _reference_step_midpoint(f, y, h, tol, max_iter, k0=None):
    """One implicit-midpoint step from ym = y + (h/2) k0 (k0 = f(y) if None): (y1, iterations, k)."""
    half = 0.5 * h
    ym = [a + half * b for a, b in zip(y, f(y) if k0 is None else k0)]
    for it in range(1, max_iter + 1):
        k = f(ym)
        ym_next = [a + half * b for a, b in zip(y, k)]
        delta = max(map(abs, map(sub, ym_next, ym)))
        ym = ym_next
        if delta <= tol and math.isfinite(sum(ym)):
            return [2.0 * a - b for a, b in zip(ym, y)], it, k
    raise NoConvergence(
        f"implicit midpoint failed to reach tol={tol:g} in {max_iter} iterations (h={h:g})"
    )


def _reference_run_midpoint_step(f, y, h, integ, slopes):
    """One step of a run from the extrapolated start once the deque of slopes
    holds three, retried from f(y) if that start fails: (y1, iterations, restarted)."""
    restarted = wasted = 0
    if len(slopes) == 3:
        start = [3.0 * (a - b) + c for c, b, a in zip(*slopes)]
        calls = f.calls
        try:
            y1, it, k = _reference_step_midpoint(f, y, h, integ.tol, integ.max_iter, start)
        except (SubluminalViolation, NonNegativeField, NoConvergence):
            restarted, wasted = 1, f.calls - calls
        else:
            slopes.append(k)
            return y1, it, 0
    y1, it, k = _reference_step_midpoint(f, y, h, integ.tol, integ.max_iter)
    slopes.append(k)
    return y1, wasted + it, restarted


def _reference_simulate(model, particle, fld, r0, tau_end, integ, h):
    """simulate's implicit-midpoint run, stepped by the oracle into a preallocated state array."""
    n_steps = integrate.step_count(tau_end, h)
    r0 = as_vec3(r0)
    rest_mass = emergent_rest_mass(particle, fld, r0) if model is ModelKind.M0 else None
    f = integrate._rhs(model, fld, rest_mass)
    y = integrate._pack(init_phase(model, particle, fld, r0))
    taus = h * np.arange(n_steps + 1)
    state = np.empty((n_steps + 1, 7))
    state[0] = y
    n = 1
    iter_sum = iter_max = restarts = 0
    slopes = deque(maxlen=3)
    termination = None
    for k in range(1, n_steps + 1):
        try:
            y, it, restarted = _reference_run_midpoint_step(f, y, h, integ, slopes)
        except (SubluminalViolation, NonNegativeField) as exc:
            termination = f"step {k}: {exc}"
            break
        restarts += restarted
        iter_sum += it
        iter_max = max(iter_max, it)
        state[k] = y
        n = k + 1
    stats = {"rhs_evals": f.calls, "fp_iter_max": iter_max,
             "fp_iter_mean": iter_sum / (n - 1) if n > 1 else 0.0, "fp_restarts": restarts}
    return integrate._build_record(model, integ, h, fld, taus[:n], state[:n], rest_mass, stats, termination)


def run_both(*args):
    """(simulate's outcome, the oracle's): a record, or the NoConvergence raised."""
    outcomes = []
    for run in (simulate, _reference_simulate):
        try:
            outcomes.append(run(*args))
        except NoConvergence as exc:
            outcomes.append(exc)
    return outcomes


def assert_same_outcome(got, want):
    """The same record bit for bit (every column and meta, stats and termination
    included), or NoConvergence with the same message."""
    if isinstance(want, NoConvergence):
        assert isinstance(got, NoConvergence) and str(got) == str(want)
        return
    assert got.meta == want.meta
    for name in ("tau", "t", "r", "mom", "energy", "w", "u_lab"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@settings(max_examples=120)
@example(**FALLBACK_CASE)
@given(fields(), st.sampled_from(list(ModelKind)), st.sampled_from([1e-3, 1e-2]),
       st.tuples(st.integers(0, 2), vec(-0.6, 0.6), st.floats(0.0, 0.99)))
def test_simulate_matches_the_midpoint_oracle(fld, model, h, aim):
    """Over random static and moving fields, every model and both steps, simulate
    gives the oracle's record bit for bit: states, meta["stats"] and the
    termination.  The particle heads for a source as in the round-off property
    above, so some runs end at a guard or restart a step."""
    src, d, speed = aim
    d = np.array(d)
    assume(math.sqrt(dot3(d, d)) > 0.01)
    r0 = fld.sources[src % len(fld.sources)].r0 + d
    assume(fld.w(r0, 0.0) < -0.05)
    particle = Particle(q=fld.q_test, u0=-speed * d / math.sqrt(dot3(d, d)))
    try:
        init_phase(model, particle, fld, r0)
    except SubluminalViolation:
        assume(False)
    got, want = run_both(model, particle, fld, r0, 150 * h, ImplicitMidpoint(), h)
    assert_same_outcome(got, want)


def test_a_restarted_step_matches_the_midpoint_oracle(monkeypatch, static_source_field):
    """An injected guard error on an extrapolated start (the 50th evaluation, in
    step 20 or so) restarts that step from f(y_n) in both runs, with the same bits."""
    point_rhs = integrate.point_rhs
    calls = []

    def tripping(*args):
        calls.append(None)
        if len(calls) == 50:
            raise SubluminalViolation("injected")
        return point_rhs(*args)

    monkeypatch.setattr(integrate, "point_rhs", tripping)
    particle, r0 = Particle(q=1.0, u0=(0.45, 0, 0)), (-2.0, 0.75, 0.0)
    outcomes = []
    for run in (simulate, _reference_simulate):
        calls.clear()
        outcomes.append(run(ModelKind.M1, particle, static_source_field, r0, 1.0, ImplicitMidpoint(), 1e-2))
    got, want = outcomes
    assert got.meta["stats"]["fp_restarts"] == 1 and "termination" not in got.meta
    assert_same_outcome(got, want)


def test_no_convergence_matches_the_midpoint_oracle():
    """The flyby near miss with qs = -0.5, r0 = (-2, 0.01, 0) and h = 0.1 raises
    NoConvergence from both runs, with the same message."""
    fld = VacuumField(w_inf=-1.0, sources=(FieldSource(qs=-0.5, r0=(0, 0, 0), uf=(0, 0, 0), eps=0.05),),
                      q_test=1.0, a_uniform=(0.0, 0.02, 0.0))
    got, want = run_both(ModelKind.M1, Particle(q=1.0, u0=(0.45, 0, 0)), fld, (-2.0, 0.01, 0.0), 10.0,
                         ImplicitMidpoint(), 0.1)
    assert isinstance(want, NoConvergence)
    assert_same_outcome(got, want)
