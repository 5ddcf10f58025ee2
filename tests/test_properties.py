"""Property tests: the batched field kernel and the plain-float model kernel.

Over random fields (1-3 static or moving sources, uniform A and B,
q_test != 1): every row of the batched evaluator VacuumField._eval, and of
the selections over it, is bit-identical to VacuumField.point_state;
dynamics.point_rhs reproduces the per-model flows written with numpy below to
round-off, and its G, kappa and clock rate are core.model_terms' bit for bit;
and core.model_terms gives the same bits on sample columns as row by row.
"""

import math

import numpy as np
import numpy.testing as npt
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vacuumflow.core import ModelKind, guarded_root, model_terms
from vacuumflow.dynamics import model_rhs, point_rhs
from vacuumflow.fields import FOUR_PI, FieldSource, VacuumField

PROPERTY = settings(max_examples=150)


def vec(lo, hi):
    return st.tuples(*[st.floats(lo, hi)] * 3)


@st.composite
def sources(draw):
    moving = draw(st.booleans())
    return FieldSource(
        qs=draw(st.floats(-1.0, 1.0)),
        r0=draw(vec(-1.0, 1.0)),
        uf=draw(vec(-0.5, 0.5)) if moving else (0.0, 0.0, 0.0),
        eps=draw(st.floats(0.05, 0.5)),
    )


@st.composite
def fields(draw):
    sign = draw(st.sampled_from((-1.0, 1.0)))
    q = sign * draw(st.floats(0.2, 2.5).filter(lambda v: v != 1.0))
    return VacuumField(
        w_inf=draw(st.floats(-2.0, -0.3)),
        sources=tuple(draw(st.lists(sources(), min_size=1, max_size=3))),
        q_test=q,
        a_uniform=draw(vec(-0.3, 0.3)),
        b_uniform=draw(vec(-0.5, 0.5)),
    )


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


@PROPERTY
@given(fields(), batches())
def test_point_state_matches_batched_evaluators(fld, batch):
    r, t = batch
    w, gw, a, adot, jac = fld._eval(r, t, "wgadj")
    for i in range(len(r)):
        row = fld.point_state(*r[i].tolist(), float(t[i] if np.ndim(t) else t))
        for got, want in zip((w[i], gw[i], a[i], adot[i], jac[i]), row):
            assert np.array_equal(got, want)
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


VACUUM_MODELS = [ModelKind.M1, ModelKind.M2, ModelKind.M3]


@PROPERTY
@given(fields(), probes, vec(-0.5, 0.5), st.sampled_from(VACUUM_MODELS))
def test_point_rhs_uses_model_terms(fld, probe, u, model):
    """point_rhs keeps its own inline arithmetic on the hot path; its k/G (M2:
    (kappa P - qA)/G) and rate are model_terms' bit for bit, with |k|^2 and
    <A,P> summed left to right as point_rhs sums them."""
    (x, y, z), t = probe
    w, _gw, (ax, ay, az), _adot, _jac = fld.point_state(x, y, z, t)
    assume(w < -0.05)
    q = fld.q_test
    px, py, pz = (-w * ui for ui in u)
    if model is ModelKind.M3:
        px, py, pz = px + q * ax, py + q * ay, pz + q * az
    kx, ky, kz = (px - q * ax, py - q * ay, pz - q * az) if model is ModelKind.M3 else (px, py, pz)
    ap = ax * px + ay * py + az * pz if model is ModelKind.M2 else 0.0
    _guard, g, kappa, rate, _energy = model_terms(model, w, kx * kx + ky * ky + kz * kz, ap, q,
                                                  guarded_root)

    out = point_rhs(model, [x, y, z, px, py, pz, t], fld)
    if model is ModelKind.M2:
        assert out[0:3] == [(kappa * px - q * ax) / g, (kappa * py - q * ay) / g, (kappa * pz - q * az) / g]
    else:
        assert out[0:3] == [kx / g, ky / g, kz / g]
    assert out[6] == rate


@PROPERTY
@given(st.sampled_from(VACUUM_MODELS), st.floats(-2.5, 2.5).filter(bool), st.data())
def test_model_terms_columns_match_rows(model, q, data):
    """np.sqrt over sample columns (the record path) and guarded_root per row
    (the phase-point path) give the same guard, G, kappa, rate and energy."""
    n = data.draw(st.integers(1, 8))
    floats = lambda lo, hi: st.lists(st.floats(lo, hi), min_size=n, max_size=n)
    w = np.array(data.draw(floats(-3.0, -0.05)))
    k2 = np.array(data.draw(floats(0.0, 0.99))) * w * w  # a healthy guard
    ap = np.array(data.draw(floats(-2.0, 2.0)))
    cols = model_terms(model, w, k2, ap, q, np.sqrt)
    for i in range(n):
        row = model_terms(model, float(w[i]), float(k2[i]), float(ap[i]), q, guarded_root)
        for col, value in zip(cols, row):
            assert np.broadcast_to(col, (n,))[i] == value
