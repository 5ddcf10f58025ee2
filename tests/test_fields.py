import numpy as np
import numpy.testing as npt
import pytest

from vacuumflow.errors import ConfigError, ZeroTestCharge
from vacuumflow.fields import FieldSource, VacuumField

FOUR_PI = 4.0 * np.pi


def fd4_grad(f, r, t, step=1e-3):
    out = np.empty(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = step
        out[i] = (-f(r + 2 * e, t) + 8 * f(r + e, t) - 8 * f(r - e, t) + f(r - 2 * e, t)) / (12 * step)
    return out


def fd4_jac(f, r, t, step=1e-3):
    cols = []
    for i in range(3):
        e = np.zeros(3)
        e[i] = step
        cols.append((-f(r + 2 * e, t) + 8 * f(r + e, t) - 8 * f(r - e, t) + f(r - 2 * e, t)) / (12 * step))
    return np.stack(cols, axis=1)


def test_eval_w_baseline_only(uniform_field):
    assert uniform_field.w((0.3, -1.0, 2.0), 1.7) == -1.0


def test_eval_w_single_source_closed_form():
    fld = VacuumField(
        w_inf=-1.0,
        sources=(FieldSource(qs=1.0, r0=(0, 0, 0), uf=(0, 0, 0), eps=0.01),),
        q_test=1.0,
    )
    expected = -1.0 + 1.0 / (FOUR_PI * np.sqrt(1.0 + 1e-4))
    npt.assert_allclose(fld.w((1.0, 0, 0), 0.0), expected, rtol=1e-15)
    # monotone falloff toward the baseline
    w1 = fld.w((1.0, 0, 0), 0.0)
    w2 = fld.w((2.0, 0, 0), 0.0)
    assert -1.0 < w2 < w1


def test_w_invariants_validated():
    with pytest.raises(ConfigError):
        VacuumField(w_inf=0.5)
    with pytest.raises(ConfigError):
        FieldSource(qs=1.0, r0=(0, 0, 0), uf=(0, 0, 0), eps=0.0)
    with pytest.raises(ConfigError):
        FieldSource(qs=1.0, r0=(0, 0, 0), uf=(1.0, 0, 0), eps=0.1)


def test_translation_covariance(rng):
    src = FieldSource(qs=0.7, r0=(0.2, -0.1, 0.4), uf=(0.1, 0.2, -0.05), eps=0.15)
    fld = VacuumField(w_inf=-1.0, sources=(src,), q_test=1.0)
    for _ in range(20):
        r = rng.uniform(-1, 1, 3)
        shift = rng.uniform(-2, 2, 3)
        t = rng.uniform(0, 3)
        shifted = VacuumField(
            w_inf=-1.0,
            sources=(FieldSource(qs=0.7, r0=src.r0 + shift, uf=src.uf, eps=src.eps),),
            q_test=1.0,
        )
        npt.assert_allclose(fld.w(r, t), shifted.w(r + shift, t), rtol=1e-14)


def test_rigid_comotion(rng):
    """A single uniformly moving source: w(r, t) = w(r - uf*d, t - d)."""
    uf = np.array([0.3, -0.2, 0.1])
    fld = VacuumField(
        w_inf=-1.0,
        sources=(FieldSource(qs=0.9, r0=(0.1, 0.0, -0.2), uf=uf, eps=0.2),),
        q_test=1.0,
    )
    for _ in range(20):
        r = rng.uniform(-1, 1, 3)
        t = rng.uniform(0, 2)
        d = rng.uniform(-1, 1)
        npt.assert_allclose(fld.w(r, t), fld.w(r - uf * d, t - d), rtol=1e-14)


def test_grad_w_matches_central_difference(moving_field, rng):
    step = 1e-5
    for _ in range(30):
        r = rng.uniform(-1.2, 1.2, 3)
        t = rng.uniform(0, 2)
        g = moving_field.grad_w(r, t)
        fd = np.empty(3)
        for i in range(3):
            e = np.zeros(3)
            e[i] = step
            fd[i] = (moving_field.w(r + e, t) - moving_field.w(r - e, t)) / (2 * step)
        npt.assert_allclose(g, fd, rtol=1e-6, atol=1e-9)


def test_grad_w_radial_and_zero(uniform_field):
    npt.assert_array_equal(uniform_field.grad_w((1.0, 2.0, 3.0), 0.0), np.zeros(3))
    fld = VacuumField(
        w_inf=-1.0, sources=(FieldSource(qs=1.0, r0=(0, 0, 0), uf=(0, 0, 0)),), q_test=1.0
    )
    g = fld.grad_w((2.0, 0, 0), 0.0)
    assert abs(g[1]) < 1e-15 and abs(g[2]) < 1e-15 and g[0] != 0.0


def test_eval_a_structure():
    # sources at rest contribute nothing
    static = VacuumField(
        w_inf=-1.0, sources=(FieldSource(qs=1.0, r0=(0, 0, 0), uf=(0, 0, 0)),), q_test=1.0
    )
    npt.assert_array_equal(static.a((1.0, 0, 0), 0.0), np.zeros(3))
    # single mover: A parallel to uf with |A| = W_1 |uf| / q_test
    uf = np.array([0.5, 0.0, 0.0])
    fld = VacuumField(
        w_inf=-1.0, sources=(FieldSource(qs=1.0, r0=(0, 0, 0), uf=uf, eps=0.01),), q_test=1.0
    )
    r = np.array([0.0, 1.0, 0.0])
    w1 = fld.w(r, 0.0) - fld.w_inf
    a = fld.a(r, 0.0)
    npt.assert_allclose(a, w1 * uf, rtol=1e-14)
    npt.assert_allclose(a[0], 0.0397873, rtol=2e-5)  # W_1 ~ 1/(4 pi), halved


def test_zero_test_charge_rejected():
    fld = VacuumField(w_inf=-1.0, q_test=0.0)
    with pytest.raises(ZeroTestCharge):
        fld.a((1, 0, 0), 0.0)
    with pytest.raises(ZeroTestCharge):
        fld.e_b((1, 0, 0), 0.0)


def test_eval_eb_static_source_pure_e():
    fld = VacuumField(
        w_inf=-1.0, sources=(FieldSource(qs=1.0, r0=(0, 0, 0), uf=(0, 0, 0)),), q_test=1.0
    )
    e, b = fld.e_b((1.5, 0, 0), 0.0)
    npt.assert_array_equal(b, np.zeros(3))
    assert e[0] != 0.0 and abs(e[1]) < 1e-15 and abs(e[2]) < 1e-15


def test_b_orthogonal_to_mover(rng):
    uf = np.array([0.4, 0.1, -0.2])
    fld = VacuumField(
        w_inf=-1.0, sources=(FieldSource(qs=1.0, r0=(0, 0, 0), uf=uf, eps=0.1),), q_test=1.0
    )
    for _ in range(20):
        r = rng.uniform(-1, 1, 3)
        _e, b = fld.e_b(r, rng.uniform(0, 1))
        assert abs(float(b @ uf)) < 1e-14


def test_eval_eb_matches_fd_oracle(moving_field, rng):
    """E and B from the 4th-order stencil oracle applied to w / a."""
    for _ in range(25):
        r = rng.uniform(-1.2, 1.2, 3)
        t = rng.uniform(0, 2)
        e, b = moving_field.e_b(r, t)
        gw = fd4_grad(lambda rr, tt: moving_field.w(rr, tt), r, t)
        jac = fd4_jac(lambda rr, tt: moving_field.a(rr, tt), r, t)
        st = 1e-3
        adot = (
            -moving_field.a(r, t + 2 * st)
            + 8 * moving_field.a(r, t + st)
            - 8 * moving_field.a(r, t - st)
            + moving_field.a(r, t - 2 * st)
        ) / (12 * st)
        e_fd = -gw / moving_field.q_test - adot
        b_fd = np.array([jac[2, 1] - jac[1, 2], jac[0, 2] - jac[2, 0], jac[1, 0] - jac[0, 1]])
        npt.assert_allclose(e, e_fd, rtol=1e-6, atol=1e-9)
        npt.assert_allclose(b, b_fd, rtol=1e-6, atol=1e-9)


def test_uniform_b_jacobian():
    b0 = np.array([0.0, 0.0, 2.0])
    fld = VacuumField(w_inf=-1.0, b_uniform=b0)
    _e, b = fld.e_b((0.7, -0.3, 0.2), 0.0)
    npt.assert_allclose(b, b0, atol=1e-15)
    npt.assert_allclose(fld.a((1.0, 0, 0), 0.0), 0.5 * np.cross(b0, [1.0, 0, 0]), atol=1e-15)


def test_broadcast_evaluation(moving_field):
    pts = np.random.default_rng(3).uniform(-1, 1, (4, 5, 3))
    w = moving_field.w(pts, 0.5)
    assert w.shape == (4, 5)
    single = moving_field.w(pts[2, 3], 0.5)
    npt.assert_allclose(w[2, 3], single, rtol=1e-15)


def test_local_state_consistent_with_public_api(moving_field, rng):
    for _ in range(10):
        r = rng.uniform(-1, 1, 3)
        t = rng.uniform(0, 2)
        w, gw, a, adot, jac = moving_field.local_state(r, t)
        npt.assert_allclose(w, moving_field.w(r, t), rtol=1e-15)
        npt.assert_allclose(gw, moving_field.grad_w(r, t), rtol=1e-14, atol=1e-18)
        npt.assert_allclose(a, moving_field.a(r, t), rtol=1e-14, atol=1e-18)
        npt.assert_allclose(adot, moving_field.a_dot(r, t), rtol=1e-14, atol=1e-18)
        npt.assert_allclose(jac, moving_field.a_jac(r, t), rtol=1e-14, atol=1e-18)
