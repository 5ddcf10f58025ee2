import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack, solve_banded

from vacuumflow import quantum, verify
from vacuumflow.errors import NonPositiveMass, SolveFailure, SuperluminalMode
from vacuumflow.presets import HBAR_DEFAULT, quantum_profiles
from vacuumflow.quantum import (
    DOMAINS,
    QuantumKind,
    QuantumModel,
    TridiagonalOperator,
    WaveState,
    build_hamiltonian,
    cayley_power,
    cn_step,
    cn_step_psi,
    dispersion_check,
    evolve,
    free_packet_sigma,
    gaussian_packet,
    l2_norm,
    model_gap,
    packet_sigma,
    plane_wave,
    snapshot_csv,
)


def test_constant_state_pure_potential():
    n = 64
    model = QuantumModel(QuantumKind.FreeVacuum, -np.ones(n), np.zeros(n))
    op = build_hamiltonian(model, dx=0.1, hbar=HBAR_DEFAULT)
    psi = np.ones(n, dtype=complex)
    npt.assert_allclose(op.apply(psi), -psi, atol=1e-14)


def test_minimal_with_zero_a_equals_free():
    dx, w, _a = quantum_profiles(n=128)
    free = build_hamiltonian(QuantumModel(QuantumKind.FreeVacuum, w, np.zeros(128)), dx, HBAR_DEFAULT)
    minimal = build_hamiltonian(QuantumModel(QuantumKind.MinimalCoupling, w, np.zeros(128)), dx, HBAR_DEFAULT)
    npt.assert_array_equal(free.to_dense(), minimal.to_dense())


def test_modified_minus_minimal_is_the_two_extra_terms(rng):
    """Independent dense construction of the q^2 terms, compared at 1e-13."""
    n = 128
    dx, w, a = quantum_profiles(n=n)
    q = 0.7
    hbar = HBAR_DEFAULT
    minimal = build_hamiltonian(QuantumModel(QuantumKind.MinimalCoupling, w, a, q), dx, hbar)
    modified = build_hamiltonian(QuantumModel(QuantumKind.Modified, w, a, q), dx, hbar)
    m = -w
    # term 1: -q^2 <A,A>/(2m), diagonal
    t1 = np.diag(-(q * q) * a * a / (2.0 * m))
    # term 2: -(q^2/2) (A p) m^-3 (p A) with forward-difference C = (hbar/i) D_f A
    c_mat = np.zeros((n, n), dtype=complex)
    for l in range(n):
        c_mat[l, l] = 1j * hbar * a[l] / dx
        c_mat[l, (l + 1) % n] = -1j * hbar * a[(l + 1) % n] / dx
    t2 = -(q * q) * 0.5 * (c_mat.conj().T @ np.diag(1.0 / m**3) @ c_mat)
    diff = modified.to_dense() - minimal.to_dense()
    npt.assert_allclose(diff, t1 + t2, atol=1e-13)
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    npt.assert_allclose(modified.apply(psi) - minimal.apply(psi), (t1 + t2) @ psi, atol=1e-13)


@st.composite
def quantum_operators(draw):
    """An operator of every kind and domain on random profiles, and a random state."""
    n = draw(st.integers(3, 64))
    w = np.array(draw(st.lists(st.floats(-3.0, -0.2), min_size=n, max_size=n)))
    a = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    model = QuantumModel(draw(st.sampled_from(QuantumKind)), w, a, q=draw(st.floats(-2.0, 2.0)))
    dx, hbar = draw(st.floats(0.05, 0.5)), draw(st.floats(0.1, 2.0))
    op = build_hamiltonian(model, dx, hbar, draw(st.sampled_from(DOMAINS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return op, rng.normal(size=n) + 1j * rng.normal(size=n), draw(st.floats(1e-3, 1.0))


@settings(max_examples=300)
@given(quantum_operators())
def test_hermiticity_all_models(problem):
    """Every operator equals its conjugate transpose exactly, and one Cayley step
    keeps the L2 norm to 1e-12 relative (a sweep of 3,000 draws: at most 1.5e-14)."""
    op, psi, dtau = problem
    dense = op.to_dense()
    assert np.array_equal(dense, dense.conj().T)
    before = l2_norm(psi, op.dx)
    assert abs(l2_norm(cn_step_psi(op, psi, dtau), op.dx) - before) <= 1e-12 * before


def _reference_bond_average(c: np.ndarray, periodic: bool) -> tuple[np.ndarray, float]:
    """Coefficients on bonds j <-> j+1; also the wrap bond for periodic grids."""
    bonds = 0.5 * (c[:-1] + c[1:])
    wrap = 0.5 * (c[-1] + c[0]) if periodic else 0.0
    return bonds, wrap


def _reference_build_hamiltonian(model, dx, hbar, domain="periodic"):
    """The builder that added each off-diagonal term into both triangles and
    each term's wrap bond in a block of its own: the oracle of the bond band.
    Returns its bands diag, upper, lower, corner_ul = H[0, n-1] and corner_lr =
    H[n-1, 0] (both corners 0 on a fixed domain)."""
    w = model.w_profile
    a = model.a_profile
    q = model.q
    n = w.size
    m = -w
    periodic = domain == "periodic"
    c = 0.5 / m  # 1/(2m)
    k2 = hbar * hbar / (dx * dx)

    diag = np.zeros(n, dtype=complex)
    upper = np.zeros(n - 1, dtype=complex)
    lower = np.zeros(n - 1, dtype=complex)
    c_ul = 0.0 + 0.0j
    c_lr = 0.0 + 0.0j

    bonds, wrap = _reference_bond_average(c, periodic)
    diag[:-1] += k2 * bonds
    diag[1:] += k2 * bonds
    if periodic:
        diag[0] += k2 * wrap
        diag[-1] += k2 * wrap
        c_ul += -k2 * wrap
        c_lr += -k2 * wrap
    else:
        diag[0] += k2 * c[0]
        diag[-1] += k2 * c[-1]
    upper += -k2 * bonds
    lower += -k2 * bonds

    diag += w

    if model.kind is not QuantumKind.FreeVacuum:
        mprof = c * a
        coeff = q * hbar / (2.0 * dx)
        upper += 1j * coeff * (mprof[:-1] + mprof[1:])
        lower += -1j * coeff * (mprof[:-1] + mprof[1:])
        if periodic:
            c_lr += 1j * coeff * (mprof[-1] + mprof[0])
            c_ul += -1j * coeff * (mprof[0] + mprof[-1])
        diag += q * q * a * a * c

    if model.kind is QuantumKind.Modified:
        diag += -(q * q) * a * a * c
        g = 1.0 / (m * m * m)
        f = -(q * q) * 0.5 * k2
        diag[:] += f * a * a * g
        diag[1:] += f * a[1:] * a[1:] * g[:-1]
        upper -= f * a[:-1] * a[1:] * g[:-1]
        lower -= f * a[:-1] * a[1:] * g[:-1]
        if periodic:
            diag[0] += f * a[0] * a[0] * g[-1]
            c_lr -= f * a[-1] * a[0] * g[-1]
            c_ul -= f * a[-1] * a[0] * g[-1]

    return diag, upper, lower, complex(c_ul), complex(c_lr)


@st.composite
def hamiltonian_inputs(draw):
    """A model of every kind on random profiles with m = -W > 0, from n = 1 (at
    n = 1 and 2 the wrap bond joins the same pair as an interior bond), a grid,
    a domain and a dtau."""
    n = draw(st.integers(1, 40))
    m = np.array(draw(st.lists(st.floats(0.05, 20.0), min_size=n, max_size=n)))
    a = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    model = QuantumModel(draw(st.sampled_from(QuantumKind)), -m, a, q=draw(st.floats(-3.0, 3.0)))
    return (model, draw(st.floats(0.01, 1.0)), draw(st.floats(0.1, 2.0)), draw(st.sampled_from(DOMAINS)),
            draw(st.floats(1e-3, 1.0)))


def _bits(x) -> bytes:
    return np.asarray(x, dtype=complex).tobytes()


@settings(max_examples=400, deadline=None)
@given(hamiltonian_inputs())
def test_bond_band_builder_matches_the_two_triangle_builder(inputs):
    """diag, off[:n-1] and (periodic) off[-1] are byte-equal to the oracle's
    diag, upper and corner_lr; their conjugates, and z times them (what zgttrf
    factors), equal its lower and corner_ul in value, where conj turns the
    oracle's +0 imaginary parts into -0 and so, after z, the sign of a zero real
    part.  One Cayley step is byte-equal to the oracle's bands factored by the
    same LAPACK calls (zgttrf takes n >= 3)."""
    model, dx, hbar, domain, dtau = inputs
    want = _reference_build_hamiltonian(model, dx, hbar, domain)
    diag, upper, lower, corner_ul, corner_lr = want
    got = build_hamiltonian(model, dx, hbar, domain)
    n = got.n
    assert got.domain == domain and got.off.size == (n if domain == "periodic" else n - 1)
    assert _bits(got.diag) == _bits(diag)
    assert _bits(got.off[:n - 1]) == _bits(upper)
    if domain == "periodic":
        assert _bits(got.off[-1]) == _bits(corner_lr) and complex(got.off[-1]).conjugate() == corner_ul
    assert np.array_equal(got.off[:n - 1].conj(), lower)
    z = 1j * dtau / (2.0 * hbar)
    assert np.array_equal(z * got.off[:n - 1].conj(), z * lower)
    if n >= 3:
        psi = [1.0, 1j] @ np.random.default_rng(n).normal(size=(2, n))
        chi = _reference_cayley_solve(want, domain == "periodic", z, psi, solve=_lapack_solve)
        assert _bits(cn_step_psi(got, psi, dtau)) == _bits(2.0 * chi - psi)


def test_nonpositive_mass_rejected():
    with pytest.raises(NonPositiveMass):
        QuantumModel(QuantumKind.FreeVacuum, np.array([-1.0, 0.5, -1.0]), np.zeros(3))


def test_model_keeps_read_only_copies_of_its_profiles():
    """A caller's later write to its arrays cannot reach the checked model."""
    w, a = -np.ones(8), np.zeros(8)
    model = QuantumModel(QuantumKind.MinimalCoupling, w, a)
    w[3], a[3] = 1.0, 0.5
    assert np.all(model.w_profile == -1.0) and np.all(model.a_profile == 0.0)
    for profile in (model.w_profile, model.a_profile):
        with pytest.raises(ValueError):
            profile[0] = -2.0
    fresh = QuantumModel(QuantumKind.MinimalCoupling, -np.ones(8), np.zeros(8))
    dense = build_hamiltonian(model, 0.1, HBAR_DEFAULT).to_dense()
    assert np.array_equal(dense, build_hamiltonian(fresh, 0.1, HBAR_DEFAULT).to_dense())


def test_operator_rejects_an_unknown_domain():
    """build_hamiltonian is the one place a domain is named; an operator's band
    length is its domain, so a band of any other length is refused."""
    model = QuantumModel(QuantumKind.FreeVacuum, -np.ones(8), np.zeros(8))
    for domain in ("perodic", "Fixed", ""):
        with pytest.raises(ValueError, match="unknown domain"):
            build_hamiltonian(model, 0.1, HBAR_DEFAULT, domain)
    for diag, off in ((np.ones(8), np.ones(6)), (np.ones(8), np.ones(9)), (np.ones(8), np.ones((2, 4))),
                      (np.ones(0), np.ones(0)), (np.ones((2, 2)), np.ones(4))):
        with pytest.raises(ValueError, match=r"needs n bonds \(periodic\) or n - 1 \(fixed\)"):
            TridiagonalOperator(diag=diag, off=off, dx=0.1, hbar=HBAR_DEFAULT)
    for n, domain in ((8, "periodic"), (7, "fixed"), (1, "periodic"), (0, "fixed")):
        op = TridiagonalOperator(diag=np.ones(1 if n < 2 else 8), off=np.ones(n), dx=0.1, hbar=HBAR_DEFAULT)
        assert op.domain == domain


def test_constant_mass_reduces_to_textbook_operator():
    """With W constant the operator is the standard constant-mass kinetic
    tridiagonal plus the potential diagonal."""
    n, dx, hbar = 64, 0.1, HBAR_DEFAULT
    w0 = -1.3
    op = build_hamiltonian(
        QuantumModel(QuantumKind.FreeVacuum, np.full(n, w0), np.zeros(n)), dx, hbar, "fixed"
    )
    m = -w0
    coeff = hbar * hbar / (2.0 * m * dx * dx)
    textbook = (
        np.diag(np.full(n, 2.0 * coeff + w0))
        + np.diag(np.full(n - 1, -coeff), 1)
        + np.diag(np.full(n - 1, -coeff), -1)
    )
    npt.assert_allclose(op.to_dense(), textbook, atol=1e-15)


def test_cn_eigenvector_phase():
    """Cayley step on an eigenvector: exact phase factor, exact norm."""
    n = 128
    dx, w, a = quantum_profiles(n=n)
    op = build_hamiltonian(QuantumModel(QuantumKind.MinimalCoupling, w, a, q=0.8), dx, HBAR_DEFAULT)
    evals, evecs = np.linalg.eigh(op.to_dense())
    k = 7
    state = WaveState(psi=evecs[:, k], dx=dx, hbar=HBAR_DEFAULT).normalized()
    dtau = 0.05
    out = cn_step(op, state, dtau)
    z = 1j * dtau * evals[k] / (2.0 * HBAR_DEFAULT)
    expected = state.psi * (1.0 - z) / (1.0 + z)
    npt.assert_allclose(out.psi, expected, atol=1e-11)
    npt.assert_allclose(out.norm(), 1.0, atol=1e-13)


def test_norm_preserved_generic_state(rng):
    n = 256
    dx, w, a = quantum_profiles(n=n)
    op = build_hamiltonian(QuantumModel(QuantumKind.Modified, w, a, q=1.0), dx, HBAR_DEFAULT)
    state = gaussian_packet(n, dx, x0=0.5 * n * dx, sigma0=0.7, k0=3.0, hbar=HBAR_DEFAULT)
    out = evolve(op, state, 0.02, 200)
    assert abs(out.norm() - 1.0) <= 1e-12


def test_fixed_domain_norm_preserved():
    n = 256
    dx = 0.05
    w = -np.ones(n)
    op = build_hamiltonian(QuantumModel(QuantumKind.FreeVacuum, w, np.zeros(n)), dx, HBAR_DEFAULT, "fixed")
    state = gaussian_packet(n, dx, x0=0.5 * n * dx, sigma0=0.5, k0=0.0, hbar=HBAR_DEFAULT)
    out = evolve(op, state, 0.01, 100)
    assert abs(out.norm() - 1.0) <= 1e-12


def test_free_packet_dispersion_short():
    n = 1024
    length = 30.0
    dx = length / n
    sigma0 = 0.5
    op = build_hamiltonian(
        QuantumModel(QuantumKind.FreeVacuum, -np.ones(n), np.zeros(n)), dx, HBAR_DEFAULT, "fixed"
    )
    state = gaussian_packet(n, dx, x0=15.0, sigma0=sigma0, k0=0.0, hbar=HBAR_DEFAULT)
    tau = 8.0
    out = evolve(op, state, 0.0025, int(tau / 0.0025))
    predicted = free_packet_sigma(tau, sigma0, 1.0, HBAR_DEFAULT)
    assert abs(packet_sigma(out) - predicted) / predicted <= 0.01


def test_dispersion_check_examples():
    exact, truncated, err = dispersion_check(0.0, -1.0, HBAR_DEFAULT)
    assert exact == truncated == -1.0 and err == 0.0
    exact, truncated, err = dispersion_check(4.0, -1.0, 0.05)  # hbar k = 0.2
    npt.assert_allclose(exact, -0.9797958971, rtol=1e-9)
    npt.assert_allclose(truncated, -0.98, rtol=1e-15)
    npt.assert_allclose(err, 2.041028867e-4, rtol=1e-8)
    npt.assert_allclose(err, 0.2**4 / 8.0, rtol=0.05)  # quartic remainder scale
    with pytest.raises(SuperluminalMode):
        dispersion_check(25.0, -1.0, 0.05)
    with pytest.raises(ValueError):
        dispersion_check(1.0, 1.0, 0.05)


def test_dispersion_quartic_scaling():
    errs = [dispersion_check(hk / 0.05, -1.0, 0.05)[2] for hk in (0.05, 0.1, 0.2)]
    assert 14.0 <= errs[2] / errs[1] <= 18.0
    assert 14.0 <= errs[1] / errs[0] <= 18.0


def test_model_gap_zero_cases():
    n = 256
    dx = 2 * np.pi / n
    state = plane_wave(n, dx, 3, HBAR_DEFAULT)
    w = -np.ones(n)
    assert model_gap(state, w, np.zeros(n), 1.0) == 0.0
    assert model_gap(state, w, np.full(n, 0.2), 0.0) == 0.0


def test_model_gap_plane_wave_closed_form():
    n = 8192
    dx = 2 * np.pi / n
    mode = 4
    state = plane_wave(n, dx, mode, HBAR_DEFAULT)
    k = 2 * np.pi * mode / (n * dx)
    a, q = 0.1, 1.0
    gap = model_gap(state, -np.ones(n), np.full(n, a), q)
    closed = q * q * a * a / 2.0 * (1.0 + (HBAR_DEFAULT * k) ** 2)
    npt.assert_allclose(gap, closed, atol=2e-10)


def _hand_built(domain, diag, off=0.0, corner=0.0):
    """An operator with every interior bond off and, on a periodic domain, the wrap bond corner."""
    n = len(diag)
    offs = np.full(n if domain == "periodic" else n - 1, off, dtype=complex)
    if domain == "periodic":
        offs[-1] = corner
    return TridiagonalOperator(diag=diag, off=offs, dx=0.1, hbar=1.0)


def test_solver_failure_paths():
    # dtau = 2, hbar = 1: z = i dtau / (2 hbar) = i, so 1 + z H is 1 + i H
    n, dtau = 8, 2.0
    # diag i: the Cayley matrix is all zeros and its banded factor is singular
    singular = _hand_built("fixed", np.full(n, 1j))
    # diag ends 1 + i, wrap bond 1: rows 0 and n-1 of 1 + z H are both
    # (i, 0, ..., 0, i), so the Sherman-Morrison denominator is exactly zero
    ends = np.zeros(n, dtype=complex)
    ends[[0, -1]] = 1.0 + 1.0j
    cyclic = _hand_built("periodic", ends, corner=1.0)
    for op, reason in ((singular, "banded factor failed"), (cyclic, "cyclic correction singular")):
        state = WaveState(psi=np.ones(n), dx=op.dx, hbar=op.hbar)
        for _ in range(2):  # a failed factor is not cached: the second call fails as well
            with pytest.raises(SolveFailure, match=reason):
                cn_step(op, state, dtau)
        assert op.stats == {"cn_steps": 0, "factorizations": 0}


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_cn_step_on_the_smallest_grids(domain, n):
    """Under 3 points the Cayley factor raises SolveFailure naming the point
    count (scipy's zgttrf raised a bare ValueError), on each call, since a
    failed factor is not kept; at 3 points the step runs."""
    w = -np.ones(n)
    op = build_hamiltonian(QuantumModel(QuantumKind.FreeVacuum, w, np.zeros(n)), 0.1, HBAR_DEFAULT, domain)
    psi = np.ones(n, dtype=complex)
    if n < 3:
        for _ in range(2):
            with pytest.raises(SolveFailure, match=f"at least 3 points, got {n}"):
                cn_step_psi(op, psi, 0.01)
        assert op.stats == {"cn_steps": 0, "factorizations": 0}
    else:
        out = cn_step_psi(op, psi, 0.01)
        assert np.isclose(np.linalg.norm(out), np.linalg.norm(psi), rtol=1e-12)
        assert op.stats == {"cn_steps": 1, "factorizations": 1}


def test_non_finite_state_fails():
    op = _hand_built("periodic", np.ones(6), off=0.5, corner=0.5)
    for bad in (np.nan, complex(1.0, np.nan), complex(1.0, np.inf)):
        psi = np.ones(6, dtype=complex)
        psi[2] = bad
        with pytest.raises(SolveFailure):
            cn_step(op, WaveState(psi=psi, dx=op.dx, hbar=op.hbar), 0.1)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_imaginary_part_fails(monkeypatch, bad):
    """The solve's check reads both parts of each value: a solution whose only
    non-finite entry is one imaginary part raises.  A real solve never gives one
    (its non-finite entries spread to the real parts), so zgttrs is wrapped."""
    solve = lapack.zgttrs

    def zgttrs(*args):
        x, info = solve(*args)
        x[3] = complex(x[3].real, bad)
        assert np.isfinite(x.real).all()
        return x, info

    monkeypatch.setattr(quantum, "lapack", lambda: SimpleNamespace(zgttrf=lapack.zgttrf, zgttrs=zgttrs))
    op = _hand_built("fixed", np.ones(6), off=0.5)
    with pytest.raises(SolveFailure):
        cn_step(op, WaveState(psi=np.ones(6), dx=op.dx, hbar=op.hbar), 0.1)
    assert op.stats == {"cn_steps": 0, "factorizations": 1}


def test_operator_bands_are_read_only():
    """Both bands are read-only copies: a caller's later write to the array it
    passed (a view of a writable array included) cannot reach the operator, whose factors it caches."""
    dx, w, a = quantum_profiles(n=32)
    op = build_hamiltonian(QuantumModel(QuantumKind.Modified, w, a), dx, HBAR_DEFAULT)
    for band in (op.diag, op.off):
        with pytest.raises(ValueError):
            band[0] = 1.0
    base = np.ones(8, dtype=complex)
    diag = np.full(8, 2.0 + 0j)
    op = TridiagonalOperator(diag=diag, off=base[:7], dx=0.1, hbar=1.0)
    base[:], diag[:] = 5.0, 3.0
    assert np.all(op.off == 1.0) and np.all(op.diag == 2.0)


# -- the cached factor against a fresh banded solve per step ----------------------


def _reference_solve(lower, diag, upper, rhs):
    ab = np.zeros((3, diag.size), dtype=complex)
    ab[0, 1:] = upper
    ab[1, :] = diag
    ab[2, :-1] = lower
    try:
        x = solve_banded((1, 1), ab, rhs)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SolveFailure(f"banded solve failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SolveFailure("banded solve produced non-finite values")
    return x


def _lapack_solve(lower, diag, upper, rhs):
    """The banded factor and solve of quantum's Cayley factor, made afresh."""
    return quantum._gttrs(quantum._gttrf(lower, diag, upper), rhs)


def _two_triangles(op):
    """An operator's off band read as the two-triangle bands diag, upper,
    lower, corner_ul and corner_lr (the corners 0 on a fixed domain)."""
    upper = op.off[:op.n - 1]
    corner = complex(op.off[-1]) if op.domain == "periodic" else 0j
    return op.diag, upper, upper.conj(), corner.conjugate(), corner


def _reference_cayley_solve(bands, periodic, z, rhs, solve=_reference_solve):
    """x with (1 + zH) x = rhs for the two-triangle bands of H, assembled and
    solved afresh: one banded solve, and on a periodic domain a second one for
    the Sherman-Morrison corner correction."""
    diag, upper, lower, corner_ul, corner_lr = bands
    diag = 1.0 + z * diag
    upper = z * upper
    lower = z * lower
    if not periodic:
        return solve(lower, diag, upper, rhs)
    c_ul, c_lr = z * corner_ul, z * corner_lr
    gamma = -diag[0] if diag[0] != 0.0 else 1.0
    d = diag.copy()
    d[0] -= gamma
    d[-1] -= c_ul * c_lr / gamma
    y = solve(lower, d, upper, rhs)
    u = np.zeros(diag.size, dtype=complex)
    u[0] = gamma
    u[-1] = c_lr
    zz = solve(lower, d, upper, u)
    vy = y[0] + (c_ul / gamma) * y[-1]
    vz = zz[0] + (c_ul / gamma) * zz[-1]
    denom = 1.0 + vz
    if denom == 0.0 or not np.isfinite(denom):
        raise SolveFailure("cyclic correction singular")
    return y - zz * (vy / denom)


def _reference_cn_step(op, state, dtau):
    """The Cayley step as 2 chi - psi, with (1 + zH) chi = psi solved afresh."""
    z = 1j * dtau / (2.0 * op.hbar)
    chi = _reference_cayley_solve(_two_triangles(op), op.domain == "periodic", z, state.psi)
    return replace(state, psi=2.0 * chi - state.psi)


@st.composite
def hermitian_problems(draw):
    n = draw(st.integers(3, 40))
    domain = draw(st.sampled_from(["periodic", "fixed"]))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.floats(0.1, 100.0))
    dtau = draw(st.floats(1e-3, 10.0))
    steps = draw(st.integers(1, 4))
    rng = np.random.default_rng(seed)
    bonds = n if domain == "periodic" else n - 1
    off = scale * (rng.normal(size=bonds) + 1j * rng.normal(size=bonds))
    op = TridiagonalOperator(diag=scale * rng.normal(size=n), off=off, dx=0.1, hbar=HBAR_DEFAULT)
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return op, WaveState(psi=psi, dx=0.1, hbar=HBAR_DEFAULT), dtau, steps


@settings(max_examples=200)
@given(hermitian_problems())
def test_cn_step_matches_fresh_banded_solve(problem):
    op, state, dtau, steps = problem
    got = want = state
    for _ in range(steps):
        got = cn_step(op, got, dtau)
        want = _reference_cn_step(op, want, dtau)
        assert np.array_equal(got.psi, want.psi)
    assert np.array_equal(evolve(op, state, dtau, steps).psi, want.psi)
    assert op.stats == {"cn_steps": 2 * steps, "factorizations": 1}


@settings(max_examples=200)
@given(hermitian_problems())
def test_cn_step_matches_the_right_hand_side_form(problem):
    """2 (1 + zH)^-1 psi - psi against the solve of (1 + zH) psi' = (1 - zH) psi,
    step by step, within 1e-14 (1 + |z| ||H||_inf) max|psi| (a sweep of 3,000
    draws: at most 8.2e-16 on that scale)."""
    op, state, dtau, steps = problem
    z = 1j * dtau / (2.0 * op.hbar)
    h_inf = np.abs(op.to_dense()).sum(axis=1).max()
    psi = state.psi
    for _ in range(steps):
        want = _reference_cayley_solve(_two_triangles(op), op.domain == "periodic", z, psi - z * op.apply(psi))
        got = cn_step_psi(op, psi, dtau)
        assert np.max(np.abs(got - want)) <= 1e-14 * (1.0 + abs(z) * h_inf) * np.max(np.abs(psi))
        psi = got


def test_norm_drift_report_matches_state_stepping():
    """The report steps raw samples; the old loop over WaveState steps is the oracle."""
    dx, w, a = quantum_profiles()
    want = {}
    for kind in QuantumKind:
        prof_a = np.zeros(w.size) if kind is QuantumKind.FreeVacuum else a
        op = build_hamiltonian(QuantumModel(kind, w, prof_a, q=1.0), dx, HBAR_DEFAULT)
        state = gaussian_packet(w.size, dx, x0=0.5 * w.size * dx, sigma0=0.8, k0=2.0, hbar=HBAR_DEFAULT)
        worst = 0.0
        for _ in range(20):
            state = cn_step(op, state, 0.01)
            worst = max(worst, abs(state.norm() - 1.0))
        want[kind.value] = worst
    assert verify.norm_drift_report(steps=20) == want


def test_interleaved_dtau_match_fresh_operators():
    n = 96
    dx, w, a = quantum_profiles(n=n)
    model = QuantumModel(QuantumKind.MinimalCoupling, w, a)
    packet = gaussian_packet(n, dx, x0=0.5 * n * dx, sigma0=0.8, k0=2.0, hbar=HBAR_DEFAULT)
    shared = build_hamiltonian(model, dx, HBAR_DEFAULT)
    fresh = {dtau: build_hamiltonian(model, dx, HBAR_DEFAULT) for dtau in (0.01, 0.03)}
    got = dict.fromkeys(fresh, packet)
    want = dict(got)
    for _ in range(5):
        for dtau in fresh:
            got[dtau] = cn_step(shared, got[dtau], dtau)
            want[dtau] = cn_step(fresh[dtau], want[dtau], dtau)
    for dtau in fresh:
        assert np.array_equal(got[dtau].psi, want[dtau].psi)
    assert shared.stats == {"cn_steps": 10, "factorizations": 2}


# -- many Cayley steps as one power in the sine basis ------------------------------


@st.composite
def toeplitz_problems(draw):
    """A constant-mass free-vacuum operator on a fixed domain, a random state, dtau and steps."""
    n = draw(st.integers(3, 300))
    w = draw(st.floats(-3.0, -0.2))
    op = build_hamiltonian(QuantumModel(QuantumKind.FreeVacuum, np.full(n, w), np.zeros(n)),
                           draw(st.floats(0.01, 1.0)), HBAR_DEFAULT, "fixed")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return op, psi, draw(st.floats(1e-3, 10.0)), draw(st.integers(0, 300))


@settings(max_examples=100, deadline=None)
@given(toeplitz_problems())
def test_cayley_power_is_stepping(problem):
    """cayley_power against steps calls of cn_step_psi, within 3e-14 (steps + 1)
    max|psi| (a sweep of 1,500 draws: at most 6.5e-15 on that scale)."""
    op, psi, dtau, steps = problem
    want = psi
    for _ in range(steps):
        want = cn_step_psi(op, want, dtau)
    got = cayley_power(op, psi, dtau, steps)
    assert np.max(np.abs(got - want)) <= 3e-14 * (steps + 1) * np.max(np.abs(psi))
    assert op.stats == {"cn_steps": 2 * steps, "factorizations": int(steps > 0)}


def test_cayley_power_refuses_what_the_sine_basis_cannot_diagonalize():
    n, dx = 32, 0.1
    free = QuantumModel(QuantumKind.FreeVacuum, -np.ones(n), np.zeros(n))
    varying = QuantumModel(QuantumKind.FreeVacuum, -np.linspace(1.0, 2.0, n), np.zeros(n))
    coupled = QuantumModel(QuantumKind.MinimalCoupling, -np.ones(n), np.full(n, 0.3))
    cases = [(build_hamiltonian(free, dx, HBAR_DEFAULT, "periodic"), 10, "needs a fixed domain"),
             (build_hamiltonian(varying, dx, HBAR_DEFAULT, "fixed"), 10, "needs constant bands"),
             (build_hamiltonian(coupled, dx, HBAR_DEFAULT, "fixed"), 10, "needs real bands"),
             # the phase of a negative count runs the packet backwards, where steps cn_step calls take none
             (build_hamiltonian(free, dx, HBAR_DEFAULT, "fixed"), -1, "needs steps >= 0, got -1")]
    for op, steps, reason in cases:
        with pytest.raises(ValueError, match=reason):
            cayley_power(op, np.ones(n, dtype=complex), 0.01, steps)
        assert op.stats == {"cn_steps": 0, "factorizations": 0}
    with pytest.raises(ValueError, match="needs steps >= 0, got -6000"):
        verify.packet_dispersion_report(tau_end=-15.0)


def test_packet_report_matches_the_stepped_loop():
    """Criterion 10's packet: the one-power report against the 6,000-step cn_step
    loop it replaced, within 1e-12 relative."""
    op = build_hamiltonian(QuantumModel(QuantumKind.FreeVacuum, -np.ones(4096), np.zeros(4096)),
                           40.0 / 4096, HBAR_DEFAULT, "fixed")
    state = gaussian_packet(4096, 40.0 / 4096, x0=20.0, sigma0=0.5, k0=0.0, hbar=HBAR_DEFAULT)
    for _ in range(6000):
        state = cn_step(op, state, 0.0025)
    want = packet_sigma(state)
    report = verify.packet_dispersion_report()
    assert abs(report["measured"] - want) <= 1e-12 * want
    assert report["stats"] == {"cn_steps": 6000, "factorizations": 0}


def test_cli_snapshot_unchanged(tmp_path):
    """The `vacuumflow quantum` 200-step snapshot equals the fresh-solve oracle's,
    and the packet report counts its steps and, taking them in the sine basis,
    no factorization."""
    from vacuumflow.cli import main

    cfg = tmp_path / "q.json"
    cfg.write_text('{"name": "q", "quantum": {"steps": 1}}')
    assert main(["quantum", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    dx, w, a = quantum_profiles()
    op = build_hamiltonian(QuantumModel(QuantumKind.MinimalCoupling, w, a, q=1.0), dx, HBAR_DEFAULT)
    state = gaussian_packet(w.size, dx, x0=0.5 * w.size * dx, sigma0=0.8, k0=2.0, hbar=HBAR_DEFAULT)
    for _ in range(200):
        state = _reference_cn_step(op, state, 0.01)
    snapshot_csv(state, tmp_path / "want.csv")
    assert (tmp_path / "q_snapshot.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    packet = json.loads((tmp_path / "q_quantum.json").read_text())["packet"]
    assert packet["stats"] == {"cn_steps": 6000, "factorizations": 0}


def test_snapshot_csv(tmp_path):
    state = gaussian_packet(64, 0.1, x0=3.2, sigma0=0.5, k0=1.0, hbar=HBAR_DEFAULT)
    path = tmp_path / "snap.csv"
    snapshot_csv(state, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "x,re_psi,im_psi,density"
    assert len(rows) == 65

    # byte-identical to csv.writer rows of f"{v:.17g}" cells, on special values too
    import csv

    special = [-0.0, 5e-324, 1e300, float("nan")]
    psi = [complex(a, b) for a in special for b in special]
    for st_ in (state, WaveState(psi=psi, dx=5e-324, hbar=0.1), WaveState(psi=psi[::-1], dx=1e300, hbar=0.1)):
        ref = tmp_path / "ref.csv"
        with np.errstate(over="ignore"):  # |1e300|^2
            snapshot_csv(st_, path)
            with open(ref, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(("x", "re_psi", "im_psi", "density"))
                for x, p in zip(st_.x, st_.psi):
                    writer.writerow([f"{x:.17g}", f"{p.real:.17g}", f"{p.imag:.17g}", f"{abs(p) ** 2:.17g}"])
        assert path.read_bytes() == ref.read_bytes()


def test_wave_state_normalization():
    state = WaveState(psi=np.full(100, 3.0 + 0j), dx=0.01, hbar=0.05)
    assert abs(state.normalized().norm() - 1.0) <= 1e-12
    with pytest.raises(ValueError, match="unknown domain 'weird'"):
        build_hamiltonian(QuantumModel(QuantumKind.FreeVacuum, -np.ones(4), np.zeros(4)), 0.1, 0.05, "weird")
