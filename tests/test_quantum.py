import json
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from vacuumflow import verify
from vacuumflow.errors import NonPositiveMass, SolveFailure, SuperluminalMode
from vacuumflow.presets import HBAR_DEFAULT, quantum_profiles
from vacuumflow.quantum import (
    QuantumKind,
    QuantumModel,
    TridiagonalOperator,
    WaveState,
    build_hamiltonian,
    cn_step,
    dispersion_check,
    evolve,
    free_packet_sigma,
    gaussian_packet,
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


def test_hermiticity_all_models(rng):
    n = 192
    dx, w, a = quantum_profiles(n=n)
    for domain in ("periodic", "fixed"):
        for kind in QuantumKind:
            op = build_hamiltonian(QuantumModel(kind, w, a, q=0.9), dx, HBAR_DEFAULT, domain)
            dense = op.to_dense()
            npt.assert_allclose(dense, dense.conj().T, atol=1e-14)
            for _ in range(5):
                phi = rng.normal(size=n) + 1j * rng.normal(size=n)
                psi = rng.normal(size=n) + 1j * rng.normal(size=n)
                lhs = np.vdot(phi, op.apply(psi))
                rhs = np.conj(np.vdot(psi, op.apply(phi)))
                npt.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_nonpositive_mass_rejected():
    with pytest.raises(NonPositiveMass):
        QuantumModel(QuantumKind.FreeVacuum, np.array([-1.0, 0.5, -1.0]), np.zeros(3))


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
    state = gaussian_packet(n, dx, x0=0.5 * n * dx, sigma0=0.5, k0=0.0, hbar=HBAR_DEFAULT, domain="fixed")
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
    state = gaussian_packet(n, dx, x0=15.0, sigma0=sigma0, k0=0.0, hbar=HBAR_DEFAULT, domain="fixed")
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
    n = len(diag)
    offs = np.full(n - 1, off, dtype=complex)
    return TridiagonalOperator(diag=diag, upper=offs, lower=offs.copy(),
                               corner_ul=corner, corner_lr=corner, dx=0.1, hbar=1.0, domain=domain)


def test_solver_failure_paths():
    # dtau = 2, hbar = 1: z = i dtau / (2 hbar) = i, so 1 + z H is 1 + i H
    n, dtau = 8, 2.0
    # diag i: the Cayley matrix is all zeros and its banded factor is singular
    singular = _hand_built("fixed", np.full(n, 1j))
    # diag 0, corners 1/z: rows 0 and n-1 of 1 + z H are equal, so the
    # Sherman-Morrison denominator is exactly zero
    cyclic = _hand_built("periodic", np.zeros(n), corner=-1j)
    for op in (singular, cyclic):
        state = WaveState(psi=np.ones(n), dx=op.dx, hbar=op.hbar, domain=op.domain)
        for _ in range(2):  # a failed factor is not cached: the second call fails as well
            with pytest.raises(SolveFailure):
                cn_step(op, state, dtau)
        assert op.stats == {"cn_steps": 0, "factorizations": 0}


def test_non_finite_state_fails():
    op = _hand_built("periodic", np.ones(6), off=0.5, corner=0.5)
    psi = np.ones(6, dtype=complex)
    psi[2] = np.nan
    with pytest.raises(SolveFailure):
        cn_step(op, WaveState(psi=psi, dx=op.dx, hbar=op.hbar), 0.1)


def test_operator_bands_are_read_only():
    dx, w, a = quantum_profiles(n=32)
    op = build_hamiltonian(QuantumModel(QuantumKind.Modified, w, a), dx, HBAR_DEFAULT)
    for band in (op.diag, op.upper, op.lower):
        with pytest.raises(ValueError):
            band[0] = 1.0


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


def _reference_cn_step(op, state, dtau):
    """The Cayley step that assembles and solves 1 + zH afresh (two banded solves
    with the Sherman-Morrison corner correction on a periodic domain)."""
    z = 1j * dtau / (2.0 * op.hbar)
    rhs = state.psi - z * op.apply(state.psi)
    diag = 1.0 + z * op.diag
    upper = z * op.upper
    lower = z * op.lower
    if op.domain != "periodic":
        return replace(state, psi=_reference_solve(lower, diag, upper, rhs))
    c_ul, c_lr = z * op.corner_ul, z * op.corner_lr
    gamma = -diag[0] if diag[0] != 0.0 else 1.0
    d = diag.copy()
    d[0] -= gamma
    d[-1] -= c_ul * c_lr / gamma
    y = _reference_solve(lower, d, upper, rhs)
    u = np.zeros(diag.size, dtype=complex)
    u[0] = gamma
    u[-1] = c_lr
    zz = _reference_solve(lower, d, upper, u)
    vy = y[0] + (c_ul / gamma) * y[-1]
    vz = zz[0] + (c_ul / gamma) * zz[-1]
    denom = 1.0 + vz
    if denom == 0.0 or not np.isfinite(denom):
        raise SolveFailure("cyclic correction singular")
    return replace(state, psi=y - zz * (vy / denom))


@st.composite
def hermitian_problems(draw):
    n = draw(st.integers(3, 40))
    domain = draw(st.sampled_from(["periodic", "fixed"]))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.floats(0.1, 100.0))
    dtau = draw(st.floats(1e-3, 10.0))
    steps = draw(st.integers(1, 4))
    rng = np.random.default_rng(seed)
    upper = scale * (rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1))
    corner = complex(scale * (rng.normal() + 1j * rng.normal()))
    op = TridiagonalOperator(
        diag=scale * rng.normal(size=n), upper=upper, lower=upper.conj(),
        corner_ul=corner, corner_lr=corner.conjugate(), dx=0.1, hbar=HBAR_DEFAULT, domain=domain,
    )
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return op, WaveState(psi=psi, dx=0.1, hbar=HBAR_DEFAULT, domain=domain), dtau, steps


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
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


def test_cli_snapshot_unchanged(tmp_path):
    """The `vacuumflow quantum` 200-step snapshot equals the fresh-solve oracle's,
    and the packet report counts its steps and its one factorization."""
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
    assert packet["stats"] == {"cn_steps": 6000, "factorizations": 1}


def test_snapshot_csv(tmp_path):
    state = gaussian_packet(64, 0.1, x0=3.2, sigma0=0.5, k0=1.0, hbar=HBAR_DEFAULT)
    path = tmp_path / "snap.csv"
    snapshot_csv(state, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "x,re_psi,im_psi,density"
    assert len(rows) == 65


def test_wave_state_normalization():
    state = WaveState(psi=np.full(100, 3.0 + 0j), dx=0.01, hbar=0.05)
    assert abs(state.normalized().norm() - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        WaveState(psi=np.ones(4), dx=0.1, hbar=0.05, domain="weird")
