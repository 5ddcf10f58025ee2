"""1-D quantized Hamiltonians and Crank-Nicolson evolution in proper time.

Three operators on a uniform grid (spacing dx, periodic or fixed ends):

  free vacuum       H = p (1/2m) p + W
  minimal coupling  H = (p - qA) (1/2m) (p - qA) + W, expanded and symmetrized
  modified          minimal coupling  - q^2 A^2/(2m)  - (q^2/2) (A p) m^-3 (p A)

with m(x) = -W(x) > 0.  The quadratic-in-p pieces use the compact
forward/backward divergence form (coefficients averaged onto bonds), the cross
term uses the centered first difference symmetrized as p M + M p; everything is
tridiagonal (plus cyclic corners) and Hermitian by construction, so the Cayley
step (1 + i dtau H / 2 hbar) psi' = (1 - i dtau H / 2 hbar) psi is unitary.

The Cayley matrix is the same at every step, so each operator factors it once
per dtau (LAPACK zgttrf) and every step back-substitutes (zgttrs); on a
periodic domain the cyclic corners go through a Sherman-Morrison correction
(Numerical Recipes 2.7) whose pieces are computed with the factor.  The
result is bit-identical to a fresh tridiagonal solve (gtsv) at every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np
from scipy.linalg import lapack

from .errors import NonPositiveMass, SolveFailure, SuperluminalMode


class QuantumKind(Enum):
    FreeVacuum = "free_vacuum"
    MinimalCoupling = "minimal_coupling"
    Modified = "modified"


def l2_norm(psi: np.ndarray, dx: float) -> float:
    """sqrt(sum |psi|^2 dx) of grid samples."""
    return math.sqrt(float(np.sum(np.abs(psi) ** 2)) * dx)


@dataclass(frozen=True)
class WaveState:
    """Complex samples on a uniform 1-D grid with hbar and grid metadata."""

    psi: np.ndarray
    dx: float
    hbar: float
    domain: str = "periodic"  # "periodic" | "fixed"
    x0: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "psi", np.asarray(self.psi, dtype=complex))
        if self.dx <= 0.0 or self.hbar <= 0.0:
            raise ValueError("WaveState needs dx > 0 and hbar > 0")
        if self.domain not in ("periodic", "fixed"):
            raise ValueError(f"unknown domain {self.domain!r}")

    @property
    def n(self) -> int:
        return self.psi.size

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)

    def norm(self) -> float:
        return l2_norm(self.psi, self.dx)

    def normalized(self) -> "WaveState":
        return replace(self, psi=self.psi / self.norm())


@dataclass(frozen=True)
class QuantumModel:
    """Operator choice plus the sampled W(x), A(x) profiles and the charge."""

    kind: QuantumKind
    w_profile: np.ndarray
    a_profile: np.ndarray
    q: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "w_profile", np.asarray(self.w_profile, dtype=float))
        object.__setattr__(self, "a_profile", np.asarray(self.a_profile, dtype=float))
        if self.w_profile.shape != self.a_profile.shape:
            raise ValueError("w_profile and a_profile must have the same length")
        m = -self.w_profile
        if np.any(m <= 0.0):
            raise NonPositiveMass(f"mass profile min(-W) = {m.min():g} <= 0")


@dataclass(frozen=True)
class TridiagonalOperator:
    """Hermitian tridiagonal operator, with cyclic corners on a periodic domain.

    The band arrays are read-only, so the Crank-Nicolson factors cached per
    dtau cannot go stale.  ``stats`` counts the Cayley steps taken and the
    factorizations made with this operator.
    """

    diag: np.ndarray        # (n,)
    upper: np.ndarray       # (n-1,), element [j, j+1]
    lower: np.ndarray       # (n-1,), element [j+1, j]
    corner_ul: complex      # [0, n-1]
    corner_lr: complex      # [n-1, 0]
    dx: float
    hbar: float
    domain: str
    stats: dict = field(default_factory=lambda: {"cn_steps": 0, "factorizations": 0},
                        init=False, repr=False, compare=False)
    _factors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("diag", "upper", "lower"):
            band = np.asarray(getattr(self, name), dtype=complex)
            band.setflags(write=False)
            object.__setattr__(self, name, band)

    @property
    def n(self) -> int:
        return self.diag.size

    def apply(self, psi: np.ndarray) -> np.ndarray:
        out = self.diag * psi
        out[:-1] += self.upper * psi[1:]
        out[1:] += self.lower * psi[:-1]
        if self.domain == "periodic":
            out[0] += self.corner_ul * psi[-1]
            out[-1] += self.corner_lr * psi[0]
        return out

    def to_dense(self) -> np.ndarray:
        m = np.diag(self.diag) + np.diag(self.upper, 1) + np.diag(self.lower, -1)
        if self.domain == "periodic":
            m[0, -1] += self.corner_ul
            m[-1, 0] += self.corner_lr
        return m


def _bond_average(c: np.ndarray, periodic: bool) -> tuple[np.ndarray, float]:
    """Coefficients on bonds j <-> j+1; also the wrap bond for periodic grids."""
    bonds = 0.5 * (c[:-1] + c[1:])
    wrap = 0.5 * (c[-1] + c[0]) if periodic else 0.0
    return bonds, wrap


def build_hamiltonian(model: QuantumModel, dx: float, hbar: float, domain: str = "periodic") -> TridiagonalOperator:
    """Discrete Hamiltonian for the given model on an n-point grid."""
    w = model.w_profile
    a = model.a_profile
    q = model.q
    n = w.size
    m = -w
    if np.any(m <= 0.0):
        raise NonPositiveMass(f"mass profile min(-W) = {m.min():g} <= 0")
    periodic = domain == "periodic"
    c = 0.5 / m  # 1/(2m)
    k2 = hbar * hbar / (dx * dx)

    diag = np.zeros(n, dtype=complex)
    upper = np.zeros(n - 1, dtype=complex)
    lower = np.zeros(n - 1, dtype=complex)
    c_ul = 0.0 + 0.0j
    c_lr = 0.0 + 0.0j

    # kinetic divergence form p c p
    bonds, wrap = _bond_average(c, periodic)
    diag[:-1] += k2 * bonds
    diag[1:] += k2 * bonds
    if periodic:
        diag[0] += k2 * wrap
        diag[-1] += k2 * wrap
        c_ul += -k2 * wrap
        c_lr += -k2 * wrap
    else:
        # one-sided wall bonds against the Dirichlet ghosts
        diag[0] += k2 * c[0]
        diag[-1] += k2 * c[-1]
    upper += -k2 * bonds
    lower += -k2 * bonds

    # potential
    diag += w

    if model.kind is not QuantumKind.FreeVacuum:
        # minimal coupling: -q (p cA + cA p) + q^2 A^2 c
        mprof = c * a
        coeff = q * hbar / (2.0 * dx)
        upper += 1j * coeff * (mprof[:-1] + mprof[1:])
        lower += -1j * coeff * (mprof[:-1] + mprof[1:])
        if periodic:
            c_lr += 1j * coeff * (mprof[-1] + mprof[0])
            c_ul += -1j * coeff * (mprof[0] + mprof[-1])
        diag += q * q * a * a * c

    if model.kind is QuantumKind.Modified:
        # -q^2 <A,A>/(2m): cancels the diagonal from the expanded square
        diag += -(q * q) * a * a * c
        # -(q^2/2) (A p) m^-3 (p A), forward/backward sandwich: the bond terms of
        # C^dag g C come with the opposite sign from its diagonal
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

    return TridiagonalOperator(
        diag=diag, upper=upper, lower=lower, corner_ul=complex(c_ul), corner_lr=complex(c_lr),
        dx=dx, hbar=hbar, domain=domain,
    )


# -- Crank-Nicolson ------------------------------------------------------------


class _CayleyFactor:
    """zgttrf factor of 1 + zH; on a periodic domain, of its banded part A' plus
    the Sherman-Morrison pieces corr = A'^-1 u, c_ul/gamma and 1 + v.corr."""

    def __init__(self, op: TridiagonalOperator, z: complex):
        diag = 1.0 + z * op.diag
        upper = z * op.upper
        lower = z * op.lower
        self.corr = None
        if op.domain != "periodic":
            self.lu = _gttrf(lower, diag, upper)
            return
        c_ul, c_lr = z * op.corner_ul, z * op.corner_lr
        gamma = -diag[0] if diag[0] != 0.0 else 1.0
        diag[0] -= gamma
        diag[-1] -= c_ul * c_lr / gamma
        self.lu = _gttrf(lower, diag, upper)
        u = np.zeros(diag.size, dtype=complex)
        u[0] = gamma
        u[-1] = c_lr
        corr = _gttrs(self.lu, u)
        self.ratio = c_ul / gamma
        self.denom = 1.0 + (corr[0] + self.ratio * corr[-1])
        if self.denom == 0.0 or not np.isfinite(self.denom):
            raise SolveFailure("cyclic correction singular (dtau too large for the spectrum?)")
        self.corr = corr

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x = _gttrs(self.lu, rhs)
        if self.corr is not None:
            vy = x[0] + self.ratio * x[-1]
            x = x - self.corr * (vy / self.denom)
        return x


def _gttrf(lower, diag, upper):
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(upper)) and np.all(np.isfinite(lower))):
        raise SolveFailure("banded factor: the Cayley matrix has non-finite entries")
    dl, d, du, du2, ipiv, info = lapack.zgttrf(lower, diag, upper)
    if info != 0:
        raise SolveFailure(f"banded factor failed: zgttrf info = {info} (singular system)")
    return dl, d, du, du2, ipiv


def _gttrs(lu, rhs):
    x, info = lapack.zgttrs(*lu, rhs)
    if info != 0 or not np.all(np.isfinite(x)):
        raise SolveFailure("banded solve produced non-finite values (singular system)")
    return x


def cn_step_psi(op: TridiagonalOperator, psi: np.ndarray, dtau: float) -> np.ndarray:
    """One Cayley step of the samples: (1 + i dtau H/2hbar) psi' = (1 - i dtau H/2hbar) psi.

    The first step with a given dtau factors the matrix; later ones reuse it.
    A factor that fails raises SolveFailure and is not kept.
    """
    z = 1j * dtau / (2.0 * op.hbar)
    rhs = psi - z * op.apply(psi)
    factor = op._factors.get(dtau)
    if factor is None:
        factor = _CayleyFactor(op, z)
        op._factors[dtau] = factor
        op.stats["factorizations"] += 1
    psi1 = factor.solve(rhs)
    op.stats["cn_steps"] += 1
    return psi1


def cn_step(op: TridiagonalOperator, state: WaveState, dtau: float) -> WaveState:
    """One Cayley step of a state (see cn_step_psi)."""
    return replace(state, psi=cn_step_psi(op, state.psi, dtau))


def evolve(op: TridiagonalOperator, state: WaveState, dtau: float, steps: int) -> WaveState:
    """steps Cayley steps on the samples, wrapped into one state at the end."""
    psi = state.psi
    for _ in range(steps):
        psi = cn_step_psi(op, psi, dtau)
    return replace(state, psi=psi)


# -- diagnostics ----------------------------------------------------------------


def dispersion_check(k: float, w_const: float, hbar: float) -> tuple[float, float, float]:
    """Plane-wave symbols of the square-root operator vs its quadratic truncation.

    Returns (exact, truncated, |difference|); the difference is the quartic
    factorization remainder, ~ (hbar k)^4 / (8 |w|^3) for small hbar k.
    """
    if w_const >= 0.0:
        raise ValueError(f"w_const must be negative, got {w_const}")
    hk = hbar * k
    if abs(hk) >= abs(w_const):
        raise SuperluminalMode(f"hbar|k| = {abs(hk):g} >= |w| = {abs(w_const):g}")
    exact = w_const * math.sqrt(1.0 - (hk / w_const) ** 2)
    truncated = hk * hk / (2.0 * (-w_const)) + w_const
    return exact, truncated, abs(exact - truncated)


def model_gap(state: WaveState, w_profile, a_profile, q: float) -> float:
    """||(H_modified - H_minimal) psi|| / ||psi|| on identical profiles."""
    w_profile = np.asarray(w_profile, dtype=float)
    a_profile = np.asarray(a_profile, dtype=float)
    h_min = build_hamiltonian(
        QuantumModel(QuantumKind.MinimalCoupling, w_profile, a_profile, q),
        state.dx, state.hbar, state.domain,
    )
    h_mod = build_hamiltonian(
        QuantumModel(QuantumKind.Modified, w_profile, a_profile, q),
        state.dx, state.hbar, state.domain,
    )
    diff = h_mod.apply(state.psi) - h_min.apply(state.psi)
    denom = float(np.linalg.norm(state.psi))
    return float(np.linalg.norm(diff)) / denom


# -- common states ---------------------------------------------------------------


def gaussian_packet(
    n: int, dx: float, x0: float, sigma0: float, k0: float, hbar: float,
    domain: str = "periodic", origin: float = 0.0,
) -> WaveState:
    x = origin + dx * np.arange(n)
    psi = np.exp(-((x - x0) ** 2) / (4.0 * sigma0 * sigma0)) * np.exp(1j * k0 * x)
    return WaveState(psi=psi, dx=dx, hbar=hbar, domain=domain, x0=origin).normalized()


def plane_wave(n: int, dx: float, mode: int, hbar: float) -> WaveState:
    """exp(i k x) with k = 2 pi mode / (n dx): an exact periodic grid eigenmode."""
    k = 2.0 * math.pi * mode / (n * dx)
    x = dx * np.arange(n)
    return WaveState(psi=np.exp(1j * k * x), dx=dx, hbar=hbar, domain="periodic").normalized()


def packet_sigma(state: WaveState) -> float:
    """Width of |psi|^2 via its second central moment."""
    x = state.x
    rho = np.abs(state.psi) ** 2
    total = float(np.sum(rho)) * state.dx
    mean = float(np.sum(x * rho)) * state.dx / total
    var = float(np.sum((x - mean) ** 2 * rho)) * state.dx / total
    return math.sqrt(var)


def free_packet_sigma(tau: float, sigma0: float, mass: float, hbar: float) -> float:
    """Analytic free-packet dispersion sigma(tau) for constant mass."""
    return sigma0 * math.sqrt(1.0 + (hbar * tau / (2.0 * mass * sigma0 * sigma0)) ** 2)


def snapshot_csv(state: WaveState, path) -> None:
    """x, Re psi, Im psi, |psi|^2 with round-trip float formatting."""
    import csv as _csv

    with open(path, "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(("x", "re_psi", "im_psi", "density"))
        x = state.x
        for i in range(state.n):
            p = state.psi[i]
            writer.writerow(
                [f"{x[i]:.17g}", f"{p.real:.17g}", f"{p.imag:.17g}", f"{abs(p) ** 2:.17g}"]
            )
