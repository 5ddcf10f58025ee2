"""1-D quantized Hamiltonians and Crank-Nicolson evolution in proper time.

Three operators on a uniform grid (spacing dx, periodic or fixed ends):

  free vacuum       H = p (1/2m) p + W
  minimal coupling  H = (p - qA) (1/2m) (p - qA) + W, expanded and symmetrized
  modified          minimal coupling  - q^2 A^2/(2m)  - (q^2/2) (A p) m^-3 (p A)

with m(x) = -W(x) > 0.  The quadratic-in-p pieces use the compact
forward/backward divergence form (coefficients averaged onto bonds), the cross
term uses the centered first difference symmetrized as p M + M p; everything is
tridiagonal (plus cyclic corners).  An operator is its diagonal and one band
of bond values off[j] = H[j, (j+1) mod n]: a periodic grid has n bonds, the
last the corner H[n-1, 0], and a fixed grid n-1, so the band's length names
the domain.  The lower triangle is the band's conjugate, so every operator is
Hermitian by its type, each term is written once, and the Cayley step
(1 + i dtau H / 2 hbar) psi' = (1 - i dtau H / 2 hbar) psi is unitary.

Since (1 + zH)^-1 (1 - zH) = 2 (1 + zH)^-1 - 1 with z = i dtau / 2 hbar, a
step is one solve and no product with H: psi' = 2 chi - psi, where
(1 + zH) chi = psi (the Cayley form of Crank & Nicolson, 1947).  The Cayley
matrix is the same at every step, so each operator factors it once per dtau
(LAPACK zgttrf) and every step back-substitutes (zgttrs); on a periodic domain
the cyclic corners go through a Sherman-Morrison correction (Numerical Recipes
2.7) whose pieces are computed with the factor.  The result is bit-identical
to 2 chi - psi with chi from a fresh banded solve at every step, and agrees
with the (1 - zH) psi-then-solve form to round-off.  An operator with
constant real bands on a fixed domain is diagonal in the sine basis, where
cayley_power takes any number of steps as one phase per mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cache

import numpy as np

from .errors import NonPositiveMass, SolveFailure, SuperluminalMode

#: the boundary conditions build_hamiltonian accepts
DOMAINS = ("periodic", "fixed")


class QuantumKind(Enum):
    FreeVacuum = "free_vacuum"
    MinimalCoupling = "minimal_coupling"
    Modified = "modified"


def l2_norm(psi: np.ndarray, dx: float) -> float:
    """sqrt(sum |psi|^2 dx) of grid samples."""
    return math.sqrt(float(np.sum(np.abs(psi) ** 2)) * dx)


@dataclass(frozen=True)
class WaveState:
    """Complex samples on a uniform 1-D grid with hbar; the operator holds the boundary condition."""

    psi: np.ndarray
    dx: float
    hbar: float

    def __post_init__(self):
        object.__setattr__(self, "psi", np.asarray(self.psi, dtype=complex))
        if not (self.dx > 0.0 and self.hbar > 0.0):
            raise ValueError("WaveState needs dx > 0 and hbar > 0")

    @property
    def n(self) -> int:
        return self.psi.size

    @property
    def x(self) -> np.ndarray:
        return self.dx * np.arange(self.n)

    def norm(self) -> float:
        return l2_norm(self.psi, self.dx)

    def normalized(self) -> "WaveState":
        return replace(self, psi=self.psi / self.norm())


@dataclass(frozen=True)
class QuantumModel:
    """Operator choice plus the sampled W(x), A(x) profiles and the charge; the
    profiles are read-only float copies, so the check m = -W > 0 stays true."""

    kind: QuantumKind
    w_profile: np.ndarray
    a_profile: np.ndarray
    q: float = 1.0

    def __post_init__(self):
        for name in ("w_profile", "a_profile"):
            profile = np.array(getattr(self, name), dtype=float)
            profile.setflags(write=False)
            object.__setattr__(self, name, profile)
        if self.w_profile.shape != self.a_profile.shape:
            raise ValueError("w_profile and a_profile must have the same length")
        m = -self.w_profile
        if not np.all(m > 0.0):
            raise NonPositiveMass(f"mass profile min(-W) = {m.min():g} <= 0")


@dataclass(frozen=True)
class TridiagonalOperator:
    """Hermitian tridiagonal operator, with cyclic corners on a periodic domain.

    off[j] = H[j, (j+1) mod n] is the band of bond values and H[(j+1) mod n, j]
    its conjugate: n bonds make the domain periodic (the last is the corner
    H[n-1, 0]), n-1 make it fixed.  Both bands are read-only copies, so the
    Crank-Nicolson factors cached per dtau cannot go stale.  ``stats`` counts
    the Cayley steps taken and the factorizations made with this operator.
    """

    diag: np.ndarray        # (n,)
    off: np.ndarray         # (n,) periodic or (n-1,) fixed
    dx: float
    hbar: float
    stats: dict = field(default_factory=lambda: {"cn_steps": 0, "factorizations": 0},
                        init=False, repr=False, compare=False)
    _factors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("diag", "off"):
            band = np.array(getattr(self, name), dtype=complex)
            band.setflags(write=False)
            object.__setattr__(self, name, band)
        n = self.diag.size
        if self.diag.ndim != 1 or n < 1 or self.off.shape not in ((n,), (n - 1,)):
            raise ValueError(f"an operator on n >= 1 points needs n bonds (periodic) or n - 1 (fixed): "
                             f"got diag of shape {self.diag.shape} and off of shape {self.off.shape}")

    @property
    def n(self) -> int:
        return self.diag.size

    @property
    def domain(self) -> str:
        return "periodic" if self.off.size == self.n else "fixed"

    def apply(self, psi: np.ndarray) -> np.ndarray:
        upper = self.off[:self.n - 1]
        out = self.diag * psi
        out[:-1] += upper * psi[1:]
        out[1:] += upper.conj() * psi[:-1]
        if self.domain == "periodic":
            corner = complex(self.off[-1])
            out[0] += corner.conjugate() * psi[-1]
            out[-1] += corner * psi[0]
        return out

    def to_dense(self) -> np.ndarray:
        upper = self.off[:self.n - 1]
        m = np.diag(self.diag) + np.diag(upper, 1) + np.diag(upper.conj(), -1)
        if self.domain == "periodic":
            corner = complex(self.off[-1])
            m[0, -1] += corner.conjugate()
            m[-1, 0] += corner
        return m


def build_hamiltonian(model: QuantumModel, dx: float, hbar: float, domain: str = "periodic") -> TridiagonalOperator:
    """Discrete Hamiltonian for the given model on an n-point grid.

    domain, one of DOMAINS, is the boundary condition.  Each term is written
    once, on the band of bond values off[j] = H[j, (j+1) mod n]: a periodic grid
    has n bonds, the last wrapping n-1 -> 0, and a fixed grid n-1.
    """
    if domain not in DOMAINS:
        raise ValueError(f"unknown domain {domain!r}: expected one of {DOMAINS}")
    w, a, q = model.w_profile, model.a_profile, model.q
    n = w.size
    nb = n if domain == "periodic" else n - 1
    r = np.arange(1, nb + 1) % n  # bond j < nb joins point j to point r[j]
    m = -w
    c = 0.5 / m  # 1/(2m)
    k2 = hbar * hbar / (dx * dx)
    diag = np.zeros(n)
    off = np.zeros(nb, dtype=complex)

    # kinetic divergence form p c p, c averaged onto each bond
    kin = k2 * (0.5 * (c[:nb] + c[r]))
    diag[:nb] += kin
    diag[r] += kin
    off -= kin
    if domain != "periodic":
        # one-sided wall bonds against the Dirichlet ghosts (both on the one point when n = 1)
        np.add.at(diag, [0, -1], k2 * c[[0, -1]])

    # potential
    diag += w

    if model.kind is not QuantumKind.FreeVacuum:
        # minimal coupling: -q (p cA + cA p) + q^2 A^2 c
        mprof = c * a
        coeff = q * hbar / (2.0 * dx)
        off += 1j * coeff * (mprof[:nb] + mprof[r])
        diag += q * q * a * a * c

    if model.kind is QuantumKind.Modified:
        # -q^2 <A,A>/(2m): cancels the diagonal from the expanded square
        diag += -(q * q) * a * a * c
        # -(q^2/2) (A p) m^-3 (p A) as C^dag g C, C the forward difference of A psi:
        # every point starts a forward bond (on a fixed grid the last one ends on
        # the ghost); the bond term has the opposite sign from the diagonal
        g = 1.0 / (m * m * m)
        f = -(q * q) * 0.5 * k2
        diag += f * a * a * g
        ar = a[r]
        diag[r] += f * ar * ar * g[:nb]
        off -= f * a[:nb] * ar * g[:nb]

    return TridiagonalOperator(diag=diag, off=off, dx=dx, hbar=hbar)


# -- Crank-Nicolson ------------------------------------------------------------


class _CayleyFactor:
    """zgttrf factor of 1 + zH; on a periodic domain, of its banded part A' plus
    the Sherman-Morrison pieces corr = A'^-1 u, c_ul/gamma and 1 + v.corr."""

    def __init__(self, op: TridiagonalOperator, z: complex):
        if op.n < 3:  # scipy's zgttrf wrapper rejects off-diagonal bands under 2 entries
            raise SolveFailure(f"banded factor needs a grid of at least 3 points, got {op.n}")
        diag = 1.0 + z * op.diag
        off = op.off[:op.n - 1]
        upper = z * off
        lower = z * off.conj()
        self.corr = None
        if op.domain != "periodic":
            self.lu = _gttrf(lower, diag, upper)
            return
        corner = complex(op.off[-1])
        c_ul, c_lr = z * corner.conjugate(), z * corner
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
            x -= self.corr * (vy / self.denom)
        return x


@cache
def lapack():
    """scipy.linalg.lapack, imported by the first call (`import vacuumflow` loads no scipy)."""
    from scipy.linalg import lapack as module

    return module


def _gttrf(lower, diag, upper):
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(upper)) and np.all(np.isfinite(lower))):
        raise SolveFailure("banded factor: the Cayley matrix has non-finite entries")
    dl, d, du, du2, ipiv, info = lapack().zgttrf(lower, diag, upper)
    if info != 0:
        raise SolveFailure(f"banded factor failed: zgttrf info = {info} (singular system)")
    return dl, d, du, du2, ipiv


def _gttrs(lu, rhs):
    x, info = lapack().zgttrs(*lu, rhs)
    # a complex value is finite when both its parts are: test the float view
    if info != 0 or not np.isfinite(x.view(float)).all():
        raise SolveFailure("banded solve produced non-finite values (singular system)")
    return x


def cn_step_psi(op: TridiagonalOperator, psi: np.ndarray, dtau: float) -> np.ndarray:
    """One Cayley step of the samples: (1 + i dtau H/2hbar) psi' = (1 - i dtau H/2hbar) psi.

    With z = i dtau/2hbar, (1 + zH)^-1 (1 - zH) = 2 (1 + zH)^-1 - 1, so the step
    is psi' = 2 chi - psi with (1 + zH) chi = psi: one banded solve, no product
    with H.  The first step with a given dtau factors the matrix; later ones
    reuse it.  A factor that fails raises SolveFailure and is not kept.
    """
    factor = op._factors.get(dtau)
    if factor is None:
        factor = _CayleyFactor(op, 1j * dtau / (2.0 * op.hbar))
        op._factors[dtau] = factor
        op.stats["factorizations"] += 1
    psi1 = factor.solve(psi)
    psi1 *= 2.0
    psi1 -= psi
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


def _dst1(x: np.ndarray) -> np.ndarray:
    """Type-I sine transform, sum_j x_j sin(pi (j+1)(k+1)/(n+1)), from the FFT of
    the odd extension [0, x, 0, -reversed x]; applied twice it gives (n+1)/2 x."""
    n = x.size
    ext = np.zeros(2 * n + 2, dtype=complex)
    ext[1:n + 1] = x
    ext[n + 2:] = -x[::-1]
    return 0.5j * np.fft.fft(ext)[1:n + 1]


def cayley_power(op: TridiagonalOperator, psi: np.ndarray, dtau: float, steps: int) -> np.ndarray:
    """steps Cayley steps of the samples at once, for constant real bands on a fixed domain.

    Such an H (diagonal d, every bond u) is symmetric Toeplitz
    tridiagonal: the type-I sine transform diagonalizes it exactly, with
    eigenvalues lambda_j = d + 2u cos(j pi/(n+1)), j = 1..n (Strang, SIAM Review
    41, 135, 1999).  On mode j the Cayley factor (1 - z lambda_j)/(1 + z lambda_j),
    z = i dtau/2hbar, is exp(-2i arctan(dtau lambda_j/2hbar)), so the whole run is
    one phase per mode: no factor and no solve.  It agrees with steps calls of
    cn_step_psi to round-off.  Any other operator, or steps < 0, raises ValueError.
    """
    if steps < 0:
        raise ValueError(f"cayley_power needs steps >= 0, got {steps}: a negative count would run backwards")
    if op.domain != "fixed":
        raise ValueError("cayley_power needs a fixed domain: cyclic corners break the sine basis")
    if np.any(op.diag.imag) or np.any(op.off.imag):
        raise ValueError("cayley_power needs real bands: a complex band entry breaks the sine basis")
    d = op.diag[0].real
    u = op.off[0].real if op.n > 1 else 0.0
    if np.any(op.diag != d) or np.any(op.off != u):
        raise ValueError("cayley_power needs constant bands (a Toeplitz operator)")
    lam = d + 2.0 * u * np.cos(math.pi * np.arange(1, op.n + 1) / (op.n + 1))
    phase = np.exp(-2j * steps * np.arctan(dtau * lam / (2.0 * op.hbar)))
    op.stats["cn_steps"] += steps
    return _dst1(phase * _dst1(psi)) * (2.0 / (op.n + 1))


# -- diagnostics ----------------------------------------------------------------


def dispersion_check(k: float, w_const: float, hbar: float) -> tuple[float, float, float]:
    """Plane-wave symbols of the square-root operator vs its quadratic truncation.

    Returns (exact, truncated, |difference|); the difference is the quartic
    factorization remainder, ~ (hbar k)^4 / (8 |w|^3) for small hbar k.
    """
    if not w_const < 0.0:
        raise ValueError(f"w_const must be negative, got {w_const}")
    hk = hbar * k
    if abs(hk) >= abs(w_const):
        raise SuperluminalMode(f"hbar|k| = {abs(hk):g} >= |w| = {abs(w_const):g}")
    exact = w_const * math.sqrt(1.0 - (hk / w_const) ** 2)
    truncated = hk * hk / (2.0 * (-w_const)) + w_const
    return exact, truncated, abs(exact - truncated)


def model_gap(state: WaveState, w_profile, a_profile, q: float) -> float:
    """||(H_modified - H_minimal) psi|| / ||psi|| on identical profiles, periodic grid."""
    h_min, h_mod = (build_hamiltonian(QuantumModel(kind, w_profile, a_profile, q), state.dx, state.hbar, "periodic")
                    for kind in (QuantumKind.MinimalCoupling, QuantumKind.Modified))
    diff = h_mod.apply(state.psi) - h_min.apply(state.psi)
    return l2_norm(diff, 1.0) / l2_norm(state.psi, 1.0)


# -- common states ---------------------------------------------------------------


def gaussian_packet(n: int, dx: float, x0: float, sigma0: float, k0: float, hbar: float) -> WaveState:
    x = dx * np.arange(n)
    psi = np.exp(-((x - x0) ** 2) / (4.0 * sigma0 * sigma0)) * np.exp(1j * k0 * x)
    return WaveState(psi=psi, dx=dx, hbar=hbar).normalized()


def plane_wave(n: int, dx: float, mode: int, hbar: float) -> WaveState:
    """exp(i k x) with k = 2 pi mode / (n dx): an exact periodic grid eigenmode."""
    k = 2.0 * math.pi * mode / (n * dx)
    x = dx * np.arange(n)
    return WaveState(psi=np.exp(1j * k * x), dx=dx, hbar=hbar).normalized()


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
    """x, Re psi, Im psi, |psi|^2: 17 significant digits, csv.writer's bytes."""
    with open(path, "w", newline="") as fh:
        fh.write("x,re_psi,im_psi,density\r\n")
        for x, p in zip(state.x, state.psi):
            fh.write("%.17g,%.17g,%.17g,%.17g\r\n" % (x, p.real, p.imag, abs(p) ** 2))
