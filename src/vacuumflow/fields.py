"""Vacuum potential field: softened moving Coulomb sources over a negative baseline.

The scalar potential is W(r,t) = w_inf + q_test * sum_i qs_i / (4 pi s_i) with
s_i = sqrt(|r - R_i(t)|^2 + eps_i^2) and R_i(t) = R0_i + uf_i * t.  Each moving
source contributes W_i * uf_i / q_test to the vector potential (the baseline is
not attributable to any mover); optional static uniform terms a_uniform and
0.5 * b_uniform x r can be added for scenarios that need a constant A or a
uniform magnetic field.  E and B are assembled from the analytic gradient,
time derivative and Jacobian of the potentials.

The batched evaluators (w, grad_w, coulomb, a, a_dot) broadcast over leading
axes of r (shape (..., 3)); a_jac and e_b take a single probe.  point_state is
the fused single-probe kernel of the integrator hot path: it works on plain
floats and returns W, grad W, A, dA/dt and the Jacobian of A in one pass over
the sources.  All evaluators are pure; VacuumField instances are immutable
after construction.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ZeroTestCharge

FOUR_PI = 4.0 * np.pi


def as_vec3(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (3,):
        raise ConfigError(f"expected a 3-vector, got shape {v.shape}")
    return v


def _skew_half(b: np.ndarray) -> np.ndarray:
    # Jacobian of 0.5 * b x r
    bx, by, bz = b
    return 0.5 * np.array([[0.0, -bz, by], [bz, 0.0, -bx], [-by, bx, 0.0]])


@dataclass(frozen=True)
class FieldSource:
    """One softened Coulomb source on a straight-line orbit R(t) = r0 + uf*t."""

    qs: float
    r0: np.ndarray
    uf: np.ndarray
    eps: float = 0.01

    def __post_init__(self):
        object.__setattr__(self, "r0", as_vec3(self.r0))
        object.__setattr__(self, "uf", as_vec3(self.uf))
        if self.eps <= 0.0:
            raise ConfigError(f"source softening eps must be > 0, got {self.eps}")
        if float(np.linalg.norm(self.uf)) >= 1.0:
            raise ConfigError(f"source speed |uf| must be < 1, got {np.linalg.norm(self.uf)}")

    def position(self, t: float) -> np.ndarray:
        return self.r0 + self.uf * t


@dataclass(frozen=True)
class VacuumField:
    """Baseline scalar potential plus softened moving Coulomb sources.

    q_test is the test-particle charge entering the coupling W = w_inf + q*phi.
    """

    w_inf: float
    sources: tuple[FieldSource, ...] = ()
    q_test: float = 1.0
    a_uniform: np.ndarray = field(default_factory=lambda: np.zeros(3))
    b_uniform: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        if self.w_inf >= 0.0:
            raise ConfigError(f"baseline w_inf must be negative, got {self.w_inf}")
        object.__setattr__(self, "sources", tuple(self.sources))
        object.__setattr__(self, "a_uniform", as_vec3(self.a_uniform))
        object.__setattr__(self, "b_uniform", as_vec3(self.b_uniform))
        object.__setattr__(self, "_b_jac", _skew_half(self.b_uniform))
        object.__setattr__(self, "_has_b", bool(np.any(self.b_uniform != 0.0)))
        # plain-float copies for point_state; a source with uf = 0 is static
        object.__setattr__(self, "_src", tuple(
            (*s.r0.tolist(), *s.uf.tolist(), float(s.qs / FOUR_PI), float(s.eps * s.eps),
             bool(np.any(s.uf != 0.0)))
            for s in self.sources
        ))
        object.__setattr__(self, "_a0", tuple(self.a_uniform.tolist()))
        object.__setattr__(self, "_hb", tuple((0.5 * self.b_uniform).tolist()))
        object.__setattr__(self, "_jac0", tuple(map(tuple, self._b_jac.tolist())))

    # -- scalar potential -------------------------------------------------

    def w(self, r, t: float):
        """W(r,t); broadcasts over leading axes of r."""
        r = np.asarray(r, dtype=float)
        out = np.full(r.shape[:-1], self.w_inf)
        for s in self.sources:
            d = r - s.position(t)
            s2 = np.einsum("...i,...i->...", d, d) + s.eps * s.eps
            out = out + (self.q_test * s.qs / FOUR_PI) / np.sqrt(s2)
        return out if out.shape else float(out)

    def grad_w(self, r, t: float):
        r = np.asarray(r, dtype=float)
        out = np.zeros(r.shape)
        for s in self.sources:
            d = r - s.position(t)
            s2 = np.einsum("...i,...i->...", d, d) + s.eps * s.eps
            out = out + (-self.q_test * s.qs / FOUR_PI) * d / (s2 * np.sqrt(s2))[..., None]
        return out

    def coulomb(self, r, t: float):
        """Interaction part q*phi = W - w_inf (the additive potential energy)."""
        return self.w(r, t) - self.w_inf

    # -- vector potential --------------------------------------------------

    def _require_charge(self):
        if self.q_test == 0.0:
            raise ZeroTestCharge("vector potential requested with q_test = 0")

    def a(self, r, t: float):
        """A(r,t) = sum_i (W_i/q_test) uf_i + a_uniform + 0.5 b_uniform x r."""
        self._require_charge()
        r = np.asarray(r, dtype=float)
        out = np.broadcast_to(self.a_uniform, r.shape).copy()
        out += 0.5 * np.cross(self.b_uniform, r)
        for s in self.sources:
            d = r - s.position(t)
            s2 = np.einsum("...i,...i->...", d, d) + s.eps * s.eps
            out += ((s.qs / FOUR_PI) / np.sqrt(s2))[..., None] * s.uf
        return out

    def a_dot(self, r, t: float):
        """Partial time derivative of A (rigid source motion, static uniform terms)."""
        self._require_charge()
        r = np.asarray(r, dtype=float)
        out = np.zeros(r.shape)
        for s in self.sources:
            d = r - s.position(t)
            s2 = np.einsum("...i,...i->...", d, d) + s.eps * s.eps
            proj = np.einsum("...i,i->...", d, s.uf)
            out += ((s.qs / FOUR_PI) * proj / (s2 * np.sqrt(s2)))[..., None] * s.uf
        return out

    def a_jac(self, r, t: float) -> np.ndarray:
        """Jacobian J[i, j] = dA_i/dr_j at a single probe point."""
        self._require_charge()
        r = as_vec3(r)
        out = self._b_jac.copy()
        for s in self.sources:
            d = r - s.position(t)
            s2 = float(d @ d) + s.eps * s.eps
            out += np.outer(s.uf, (-s.qs / FOUR_PI) * d / (s2 * np.sqrt(s2)))
        return out

    def e_b(self, r, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Assembled fields E = -grad(W)/q_test - dA/dt, B = curl A (single probe)."""
        self._require_charge()
        r = as_vec3(r)
        e = -self.grad_w(r, t) / self.q_test - self.a_dot(r, t)
        j = self.a_jac(r, t)
        b = np.array([j[2, 1] - j[1, 2], j[0, 2] - j[2, 0], j[1, 0] - j[0, 1]])
        return e, b

    def point_state(self, x: float, y: float, z: float, t: float):
        """Fused single-probe kernel on plain floats: (w, grad_w, a, a_dot, jac).

        One pass over the sources; grad_w, a and a_dot are 3-tuples and jac is
        a tuple of three rows with jac[i][j] = dA_i/dr_j.  This is the
        integrator hot path, so static sources skip the vector-potential work
        and no numpy call is made.
        """
        q = self.q_test
        w = self.w_inf
        gx = gy = gz = 0.0
        ax, ay, az = self._a0
        if self._has_b:
            hx, hy, hz = self._hb
            ax += hy * z - hz * y
            ay += hz * x - hx * z
            az += hx * y - hy * x
        adx = ady = adz = 0.0
        (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = self._jac0
        for x0, y0, z0, ux, uy, uz, k, eps2, is_moving in self._src:
            if is_moving:
                dx = x - x0 - ux * t
                dy = y - y0 - uy * t
                dz = z - z0 - uz * t
            else:
                dx = x - x0
                dy = y - y0
                dz = z - z0
            s2 = dx * dx + dy * dy + dz * dz + eps2
            root = math.sqrt(s2)
            inv3 = k / (s2 * root)
            w += q * k / root
            c = q * inv3
            gx -= c * dx
            gy -= c * dy
            gz -= c * dz
            if is_moving:
                kr = k / root
                ax += kr * ux
                ay += kr * uy
                az += kr * uz
                p = inv3 * (dx * ux + dy * uy + dz * uz)
                adx += p * ux
                ady += p * uy
                adz += p * uz
                cx, cy, cz = inv3 * dx, inv3 * dy, inv3 * dz
                j00 -= ux * cx
                j01 -= ux * cy
                j02 -= ux * cz
                j10 -= uy * cx
                j11 -= uy * cy
                j12 -= uy * cz
                j20 -= uz * cx
                j21 -= uz * cy
                j22 -= uz * cz
        jac = ((j00, j01, j02), (j10, j11, j12), (j20, j21, j22))
        return w, (gx, gy, gz), (ax, ay, az), (adx, ady, adz), jac

    def local_state(self, r, t: float):
        """point_state at a 3-vector probe, with array results: (w, grad_w, a, a_dot, a_jac)."""
        x, y, z = (float(v) for v in r)
        w, gw, a, adot, jac = self.point_state(x, y, z, float(t))
        return w, np.array(gw), np.array(a), np.array(adot), np.array(jac)

    # -- identity ----------------------------------------------------------

    def describe(self) -> dict:
        return {
            "w_inf": self.w_inf,
            "q_test": self.q_test,
            "a_uniform": self.a_uniform.tolist(),
            "b_uniform": self.b_uniform.tolist(),
            "sources": [
                {"qs": s.qs, "r0": s.r0.tolist(), "uf": s.uf.tolist(), "eps": s.eps}
                for s in self.sources
            ],
        }

    def stable_hash(self) -> str:
        return hashlib.sha1(repr(self.describe()).encode()).hexdigest()[:12]


# Free-function operation names ----------------------------------------------


def eval_w(fld: VacuumField, r, t: float):
    return fld.w(r, t)


def grad_w(fld: VacuumField, r, t: float):
    return fld.grad_w(r, t)


def eval_a(fld: VacuumField, r, t: float):
    return fld.a(r, t)


def eval_eb(fld: VacuumField, r, t: float):
    return fld.e_b(r, t)
