"""Vacuum potential field: softened moving Coulomb sources over a negative baseline.

The scalar potential is W(r,t) = w_inf + q_test * sum_i qs_i / (4 pi s_i) with
s_i = sqrt(|r - R_i(t)|^2 + eps_i^2) and R_i(t) = R0_i + uf_i * t.  Each moving
source contributes W_i * uf_i / q_test to the vector potential (the baseline is
not attributable to any mover); optional static uniform terms a_uniform and
0.5 * b_uniform x r can be added for scenarios that need a constant A or a
uniform magnetic field.  E and B are assembled from the analytic gradient,
time derivative and Jacobian of the potentials.

One kernel evaluates the potentials: point_state returns W, grad W, A, dA/dt
and the Jacobian of A in one pass over the sources, on plain floats for the
integrator hot path and on coordinate columns, where it computes only the
parts asked for.  _eval runs it over probes r (..., 3) with a scalar time or
one time per probe, each row bit-identical to a float call; w, grad_w,
coulomb, a, a_dot, a_jac and e_b select from _eval and broadcast over leading
axes of r.  All evaluators are pure; VacuumField instances are immutable.
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


# numpy's @ and np.linalg.norm hand 3-vectors to BLAS, whose kernel (with or
# without FMA) is picked per CPU; these sums give the same bits on every CPU,
# and each row of an (n, 3) call equals the (3,) call.


def dot3(a, b):
    """<a, b> over the last axis of (3,) or (n, 3) arrays, summed left to right."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def jac_t_dot(jac, u):
    """J^T u for (3, 3) or (n, 3, 3) J: (J^T u)_i = J_0i u_0 + J_1i u_1 + J_2i u_2, left to right."""
    return jac[..., 0, :] * u[..., 0:1] + jac[..., 1, :] * u[..., 1:2] + jac[..., 2, :] * u[..., 2:3]


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
        # the kernels divide qs / (4 pi) by eps^3 at the source centre
        eps3 = self.eps * self.eps * math.sqrt(self.eps * self.eps)
        if not (self.eps > 0.0 and eps3 > 0.0):
            raise ConfigError(f"eps: softening must be > 0 and eps^3 must not underflow, got {self.eps}")
        if not math.isfinite(abs(self.qs / FOUR_PI) / eps3):
            raise ConfigError(f"eps: |qs| / (4 pi eps^3) must not overflow, got eps = {self.eps} for qs = {self.qs}")
        speed = math.hypot(*self.uf.tolist())  # cannot overflow
        if not speed < 1.0:
            raise ConfigError(f"uf: source speed |uf| must be < 1, got {speed}")


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
        if not self.w_inf < 0.0:
            raise ConfigError(f"w_inf: baseline must be negative, got {self.w_inf}")
        # the models square W; an overflowing W^2 would pass a guard as inf
        if not math.isfinite(self.w_inf * self.w_inf):
            raise ConfigError(f"w_inf: w_inf^2 must be finite, got {self.w_inf}")
        object.__setattr__(self, "sources", tuple(self.sources))
        object.__setattr__(self, "a_uniform", as_vec3(self.a_uniform))
        object.__setattr__(self, "b_uniform", as_vec3(self.b_uniform))
        object.__setattr__(self, "_has_b", bool(np.any(self.b_uniform != 0.0)))
        # plain-float copies for the kernels; a source with uf = 0 is static
        object.__setattr__(self, "_src", tuple(
            (*s.r0.tolist(), *s.uf.tolist(), float(s.qs / FOUR_PI), float(s.eps * s.eps),
             bool(np.any(s.uf != 0.0)))
            for s in self.sources
        ))
        hx, hy, hz = (0.5 * self.b_uniform).tolist()
        object.__setattr__(self, "_a0", tuple(self.a_uniform.tolist()))
        object.__setattr__(self, "_hb", (hx, hy, hz))
        # Jacobian of 0.5 * b x r
        object.__setattr__(self, "_jac0", ((0.0, -hz, hy), (hz, 0.0, -hx), (-hy, hx, 0.0)))

    # -- batched evaluator --------------------------------------------------

    def _eval(self, r, t, parts: str):
        """The potentials at probes r (..., 3) and times t (scalar or r.shape[:-1]).

        parts picks the results, in order: "w" W, "g" grad W, "a" A, "d" dA/dt,
        "j" the Jacobian dA_i/dr_j; w has shape r.shape[:-1], the vectors
        (..., 3) and the Jacobian (..., 3, 3), all fresh arrays.  point_state computes
        only those parts on the coordinate columns, so each row is its float call
        bit for bit; a single probe at a single time runs on 0-d columns.
        A or its derivatives with q_test = 0 raise ZeroTestCharge.
        """
        if self.q_test == 0.0 and any(c in parts for c in "adj"):
            raise ZeroTestCharge("vector potential requested with q_test = 0")
        r = np.asarray(r, dtype=float)
        t = np.asarray(t, dtype=float)
        wanted = tuple(c in parts for c in "wgadj")
        # far from a source |r - R|^2 overflows to inf and its kernels go to their
        # 0 limit, and an overflowed difference times 0 is nan: the float path does
        # this silently, and so do the columns
        with np.errstate(over="ignore", invalid="ignore"):
            state = dict(zip("wgadj", self.point_state(r[..., 0], r[..., 1], r[..., 2], t, np.sqrt, wanted)))

        def stacked(v):  # a component no source reached is still the float it started as
            if isinstance(v, tuple):
                return np.stack([stacked(c) for c in v], axis=r.ndim - 1)
            return v if isinstance(v, np.ndarray) else np.full(r.shape[:-1], v)

        return [stacked(state[c]) for c in parts]

    # -- selections ----------------------------------------------------------

    def w(self, r, t: float):
        """W(r,t); broadcasts over leading axes of r."""
        out = self._eval(r, t, "w")[0]
        return out if out.shape else float(out)

    def grad_w(self, r, t: float):
        return self._eval(r, t, "g")[0]

    def coulomb(self, r, t: float):
        """Interaction part q*phi = W - w_inf (the additive potential energy)."""
        return self.w(r, t) - self.w_inf

    def a(self, r, t: float):
        """A(r,t) = sum_i (W_i/q_test) uf_i + a_uniform + 0.5 b_uniform x r."""
        return self._eval(r, t, "a")[0]

    def a_dot(self, r, t: float):
        """Partial time derivative of A (rigid source motion, static uniform terms)."""
        return self._eval(r, t, "d")[0]

    def a_jac(self, r, t: float) -> np.ndarray:
        """Jacobian J[..., i, j] = dA_i/dr_j."""
        return self._eval(r, t, "j")[0]

    def e_b(self, r, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Assembled fields E = -grad(W)/q_test - dA/dt, B = curl A."""
        return self.assemble_e_b(*self._eval(r, t, "gdj"))

    def assemble_e_b(self, gw, adot, j) -> tuple[np.ndarray, np.ndarray]:
        """E and B from _eval's "gdj" parts, for callers that also need the Jacobian."""
        e = -gw / self.q_test - adot
        b = np.stack([j[..., 2, 1] - j[..., 1, 2], j[..., 0, 2] - j[..., 2, 0],
                      j[..., 1, 0] - j[..., 0, 1]], axis=-1)
        return e, b

    def point_state(self, x, y, z, t, _sqrt=math.sqrt, _wanted=(True,) * 5):
        """The field kernel: (w, grad_w, a, a_dot, jac) in one pass over the sources.

        grad_w, a and a_dot are 3-tuples, jac has rows jac[i][j] = dA_i/dr_j.  On
        plain floats (the integrator hot path) every part is computed and no numpy
        call is made.  _eval passes coordinate columns, np.sqrt and one flag per
        part of "wgadj"; a part not wanted, or reached by no source, keeps its start.
        """
        want_w, want_g, want_a, want_d, want_j = _wanted
        vector = want_a or want_d or want_j
        q = self.q_test
        w = self.w_inf
        gx = gy = gz = adx = ady = adz = 0.0
        ax, ay, az = self._a0
        if self._has_b and want_a:
            hx, hy, hz = self._hb
            ax += hy * z - hz * y
            ay += hz * x - hx * z
            az += hx * y - hy * x
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
            root = _sqrt(s2)
            if want_w:
                w += q * k / root
            moving = is_moving and vector
            if not (want_g or moving):
                continue
            inv3 = k / (s2 * root)
            if want_g:
                c = q * inv3
                gx -= c * dx
                gy -= c * dy
                gz -= c * dz
            if not moving:
                continue
            if want_a:
                kr = k / root
                ax += kr * ux
                ay += kr * uy
                az += kr * uz
            if want_d:
                p = inv3 * (dx * ux + dy * uy + dz * uz)
                adx += p * ux
                ady += p * uy
                adz += p * uz
            if want_j:
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
