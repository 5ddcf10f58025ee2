"""Finite-difference verification that the gauge-constrained wave equations
reproduce the Maxwell equations, plus the advected-integral conservation check.

Evolution is plain second-order leapfrog for the four scalar wave equations on
a collocated cube, with sources prescribed analytically (separable profiles so
continuity holds in closed form) and the boundary shell pinned to the analytic
far field.  Each field is updated one interior x-plane at a time on the
flattened array (a plane is n*n contiguous doubles, so the stencil's reads stay
in cache), with the whole-grid step's operations in the same order, so every
value is bit-identical to ``2u - prev + dt^2 (laplacian2(u) + src)``.  A
component with no source terms, a boundary pinned to 0 and two all-zero seeded
levels stays exactly +0.0 and is not evolved (the dipole's ax/ay, the plane
wave's phi); each new level gets a fresh zero array for it.

E and B are assembled from the potentials with the same 2nd-order centered
stencils the evolution uses; the residual divergences and curls are evaluated
with 4th-order centered stencils so each residual measures how well the
*evolved solution* satisfies the continuum equation (with matching 2nd-order
stencils, the curl-of-gradient and divergence-of-curl residuals are discrete
identities and vanish to roundoff, which would make convergence ratios
meaningless).  Norms are L2 over an interior mask that excludes a 10% margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BallExitsGrid, CFLViolation, InsufficientHistory

_SQRT3 = math.sqrt(3.0)


# -- difference operators -----------------------------------------------------


def _axis_slices(axis: int, lo: int, hi: int | None):
    sl = [slice(None)] * 3
    sl[axis] = slice(lo, hi)
    return tuple(sl)


def d1_c2(u: np.ndarray, axis: int, h: float) -> np.ndarray:
    out = np.zeros_like(u)
    out[_axis_slices(axis, 1, -1)] = (
        u[_axis_slices(axis, 2, None)] - u[_axis_slices(axis, 0, -2)]
    ) / (2.0 * h)
    return out


def d1_c4(u: np.ndarray, axis: int, h: float) -> np.ndarray:
    out = np.zeros_like(u)
    out[_axis_slices(axis, 2, -2)] = (
        -u[_axis_slices(axis, 4, None)]
        + 8.0 * u[_axis_slices(axis, 3, -1)]
        - 8.0 * u[_axis_slices(axis, 1, -3)]
        + u[_axis_slices(axis, 0, -4)]
    ) / (12.0 * h)
    return out


def laplacian2(u: np.ndarray, h: float) -> np.ndarray:
    out = np.zeros_like(u)
    acc = -6.0 * u[1:-1, 1:-1, 1:-1]
    acc += u[2:, 1:-1, 1:-1] + u[:-2, 1:-1, 1:-1]
    acc += u[1:-1, 2:, 1:-1] + u[1:-1, :-2, 1:-1]
    acc += u[1:-1, 1:-1, 2:] + u[1:-1, 1:-1, :-2]
    out[1:-1, 1:-1, 1:-1] = acc / (h * h)
    return out


def grad(u, h, order=2):
    d = d1_c2 if order == 2 else d1_c4
    return d(u, 0, h), d(u, 1, h), d(u, 2, h)


def div(vx, vy, vz, h, order=4):
    d = d1_c2 if order == 2 else d1_c4
    return d(vx, 0, h) + d(vy, 1, h) + d(vz, 2, h)


def curl(ax, ay, az, h, order=2):
    d = d1_c2 if order == 2 else d1_c4
    return (
        d(az, 1, h) - d(ay, 2, h),
        d(ax, 2, h) - d(az, 0, h),
        d(ay, 0, h) - d(ax, 1, h),
    )


# -- sources and analytic far field --------------------------------------------


class SeparableSources:
    """rho(r,t) = sum profile * g(t) per component; zero components stay scalar 0."""

    def __init__(self, rho_terms=(), jx_terms=(), jy_terms=(), jz_terms=()):
        self._terms = {
            "rho": list(rho_terms), "jx": list(jx_terms),
            "jy": list(jy_terms), "jz": list(jz_terms),
        }

    def _eval(self, name: str, t: float):
        terms = self._terms[name]
        if not terms:
            return 0.0
        acc = terms[0][0] * terms[0][1](t)
        for profile, g in terms[1:]:
            acc = acc + profile * g(t)
        return acc

    def rho(self, t):
        return self._eval("rho", t)

    def j(self, t):
        return self._eval("jx", t), self._eval("jy", t), self._eval("jz", t)


class AnalyticFarField:
    """Closed-form (phi, A) used for initial data, boundary pinning and errors."""

    def __init__(self, phi=None, a=None):
        self._phi = phi
        self._a = a

    def phi(self, x, y, z, t):
        return self._phi(x, y, z, t) if self._phi else np.zeros_like(x)

    def a(self, x, y, z, t):
        if self._a is None:
            zero = np.zeros_like(x)
            return zero, zero.copy(), zero.copy()
        return self._a(x, y, z, t)


@dataclass
class Level:
    index: int
    time: float
    phi: np.ndarray
    ax: np.ndarray
    ay: np.ndarray
    az: np.ndarray

    def field(self, name: str) -> np.ndarray:
        return getattr(self, name)


class GridField:
    """Collocated cube with a rolling history of potential levels."""

    FIELD_NAMES = ("phi", "ax", "ay", "az")

    def __init__(self, n: int, h: float, dt: float, sources: SeparableSources,
                 analytic: AnalyticFarField, history: int = 5):
        self.n = n
        self.h = h
        self.dt = dt
        self.sources = sources
        self.analytic = analytic
        self.history = max(3, history)
        half = 0.5 * (n - 1) * h
        axis = np.arange(n) * h - half
        self.origin = np.array([-half, -half, -half])
        self.X, self.Y, self.Z = np.meshgrid(axis, axis, axis, indexing="ij")
        self.levels: list[Level] = []
        self._faces = self._face_index()
        #: deterministic run counters, filled by evolve_wave
        self.stats: dict = {"grid_steps": 0, "evolved": []}

    def _face_index(self):
        n = self.n
        faces = []
        for axis in range(3):
            for side in (0, n - 1):
                sl = [slice(None)] * 3
                sl[axis] = side
                faces.append(tuple(sl))
        return faces

    def coords(self) -> np.ndarray:
        return np.stack([self.X, self.Y, self.Z], axis=-1)

    def seed_from_analytic(self, times=(0.0, None)) -> "GridField":
        t0, t1 = times
        if t1 is None:
            t1 = t0 + self.dt
        for idx, t in enumerate((t0, t1)):
            ax, ay, az = self.analytic.a(self.X, self.Y, self.Z, t)
            self.levels.append(Level(
                index=idx, time=t,
                phi=np.asarray(self.analytic.phi(self.X, self.Y, self.Z, t), dtype=float),
                ax=np.asarray(ax, dtype=float), ay=np.asarray(ay, dtype=float),
                az=np.asarray(az, dtype=float),
            ))
        return self

    def seed_zero(self) -> "GridField":
        for idx in range(2):
            zeros = [np.zeros((self.n,) * 3) for _ in range(4)]
            self.levels.append(Level(idx, idx * self.dt, *zeros))
        return self

    def perturb_initial_a(self, delta) -> "GridField":
        """Add a vector field (callable of X,Y,Z -> 3 arrays) to both seeded A levels."""
        dx, dy, dz = delta(self.X, self.Y, self.Z)
        for lvl in self.levels:
            lvl.ax += dx
            lvl.ay += dy
            lvl.az += dz
        return self

    def level_by_index(self, index: int) -> Level:
        for lvl in self.levels:
            if lvl.index == index:
                return lvl
        retained = [lv.index for lv in self.levels]
        raise InsufficientHistory(f"level {index} not retained (have {retained})")

    def interior_mask_margin(self) -> int:
        return max(3, int(math.floor(0.1 * self.n)))

    def dump_binary(self, path_prefix: str) -> list[str]:
        """Row-major float64 dump of the newest level, 3x int64 extents header."""
        paths = []
        lvl = self.levels[-1]
        for name in self.FIELD_NAMES:
            path = f"{path_prefix}_{name}.bin"
            with open(path, "wb") as fh:
                np.array([self.n, self.n, self.n], dtype=np.int64).tofile(fh)
                np.ascontiguousarray(lvl.field(name), dtype=np.float64).tofile(fh)
            paths.append(path)
        return paths


_SOURCE_OF = {"phi": "rho", "ax": "jx", "ay": "jy", "az": "jz"}


def _stays_zero(grid: GridField, name: str) -> bool:
    """True when the leapfrog keeps component ``name`` exactly +0.0.

    That holds with no source terms, a boundary pinned to 0 (no analytic
    callable) and two all-zero seeded levels: the scalar source 0.0 turns
    every interior -0.0 into +0.0, and the faces are written as 0.0.
    """
    analytic = grid.analytic._phi if name == "phi" else grid.analytic._a
    return (
        not grid.sources._terms[_SOURCE_OF[name]]
        and analytic is None
        and not grid.levels[-1].field(name).any()
        and not grid.levels[-2].field(name).any()
    )


def _step_field(u: np.ndarray, prev: np.ndarray, src, h: float, dt2: float,
                acc: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """One leapfrog update of one field, one interior x-plane at a time.

    Every interior value is bit-identical to
    ``2.0*u - prev + dt2*(laplacian2(u, h) + src)``: the operations run in the
    same order.  An x-plane is n*n contiguous doubles, so a plane and its two
    neighbours stay in cache; the stencil reads the flat offsets +-1 (z),
    +-n (y) and +-n*n (x).  ``acc`` and ``tmp`` hold the n*(n-2) doubles of
    the rows j = 1 .. n-2 of one plane.  The x = 0, x = n-1 planes and the
    j = 0, j = n-1 rows stay unwritten and the z = 0, z = n-1 cells get
    wrap-around values: the caller pins all six faces.
    """
    n = u.shape[0]
    nn = n * n
    m = acc.size
    uf = u.reshape(-1)
    pf = prev.reshape(-1)
    sf = None if np.ndim(src) == 0 else np.broadcast_to(src, u.shape).reshape(-1)
    out = np.empty(u.shape)
    of = out.reshape(-1)
    hh = h * h
    for c in range(nn + n, (n - 1) * nn, nn):
        e = c + m
        np.multiply(uf[c:e], -6.0, out=acc)
        np.add(uf[c + nn:e + nn], uf[c - nn:e - nn], out=tmp)
        acc += tmp
        np.add(uf[c + n:e + n], uf[c - n:e - n], out=tmp)
        acc += tmp
        np.add(uf[c + 1:e + 1], uf[c - 1:e - 1], out=tmp)
        acc += tmp
        acc /= hh
        acc += src if sf is None else sf[c:e]
        acc *= dt2
        np.multiply(uf[c:e], 2.0, out=tmp)
        tmp -= pf[c:e]
        np.add(tmp, acc, out=of[c:e])
    return out


def evolve_wave(grid: GridField, steps: int) -> GridField:
    """Second-order leapfrog for all four wave equations, Dirichlet analytic shell.

    Components that stay exactly zero (see ``_stays_zero``) are not evolved:
    each new level holds a fresh ``np.zeros`` for them.  ``grid.stats``
    accumulates ``grid_steps`` and the sorted names of the evolved components.
    """
    if grid.dt > grid.h / _SQRT3:
        raise CFLViolation(f"dt = {grid.dt:g} > h/sqrt(3) = {grid.h / _SQRT3:g}")
    if len(grid.levels) < 2:
        raise InsufficientHistory("grid needs two seeded time levels")
    dt2 = grid.dt * grid.dt
    n = grid.n
    evolved = [name for name in grid.FIELD_NAMES if not _stays_zero(grid, name)]
    zero = [name for name in grid.FIELD_NAMES if name not in evolved]
    rows = max(n * (n - 2), 0)  # rows j = 1 .. n-2 of one x-plane
    acc, tmp = np.empty(rows), np.empty(rows)
    for _ in range(steps):
        cur, prev = grid.levels[-1], grid.levels[-2]
        t_new = cur.time + grid.dt
        rho = grid.sources.rho(cur.time)
        jx, jy, jz = grid.sources.j(cur.time)
        srcs = {"phi": rho, "ax": jx, "ay": jy, "az": jz}
        new_fields = {name: np.zeros((n,) * 3) for name in zero}
        for name in evolved:
            new_fields[name] = _step_field(cur.field(name), prev.field(name), srcs[name],
                                           grid.h, dt2, acc, tmp)
        for face in grid._faces:
            xf, yf, zf = grid.X[face], grid.Y[face], grid.Z[face]
            pinned = {}
            if grid.analytic._phi is not None:
                pinned["phi"] = grid.analytic.phi(xf, yf, zf, t_new)
            if grid.analytic._a is not None:
                pinned["ax"], pinned["ay"], pinned["az"] = grid.analytic.a(xf, yf, zf, t_new)
            for name in evolved:
                new_fields[name][face] = pinned.get(name, 0.0)
        grid.levels.append(Level(cur.index + 1, t_new, new_fields["phi"],
                                 new_fields["ax"], new_fields["ay"], new_fields["az"]))
        if len(grid.levels) > grid.history:
            grid.levels.pop(0)
    if steps > 0:
        grid.stats["grid_steps"] += steps
        grid.stats["evolved"] = sorted(set(grid.stats["evolved"]) | set(evolved))
    return grid


# -- residuals -----------------------------------------------------------------


@dataclass(frozen=True)
class ResidualReport:
    gauss: float
    faraday: float
    ampere: float
    nomono: float
    gauge: float
    continuity: float
    time: float
    h: float
    dt: float
    margin: int

    def to_dict(self) -> dict:
        return {
            "gauss": self.gauss, "faraday": self.faraday, "ampere": self.ampere,
            "nomono": self.nomono, "gauge": self.gauge, "continuity": self.continuity,
            "time": self.time, "h": self.h, "dt": self.dt, "margin": self.margin,
        }


def _masked_l2(arrs, margin: int, h: float) -> float:
    core = (slice(margin, -margin),) * 3
    total = 0.0
    for a in arrs:
        if isinstance(a, float):
            continue
        total += float(np.sum(a[core] ** 2))
    return math.sqrt(total * h ** 3)


def maxwell_residuals(grid: GridField, t_index: int | None = None) -> ResidualReport:
    """Assemble E, B at the centered level and report all six residual norms."""
    if len(grid.levels) < 3:
        raise InsufficientHistory(f"need 3 stored levels, have {len(grid.levels)}")
    if t_index is None:
        t_index = grid.levels[-2].index
    prev = grid.level_by_index(t_index - 1)
    cur = grid.level_by_index(t_index)
    nxt = grid.level_by_index(t_index + 1)
    h, dt = grid.h, grid.dt
    margin = grid.interior_mask_margin()

    # assembly (2nd order, matching the evolution)
    dphi_dt = (nxt.phi - prev.phi) / (2.0 * dt)
    da_dt = [(nxt.field(f) - prev.field(f)) / (2.0 * dt) for f in ("ax", "ay", "az")]
    gphi = grad(cur.phi, h, order=2)
    e = [-da_dt[i] - gphi[i] for i in range(3)]
    b = curl(cur.ax, cur.ay, cur.az, h, order=2)
    db_dt = curl(da_dt[0], da_dt[1], da_dt[2], h, order=2)
    d2a_dt2 = [
        (nxt.field(f) - 2.0 * cur.field(f) + prev.field(f)) / (dt * dt)
        for f in ("ax", "ay", "az")
    ]
    gdphi = grad(dphi_dt, h, order=2)
    de_dt = [-d2a_dt2[i] - gdphi[i] for i in range(3)]

    rho = grid.sources.rho(cur.time)
    jx, jy, jz = grid.sources.j(cur.time)

    # residual operators (4th order)
    gauss = div(e[0], e[1], e[2], h, order=4) - rho
    curl_e = curl(e[0], e[1], e[2], h, order=4)
    faraday = [curl_e[i] + db_dt[i] for i in range(3)]
    curl_b = curl(b[0], b[1], b[2], h, order=4)
    ampere = [curl_b[0] - de_dt[0] - jx, curl_b[1] - de_dt[1] - jy, curl_b[2] - de_dt[2] - jz]
    nomono = div(b[0], b[1], b[2], h, order=4)
    gauge = dphi_dt + div(cur.ax, cur.ay, cur.az, h, order=4)

    rho_p = grid.sources.rho(prev.time)
    rho_n = grid.sources.rho(nxt.time)
    drho_dt = (rho_n - rho_p) / (2.0 * dt) if not isinstance(rho_n, float) else 0.0
    div_j = 0.0
    for comp, axis in ((jx, 0), (jy, 1), (jz, 2)):
        if not isinstance(comp, float):
            div_j = div_j + d1_c4(comp, axis, h)
    continuity = drho_dt + div_j

    return ResidualReport(
        gauss=_masked_l2([gauss], margin, h),
        faraday=_masked_l2(faraday, margin, h),
        ampere=_masked_l2(ampere, margin, h),
        nomono=_masked_l2([nomono], margin, h),
        gauge=_masked_l2([gauge], margin, h),
        continuity=_masked_l2([continuity], margin, h) if not isinstance(continuity, float) else 0.0,
        time=cur.time, h=h, dt=dt, margin=margin,
    )


def solution_error(grid: GridField, t_index: int) -> float:
    """Masked L2 distance of (phi, A) from the analytic solution at one level."""
    lvl = grid.level_by_index(t_index)
    margin = grid.interior_mask_margin()
    pa = grid.analytic.phi(grid.X, grid.Y, grid.Z, lvl.time)
    ax, ay, az = grid.analytic.a(grid.X, grid.Y, grid.Z, lvl.time)
    diffs = [lvl.phi - pa, lvl.ax - ax, lvl.ay - ay, lvl.az - az]
    return _masked_l2(diffs, margin, grid.h)


# -- advected integral -----------------------------------------------------------


@dataclass(frozen=True)
class Ball:
    center0: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center0", np.asarray(self.center0, dtype=float))
        if self.radius <= 0.0:
            raise ValueError("ball radius must be positive")


@dataclass
class ScalarSeries:
    """Scalar samples on a static uniform cube at a list of times."""

    frames: list[np.ndarray]
    times: np.ndarray
    origin: np.ndarray
    h: float

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.origin = np.asarray(self.origin, dtype=float)
        if len(self.frames) != self.times.size:
            raise ValueError("frames and times length mismatch")


def _smoothstep(u: np.ndarray) -> np.ndarray:
    u = np.clip(u, 0.0, 1.0)
    return u * u * u * (u * (6.0 * u - 15.0) + 10.0)


def advected_integral(series: ScalarSeries, v, ball: Ball, shell_width: float | None = None) -> np.ndarray:
    """Windowed ball quadrature along the moving center c(t) = center0 + v t.

    The indicator is smoothed over shell_width (default 3h; 0 gives the hard
    ball) so the quadrature varies smoothly as the center slides across grid
    cells; a hard indicator has O(h) staircase noise.
    """
    v = np.asarray(v, dtype=float)
    if float(v @ v) >= 1.0:
        raise ValueError(f"|v| must be < 1, got {np.linalg.norm(v)}")
    delta = 3.0 * series.h if shell_width is None else shell_width
    n = series.frames[0].shape[0]
    lo = series.origin
    hi = series.origin + (n - 1) * series.h
    reach = ball.radius + delta
    for t in series.times:
        c = ball.center0 + v * t
        if np.any(c - reach < lo) or np.any(c + reach > hi):
            raise BallExitsGrid(f"ball at t = {t:g} (center {c.tolist()}) leaves the grid")
    axis = np.arange(n) * series.h
    xg = lo[0] + axis
    yg = lo[1] + axis
    zg = lo[2] + axis
    x3, y3, z3 = np.meshgrid(xg, yg, zg, indexing="ij")
    out = np.empty(series.times.size)
    cell = series.h ** 3
    for i, t in enumerate(series.times):
        c = ball.center0 + v * t
        d = np.sqrt((x3 - c[0]) ** 2 + (y3 - c[1]) ** 2 + (z3 - c[2]) ** 2)
        if delta == 0.0:
            wgt = (d <= ball.radius).astype(float)
        else:
            wgt = _smoothstep((ball.radius - d) / delta)
        out[i] = float(np.sum(wgt * series.frames[i])) * cell
    return out


def sample_scalar_series(fn, n: int, h: float, times) -> ScalarSeries:
    """Sample a callable fn(points (...,3), t) on a centered cube at the times."""
    half = 0.5 * (n - 1) * h
    axis = np.arange(n) * h - half
    x3, y3, z3 = np.meshgrid(axis, axis, axis, indexing="ij")
    pts = np.stack([x3, y3, z3], axis=-1)
    times = np.asarray(times, dtype=float)
    frames = [np.asarray(fn(pts, t), dtype=float) for t in times]
    return ScalarSeries(frames=frames, times=times, origin=np.array([-half] * 3), h=h)
