"""Finite-difference verification that the gauge-constrained wave equations
reproduce the Maxwell equations, plus the advected-integral conservation check.

Evolution is plain second-order leapfrog for the four scalar wave equations on
a collocated cube, with sources prescribed analytically (separable profiles so
continuity holds in closed form) and the boundary shell pinned to the analytic
far field.  Each field update splits the interior x-planes into contiguous
bands, one per core the process may run on (``os.sched_getaffinity``, else
``os.cpu_count``; at least one span of about 37k cells each), and steps them
concurrently on threads: numpy's float64 ufuncs release the interpreter lock.  A band works on the flattened array in spans of
whole planes (about 37k cells, so the stencil's reads stay in cache), with the
whole-grid step's operations in the same order, so every value is
bit-identical to ``2u - prev + dt^2 (laplacian2(u) + src)`` whatever the band
count.  The thread pool lives for one ``evolve_wave`` call.  A
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
Only that masked core is assembled, in halo'd x-slabs of 8 planes, with each
cell's operations in the whole-grid order and each squared residual summed
whole, so every norm is bit-identical to assembling the whole grid.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass

import numpy as np

from .errors import BallExitsGrid, CFLViolation, InsufficientHistory

_SQRT3 = math.sqrt(3.0)


# -- difference operators -----------------------------------------------------


def laplacian2(u: np.ndarray, h: float) -> np.ndarray:
    out = np.zeros_like(u)
    acc = -6.0 * u[1:-1, 1:-1, 1:-1]
    acc += u[2:, 1:-1, 1:-1] + u[:-2, 1:-1, 1:-1]
    acc += u[1:-1, 2:, 1:-1] + u[1:-1, :-2, 1:-1]
    acc += u[1:-1, 1:-1, 2:] + u[1:-1, 1:-1, :-2]
    out[1:-1, 1:-1, 1:-1] = acc / (h * h)
    return out


def _at(u: np.ndarray, box: tuple, axis: int, k: int) -> np.ndarray:
    """u on the cells of box moved k cells along axis."""
    sl = list(box)
    sl[axis] = slice(box[axis].start + k, box[axis].stop + k)
    return u[tuple(sl)]


def _d2(u, box, axis, h):
    """2nd-order centered d/dx_axis of u on the cells of box."""
    return (_at(u, box, axis, 1) - _at(u, box, axis, -1)) / (2.0 * h)


def _d4(u, box, axis, h):
    """4th-order centered d/dx_axis of u on the cells of box."""
    p2, p1, m1, m2 = (_at(u, box, axis, k) for k in (2, 1, -1, -2))
    return (-p2 + 8.0 * p1 - 8.0 * m1 + m2) / (12.0 * h)


def _div(v, box, d, h):
    return d(v[0], box, 0, h) + d(v[1], box, 1, h) + d(v[2], box, 2, h)


def _curl(v, box, d, h):
    return (
        d(v[2], box, 1, h) - d(v[1], box, 2, h),
        d(v[0], box, 2, h) - d(v[2], box, 0, h),
        d(v[1], box, 0, h) - d(v[0], box, 1, h),
    )


# -- sources and analytic far field --------------------------------------------


class SeparableSources:
    """rho(r,t) = sum profile * g(t) per component; zero components stay scalar 0.

    With ``out`` the sum is written into that array (same operation order)
    instead of a fresh one; a component with no terms still returns 0.0.
    """

    def __init__(self, rho_terms=(), jx_terms=(), jy_terms=(), jz_terms=()):
        self._terms = {
            "rho": list(rho_terms), "jx": list(jx_terms),
            "jy": list(jy_terms), "jz": list(jz_terms),
        }

    def _eval(self, name: str, t: float, out=None):
        terms = self._terms[name]
        if not terms:
            return 0.0
        acc = np.multiply(terms[0][0], terms[0][1](t), out=out)
        for profile, g in terms[1:]:
            acc = np.add(acc, profile * g(t), out=out)
        return acc

    def rho(self, t, out=None):
        return self._eval("rho", t, out)

    def j(self, t, out=(None, None, None)):
        return tuple(self._eval(name, t, o) for name, o in zip(("jx", "jy", "jz"), out))


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
        self._faces = [tuple(side if a == face_axis else slice(None) for a in range(3))
                       for face_axis in range(3) for side in (0, n - 1)]
        #: deterministic run counters, filled by evolve_wave
        self.stats: dict = {"grid_steps": 0, "evolved": []}

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


#: cells per ufunc call of a band (4 planes at n = 96, 288 KB per scratch
#: buffer): at 48^3 two threads on 4-plane spans waited on each other for the
#: interpreter lock between calls and ran slower than one thread
_SPAN_CELLS = 4 * 96 * 96


def _band_count(n: int) -> int:
    """Bands of interior x-planes one field update is split into: one per core
    this process may run on, each of at least _SPAN_CELLS cells."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return min(cores, max(1, (n - 2) * n * n // _SPAN_CELLS))


def _step_band(uf, pf, src, sf, of, n: int, hh: float, dt2: float, x0: int, x1: int) -> None:
    """Leapfrog update of the interior x-planes x0 .. x1-1 of the flat arrays.

    It runs in spans of whole planes, about _SPAN_CELLS cells each, one ufunc
    call per operation.  A span of k planes x .. x+k-1 is the flat range from
    row j = 1 of plane x to row j = n-2 of plane x+k-1, so it also covers the
    face rows j = n-1, j = 0 between its planes; the stencil reads the flat
    offsets +-1 (z), +-n (y) and +-n*n (x), which stay inside the array for
    1 <= x and x+k <= n-1.
    """
    nn = n * n
    span = max(1, _SPAN_CELLS // nn)
    acc = np.empty(span * nn)
    tmp = np.empty(span * nn)
    for x in range(x0, x1, span):
        c = x * nn + n
        e = min(x + span, x1) * nn - n
        a, t = acc[:e - c], tmp[:e - c]
        np.multiply(uf[c:e], -6.0, out=a)
        np.add(uf[c + nn:e + nn], uf[c - nn:e - nn], out=t)
        a += t
        np.add(uf[c + n:e + n], uf[c - n:e - n], out=t)
        a += t
        np.add(uf[c + 1:e + 1], uf[c - 1:e - 1], out=t)
        a += t
        a /= hh
        a += src if sf is None else sf[c:e]
        a *= dt2
        np.multiply(uf[c:e], 2.0, out=t)
        t -= pf[c:e]
        np.add(t, a, out=of[c:e])


def _step_field(u: np.ndarray, prev: np.ndarray, src, h: float, dt2: float,
                pool: ThreadPoolExecutor | None = None, bands: int = 1) -> np.ndarray:
    """One leapfrog update of one field, its interior x-planes split into bands.

    Every interior value is bit-identical to
    ``2.0*u - prev + dt2*(laplacian2(u, h) + src)``, whatever the band count:
    each cell's operations run in the same order.  The bands are contiguous
    runs of x-planes: the calling thread steps the first and ``pool``'s
    threads the others, concurrently (numpy's float64 ufuncs release the
    interpreter lock); with no pool they run one after another.  The
    x = 0, x = n-1 planes stay unwritten and the other face cells get
    wrap-around values: the caller pins all six faces.
    """
    n = u.shape[0]
    uf, pf = u.reshape(-1), prev.reshape(-1)
    sf = None if np.ndim(src) == 0 else np.broadcast_to(src, u.shape).reshape(-1)
    out = np.empty(u.shape)
    of = out.reshape(-1)
    edges = [1 + (n - 2) * b // bands for b in range(bands + 1)]

    def band(b):
        _step_band(uf, pf, src, sf, of, n, h * h, dt2, edges[b], edges[b + 1])

    if pool is None:
        for b in range(bands):
            band(b)
        return out
    rest = [pool.submit(band, b) for b in range(1, bands)]
    band(0)
    for future in rest:
        future.result()
    return out


def evolve_wave(grid: GridField, steps: int) -> GridField:
    """Second-order leapfrog for all four wave equations, Dirichlet analytic shell.

    Components that stay exactly zero (see ``_stays_zero``) are not evolved:
    each new level holds a fresh ``np.zeros`` for them.  Each field update is
    split into ``_band_count(n)`` bands, all but the first stepped on a thread
    pool that lives for this call only (no pool for one band).
    ``grid.stats`` accumulates ``grid_steps`` and the sorted names of the
    evolved components.
    """
    if grid.dt > grid.h / _SQRT3:
        raise CFLViolation(f"dt = {grid.dt:g} > h/sqrt(3) = {grid.h / _SQRT3:g}")
    if len(grid.levels) < 2:
        raise InsufficientHistory("grid needs two seeded time levels")
    dt2 = grid.dt * grid.dt
    n = grid.n
    evolved = [name for name in grid.FIELD_NAMES if not _stays_zero(grid, name)]
    zero = [name for name in grid.FIELD_NAMES if name not in evolved]
    src = {name: np.empty((n,) * 3) if grid.sources._terms[_SOURCE_OF[name]] else None
           for name in grid.FIELD_NAMES}
    bands = _band_count(n)
    with ThreadPoolExecutor(bands - 1) if bands > 1 else nullcontext() as pool:
        for _ in range(steps):
            cur, prev = grid.levels[-1], grid.levels[-2]
            t_new = cur.time + grid.dt
            rho = grid.sources.rho(cur.time, out=src["phi"])
            jx, jy, jz = grid.sources.j(cur.time, out=(src["ax"], src["ay"], src["az"]))
            srcs = {"phi": rho, "ax": jx, "ay": jy, "az": jz}
            new_fields = {name: np.zeros((n,) * 3) for name in zero}
            for name in evolved:
                new_fields[name] = _step_field(cur.field(name), prev.field(name), srcs[name],
                                               grid.h, dt2, pool, bands)
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
        return asdict(self)


def _l2(squares, h: float) -> float:
    """sqrt(h^3 * sum of the arrays' sums), each summed whole, in order."""
    total = 0.0
    for sq in squares:
        total += float(np.sum(sq))
    return math.sqrt(total * h ** 3)


_SLAB = 8  # core x-planes per slab of the residual assembly


def maxwell_residuals(grid: GridField, t_index: int | None = None) -> ResidualReport:
    """Assemble E, B at the centered level and report all six residual norms.

    Only the masked core enters a norm, so it is assembled in x-slabs of the
    core, each with a halo: 2 cells of E and B for the 4th-order operators,
    which reach 3 cells of potentials (the margin is at least 3).  Each
    residual component's square goes into its own core-sized buffer, summed
    whole, so every norm is bit-identical to the whole-grid assembly.
    """
    if len(grid.levels) < 3:
        raise InsufficientHistory(f"need 3 stored levels, have {len(grid.levels)}")
    if t_index is None:
        t_index = grid.levels[-2].index
    prev = grid.level_by_index(t_index - 1)
    cur = grid.level_by_index(t_index)
    nxt = grid.level_by_index(t_index + 1)
    h, dt = grid.h, grid.dt
    margin = grid.interior_mask_margin()
    lo, hi = margin, grid.n - margin
    # squares of gauss, faraday x/y/z, ampere x/y/z, nomono, gauge, continuity
    sq = np.empty((10,) + (max(hi - lo, 0),) * 3)

    rho = grid.sources.rho(cur.time)
    j = grid.sources.j(cur.time)
    rho_p = grid.sources.rho(prev.time)
    rho_n = grid.sources.rho(nxt.time)
    sourced = np.ndim(rho_n) > 0 or any(np.ndim(c) > 0 for c in j)
    a_cur = (cur.ax, cur.ay, cur.az)

    def part(src, box):
        return src if np.ndim(src) == 0 else src[box]

    for x0 in range(lo, hi, _SLAB):
        x1 = min(x0 + _SLAB, hi)
        core = (slice(x0, x1), slice(lo, hi), slice(lo, hi))
        halo = (slice(x0 - 2, x1 + 2), slice(lo - 2, hi + 2), slice(lo - 2, hi + 2))
        inner = (slice(2, x1 - x0 + 2), slice(2, hi - lo + 2), slice(2, hi - lo + 2))
        slab = sq[:, x0 - lo:x1 - lo]

        # assembly (2nd order, matching the evolution); core = halo[inner]
        dphi_dt = (nxt.phi[halo] - prev.phi[halo]) / (2.0 * dt)
        da_dt = [(nxt.field(f)[halo] - prev.field(f)[halo]) / (2.0 * dt) for f in ("ax", "ay", "az")]
        e = [-da_dt[i] - _d2(cur.phi, halo, i, h) for i in range(3)]
        b = _curl(a_cur, halo, _d2, h)
        db_dt = _curl(da_dt, inner, _d2, h)
        d2a_dt2 = [(nxt.field(f)[core] - 2.0 * cur.field(f)[core] + prev.field(f)[core]) / (dt * dt)
                   for f in ("ax", "ay", "az")]
        de_dt = [-d2a_dt2[i] - _d2(dphi_dt, inner, i, h) for i in range(3)]

        # residual operators (4th order)
        np.square(_div(e, inner, _d4, h) - part(rho, core), out=slab[0])
        curl_e = _curl(e, inner, _d4, h)
        curl_b = _curl(b, inner, _d4, h)
        for i in range(3):
            np.square(curl_e[i] + db_dt[i], out=slab[1 + i])
            np.square(curl_b[i] - de_dt[i] - part(j[i], core), out=slab[4 + i])
        np.square(_div(b, inner, _d4, h), out=slab[7])
        np.square(dphi_dt[inner] + _div(a_cur, core, _d4, h), out=slab[8])
        if sourced:
            drho_dt = (rho_n[core] - rho_p[core]) / (2.0 * dt) if np.ndim(rho_n) > 0 else 0.0
            div_j = 0.0
            for axis, comp in enumerate(j):
                if np.ndim(comp) > 0:
                    div_j = div_j + _d4(comp, core, axis, h)
            np.square(drho_dt + div_j, out=slab[9])

    return ResidualReport(
        gauss=_l2(sq[0:1], h), faraday=_l2(sq[1:4], h), ampere=_l2(sq[4:7], h),
        nomono=_l2(sq[7:8], h), gauge=_l2(sq[8:9], h),
        continuity=_l2(sq[9:10], h) if sourced else 0.0,
        time=cur.time, h=h, dt=dt, margin=margin,
    )


def solution_error(grid: GridField, t_index: int) -> float:
    """Masked L2 distance of (phi, A) from the analytic solution at one level."""
    lvl = grid.level_by_index(t_index)
    margin = grid.interior_mask_margin()
    pa = grid.analytic.phi(grid.X, grid.Y, grid.Z, lvl.time)
    ax, ay, az = grid.analytic.a(grid.X, grid.Y, grid.Z, lvl.time)
    core = (slice(margin, -margin),) * 3
    diffs = [lvl.phi - pa, lvl.ax - ax, lvl.ay - ay, lvl.az - az]
    return _l2((d[core] ** 2 for d in diffs), grid.h)


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
