"""Finite-difference verification that the gauge-constrained wave equations
reproduce the Maxwell equations, plus the advected-integral conservation check.

Evolution is plain second-order leapfrog for the four scalar wave equations on
a collocated cube, with sources prescribed analytically (separable profiles so
continuity holds in closed form) and the boundary shell pinned to the analytic
far field.  The grid keeps its coordinates as sparse axes (``X`` of shape
(n, 1, 1), ``Y`` (1, n, 1), ``Z`` (1, 1, n)) that broadcast to the cube, so
no n^3 coordinate array is held; every profile, seed and face value is the
same elementwise arithmetic as on full coordinate cubes, bit for bit.

Every whole-grid pass runs on a thread pool or not at all.  Each field update
splits the interior x-planes into contiguous bands, one per core the process
may run on (``os.sched_getaffinity``, else ``os.cpu_count``; at least one
span of about 37k cells each), and steps them concurrently on threads:
numpy's float64 ufuncs release the interpreter lock.  A band works on the
flattened array in spans of whole planes (about 37k cells, so the stencil's
reads stay in cache), each cell's operations in one fixed order, so every
value is bit-identical to the whole-grid ``c0 u - prev + (c1 S + dt^2 src)``
whatever the band count, with ``c1 = dt^2/h^2``, ``c0 = 2 - 6 c1`` and ``S``
the sum of the six neighbours: 10 passes over a span with no source term and
no division (the textbook ``2u - prev + dt^2 (laplacian2(u) + src)`` took 13,
and differs only by round-off).  Each span forms its own part of
``dt^2 src`` from the profiles, in the order ``SeparableSources`` sums them,
so no whole-grid source array is built, and then writes the y- and z-faces
of its planes while they are in cache.  The thread pool lives for one
``evolve_wave`` call.  A component is stepped only
when the step can change it: one with no source terms, two all-zero newest
levels and all-zero pinned faces at the new time gets a fresh zero array with
those faces written (the plane wave's phi and az, whose polarization has a z
component of exactly 0.0, so its faces carry -0.0), or, if it has no analytic
callable (the dipole's ax and ay), one read-only zero level that every such
component shares for the whole call.

E and B are assembled from the potentials with the same 2nd-order centered
stencils the evolution uses; the residual divergences and curls are evaluated
with 4th-order centered stencils so each residual measures how well the
*evolved solution* satisfies the continuum equation (with matching 2nd-order
stencils, the curl-of-gradient and divergence-of-curl residuals are discrete
identities and vanish to roundoff, which would make convergence ratios
meaningless).  Norms are L2 over an interior mask that excludes a 10% margin.
Only that masked core is assembled, in halo'd x-slabs of 8 planes, with each
cell's operations in the whole-grid order.  The slabs are split into
contiguous runs, one per band of the leapfrog (at most one per slab), and
assembled concurrently on a pool that lives for one report; a slab drops
each term after its last use, so each concurrent slab holds about 6 MB of
temporaries at n = 96.  Each squared residual is summed per core x-plane,
and each norm is the correctly rounded sum (``math.fsum``) of its plane
sums, so every norm is bit-identical to the whole-grid assembly summed the
same way, whatever the slab width or thread count; no core-sized buffer of
squares is kept.
The sources, too, are taken per slab: rho on the slab's core, j on its halo.
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
    return (8.0 * p1 - p2 - 8.0 * m1 + m2) / (12.0 * h)


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

    With ``box`` (a tuple of slices) the sum is taken on those cells only,
    with each cell's operations in the whole-grid order.
    """

    def __init__(self, rho_terms=(), jx_terms=(), jy_terms=(), jz_terms=()):
        self._terms = {
            "rho": list(rho_terms), "jx": list(jx_terms),
            "jy": list(jy_terms), "jz": list(jz_terms),
        }

    def _eval(self, name: str, t: float, box=None):
        terms = self._terms[name]
        if not terms:
            return 0.0
        def cut(profile):
            return profile if box is None else profile[box]

        acc = cut(terms[0][0]) * terms[0][1](t)
        for profile, g in terms[1:]:
            acc = acc + cut(profile) * g(t)
        return acc

    def rho(self, t, box=None):
        return self._eval("rho", t, box)

    def j(self, t, box=None):
        return tuple(self._eval(name, t, box) for name in ("jx", "jy", "jz"))


class AnalyticFarField:
    """Closed-form (phi, A) used for initial data, boundary pinning and errors."""

    def __init__(self, phi=None, a=None):
        self._phi = phi
        self._a = a

    def phi(self, x, y, z, t):
        return self._phi(x, y, z, t) if self._phi else _zeros_on(x, y, z)

    def a(self, x, y, z, t):
        if self._a is None:
            return _zeros_on(x, y, z), _zeros_on(x, y, z), _zeros_on(x, y, z)
        return self._a(x, y, z, t)


def _zeros_on(x, y, z) -> np.ndarray:
    """Zeros of the shape the coordinate arrays broadcast to."""
    return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(z)))


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
    """Collocated cube with a rolling history of potential levels.

    ``X``, ``Y`` and ``Z`` are sparse axes of shapes (n, 1, 1), (1, n, 1) and
    (1, 1, n) that broadcast to the cube; ``np.broadcast_arrays`` gives the
    full coordinate arrays.
    """

    FIELD_NAMES = ("phi", "ax", "ay", "az")
    #: stored time levels: the three a residual report reads (the leapfrog
    #: needs two); the presets stop one level past their report, so their
    #: last three levels are the report's (at n = 96, levels 29-31)
    history = 3

    def __init__(self, n: int, h: float, dt: float, sources: SeparableSources,
                 analytic: AnalyticFarField):
        self.n = n
        self.h = h
        self.dt = dt
        self.sources = sources
        self.analytic = analytic
        half = 0.5 * (n - 1) * h
        axis = np.arange(n) * h - half
        self.origin = np.array([-half, -half, -half])
        self.X, self.Y, self.Z = np.meshgrid(axis, axis, axis, indexing="ij", sparse=True)
        self.levels: list[Level] = []
        self._faces = []
        #: per face of _faces, its coordinates as arrays that broadcast to the
        #: face's cells: each sparse axis at the face's plane (cell ``side``
        #: of the axis that runs along face_axis, the one cell of the others)
        self._face_xyz = []
        for face_axis in range(3):
            for side in (0, n - 1):
                self._faces.append(tuple(side if a == face_axis else slice(None) for a in range(3)))
                self._face_xyz.append(tuple(np.take(c, side if c.shape[face_axis] > 1 else 0, axis=face_axis)
                                            for c in (self.X, self.Y, self.Z)))
        #: deterministic run counters, filled by evolve_wave
        self.stats: dict = {"grid_steps": 0, "evolved": []}

    def seed_from_analytic(self) -> "GridField":
        """Levels 0 and 1 from the analytic far field at t = 0 and dt; a value
        that does not vary along some axis is broadcast to the full cube."""
        shape = (self.n,) * 3

        def full(v):
            v = np.asarray(v, dtype=float)
            return v if v.shape == shape else np.broadcast_to(v, shape).copy()

        for idx, t in enumerate((0.0, self.dt)):
            ax, ay, az = self.analytic.a(self.X, self.Y, self.Z, t)
            phi = self.analytic.phi(self.X, self.Y, self.Z, t)
            self.levels.append(Level(idx, t, full(phi), full(ax), full(ay), full(az)))
        return self

    def seed_zero(self) -> "GridField":
        for idx in range(2):
            zeros = [np.zeros((self.n,) * 3) for _ in range(4)]
            self.levels.append(Level(idx, idx * self.dt, *zeros))
        return self

    def perturb_initial_a(self, delta) -> "GridField":
        """Add a vector field (callable of X,Y,Z -> 3 arrays) to both seeded A
        levels.  Each sum is a new array, so a level may share a read-only one."""
        dx, dy, dz = delta(self.X, self.Y, self.Z)
        for lvl in self.levels:
            lvl.ax = lvl.ax + dx
            lvl.ay = lvl.ay + dy
            lvl.az = lvl.az + dz
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


def _pin_faces(out: np.ndarray, faces, x0: int, x1: int) -> None:
    """Write the faces' values on the x-planes x0 .. x1-1 of out, in order.

    ``faces`` is ``[(index, values), ...]`` with index a y- or z-face of
    ``GridField._faces`` (whole along x) and values broadcast to that face's
    (n, n) cells."""
    for face, values in faces:
        out[(slice(x0, x1),) + face[1:]] = values[x0:x1]


def _step_band(uf, pf, terms, of, n: int, c0: float, c1: float, x0: int, x1: int, faces) -> None:
    """Leapfrog update of the interior x-planes x0 .. x1-1 of the flat arrays.

    Each cell gets ``c0*u - prev + (c1*S + src)``, with ``S`` the six
    neighbours summed as ``(x+1 + x-1) + y+1 + y-1 + z+1 + z-1`` and ``src``
    the source already scaled by dt^2.  It runs in spans of whole planes,
    about _SPAN_CELLS cells each, one ufunc call per operation: 10 passes
    with no source term, 11 with one.  A span of k planes x .. x+k-1 is the
    flat range from row j = 1 of plane x to row j = n-2 of plane x+k-1, so it
    also covers the face rows j = n-1, j = 0 between its planes; the stencil
    reads the flat offsets +-1 (z), +-n (y) and +-n*n (x), which stay inside
    the array for 1 <= x and x+k <= n-1.  ``terms`` is
    ``[(flat profile, g(t)*dt^2), ...]``: each span forms its source as
    ``SeparableSources`` sums it, the first product and then each further one
    added; with no terms it adds the scalar 0.0.  Right after each span the
    ``faces`` (see ``_pin_faces``) of its planes are written, while the span
    is still in cache.
    """
    nn = n * n
    span = max(1, _SPAN_CELLS // nn)
    acc = np.empty(span * nn)
    tmp = np.empty(span * nn)
    more = np.empty(span * nn) if len(terms) > 1 else None
    out = of.reshape(n, n, n)
    for x in range(x0, x1, span):
        xe = min(x + span, x1)
        c = x * nn + n
        e = xe * nn - n
        a, t = acc[:e - c], tmp[:e - c]
        np.add(uf[c + nn:e + nn], uf[c - nn:e - nn], out=t)
        t += uf[c + n:e + n]
        t += uf[c - n:e - n]
        t += uf[c + 1:e + 1]
        t += uf[c - 1:e - 1]
        t *= c1
        if terms:
            np.multiply(terms[0][0][c:e], terms[0][1], out=a)
            for profile, g in terms[1:]:
                a += np.multiply(profile[c:e], g, out=more[:e - c])
            t += a
        else:
            t += 0.0
        np.multiply(uf[c:e], c0, out=a)
        a -= pf[c:e]
        np.add(a, t, out=of[c:e])
        _pin_faces(out, faces, x, xe)


def _run_shares(pool: ThreadPoolExecutor | None, share, count: int) -> None:
    """share(0), ..., share(count - 1): the calling thread runs share(0) and
    ``pool``'s threads the others, concurrently (numpy's float64 ufuncs
    release the interpreter lock); with no pool all run here, in order.
    Returns once every share is done."""
    if pool is None:
        for k in range(count):
            share(k)
        return
    rest = [pool.submit(share, k) for k in range(1, count)]
    try:
        share(0)
    finally:
        for future in rest:
            future.result()


def _step_field(u: np.ndarray, prev: np.ndarray, terms, h: float, dt2: float, faces,
                pool: ThreadPoolExecutor | None = None, bands: int = 1) -> np.ndarray:
    """One leapfrog update of one field, its interior x-planes split into bands.

    ``terms`` is the field's source as ``[(flat profile, g(t)), ...]``.  Every
    interior value is bit-identical to
    ``c0*u - prev + (c1*S + src)``, with ``c1 = dt2/h^2``, ``c0 = 2 - 6*c1``,
    ``S`` the six neighbours summed as ``_step_band`` sums them and ``src``
    the sum of ``profile*(g*dt2)`` in ``SeparableSources`` order (0.0 for
    none), whatever the band count: each cell's operations run in the same
    order.  It differs from the textbook ``2u - prev + dt2*(laplacian2(u, h)
    + src)`` by round-off only (at dt = h/2, c1 = 1/4 and c0 = 1/2 exactly).
    ``faces`` is ``[(index, values), ...]`` for the y- and z-faces, in the
    order of ``GridField._faces``.  The bands are contiguous runs of x-planes,
    stepped by ``_run_shares`` on ``pool``; each band writes the faces on its
    own planes (``_pin_faces``).  The x = 0, x = n-1 planes stay unwritten:
    the caller pins them.
    """
    n = u.shape[0]
    uf, pf = u.reshape(-1), prev.reshape(-1)
    out = np.empty(u.shape)
    of = out.reshape(-1)
    edges = [1 + (n - 2) * b // bands for b in range(bands + 1)]
    c1 = dt2 / (h * h)
    c0 = 2.0 - 6.0 * c1
    scaled = [(p, g * dt2) for p, g in terms]

    def band(b):
        _step_band(uf, pf, scaled, of, n, c0, c1, edges[b], edges[b + 1], faces)

    _run_shares(pool, band, bands)
    return out


def _pinned_faces(grid: GridField, t: float) -> list[dict]:
    """Per face of grid._faces, the analytic values of the components that
    have an analytic callable at time t, from the face's broadcastable
    coordinates (each value broadcasts to the face)."""
    faces = []
    for xf, yf, zf in grid._face_xyz:
        pinned = {}
        if grid.analytic._phi is not None:
            pinned["phi"] = grid.analytic.phi(xf, yf, zf, t)
        if grid.analytic._a is not None:
            pinned["ax"], pinned["ay"], pinned["az"] = grid.analytic.a(xf, yf, zf, t)
        faces.append(pinned)
    return faces


def evolve_wave(grid: GridField, steps: int) -> GridField:
    """Second-order leapfrog for all four wave equations, Dirichlet analytic shell.

    Only arithmetic that reaches a stored value is done.  Each step first
    computes the pinned face values at the new time.  A component with no
    source terms, two all-zero newest levels and all-zero pinned faces is not
    stepped: its new level is ``np.zeros`` with the pinned faces written,
    which is bit for bit what the step gives, since adding the scalar source
    0.0 makes ``c1 S + 0.0`` +0.0 and so turns every interior -0.0 into +0.0.  With no analytic callable there are
    no faces to write, and every such component gets the same read-only zero
    array, made once per call.  The levels' zero-ness is checked once per
    call; the first kernel step of a component marks it non-zero for the rest
    of the call.  Sources are formed
    inside the bands (``_step_band``) from the profiles, flattened once per
    call.  Each field update is split into ``_band_count(n)`` bands, all but
    the first stepped on a thread pool that lives for this call only (no pool
    for one band).  A stepped component is ``c0 u - prev + (c1 S + dt^2 src)``
    in its interior (``_step_field``), bit-identical for any band count and
    within round-off of ``2u - prev + dt^2 (laplacian2(u) + src)``.  The bands
    write the y- and z-faces of their planes; this call writes the x-faces and
    then the y- and z-faces of planes 0 and n-1, so where faces meet the last
    of the order x, y, z wins, as when the six faces are written whole.  The
    oldest level is dropped before the new one is allocated, so a step holds
    at most ``grid.history`` (3) levels, the new one included.
    ``grid.stats`` accumulates ``grid_steps`` and the sorted names of the
    components the kernel stepped.
    """
    if not grid.dt <= grid.h / _SQRT3:
        raise CFLViolation(f"dt = {grid.dt:g} > h/sqrt(3) = {grid.h / _SQRT3:g}")
    if len(grid.levels) < 2:
        raise InsufficientHistory("grid needs two seeded time levels")
    dt2 = grid.dt * grid.dt
    shape = (grid.n,) * 3
    profiles = {name: [(np.broadcast_to(p, shape).reshape(-1), g)
                       for p, g in grid.sources._terms[_SOURCE_OF[name]]]
                for name in grid.FIELD_NAMES}
    # sourceless components whose two newest levels are all zero
    zero = {name for name in grid.FIELD_NAMES if not profiles[name]
            and not grid.levels[-1].field(name).any() and not grid.levels[-2].field(name).any()}
    evolved = set()
    still = None  # the shared read-only zero level
    bands = _band_count(grid.n)
    with ThreadPoolExecutor(bands - 1) if bands > 1 else nullcontext() as pool:
        for _ in range(steps):
            cur, prev = grid.levels[-1], grid.levels[-2]
            t_new = cur.time + grid.dt
            faces = _pinned_faces(grid, t_new)
            if len(grid.levels) >= grid.history:
                grid.levels.pop(0)
            new_fields = {}
            for name in grid.FIELD_NAMES:
                if name in zero and name not in faces[0]:
                    if still is None:  # no analytic callable: the faces stay +0.0
                        still = np.zeros(shape)
                        still.flags.writeable = False
                    new_fields[name] = still
                    continue
                values = [pinned.get(name, 0.0) for pinned in faces]
                if name in zero and not any(np.any(v) for v in values):
                    new = np.zeros(shape)
                    for face, v in zip(grid._faces, values):
                        new[face] = v
                else:
                    terms = [(p, g(cur.time)) for p, g in profiles[name]]
                    yz = [(face, np.broadcast_to(v, shape[1:])) for face, v in zip(grid._faces[2:], values[2:])]
                    new = _step_field(cur.field(name), prev.field(name), terms,
                                      grid.h, dt2, yz, pool, bands)
                    new[grid._faces[0]] = values[0]
                    new[grid._faces[1]] = values[1]
                    _pin_faces(new, yz, 0, 1)
                    _pin_faces(new, yz, grid.n - 1, grid.n)
                    zero.discard(name)
                    evolved.add(name)
                new_fields[name] = new
            grid.levels.append(Level(cur.index + 1, t_new, new_fields["phi"],
                                     new_fields["ax"], new_fields["ay"], new_fields["az"]))
    if steps > 0:
        grid.stats["grid_steps"] += steps
        grid.stats["evolved"] = sorted(set(grid.stats["evolved"]) | evolved)
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


_SLAB = 8  # core x-planes per slab of the residual assembly


def maxwell_residuals(grid: GridField, t_index: int | None = None) -> ResidualReport:
    """Assemble E, B at the centered level and report all six residual norms.

    Only the masked core enters a norm, so it is assembled in x-slabs of the
    core, each with a halo: 2 cells of E and B for the 4th-order operators,
    which reach 3 cells of potentials (the margin is at least 3).  Each
    residual component is squared in place and summed per core x-plane
    (one ``np.sum`` per plane) into a ``(10, core)`` table; each norm is
    ``sqrt(h^3 * math.fsum(its plane sums))``.  The slabs are split into
    ``min(_band_count(n), slabs)`` contiguous runs that ``_run_shares``
    assembles concurrently, on a pool that lives for this call; each slab
    writes only its own columns of the table, and a plane's sum and
    ``fsum``'s correctly rounded total depend on neither the slab width nor
    the split.
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
    # per core x-plane, the sums of the squares of gauss, faraday x/y/z,
    # ampere x/y/z, nomono, gauge and continuity (0.0 with no sources)
    sums = np.zeros((10, max(hi - lo, 0)))

    terms = grid.sources._terms
    sourced = any(terms[name] for name in ("rho", "jx", "jy", "jz"))
    a_cur = (cur.ax, cur.ay, cur.az)

    def part(src, box):
        return src if np.ndim(src) == 0 else src[box]

    def assemble(x0):
        x1 = min(x0 + _SLAB, hi)
        core = (slice(x0, x1), slice(lo, hi), slice(lo, hi))
        halo = (slice(x0 - 2, x1 + 2), slice(lo - 2, hi + 2), slice(lo - 2, hi + 2))
        inner = (slice(2, x1 - x0 + 2), slice(2, hi - lo + 2), slice(2, hi - lo + 2))
        planes = sums[:, x0 - lo:x1 - lo]

        def add(k, residual):
            np.square(residual, out=residual)
            np.sum(residual, axis=(1, 2), out=planes[k])

        # assembly (2nd order, matching the evolution), each residual as soon
        # as its terms are formed and each term dropped after its last use,
        # so that few slab arrays are alive at once; core = halo[inner]
        dphi_dt = (nxt.phi[halo] - prev.phi[halo]) / (2.0 * dt)
        da_dt = [(nxt.field(f)[halo] - prev.field(f)[halo]) / (2.0 * dt) for f in ("ax", "ay", "az")]
        e = [-da_dt[i] - _d2(cur.phi, halo, i, h) for i in range(3)]
        # sources on this slab: rho on the core, j on the halo for div j
        add(0, _div(e, inner, _d4, h) - grid.sources.rho(cur.time, core))
        curl_e = _curl(e, inner, _d4, h)
        del e
        db_dt = _curl(da_dt, inner, _d2, h)
        del da_dt
        for i in range(3):
            add(1 + i, curl_e[i] + db_dt[i])
        del curl_e, db_dt
        b = _curl(a_cur, halo, _d2, h)
        add(7, _div(b, inner, _d4, h))
        curl_b = _curl(b, inner, _d4, h)
        del b
        d2a_dt2 = [(nxt.field(f)[core] - 2.0 * cur.field(f)[core] + prev.field(f)[core]) / (dt * dt)
                   for f in ("ax", "ay", "az")]
        de_dt = [-d2a_dt2[i] - _d2(dphi_dt, inner, i, h) for i in range(3)]
        del d2a_dt2
        j = grid.sources.j(cur.time, halo)
        for i in range(3):
            add(4 + i, curl_b[i] - de_dt[i] - part(j[i], inner))
        del curl_b, de_dt
        add(8, dphi_dt[inner] + _div(a_cur, core, _d4, h))
        if sourced:
            drho_dt = 0.0
            if terms["rho"]:
                drho_dt = (grid.sources.rho(nxt.time, core) - grid.sources.rho(prev.time, core)) / (2.0 * dt)
            div_j = 0.0
            for axis, comp in enumerate(j):
                if np.ndim(comp) > 0:
                    div_j = div_j + _d4(comp, inner, axis, h)
            add(9, drho_dt + div_j)

    starts = range(lo, hi, _SLAB)
    runs = min(_band_count(grid.n), len(starts))

    def run(k):
        for x0 in starts[len(starts) * k // runs:len(starts) * (k + 1) // runs]:
            assemble(x0)

    with ThreadPoolExecutor(runs - 1) if runs > 1 else nullcontext() as pool:
        _run_shares(pool, run, runs)

    def norm(k0, k1):
        return math.sqrt(math.fsum(sums[k0:k1].flat) * h ** 3)

    return ResidualReport(
        gauss=norm(0, 1), faraday=norm(1, 4), ampere=norm(4, 7),
        nomono=norm(7, 8), gauge=norm(8, 9), continuity=norm(9, 10),
        time=cur.time, h=h, dt=dt, margin=margin,
    )


def solution_error(grid: GridField, t_index: int) -> float:
    """Masked L2 distance of (phi, A) from the analytic solution at one level;
    the solution is formed on the masked core only, from the sparse axes cut to it."""
    lvl = grid.level_by_index(t_index)
    margin = grid.interior_mask_margin()
    cut = slice(margin, grid.n - margin)
    x, y, z = grid.X[cut], grid.Y[:, cut], grid.Z[:, :, cut]
    exact = (grid.analytic.phi(x, y, z, lvl.time), *grid.analytic.a(x, y, z, lvl.time))
    total = 0.0
    for name, value in zip(grid.FIELD_NAMES, exact):
        total += float(np.sum((lvl.field(name)[cut, cut, cut] - value) ** 2))
    return math.sqrt(total * grid.h ** 3)


# -- advected integral -----------------------------------------------------------


@dataclass(frozen=True)
class Ball:
    center0: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center0", np.asarray(self.center0, dtype=float))
        if not self.radius > 0.0:
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
    cells; a hard indicator has O(h) staircase noise.  The weights are formed
    on sparse coordinate axes and again only when the center moves (once for
    a fixed ball, v = 0).
    """
    v = np.asarray(v, dtype=float)
    if not float(v @ v) < 1.0:
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
    x3, y3, z3 = np.meshgrid(xg, yg, zg, indexing="ij", sparse=True)
    out = np.empty(series.times.size)
    cell = series.h ** 3
    center = wgt = None
    for i, t in enumerate(series.times):
        c = ball.center0 + v * t
        if wgt is None or not np.array_equal(c, center):
            center = c
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
