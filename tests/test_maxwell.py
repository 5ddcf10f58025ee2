import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from types import SimpleNamespace
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vacuumflow import maxwell
from vacuumflow.errors import BallExitsGrid, CFLViolation, InsufficientHistory, NonPositiveMass
from vacuumflow.maxwell import (
    AnalyticFarField,
    Ball,
    GridField,
    ScalarSeries,
    SeparableSources,
    advected_integral,
    Level,
    ResidualReport,
    evolve_wave,
    laplacian2,
    maxwell_residuals,
    sample_scalar_series,
    solution_error,
)
from vacuumflow.config import MAX_GRID_N
from vacuumflow.presets import _grid_steps, advected_setup, dipole_grid, plane_wave_grid
from vacuumflow.quantum import QuantumKind, QuantumModel, WaveState, dispersion_check
from vacuumflow.verify import prop1_suite


def _empty_grid(n=16, h=0.2, dt=0.08):
    grid = GridField(n, h, dt, SeparableSources(), AnalyticFarField())
    grid.seed_zero()
    return grid


def test_zero_data_stays_zero():
    grid = _empty_grid()
    evolve_wave(grid, 6)
    rep = maxwell_residuals(grid)
    for key in ("gauss", "faraday", "ampere", "nomono", "gauge", "continuity"):
        assert getattr(rep, key) == 0.0
    assert np.all(grid.levels[-1].phi == 0.0)


def test_cfl_violation():
    grid = GridField(16, 0.2, 0.2, SeparableSources(), AnalyticFarField())
    grid.seed_zero()
    with pytest.raises(CFLViolation):
        evolve_wave(grid, 1)


def _cfl_step(dt):
    grid = GridField(16, 0.2, dt, SeparableSources(), AnalyticFarField())
    evolve_wave(grid.seed_zero(), 1)


def _advected_at(vx):
    series = ScalarSeries(frames=[np.zeros((16, 16, 16))] * 2, times=[0.0, 0.1], origin=np.zeros(3), h=0.1)
    advected_integral(series, [vx, 0.0, 0.0], Ball(np.full(3, 0.75), 0.1))


#: (guard, error class, a finite bad value, the message it gets); NaN must fail each guard too
_GUARDS = {
    "QuantumModel mass": (lambda v: QuantumModel(QuantumKind.FreeVacuum, [-1.0, -v], [0.0, 0.0]),
                          NonPositiveMass, -1.0, "mass profile min(-W) = -1 <= 0"),
    "WaveState dx": (lambda v: WaveState(np.ones(4), v, 1.0), ValueError, 0.0,
                     "WaveState needs dx > 0 and hbar > 0"),
    "dispersion_check w_const": (lambda v: dispersion_check(0.1, v, 0.1), ValueError, 0.5,
                                 "w_const must be negative, got 0.5"),
    "Ball radius": (lambda v: Ball(np.zeros(3), v), ValueError, -1.0, "ball radius must be positive"),
    "advected_integral v": (_advected_at, ValueError, 1.5, "|v| must be < 1, got 1.5"),
    "evolve_wave CFL": (_cfl_step, CFLViolation, 0.2, "dt = 0.2 > h/sqrt(3) = 0.11547"),
}


@pytest.mark.parametrize("name", _GUARDS)
def test_guards_reject_nan(name):
    """Each guard is the negation of its positive test, so a NaN fails it with the
    error a finite bad value gets, whose message is unchanged."""
    build, error, bad, message = _GUARDS[name]
    with pytest.raises(error) as finite:
        build(bad)
    assert str(finite.value) == message
    with pytest.raises(error):
        build(math.nan)


def test_insufficient_history():
    grid = _empty_grid()
    with pytest.raises(InsufficientHistory):
        maxwell_residuals(grid)
    evolve_wave(grid, 5)
    with pytest.raises(InsufficientHistory):
        maxwell_residuals(grid, t_index=0)  # rolled out of the retained window


def test_plane_wave_advances_as_analytic():
    grid, steps, report = plane_wave_grid(48)
    evolve_wave(grid, steps)
    err = solution_error(grid, report)
    assert err <= 0.05, f"plane-wave L2 error {err}"
    rep = maxwell_residuals(grid, report)
    assert 0.0 < rep.gauss < 0.1
    assert rep.continuity == 0.0  # no sources


def _whole_grid_solution_error(grid, t_index):
    """solution_error as it was first written: the analytic (phi, A) and the
    four differences on the whole cube, then the masked core's squares."""
    lvl = grid.level_by_index(t_index)
    margin = grid.interior_mask_margin()
    pa = grid.analytic.phi(grid.X, grid.Y, grid.Z, lvl.time)
    ax, ay, az = grid.analytic.a(grid.X, grid.Y, grid.Z, lvl.time)
    core = (slice(margin, -margin),) * 3
    diffs = [lvl.phi - pa, lvl.ax - ax, lvl.ay - ay, lvl.az - az]
    total = 0.0
    for d in diffs:
        total += float(np.sum(d[core] ** 2))
    return math.sqrt(total * grid.h ** 3)


@pytest.mark.parametrize("preset", [plane_wave_grid, dipole_grid])
@pytest.mark.parametrize("n", [16, 32])
def test_solution_error_on_the_core_matches_the_whole_grid(preset, n):
    """The exact solution formed on the masked core gives the whole-grid
    computation's value bit for bit (the dipole has no analytic callable, so
    its error is the norm of its potentials)."""
    grid, steps, report = preset(n)
    evolve_wave(grid, steps)
    got = solution_error(grid, report)
    assert got > 0.0
    assert got.hex() == _whole_grid_solution_error(grid, report).hex()


def test_dipole_gauge_residual_small():
    grid, steps, report = dipole_grid(48)
    evolve_wave(grid, steps)
    rep = maxwell_residuals(grid, report)
    assert 0.0 < rep.gauge < 0.05
    assert 0.0 < rep.continuity < 0.1


def test_gauge_violation_shows_in_gauge_residual():
    clean, steps, report = dipole_grid(48)
    evolve_wave(clean, steps)
    broken, _, _ = dipole_grid(48, gauge_violation=0.08)
    evolve_wave(broken, steps)
    rc = maxwell_residuals(clean, report)
    rb = maxwell_residuals(broken, report)
    assert rb.gauge > 20.0 * rc.gauge
    assert rb.gauss > 20.0 * rc.gauss


def test_grid_dump_binary(tmp_path):
    grid = _empty_grid(n=8)
    paths = grid.dump_binary(str(tmp_path / "dump"))
    assert len(paths) == 4
    raw = np.fromfile(paths[0], dtype=np.int64, count=3)
    npt.assert_array_equal(raw, [8, 8, 8])
    data = np.fromfile(paths[0], dtype=np.float64, offset=24)
    assert data.size == 8**3


def test_advected_static_constant():
    frames = [np.full((12, 12, 12), 2.5) for _ in range(5)]
    series = ScalarSeries(frames=frames, times=np.linspace(0, 1, 5),
                          origin=np.array([-1.1, -1.1, -1.1]), h=0.2)
    vals = advected_integral(series, np.zeros(3), Ball(center0=np.zeros(3), radius=0.5))
    npt.assert_allclose(vals, vals[0], rtol=1e-14)


def test_advected_ball_exits_grid():
    frames = [np.zeros((12, 12, 12)) for _ in range(3)]
    series = ScalarSeries(frames=frames, times=np.array([0.0, 1.0, 2.0]),
                          origin=np.array([-1.1, -1.1, -1.1]), h=0.2)
    with pytest.raises(BallExitsGrid):
        advected_integral(series, np.array([0.9, 0, 0]), Ball(center0=np.zeros(3), radius=0.5))
    with pytest.raises(ValueError):
        advected_integral(series, np.array([1.1, 0, 0]), Ball(center0=np.zeros(3), radius=0.3))


def test_comoving_ball_constant_fixed_ball_varies():
    fld, times, ball, uf = advected_setup()
    series = sample_scalar_series(lambda pts, t: fld.coulomb(pts, t), 48, 0.1, times)
    co = advected_integral(series, uf, ball)
    fixed = advected_integral(series, np.zeros(3), ball)
    co_var = (co.max() - co.min()) / abs(co.mean())
    fx_var = (fixed.max() - fixed.min()) / abs(fixed.mean())
    assert co_var <= 1e-4, f"co-moving variation {co_var}"
    assert fx_var > 1e-2, f"fixed-ball variation {fx_var}"


def test_hard_indicator_is_noisier_than_smooth():
    """shell_width=0 recovers the hard ball, whose staircase noise is why the
    smoothed window is the default."""
    fld, times, ball, uf = advected_setup()
    series = sample_scalar_series(lambda pts, t: fld.coulomb(pts, t), 48, 0.1, times)
    smooth = advected_integral(series, uf, ball)
    hard = advected_integral(series, uf, ball, shell_width=0.0)
    smooth_var = (smooth.max() - smooth.min()) / abs(smooth.mean())
    hard_var = (hard.max() - hard.min()) / abs(hard.mean())
    assert hard_var > 10.0 * smooth_var


# -- the blocked leapfrog and slab residuals against the whole-grid versions -----


def _axis_slices(axis, lo, hi):
    sl = [slice(None)] * 3
    sl[axis] = slice(lo, hi)
    return tuple(sl)


def d1_c2(u, axis, h):
    out = np.zeros_like(u)
    out[_axis_slices(axis, 1, -1)] = (
        u[_axis_slices(axis, 2, None)] - u[_axis_slices(axis, 0, -2)]
    ) / (2.0 * h)
    return out


def d1_c4(u, axis, h):
    out = np.zeros_like(u)
    out[_axis_slices(axis, 2, -2)] = (
        -u[_axis_slices(axis, 4, None)]
        + 8.0 * u[_axis_slices(axis, 3, -1)]
        - 8.0 * u[_axis_slices(axis, 1, -3)]
        + u[_axis_slices(axis, 0, -4)]
    ) / (12.0 * h)
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


def _masked_l2(arrs, margin, h):
    """sqrt(h^3 * fsum of the per-x-plane sums of each array's masked squares)."""
    core = (slice(margin, -margin),) * 3
    planes = [np.sum(a[core] ** 2, axis=(1, 2)) for a in arrs if not isinstance(a, float)]
    return math.sqrt(math.fsum(np.concatenate(planes).flat) * h ** 3)


def _reference_residuals(grid, t_index=None):
    """The whole-grid residual assembly: every operator on the full cube, then masked."""
    if t_index is None:
        t_index = grid.levels[-2].index
    prev = grid.level_by_index(t_index - 1)
    cur = grid.level_by_index(t_index)
    nxt = grid.level_by_index(t_index + 1)
    h, dt = grid.h, grid.dt
    margin = grid.interior_mask_margin()

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


def _field_sources(grid, t, dt2):
    """Per field, its source as the kernel forms it: sum of profile * (g(t) * dt2)
    in SeparableSources order, 0.0 for none."""
    out = {}
    for name, key in zip(grid.FIELD_NAMES, ("rho", "jx", "jy", "jz")):
        out[name] = 0.0
        for k, (profile, g) in enumerate(grid.sources._terms[key]):
            term = np.broadcast_to(profile, (grid.n,) * 3) * (g(t) * dt2)
            out[name] = term if k == 0 else out[name] + term
    return out


def _neighbours(u):
    """The six neighbours of the interior cells, in the kernel's summation order."""
    i = slice(1, -1)
    return (u[2:, i, i], u[:-2, i, i], u[i, 2:, i], u[i, :-2, i], u[i, i, 2:], u[i, i, :-2])


def _reference_evolve(grid, steps, textbook=False):
    """The whole-grid leapfrog step: every field, every step.  By default in the
    kernel's arithmetic, c0*u - prev + (c1*S + src) with c1 = dt2/h^2, c0 = 2 - 6*c1,
    S = (x+1 + x-1) + y+1 + y-1 + z+1 + z-1 and src from _field_sources; with
    textbook, 2u - prev + dt2*(laplacian2(u) + SeparableSources' sum)."""
    dt2 = grid.dt * grid.dt
    c1 = dt2 / (grid.h * grid.h)
    c0 = 2.0 - 6.0 * c1
    core = (slice(1, -1),) * 3
    for _ in range(steps):
        cur, prev = grid.levels[-1], grid.levels[-2]
        t_new = cur.time + grid.dt
        if textbook:
            rho = grid.sources.rho(cur.time)
            jx, jy, jz = grid.sources.j(cur.time)
            srcs = {"phi": rho, "ax": jx, "ay": jy, "az": jz}
        else:
            srcs = _field_sources(grid, cur.time, dt2)
        new = {}
        for name in grid.FIELD_NAMES:
            u = cur.field(name)
            if textbook:
                new[name] = 2.0 * u - prev.field(name) + dt2 * (laplacian2(u, grid.h) + srcs[name])
                continue
            xp, xm, yp, ym, zp, zm = _neighbours(u)
            s = (xp + xm) + yp + ym + zp + zm
            src = srcs[name] if np.ndim(srcs[name]) == 0 else srcs[name][core]
            new[name] = np.empty_like(u)
            new[name][core] = c0 * u[core] - prev.field(name)[core] + (c1 * s + src)
        full = np.broadcast_arrays(grid.X, grid.Y, grid.Z)
        for face in grid._faces:
            xf, yf, zf = (c[face] for c in full)
            if grid.analytic._phi is not None:
                new["phi"][face] = grid.analytic.phi(xf, yf, zf, t_new)
            else:
                new["phi"][face] = 0.0
            if grid.analytic._a is not None:
                new["ax"][face], new["ay"][face], new["az"][face] = grid.analytic.a(xf, yf, zf, t_new)
            else:
                new["ax"][face] = new["ay"][face] = new["az"][face] = 0.0
        grid.levels.append(Level(cur.index + 1, t_new, new["phi"], new["ax"], new["ay"], new["az"]))
        if len(grid.levels) > grid.history:
            grid.levels.pop(0)
    return grid


def _assert_levels_identical(got, want):
    assert [(lv.index, lv.time) for lv in got.levels] == [(lv.index, lv.time) for lv in want.levels]
    for lg, lw in zip(got.levels, want.levels):
        for name in got.FIELD_NAMES:
            a, b = lg.field(name), lw.field(name)
            assert np.array_equal(a, b), (lg.index, name)
            assert np.array_equal(np.signbit(a), np.signbit(b)), (lg.index, name)


_PRESETS = {
    "plane": plane_wave_grid,
    "dipole": dipole_grid,
    "violated": lambda n: dipole_grid(n, gauge_violation=0.08),
}


@pytest.mark.parametrize("n", [16, 48])
@pytest.mark.parametrize("preset", sorted(_PRESETS))
def test_blocked_step_matches_whole_grid_step(preset, n):
    got, steps, report = _PRESETS[preset](n)
    want, _, _ = _PRESETS[preset](n)
    evolve_wave(got, steps)
    _reference_evolve(want, steps)
    _assert_levels_identical(got, want)
    assert maxwell_residuals(got, report) == _reference_residuals(want, report)


def _signed_zeros(rng, shape):
    return np.where(rng.random(shape) < 0.5, -0.0, 0.0)


@st.composite
def random_grids(draw, sizes=st.integers(5, 12)):
    """(grid, steps, expected evolved names) with random seeded levels, 0-3
    separable source terms per component and optional analytic callables,
    whose faces are zero (signed) outside a drawn switch-on window."""
    n = draw(sizes)
    h = draw(st.floats(0.05, 0.5))
    dt = draw(st.floats(0.05, 1.0)) * h / math.sqrt(3.0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n, n, n)
    # which of the two seeded levels (0 = older, 1 = newer) are all zero
    zero_levels = {name: draw(st.sampled_from(((), (0,), (1,), (0, 1)))) for name in GridField.FIELD_NAMES}
    terms = {}
    for key in ("rho", "jx", "jy", "jz"):
        terms[key] = []
        for _ in range(draw(st.integers(0, 3))):
            amp, w, p = draw(st.floats(-2.0, 2.0)), draw(st.floats(0.0, 5.0)), draw(st.floats(0.0, 6.3))
            terms[key].append((rng.standard_normal(shape), lambda t, amp=amp, w=w, p=p: amp * math.cos(w * t + p)))
    k = draw(st.tuples(*[st.floats(-3.0, 3.0)] * 3))
    t_on = draw(st.floats(0.0, 6.0)) * dt
    t_off = t_on + draw(st.floats(0.0, 6.0)) * dt
    phi = a = None
    if draw(st.booleans()):
        def phi(x, y, z, t):
            return np.sin(k[0] * x + k[1] * y + k[2] * z - 2.0 * t) * float(t_on <= t < t_off)
    if draw(st.booleans()):
        def a(x, y, z, t):
            c = np.cos(k[0] * x - k[1] * y + k[2] * z - 1.5 * t) * float(t_on <= t < t_off)
            return 0.5 * c, -c, 0.0 * c
    grid = GridField(n, h, dt, SeparableSources(terms["rho"], terms["jx"], terms["jy"], terms["jz"]),
                     AnalyticFarField(phi=phi, a=a))
    for idx in range(2):
        fields = {}
        for name in GridField.FIELD_NAMES:
            if idx in zero_levels[name]:
                fields[name] = _signed_zeros(rng, shape)
            else:
                u = rng.standard_normal(shape)
                fields[name] = np.where(rng.random(shape) < 0.1, _signed_zeros(rng, shape), u)
        grid.levels.append(Level(idx, idx * dt, **fields))
    steps = draw(st.integers(1, 4))
    stepped = [dt]  # the new levels' times, as evolve_wave accumulates them
    for _ in range(steps):
        stepped.append(stepped[-1] + dt)
    source_of = {"phi": "rho", "ax": "jx", "ay": "jy", "az": "jz"}

    def face_nonzero(name, t):
        full = np.broadcast_arrays(grid.X, grid.Y, grid.Z)
        for face in grid._faces:
            xyz = tuple(c[face] for c in full)
            if name == "phi":
                values = () if phi is None else (phi(*xyz, t),)
            else:
                values = () if a is None else (a(*xyz, t)["xyz".index(name[1])],)
            if any(np.any(v) for v in values):
                return True
        return False

    # a sourceless component with two zero seeded levels is stepped only once
    # one of its faces is non-zero at a stepped time
    evolved = sorted(
        name for name in GridField.FIELD_NAMES
        if zero_levels[name] != (0, 1) or terms[source_of[name]]
        or any(face_nonzero(name, t) for t in stepped[1:])
    )
    return grid, steps, evolved


def _copy_grid(grid):
    twin = GridField(grid.n, grid.h, grid.dt, grid.sources, grid.analytic)
    twin.levels = [Level(lv.index, lv.time, *(lv.field(f).copy() for f in grid.FIELD_NAMES))
                   for lv in grid.levels]
    return twin


@settings(max_examples=100)
@given(random_grids())
def test_blocked_step_matches_whole_grid_step_on_random_grids(case):
    grid, steps, evolved = case
    want = _reference_evolve(_copy_grid(grid), steps)
    evolve_wave(grid, steps)
    _assert_levels_identical(grid, want)
    assert grid.stats == {"grid_steps": steps, "evolved": evolved}


@settings(max_examples=100)
@given(random_grids(st.integers(5, 20)), st.integers(1, 4), st.integers(1, 4), st.booleans())
def test_band_split_matches_whole_grid_step(case, bands, span_planes, threaded):
    """Any band count, span length and threading gives the whole-grid step's
    x-planes 1 .. n-2 bit for bit, signed zeros and the y- and z-faces that
    the bands pin included."""
    grid, _, _ = case
    want = _reference_evolve(_copy_grid(grid), 1).levels[-1]
    cur, prev = grid.levels[-1], grid.levels[-2]
    faces = maxwell._pinned_faces(grid, cur.time + grid.dt)
    planes = slice(1, -1)
    with mock.patch.object(maxwell, "_SPAN_CELLS", span_planes * grid.n**2), \
            ThreadPoolExecutor(bands - 1) if threaded and bands > 1 else nullcontext() as pool:
        for name, key in zip(grid.FIELD_NAMES, ("rho", "jx", "jy", "jz")):
            terms = [(p.reshape(-1), g(cur.time)) for p, g in grid.sources._terms[key]]
            yz = [(face, np.broadcast_to(pinned.get(name, 0.0), (grid.n,) * 2))
                  for face, pinned in zip(grid._faces[2:], faces[2:])]
            got = maxwell._step_field(cur.field(name), prev.field(name), terms, grid.h,
                                      grid.dt * grid.dt, yz, pool, bands)[planes]
            assert np.array_equal(got, want.field(name)[planes]), name
            assert np.array_equal(np.signbit(got), np.signbit(want.field(name)[planes])), name


@pytest.mark.parametrize("bands, span_planes", [(1, 8), (3, 1), (2, 2)])
def test_faces_meet_as_when_written_whole_in_order(bands, span_planes):
    """phi's analytic value names the face it is taken on (the coordinate that
    arrives as a single cell: 1 for x, 2 for y, 3 for z), so where faces meet
    the shell shows which was written last: as when the six faces are written
    whole in the order x, y, z, whatever the bands and spans."""
    n = 8

    def phi(x, y, z, t):
        tag = 1.0 if np.size(x) == 1 else 2.0 if np.size(y) == 1 else 3.0
        return np.full(np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(z)), tag)

    grid = GridField(n, 0.2, 0.1, SeparableSources(), AnalyticFarField(phi=phi)).seed_zero()
    with mock.patch.object(maxwell, "_SPAN_CELLS", span_planes * n * n), \
            mock.patch.object(maxwell, "_band_count", lambda n: bands):
        evolve_wave(grid, 1)
    want = np.zeros((n,) * 3)
    for face, tag in zip(grid._faces, (1.0, 1.0, 2.0, 2.0, 3.0, 3.0)):
        want[face] = tag
    shell = want != 0.0
    assert np.array_equal(grid.levels[-1].phi[shell], want[shell])
    assert grid.stats["evolved"] == ["phi"]


#: one leapfrog step against the textbook update, in units of eps * M, with M
#: the cell's sum of |2u|, |prev|, c1 (6|u| + sum of |neighbours|) and dt2
#: sum_k |profile_k g_k|: both formulas compute the same real number, each
#: with at most 24 roundings (three source terms) of partial results bounded
#: by M, and the coefficients' roundings reach the result with a factor of at
#: most 4 (c0 = 2 - 6 c1), so the two differ by less than 32 eps M
_TEXTBOOK_BOUND = 32


@settings(max_examples=100)
@given(random_grids())
def test_leapfrog_step_agrees_with_the_textbook_update(case):
    """The kernel's c0*u - prev + (c1*S + src) is 2u - prev + dt2*(lap u + src)
    up to round-off, bounded beforehand from float64 eps; faces are equal."""
    grid, _, _ = case
    want = _reference_evolve(_copy_grid(grid), 1, textbook=True).levels[-1]
    cur, prev = grid.levels[-1], grid.levels[-2]
    evolve_wave(grid, 1)
    got = grid.levels[-1]
    dt2 = grid.dt * grid.dt
    c1 = dt2 / (grid.h * grid.h)
    core = (slice(1, -1),) * 3
    shell = np.ones((grid.n,) * 3, dtype=bool)
    shell[core] = False
    for name, key in zip(grid.FIELD_NAMES, ("rho", "jx", "jy", "jz")):
        u = cur.field(name)
        scale = (2.0 * np.abs(u[core]) + np.abs(prev.field(name)[core])
                 + c1 * (6.0 * np.abs(u[core]) + sum(np.abs(v) for v in _neighbours(u))))
        for profile, g in grid.sources._terms[key]:
            scale = scale + dt2 * np.abs(np.broadcast_to(profile, u.shape)[core] * g(cur.time))
        err = np.abs(got.field(name)[core] - want.field(name)[core])
        assert np.all(err <= _TEXTBOOK_BOUND * np.finfo(float).eps * scale), (name, np.max(err / scale))
        assert np.array_equal(got.field(name)[shell], want.field(name)[shell]), name


@pytest.mark.parametrize("n", [16, 48])
@pytest.mark.parametrize("preset", sorted(_PRESETS))
def test_residual_reports_agree_with_the_textbook_leapfrog(preset, n):
    """Each residual norm of a preset run is within 1e-12 relative of the one
    taken on the grid the textbook update evolves."""
    got, steps, report = _PRESETS[preset](n)
    want, _, _ = _PRESETS[preset](n)
    evolve_wave(got, steps)
    _reference_evolve(want, steps, textbook=True)
    fast, textbook = maxwell_residuals(got, report).to_dict(), _reference_residuals(want, report).to_dict()
    for key, value in textbook.items():
        assert abs(fast[key] - value) <= 1e-12 * abs(value), (key, fast[key], value)


@pytest.mark.parametrize("cores, n, bands", [(8, 48, 2), (8, 96, 8), (2, 96, 2), (2, 16, 1), (1, 96, 1)])
def test_band_count_gives_each_band_a_full_span(cores, n, bands):
    with mock.patch.object(maxwell.os, "sched_getaffinity", lambda _pid: set(range(cores)), create=True):
        assert maxwell._band_count(n) == bands


@pytest.mark.parametrize("cpu_count, bands", [(8, 8), (None, 1)])
def test_band_count_without_affinity_uses_cpu_count(cpu_count, bands):
    """Where os has no sched_getaffinity, cpu_count decides; one band if unknown."""
    with mock.patch.object(maxwell, "os", SimpleNamespace(cpu_count=lambda: cpu_count)):
        assert maxwell._band_count(96) == bands


def test_evolve_wave_leaves_no_thread_behind():
    """Neither the leapfrog pool nor the residual pool outlives its call."""
    grid, steps, report = dipole_grid(48)
    before = threading.active_count()
    evolve_wave(grid, steps)
    maxwell_residuals(grid, report)
    assert threading.active_count() == before


def test_never_stepped_components_share_one_read_only_zero_level():
    """The dipole's ax and ay have no source and no analytic callable: every
    new level holds one read-only zero array for both, and perturb_initial_a
    adds to it out of place, as in-place addition on writable copies would."""
    grid, steps, _ = dipole_grid(16)
    evolve_wave(grid, steps)
    new = [lv for lv in grid.levels if lv.index >= 2]
    shared = new[0].ax
    assert not shared.flags.writeable and not shared.any() and shared.shape == (16,) * 3
    assert all(lv.ax is shared and lv.ay is shared for lv in new)
    assert all(lv.az is not shared and lv.phi is not shared for lv in new)
    want = [[lv.field(f).copy() for f in ("ax", "ay", "az")] for lv in grid.levels]

    def delta(x, y, z):
        return np.sin(x + 2.0 * y) * z, -0.5 * x * y + z, np.cos(z) - 0.0 * x

    dx, dy, dz = delta(grid.X, grid.Y, grid.Z)
    for comps in want:
        for arr, d in zip(comps, (dx, dy, dz)):
            arr += d
    grid.perturb_initial_a(delta)
    for lv, comps in zip(grid.levels, want):
        for name, arr in zip(("ax", "ay", "az"), comps):
            assert np.array_equal(lv.field(name), arr), (lv.index, name)
            assert np.array_equal(np.signbit(lv.field(name)), np.signbit(arr)), (lv.index, name)
    assert not shared.any()


@pytest.mark.parametrize("n", [5, 16])
def test_grid_coordinates_are_sparse_axes(n):
    """X, Y, Z are (n,1,1), (1,n,1), (1,1,n) axes, and each face's coordinates
    broadcast to the full coordinate arrays' face slices bit for bit."""
    grid = GridField(n, 0.3, 0.1, SeparableSources(), AnalyticFarField())
    assert (grid.X.shape, grid.Y.shape, grid.Z.shape) == ((n, 1, 1), (1, n, 1), (1, 1, n))
    full = np.broadcast_arrays(grid.X, grid.Y, grid.Z)
    axis = np.arange(n) * 0.3 - 0.5 * (n - 1) * 0.3
    dense = np.meshgrid(axis, axis, axis, indexing="ij")
    assert all(np.array_equal(f, d) for f, d in zip(full, dense))
    assert len(grid._face_xyz) == len(grid._faces) == 6
    for face, coords in zip(grid._faces, grid._face_xyz):
        for c, f in zip(coords, full):
            got = np.broadcast_to(c, (n, n))
            assert np.array_equal(got, f[face]) and np.array_equal(np.signbit(got), np.signbit(f[face]))
    # the zero far field and the seeds are full cubes
    assert grid.analytic.phi(grid.X, grid.Y, grid.Z, 0.0).shape == (n,) * 3
    assert [c.shape for c in grid.analytic.a(*grid._face_xyz[2], 0.0)] == [(n, n)] * 3
    grid.analytic = AnalyticFarField(phi=lambda x, y, z, t: x + t, a=lambda x, y, z, t: (y, z, 0.0 * x))
    grid.seed_from_analytic()
    for lv in grid.levels:
        assert all(lv.field(f).shape == (n,) * 3 for f in grid.FIELD_NAMES)
        assert np.array_equal(lv.phi, full[0] + lv.time) and np.array_equal(lv.ay, full[2])


def test_zero_start_component_with_source_boundary_or_perturbation_is_evolved():
    # dipole: phi and az start at zero but carry sources; ax and ay stay zero
    dipole, steps, _ = dipole_grid(16)
    evolve_wave(dipole, steps)
    assert dipole.stats == {"grid_steps": steps, "evolved": ["az", "phi"]}
    assert not dipole.levels[-1].ax.any() and not np.signbit(dipole.levels[-1].ay).any()
    # plane wave: az has an analytic boundary, but the polarization's z
    # component is 0.0, so its faces stay zero and it is not stepped; nor is phi
    plane, steps, _ = plane_wave_grid(16)
    assert not plane.levels[0].az.any() and not plane.levels[1].az.any()
    evolve_wave(plane, steps)
    assert plane.stats == {"grid_steps": steps, "evolved": ["ax", "ay"]}
    assert not plane.levels[-1].az.any() and not plane.levels[-1].phi.any()
    # violated dipole: perturb_initial_a makes ax and ay nonzero
    violated, steps, _ = dipole_grid(16, gauge_violation=0.08)
    evolve_wave(violated, steps)
    assert violated.stats["evolved"] == ["ax", "ay", "az", "phi"]
    # a second call adds its steps
    evolve_wave(violated, 2)
    assert violated.stats["grid_steps"] == steps + 2


def test_prop1_suite_reports_grid_counters():
    suite = prop1_suite(n_coarse=16, n_fine=24)
    assert suite["dipole"]["coarse"]["stats"] == {"grid_steps": 5, "evolved": ["az", "phi"]}
    assert suite["dipole"]["fine"]["stats"]["evolved"] == ["az", "phi"]
    assert suite["plane"]["fine"]["stats"]["evolved"] == ["ax", "ay"]
    assert suite["violated"]["coarse"]["stats"]["evolved"] == ["ax", "ay", "az", "phi"]


@pytest.mark.parametrize("n_min, n_max", [(5, 6), (7, 20)])
@settings(max_examples=60)
@given(data=st.data())
def test_slab_residuals_match_whole_grid_on_random_grids(n_min, n_max, data):
    """n = 5, 6 leave an empty core; n = 15..20 split it into a full and a
    partial slab.  Each report is taken with 1, 2 and 3 workers and with the
    default or a drawn slab width, and equals the whole-grid one."""
    grid, steps, _ = data.draw(random_grids(st.integers(n_min, n_max)))
    evolve_wave(grid, steps)
    t_index = data.draw(st.sampled_from([lv.index for lv in grid.levels[1:-1]]))
    want = _reference_residuals(grid, t_index)
    width = data.draw(st.integers(1, 8))
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the slab threads often
    try:
        for slab in sorted({maxwell._SLAB, width}):
            for workers in (1, 2, 3):
                with mock.patch.object(maxwell, "_SLAB", slab), \
                        mock.patch.object(maxwell, "_band_count", lambda n, w=workers: w):
                    got = maxwell_residuals(grid, t_index)
                assert got == want, (slab, workers)
    finally:
        sys.setswitchinterval(switch)
    if grid.n <= 6:
        assert (got.gauss, got.faraday, got.ampere, got.nomono, got.gauge, got.continuity) == (0.0,) * 6


def test_residual_assembly_peak_memory():
    """The slab assembly holds at most 12 grid arrays at once (2.2 to 8.4
    measured; the whole-grid one held 48, and a (10, core^3) buffer of squared
    residuals 5.8 more), with 1, 2 or 4 slabs assembled concurrently."""
    grid, steps, report = dipole_grid(48)
    evolve_wave(grid, steps)
    for workers in (1, 2, 4):
        with mock.patch.object(maxwell, "_band_count", lambda n: workers):
            tracemalloc.start()
            try:
                maxwell_residuals(grid, report)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 12 * 48**3 * 8, (workers, peak / (48**3 * 8))


def test_sources_box_matches_whole_grid_slice():
    rng = np.random.default_rng(3)
    terms = [(rng.standard_normal((6, 6, 6)), lambda t, w=w: math.cos(w * t)) for w in (0.5, 1.5, 2.5)]
    src = SeparableSources(rho_terms=terms, jy_terms=terms[:1])
    box = (slice(1, 4), slice(0, 6), slice(2, 5))
    got = src.rho(0.3, box)
    assert got.shape == (3, 6, 3)
    assert np.array_equal(got, src.rho(0.3)[box])
    jx, jy, jz = src.j(0.3, box)
    assert jx == 0.0 and jz == 0.0
    assert np.array_equal(jy, terms[0][0][box] * math.cos(0.15))


def _traced_growth(fn, n):
    """Peak traced memory of fn() above the traced memory before it, in n^3 float64 arrays."""
    start = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    fn()
    return (tracemalloc.get_traced_memory()[1] - start) / (n**3 * 8)


def test_wave_step_and_residual_sources_allocate_no_extra_grid_arrays():
    """With a full history, a step drops the oldest level before it allocates
    the new one and forms its sources inside the bands (the whole-grid source
    buffers and the level above history cost six grid arrays); the residual
    assembly takes its sources per slab (whole-grid ones cost four arrays)."""
    n = 64
    tracemalloc.start()
    try:
        grid, steps, report = dipole_grid(n, gauge_violation=0.08)
        evolve_wave(grid, grid.history - 2)
        assert len(grid.levels) == grid.history
        assert _traced_growth(lambda: evolve_wave(grid, 4), n) < 2.0
        evolve_wave(grid, steps - grid.stats["grid_steps"])  # on to the preset's last step
        assert grid.levels[-1].index == report + 1
        sourced = _traced_growth(lambda: maxwell_residuals(grid, report), n)
        grid.sources = SeparableSources()
        unsourced = _traced_growth(lambda: maxwell_residuals(grid, report), n)
    finally:
        tracemalloc.stop()
    assert sourced - unsourced < 1.0, (sourced, unsourced)


def test_solution_error_allocates_under_four_grid_arrays():
    """The exact solution and the differences are formed on the masked core
    only: on the whole cube they cost 9.1 grid arrays at n = 64."""
    n = 64
    grid, steps, report = plane_wave_grid(n)
    evolve_wave(grid, steps)
    tracemalloc.start()
    try:
        growth = _traced_growth(lambda: solution_error(grid, report), n)
    finally:
        tracemalloc.stop()
    assert growth < 4.0, growth


def test_preset_run_holds_three_levels_and_no_buffer_of_squares():
    """A whole violated-dipole run at n = 64, with one worker, ends holding 14
    grid arrays (three levels of four potentials and the two source profiles)
    and peaks under 17 through evolve and report (15.5 measured).  Five
    levels and a (10, core^3) buffer of squared residuals (5.4 arrays)
    peaked at 29."""
    n = 64
    with mock.patch.object(maxwell, "_band_count", lambda n: 1):
        tracemalloc.start()
        try:
            grid, steps, report = dipole_grid(n, gauge_violation=0.08)
            evolve_wave(grid, steps)
            held = tracemalloc.get_traced_memory()[0] / (n**3 * 8)
            maxwell_residuals(grid, report)
            peak = tracemalloc.get_traced_memory()[1] / (n**3 * 8)
        finally:
            tracemalloc.stop()
    assert len(grid.levels) == 3
    assert 14.0 <= held < 14.1, held
    assert peak < 17.0, peak


def test_presets_retain_the_report_levels():
    """For every preset size up to the config cap, the run stops at level
    report + 1 (two seeded levels, then one per step), so the three levels a
    grid holds are the report's (arithmetic only)."""
    assert GridField.history == 3
    for n in range(16, MAX_GRID_N + 1):
        _, _, steps, report = _grid_steps(n)
        assert steps == report, n


def test_report_levels_retained_at_n_104():
    """After a preset run the grid holds exactly levels report - 1 .. report + 1
    (n = 104 was the first size that needed a sixth level while the runs went
    past their report)."""
    grid, steps, report = plane_wave_grid(104)
    evolve_wave(grid, steps)
    assert [lv.index for lv in grid.levels] == [report - 1, report, report + 1]
    assert maxwell_residuals(grid).continuity == 0.0
    assert maxwell_residuals(grid) == maxwell_residuals(grid, report)
