import math
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
from vacuumflow.errors import BallExitsGrid, CFLViolation, InsufficientHistory
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
from vacuumflow.presets import advected_setup, dipole_grid, plane_wave_grid
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
    core = (slice(margin, -margin),) * 3
    total = 0.0
    for a in arrs:
        if isinstance(a, float):
            continue
        total += float(np.sum(a[core] ** 2))
    return math.sqrt(total * h ** 3)


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


def _reference_evolve(grid, steps):
    """The whole-grid leapfrog step: every field, every step, through laplacian2."""
    dt2 = grid.dt * grid.dt
    for _ in range(steps):
        cur, prev = grid.levels[-1], grid.levels[-2]
        t_new = cur.time + grid.dt
        rho = grid.sources.rho(cur.time)
        jx, jy, jz = grid.sources.j(cur.time)
        srcs = {"phi": rho, "ax": jx, "ay": jy, "az": jz}
        new = {}
        for name in grid.FIELD_NAMES:
            u = cur.field(name)
            new[name] = 2.0 * u - prev.field(name) + dt2 * (laplacian2(u, grid.h) + srcs[name])
        for face in grid._faces:
            xf, yf, zf = grid.X[face], grid.Y[face], grid.Z[face]
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
    """(grid, steps, expected evolved names) with random seeded levels, 0-2
    separable source terms per component and optional analytic callables."""
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
        for _ in range(draw(st.integers(0, 2))):
            amp, w, p = draw(st.floats(-2.0, 2.0)), draw(st.floats(0.0, 5.0)), draw(st.floats(0.0, 6.3))
            terms[key].append((rng.standard_normal(shape), lambda t, amp=amp, w=w, p=p: amp * math.cos(w * t + p)))
    k = draw(st.tuples(*[st.floats(-3.0, 3.0)] * 3))
    phi = a = None
    if draw(st.booleans()):
        def phi(x, y, z, t):
            return np.sin(k[0] * x + k[1] * y + k[2] * z - 2.0 * t)
    if draw(st.booleans()):
        def a(x, y, z, t):
            c = np.cos(k[0] * x - k[1] * y + k[2] * z - 1.5 * t)
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
    source_of = {"phi": "rho", "ax": "jx", "ay": "jy", "az": "jz"}
    analytic_of = {"phi": phi, "ax": a, "ay": a, "az": a}
    evolved = sorted(
        name for name in GridField.FIELD_NAMES
        if not (zero_levels[name] == (0, 1) and not terms[source_of[name]] and analytic_of[name] is None)
    )
    return grid, draw(st.integers(1, 4)), evolved


def _copy_grid(grid):
    twin = GridField(grid.n, grid.h, grid.dt, grid.sources, grid.analytic)
    twin.levels = [Level(lv.index, lv.time, *(lv.field(f).copy() for f in grid.FIELD_NAMES))
                   for lv in grid.levels]
    return twin


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(random_grids())
def test_blocked_step_matches_whole_grid_step_on_random_grids(case):
    grid, steps, evolved = case
    want = _reference_evolve(_copy_grid(grid), steps)
    evolve_wave(grid, steps)
    _assert_levels_identical(grid, want)
    assert grid.stats == {"grid_steps": steps, "evolved": evolved}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(random_grids(st.integers(5, 20)), st.integers(1, 4), st.integers(1, 4), st.booleans())
def test_band_split_matches_whole_grid_step(case, bands, span_planes, threaded):
    """Any band count, span length and threading gives the whole-grid step's
    interior bit for bit, signed zeros included."""
    grid, _, _ = case
    want = _reference_evolve(_copy_grid(grid), 1).levels[-1]
    cur, prev = grid.levels[-1], grid.levels[-2]
    srcs = dict(zip(grid.FIELD_NAMES, (grid.sources.rho(cur.time), *grid.sources.j(cur.time))))
    core = (slice(1, -1),) * 3
    with mock.patch.object(maxwell, "_SPAN_CELLS", span_planes * grid.n**2), \
            ThreadPoolExecutor(bands - 1) if threaded and bands > 1 else nullcontext() as pool:
        for name in grid.FIELD_NAMES:
            got = maxwell._step_field(cur.field(name), prev.field(name), srcs[name], grid.h,
                                      grid.dt * grid.dt, pool, bands)[core]
            assert np.array_equal(got, want.field(name)[core]), name
            assert np.array_equal(np.signbit(got), np.signbit(want.field(name)[core])), name


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
    grid, steps, _ = dipole_grid(48)
    before = threading.active_count()
    evolve_wave(grid, steps)
    assert threading.active_count() == before


def test_zero_start_component_with_source_boundary_or_perturbation_is_evolved():
    # dipole: phi and az start at zero but carry sources; ax and ay stay zero
    dipole, steps, _ = dipole_grid(16)
    evolve_wave(dipole, steps)
    assert dipole.stats == {"grid_steps": steps, "evolved": ["az", "phi"]}
    assert not dipole.levels[-1].ax.any() and not np.signbit(dipole.levels[-1].ay).any()
    # plane wave: az starts at zero but its boundary is analytic; phi stays zero
    plane, steps, _ = plane_wave_grid(16)
    assert not plane.levels[0].az.any() and not plane.levels[1].az.any()
    evolve_wave(plane, steps)
    assert plane.stats == {"grid_steps": steps, "evolved": ["ax", "ay", "az"]}
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
    assert suite["plane"]["fine"]["stats"]["evolved"] == ["ax", "ay", "az"]
    assert suite["violated"]["coarse"]["stats"]["evolved"] == ["ax", "ay", "az", "phi"]


@pytest.mark.parametrize("n_min, n_max", [(5, 6), (7, 20)])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_slab_residuals_match_whole_grid_on_random_grids(n_min, n_max, data):
    """n = 5, 6 leave an empty core; n = 15..20 split it into a full and a partial slab."""
    grid, steps, _ = data.draw(random_grids(st.integers(n_min, n_max)))
    evolve_wave(grid, steps)
    t_index = data.draw(st.sampled_from([lv.index for lv in grid.levels[1:-1]]))
    got = maxwell_residuals(grid, t_index)
    assert got == _reference_residuals(grid, t_index)
    if grid.n <= 6:
        assert (got.gauss, got.faraday, got.ampere, got.nomono, got.gauge, got.continuity) == (0.0,) * 6


def test_residual_assembly_peak_memory():
    """The slab assembly holds at most 24 grid arrays at once (the whole-grid one held 48)."""
    grid, steps, report = dipole_grid(48)
    evolve_wave(grid, steps)
    tracemalloc.start()
    try:
        maxwell_residuals(grid, report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 48**3 * 8, peak / (48**3 * 8)


def test_sources_out_matches_fresh_arrays():
    rng = np.random.default_rng(3)
    terms = [(rng.standard_normal((6, 6, 6)), lambda t, w=w: math.cos(w * t)) for w in (0.5, 1.5, 2.5)]
    src = SeparableSources(rho_terms=terms, jy_terms=terms[:1])
    buf = np.empty((6, 6, 6))
    assert src.rho(0.3, out=buf) is buf
    assert np.array_equal(buf, src.rho(0.3))
    jx, jy, jz = src.j(0.3, out=(None, buf, None))
    assert jx == 0.0 and jz == 0.0 and jy is buf
    assert np.array_equal(buf, terms[0][0] * math.cos(0.15))
