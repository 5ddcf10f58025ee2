"""Canonical scenarios shared by the test suite and the CLI.

These fix the concrete numbers (source strengths, impact parameters, grid
sizes, sweep points) used by the verification criteria so they live in exactly
one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ModelKind, Particle
from .fields import FieldSource, VacuumField
from .maxwell import AnalyticFarField, Ball, GridField, SeparableSources, _smoothstep


# -- particle scenarios ---------------------------------------------------------


@dataclass(frozen=True)
class ParticleScenario:
    name: str
    particle: Particle
    field: VacuumField
    r0: np.ndarray
    tau_end: float
    h: float


def _flyby(name: str, tau_end: float, a_uniform=(0.0, 0.0, 0.0), b_uniform=(0.0, 0.0, 0.0)) -> ParticleScenario:
    """A particle at u0 = 0.45 x from (-2, 0.75, 0) past one static softened
    source at the origin, with the given uniform A and B terms, at h = 1e-3."""
    source = FieldSource(qs=0.5, r0=(0.0, 0.0, 0.0), uf=(0.0, 0.0, 0.0), eps=0.05)
    field = VacuumField(w_inf=-1.0, sources=(source,), q_test=1.0, a_uniform=a_uniform, b_uniform=b_uniform)
    return ParticleScenario(name=name, particle=Particle(q=1.0, u0=(0.45, 0.0, 0.0)), field=field,
                            r0=np.array([-2.0, 0.75, 0.0]), tau_end=tau_end, h=1e-3)


def standard_flyby() -> ParticleScenario:
    """Single static softened source plus a small static uniform A.

    Static external data keep every model Hamiltonian autonomous (hence
    conserved); the uniform A makes the M1/M2/M3 flows genuinely distinct.
    """
    return _flyby("flyby", 10.0, a_uniform=(0.0, 0.02, 0.0))


def gyration(periods: float = 5.0, b: float = 1.0, u: float = 0.6) -> ParticleScenario:
    """Uniform magnetic field, zero electric field: analytic circular motion.

    With W = w0 = -1 the kinetic energy is |w0| = 1, the gyrofrequency is
    omega = q b / |w0| and the radius u/omega.
    """
    field = VacuumField(w_inf=-1.0, sources=(), q_test=1.0, b_uniform=(0.0, 0.0, b))
    omega = b  # q = 1, |w0| = 1
    t_span = periods * 2.0 * math.pi / omega
    gamma = 1.0 / math.sqrt(1.0 - u * u)
    tau_end = t_span / gamma
    return ParticleScenario(
        name="gyration",
        particle=Particle(q=1.0, u0=(u, 0.0, 0.0)),
        field=field,
        r0=np.zeros(3),
        tau_end=tau_end,
        h=tau_end / 4000.0,
    )


def gyration_analytic(ts: np.ndarray, b: float, u: float) -> np.ndarray:
    """Exact lab-frame circle for the gyration scenario started at the origin."""
    omega = b
    radius = u / omega
    x = radius * np.sin(omega * ts)
    y = radius * (np.cos(omega * ts) - 1.0)
    return np.stack([x, y, np.zeros_like(ts)], axis=1)


def uniform_a_pair() -> ParticleScenario:
    """Static source plus a small spatially uniform A for the M2-vs-M3 comparison.

    u0 is kept orthogonal to A; the canonical M2 flow then departs from M3 only
    at O(q^2 a^2), measured explicitly by the companion scaling test.
    """
    return _flyby("uniform_a", 8.0, a_uniform=(0.0, 0.0, 1e-5))


def nonuniform_a_pair() -> ParticleScenario:
    """Static source plus a linear (uniform-B) A: M2 and M3 must visibly split."""
    return _flyby("nonuniform_a", 8.0, b_uniform=(0.0, 0.0, 0.25))


def moving_source_field() -> VacuumField:
    """Mixed static/moving sources; used for randomized field-oracle probes."""
    return VacuumField(
        w_inf=-1.0,
        sources=(
            FieldSource(qs=0.8, r0=(0.3, -0.2, 0.1), uf=(0.35, 0.1, -0.2), eps=0.2),
            FieldSource(qs=-0.5, r0=(-0.6, 0.4, 0.2), uf=(0.0, -0.25, 0.15), eps=0.25),
            FieldSource(qs=0.4, r0=(0.0, 0.8, -0.5), uf=(0.0, 0.0, 0.0), eps=0.3),
        ),
        q_test=1.0,
        a_uniform=(0.01, -0.02, 0.015),
        b_uniform=(0.05, 0.02, -0.04),
    )


ALL_MODELS = (ModelKind.M0, ModelKind.M1, ModelKind.M2, ModelKind.M3)
VACUUM_MODELS = (ModelKind.M1, ModelKind.M2, ModelKind.M3)


# -- wave grids -----------------------------------------------------------------

#: fixed physical extent of the verification cube; n = 48 gives h = 0.1
GRID_EXTENT = 4.8
#: report time for the convergence studies
WAVE_T_REPORT = 0.75


def _grid_steps(n: int) -> tuple[float, float, int, int]:
    """(h, dt, steps, report_index).  After the two seeded levels, steps
    leapfrog steps end at level report_index + 1, the newest of the three
    levels the residual report reads, so steps == report_index."""
    h = GRID_EXTENT / n
    dt = 0.5 * h
    report_index = int(round(WAVE_T_REPORT / dt))
    return h, dt, report_index, report_index


def plane_wave_grid(n: int = 48) -> tuple[GridField, int, int]:
    """Oblique transverse plane wave, zero sources; returns (grid, steps, report)."""
    h, dt, steps, report_index = _grid_steps(n)
    khat = np.array([1.0, 0.6, 0.3])
    khat /= np.linalg.norm(khat)
    k = 2.6 * khat
    pol = np.cross(k, [0.0, 0.0, 1.0])
    pol /= np.linalg.norm(pol)
    omega = float(np.linalg.norm(k))
    amp = 1.0

    def a_fn(x, y, z, t):
        phase = np.cos(k[0] * x + k[1] * y + k[2] * z - omega * t)
        return amp * pol[0] * phase, amp * pol[1] * phase, amp * pol[2] * phase

    grid = GridField(n, h, dt, SeparableSources(), AnalyticFarField(a=a_fn))
    grid.seed_from_analytic()
    return grid, steps, report_index


def _ramp_d(x):
    """Derivative of the C^2 ramp maxwell._smoothstep."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return 30.0 * x * x * (x - 1.0) * (x - 1.0)


def dipole_grid(n: int = 48, gauge_violation: float = 0.0) -> tuple[GridField, int, int]:
    """Oscillating softened dipole driven through a C^2 ramp from zero initial data.

    Sources derive from a polarization profile, J = dP/dt and rho = -div P, so
    charge continuity holds in closed form.  gauge_violation > 0 adds a pure
    gradient to both initial A levels, breaking the gauge condition by an
    h-independent amount (the controlled negative test).
    """
    h, dt, steps, report_index = _grid_steps(n)
    sigma = 0.3
    omega = 5.0
    t_ramp = 0.4
    amp = 1.0

    def p_of_t(t: float) -> float:
        return math.sin(omega * t) * float(_smoothstep(t / t_ramp))

    def dp_of_t(t: float) -> float:
        x = t / t_ramp
        return (
            omega * math.cos(omega * t) * float(_smoothstep(x))
            + math.sin(omega * t) * _ramp_d(x) / t_ramp
        )

    grid = GridField(n, h, dt, SeparableSources(), AnalyticFarField())
    gauss_prof = amp * np.exp(-(grid.X**2 + grid.Y**2 + grid.Z**2) / (2.0 * sigma * sigma))
    rho_prof = gauss_prof * grid.Z / (sigma * sigma)  # -d/dz of the blob
    grid.sources = SeparableSources(
        rho_terms=[(rho_prof, p_of_t)],
        jz_terms=[(gauss_prof, dp_of_t)],
    )
    grid.seed_zero()
    if gauge_violation:
        rc = np.array([0.45, -0.3, 0.2])
        sg = 0.4

        def delta(x, y, z):
            chi = gauge_violation * np.exp(
                -((x - rc[0]) ** 2 + (y - rc[1]) ** 2 + (z - rc[2]) ** 2) / (2.0 * sg * sg)
            )
            return (
                -chi * (x - rc[0]) / (sg * sg),
                -chi * (y - rc[1]) / (sg * sg),
                -chi * (z - rc[2]) / (sg * sg),
            )

        grid.perturb_initial_a(delta)
    return grid, steps, report_index


# -- advected integral ------------------------------------------------------------


def advected_setup():
    """Moving softened source sampled on a 48^3 cube, with the tracking ball."""
    uf = np.array([0.25, 0.12, 0.0])
    start = np.array([-0.5, -0.24, 0.0])
    field = VacuumField(
        w_inf=-1.0,
        sources=(FieldSource(qs=1.0, r0=start, uf=uf, eps=0.15),),
        q_test=1.0,
    )
    times = np.linspace(0.0, 4.0, 21)
    ball = Ball(center0=start, radius=0.8)
    return field, times, ball, uf


# -- quantum defaults -------------------------------------------------------------

HBAR_DEFAULT = 0.05
DISPERSION_SWEEP_HK = (0.05, 0.1, 0.2)


def quantum_profiles(n: int = 512) -> tuple[float, np.ndarray, np.ndarray]:
    """Smooth W(x) and A(x) profiles, periodic over a length of 16, for
    evolution tests: (dx, w, a), with W between -1.2 and -1 and |A| <= 0.1."""
    dx = 16.0 / n
    x = dx * np.arange(n)
    w = -1.0 - 0.2 * (1.0 + np.cos(2.0 * np.pi * x / 16.0)) / 2.0
    a = 0.1 * np.sin(2.0 * np.pi * x / 16.0)
    return dx, w, a
