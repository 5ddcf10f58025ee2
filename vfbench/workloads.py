"""Seeded inputs, operations and output checks for the four workloads.

``generate`` is the only function that sees the seed: it turns it into plain
JSON-able data (configs, numbers).  ``build`` turns that data into package
objects and a list of operations; the package receives only what
``generate`` produced.  Every checked value is compared against
``vacuumflow.config.DEFAULT_TOLERANCES``; nothing here copies a tolerance.

An operation returns ``(checks, work)``: the values it checks, as
``(tolerance_key, value)`` pairs, and the work units it completed (integrator
steps, grid cell-steps, Crank-Nicolson steps or probed states).
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("trajectories", "waves", "quantum", "checks")

#: the name of each workload's throughput metric
THROUGHPUT = {
    "trajectories": "steps_per_s",
    "waves": "cell_steps_per_s",
    "quantum": "cn_steps_per_s",
    "checks": "states_per_s",
}

# tolerance keys whose value must lie *above* the tolerance
_LOWER_BOUNDS = ("advected_fixed_min",)
# exact-zero checks that have no tolerance key: the acceptance suite's two
# gap identities, and 1.0 for a trajectory record cut short by a guard trip
_EXACT_ZERO = ("gap_zero_a", "gap_zero_q", "truncated")


# -- generation: the only code that sees the seed -------------------------------


def _vec(rng, scale):
    return [float(v) for v in rng.uniform(-scale, scale, 3)]


def _flyby_config(rng, name, n_sources, uniform_b):
    """Static-source flyby under implicit midpoint at the package's default
    step, run for M1, M2 and M3.

    Every draw is physically valid: ``|qs| / (4 pi eps) < |w_inf| / n_sources``
    keeps W < 0 even where all sources overlap, and the particle starts below
    light speed.  Nothing is redrawn when a valid pass then fails: a close
    pass can miss the energy-drift tolerance at the default step, and that
    operation is counted as failed.
    """
    w_inf = -1.0
    sources = []
    for _ in range(n_sources):
        eps = float(rng.uniform(0.05, 0.3))
        qs_max = min(0.5, 0.95 * 4.0 * math.pi * eps * abs(w_inf) / n_sources)
        sources.append({
            "qs": float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, qs_max)),
            "r0": [float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.1, 0.1)), float(rng.uniform(-0.1, 0.1))],
            "uf": [0.0, 0.0, 0.0],
            "eps": eps,
        })
    return {
        "name": name,
        "models": ["M1", "M2", "M3"],
        "particle": {"q": 1.0, "u0": [float(rng.uniform(0.2, 0.8)), 0.0, 0.0]},
        "r0": [-1.0, float(rng.uniform(0.05, 1.0)), 0.0],
        "field": {
            "w_inf": w_inf,
            "q_test": 1.0,
            "sources": sources,
            "a_uniform": _vec(rng, 0.02),
            "b_uniform": _vec(rng, 0.03) if uniform_b else [0.0, 0.0, 0.0],
        },
        # kind only: h, tol and max_iter are the package defaults
        "integrator": {"kind": "implicit_midpoint"},
        "tau_end": 2.0,
    }


def _moving_field(rng):
    return {
        "w_inf": -1.0,
        "q_test": 1.0,
        "sources": [
            {
                "qs": float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 0.5)),
                "r0": [float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.2, 0.2)), 0.0],
                "uf": _vec(rng, 0.2),
                "eps": float(rng.uniform(0.1, 0.2)),
            }
            for _ in range(2)
        ],
        "a_uniform": _vec(rng, 0.02),
        "b_uniform": [0.0, 0.0, 0.0],
    }


def generate(name: str, seed: int) -> dict:
    """All inputs of one workload as plain data; same seed, same inputs."""
    rng = np.random.default_rng(seed)
    if name == "trajectories":
        counts = [int(c) for c in rng.permutation([1, 2, 3])]
        return {
            # one config of the three adds a uniform B, whose cross product
            # dominates the field kernel's cost
            "flybys": [_flyby_config(rng, f"flyby{i}", n, uniform_b=i == 0) for i, n in enumerate(counts)],
            "el": [
                {
                    "model": model,
                    "field": _moving_field(rng),
                    "u0": [float(rng.uniform(0.3, 0.5)), 0.0, 0.0],
                    "r0": [-1.2, float(rng.uniform(0.5, 0.9)), 0.0],
                    "tau_end": 2.0,
                    "h": 4e-3,
                }
                for model in ("M1", "M3")
            ],
            "gyration": {"periods": 2.0, "b": float(rng.uniform(0.8, 1.25)), "u": float(rng.uniform(0.4, 0.7))},
        }
    if name == "waves":
        # the criterion-7/8 presets are fixed: the seed is recorded but unused
        return {"grids": [[kind, n] for kind in ("plane", "dipole", "violated") for n in (48, 96)]}
    if name == "quantum":
        return {
            "periodic": [
                {"kind": kind, "x0_frac": float(rng.uniform(0.3, 0.7)), "k0": float(rng.uniform(1.0, 3.0))}
                for kind in ("free_vacuum", "minimal_coupling", "modified")
            ],
            "steps": 1000,
            "dtau": 0.01,
        }
    if name == "checks":
        s = [int(v) for v in rng.integers(0, 2**31 - 1, 3)]
        return {
            "legendre": {"seed": s[0], "n_states": 1000},
            "vector_field_fd": {"seed": s[1], "n_states": 200},
            "force_gap": {"seed": s[2], "n_states": 1000},
        }
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


# -- checks ------------------------------------------------------------------------


def margin(key: str, value) -> float:
    """Margin of one checked value to its tolerance: <= 1 passes.

    A bound gives value/bound, a band |value - mid|/half-width, a lower bound
    bound/value.  A value that is not a finite number gives inf.
    """
    from vacuumflow.config import DEFAULT_TOLERANCES

    if value is None or not math.isfinite(value):
        return math.inf
    if key in _EXACT_ZERO:
        return 0.0 if value == 0.0 else math.inf
    tol = DEFAULT_TOLERANCES[key]
    if isinstance(tol, list):
        lo, hi = tol
        return abs(value - 0.5 * (lo + hi)) / (0.5 * (hi - lo))
    if key in _LOWER_BOUNDS:
        return tol / value if value > 0.0 else math.inf
    return value / tol


# -- operations ---------------------------------------------------------------------


@dataclass
class Op:
    """One repeated unit of work.

    ``prepare`` builds the operation's preset state just before it runs
    (counted as set-up in the first pass); ``run`` takes that state and
    returns ``(checks, work)``.
    """

    name: str
    run: Callable
    prepare: Callable = lambda: None


@dataclass
class Workload:
    ops: list[Op]
    reference: str  # the kind of worker.Reference that matches the work
    seed_used: bool = True
    notes: dict = field(default_factory=dict)


def build(name: str, inputs: dict, tmp: Path) -> Workload:
    """Package objects and operations for one workload (the timed set-up)."""
    return {
        "trajectories": _build_trajectories,
        "waves": _build_waves,
        "quantum": _build_quantum,
        "checks": _build_checks,
    }[name](inputs, tmp)


class _Record:
    """The columns of a trajectory CSV that the mass-law check reads."""

    def __init__(self, path: Path):
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        self.energy = data[:, 8]
        self.w = data[:, 9]
        self.u_lab = data[:, 10:13]


def _build_trajectories(inputs: dict, tmp: Path) -> Workload:
    from vacuumflow import cli, core, dynamics, fields, integrate, presets, verify

    ops = []
    for cfg in inputs["flybys"]:
        cfg_path = tmp / f"{cfg['name']}.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp / cfg["name"]

        def flyby(_state, cfg=cfg, cfg_path=cfg_path, out=out):
            shutil.rmtree(out, ignore_errors=True)  # no artifact of an earlier pass is read
            code = cli.main(["simulate", "--config", str(cfg_path), "--out", str(out), "--quiet"])
            checks, work = [], 0
            for model in cfg["models"]:
                summary = json.loads((out / f"{cfg['name']}_{model}_drift.json").read_text())
                checks.append(("energy_drift", summary["energy_drift"]))
                checks.append(("truncated", 0.0 if summary["terminated"] is None else 1.0))
                work += summary["samples"] - 1
                if model == "M1":
                    rec = _Record(out / f"{cfg['name']}_M1.csv")
                    checks.append(("mass_law", verify.mass_law_deviation(rec)))
            if code != 0 and all(margin(k, v) <= 1.0 for k, v in checks):
                raise RuntimeError(f"vacuumflow simulate exited {code} with every check passing")
            return checks, work

        ops.append(Op(f"flyby:{len(cfg['field']['sources'])}src", flyby))

    for el in inputs["el"]:
        model = core.ModelKind(el["model"])
        raw = el["field"]
        fld = fields.VacuumField(
            w_inf=raw["w_inf"],
            sources=tuple(fields.FieldSource(**s) for s in raw["sources"]),
            q_test=raw["q_test"],
            a_uniform=raw["a_uniform"],
            b_uniform=raw["b_uniform"],
        )
        particle = core.Particle(q=1.0, u0=el["u0"])
        r0 = np.array(el["r0"])

        def el_pair(_state, model=model, fld=fld, particle=particle, r0=r0, el=el):
            residuals, work = [], 0
            for h in (el["h"], el["h"] / 2.0):
                traj = integrate.simulate(model, particle, fld, r0, el["tau_end"], integrate.ImplicitMidpoint(), h)
                residuals.append(dynamics.euler_lagrange_residual(model, traj, fld))
                work += len(traj) - 1
            return [("el_ratio_band", residuals[0] / residuals[1])], work

        ops.append(Op(f"el:{el['model']}", el_pair))

    g = inputs["gyration"]
    sc = presets.gyration(periods=g["periods"], b=g["b"], u=g["u"])

    def gyration(_state):
        gamma = 1.0 / math.sqrt(1.0 - g["u"] ** 2)
        t_span = sc.tau_end * gamma
        integ = integrate.RK45(atol=1e-12, rtol=1e-12)
        m3 = integrate.simulate(core.ModelKind.M3, sc.particle, sc.field, sc.r0, sc.tau_end, integ, sc.h)
        m0 = integrate.simulate(core.ModelKind.M0, sc.particle, sc.field, sc.r0, t_span, integ, t_span / 4000.0)
        pos_dev, _ = integrate.compare_trajectories(m3, m0)
        checks = [("gyration_pos_dev", pos_dev)]
        for traj in (m3, m0):
            circle = presets.gyration_analytic(traj.t, b=g["b"], u=g["u"])
            checks.append(("gyration_pos_dev", float(np.max(np.linalg.norm(traj.r - circle, axis=1)))))
        return checks, len(m3) + len(m0) - 2

    ops.append(Op("gyration", gyration))
    return Workload(ops, "interpreter")


_RATIO_KEYS = ("gauss", "faraday", "ampere", "nomono")


def _build_waves(inputs: dict, tmp: Path) -> Workload:
    from vacuumflow import maxwell, presets, verify

    builders = {
        "plane": lambda n: presets.plane_wave_grid(n),
        "dipole": lambda n: presets.dipole_grid(n),
        "violated": lambda n: presets.dipole_grid(n, gauge_violation=0.08),
    }
    residuals: dict = {}

    def grid_run(state, kind, n):
        grid, steps, report_index = state
        maxwell.evolve_wave(grid, steps)
        residuals[kind, n] = maxwell.maxwell_residuals(grid, report_index)
        checks = []
        coarse, fine = residuals.get((kind, 48)), residuals.get((kind, 96))
        if n == 96 and coarse is not None:
            if kind == "violated":
                checks.append(("gauge_violated_ratio_max", coarse.gauss / fine.gauss))
            else:
                checks += [("maxwell_ratio_band", getattr(coarse, k) / getattr(fine, k)) for k in _RATIO_KEYS]
        return checks, n**3 * steps

    def advected(_state):
        adv = verify.advected_report()
        return [
            ("advected_comoving_rel", adv["comoving_rel_variation"]),
            ("advected_fixed_min", adv["fixed_rel_variation"]),
        ], 0

    ops = [
        Op(f"grid:{kind}@{n}", lambda state, kind=kind, n=n: grid_run(state, kind, n),
           prepare=lambda kind=kind, n=n: builders[kind](n))
        for kind, n in inputs["grids"]
    ]
    ops.append(Op("advected", advected))
    sizes = {str(n): n**3 * 8 for n in sorted({n for _, n in inputs["grids"]})}
    return Workload(ops, "stencil", seed_used=False, notes={"field_array_bytes": sizes})


def _build_quantum(inputs: dict, tmp: Path) -> Workload:
    from vacuumflow import presets, quantum, verify

    hbar = presets.HBAR_DEFAULT
    dx, w, a = presets.quantum_profiles()
    n = w.size
    steps, dtau = inputs["steps"], inputs["dtau"]
    ops = []
    for spec in inputs["periodic"]:
        kind = quantum.QuantumKind(spec["kind"])
        prof_a = np.zeros(n) if kind is quantum.QuantumKind.FreeVacuum else a
        op = quantum.build_hamiltonian(quantum.QuantumModel(kind, w, prof_a, q=1.0), dx, hbar, "periodic")
        psi0 = quantum.gaussian_packet(n, dx, x0=spec["x0_frac"] * n * dx, sigma0=0.8, k0=spec["k0"], hbar=hbar)

        def periodic(_state, op=op, psi0=psi0):
            state, worst = psi0, 0.0
            for _ in range(steps):
                state = quantum.cn_step(op, state, dtau)
                worst = max(worst, abs(state.norm() - 1.0))
            return [("norm_drift", worst)], steps

        ops.append(Op(f"periodic{n}:{spec['kind']}", periodic))

    def packet(_state, tau_end=15.0, dtau=0.0025):
        rep = verify.packet_dispersion_report(tau_end=tau_end, dtau=dtau)
        return [("packet_sigma_rel", rep["rel_err"])], int(round(tau_end / dtau))

    def gap(_state):
        rep = verify.model_gap_report()
        return [
            ("model_gap", rep["abs_err"]),
            ("gap_zero_a", rep["gap_zero_a"]),
            ("gap_zero_q", rep["gap_zero_q"]),
        ], 0

    ops += [Op("fixed4096:packet", packet), Op("model_gap16384", gap)]
    return Workload(ops, "banded")


def _build_checks(inputs: dict, tmp: Path) -> Workload:
    from vacuumflow import verify

    def legendre(_state):
        p = inputs["legendre"]
        res = verify.legendre_consistency(seed=p["seed"], n_states=p["n_states"])
        checks = [("legendre_rel", v["hamiltonian_rel"]) for v in res.values()]
        checks += [("momentum_fd_rel", v["momentum_fd_rel"]) for v in res.values()]
        return checks, p["n_states"] * len(res)

    def vector_fd(_state):
        p = inputs["vector_field_fd"]
        res = verify.vector_field_fd(seed=p["seed"], n_states=p["n_states"])
        return [("gradient_fd_rel", v) for v in res.values()], p["n_states"] * len(res)

    def force_gap(_state):
        p = inputs["force_gap"]
        res = verify.force_gap_stats(seed=p["seed"], n_states=p["n_states"])
        return [("force_gap", res["max_identity_dev"])], res["states"]

    ops = [Op("legendre_consistency", legendre), Op("vector_field_fd", vector_fd), Op("force_gap_stats", force_gap)]
    return Workload(ops, "interpreter")
