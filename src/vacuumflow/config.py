"""Scenario configuration: JSON schema, validation, and tolerance defaults.

Every numeric tolerance used in a pass/fail decision lives in
DEFAULT_TOLERANCES and may be overridden per scenario under "tolerances";
nothing else in the package hard-codes them.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field as dc_field, fields as dc_fields
from pathlib import Path

import numpy as np

from .core import ModelKind, Particle, init_phase
from .errors import ConfigError, VacuumFlowError
from .fields import FieldSource, VacuumField
from .integrate import RK4, RK45, ImplicitMidpoint, IntegratorKind, step_count

DEFAULT_TOLERANCES: dict = {
    # particle dynamics
    "energy_drift": 1e-8,
    "mass_law": 1e-7,
    "gyration_pos_dev": 1e-6,
    "compare_pos_dev": 1e-6,
    "uniform_a_pos_dev": 1e-8,
    "force_gap": 1e-12,
    "legendre_rel": 1e-9,
    "momentum_fd_rel": 1e-6,
    "gradient_fd_rel": 1e-6,
    "el_ratio_band": [3.5, 4.5],
    # wave verification
    "maxwell_ratio_band": [3.2, 4.8],
    "gauge_violated_ratio_max": 2.0,
    "advected_comoving_rel": 1e-4,
    "advected_fixed_min": 1e-2,
    # quantum
    "dispersion_exponent_band": [3.9, 4.1],
    "dispersion_error_center": 2.04e-4,
    "dispersion_error_width": 1e-6,
    "norm_drift": 1e-11,
    "packet_sigma_rel": 1e-2,
    "model_gap": 1e-10,
}

# each integrator kind's type, whose fields are the keys it takes besides kind and h
_INTEGRATORS = {integ.kind: integ for integ in (RK4, ImplicitMidpoint, RK45)}
_INTEGRATOR_KINDS = tuple(_INTEGRATORS)
_PARTICLE_KEYS = ("q", "u0")
_FIELD_KEYS = ("w_inf", "q_test", "sources", "a_uniform", "b_uniform")
_SOURCE_KEYS = ("qs", "r0", "uf", "eps")
#: largest maxwell.n_fine, and so n_coarse: one 256^3 float64 array is
#: 128 MiB.  Under tracemalloc at n = 128 a gauge-violated grid peaks at 15.3
#: such arrays through evolve and report (3 levels of 4 potentials, 2 source
#: profiles, slab residuals), and verify.prop1_suite, which holds one grid at
#: a time, at 15.3 fine-grid arrays at 64/128 (245 MiB) and 15.0 at 128/256 (1.9 GiB)
MAX_GRID_N = 256
#: largest forces.states: at this cap verify.force_gap_stats peaks at 368 MiB
#: under tracemalloc (its (states, 14) table of rows alone is 107 MiB), and
#: the forces CSV holds about 290 MB
MAX_FORCE_STATES = 10**6
_MAXWELL_DEFAULTS = {"n_coarse": 48, "n_fine": 96, "advected": True, "dump_grids": False}
_QUANTUM_DEFAULTS = {"steps": 1000}
_FORCES_DEFAULTS = {"states": 1000}
_COMPARE_DEFAULTS = {"analytic": None}
_COMPARE_ANALYTIC = (None, "gyration_circle")
_MODEL_NAMES = tuple(m.value for m in ModelKind)
_TOP_LEVEL_KEYS = ("name", "models", "particle", "field", "r0", "tau_end", "integrator", "seed",
                   "out_dir", "tolerances", "maxwell", "quantum", "forces", "compare")


@dataclass
class ScenarioConfig:
    name: str
    models: list[ModelKind]
    particle: Particle
    field: VacuumField
    r0: np.ndarray
    tau_end: float
    integrator: IntegratorKind
    h: float
    seed: int = 0
    out_dir: str = "out"
    tolerances: dict = dc_field(default_factory=dict)
    maxwell: dict = dc_field(default_factory=dict)
    quantum: dict = dc_field(default_factory=dict)
    forces: dict = dc_field(default_factory=dict)
    compare: dict = dc_field(default_factory=dict)

    def tolerance(self, key: str):
        if key in self.tolerances:
            return self.tolerances[key]
        if key not in DEFAULT_TOLERANCES:
            raise ConfigError(f"unknown tolerance key {key!r}")
        return DEFAULT_TOLERANCES[key]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _number(value, where: str, kind=float):
    """value as a finite float (or a whole int); ConfigError naming where otherwise."""
    _require(not isinstance(value, bool), f"{where}: expected a number, got {value!r}")
    try:
        out = kind(value)
        whole = kind is float or out == float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}: expected a number, got {value!r}") from None
    _require(whole, f"{where}: expected an integer, got {value!r}")
    _require(math.isfinite(out), f"{where}: must be finite, got {out}")
    return out


def _owned(where, build, *args, **kwargs):
    """build(*args, **kwargs); the owner's error, which names what broke first ("u0: ..."),
    becomes a ConfigError at that name's JSON path: where + name, or where[name] for a map."""
    try:
        return build(*args, **kwargs)
    except VacuumFlowError as exc:
        name, _, rest = str(exc).partition(": ")
        path = where[name] if isinstance(where, dict) else where + name
        raise ConfigError(f"{path}: {rest}") from None


def _known_keys(raw: dict, where: str, keys) -> None:
    for key in raw:
        _require(key in keys, f"{where}: unknown key {key!r}")


def _vec3(raw, where: str) -> np.ndarray:
    _require(
        isinstance(raw, (list, tuple)) and len(raw) == 3,
        f"{where}: expected a 3-element list",
    )
    return np.array([_number(v, where) for v in raw])


def _build_field(raw: dict) -> VacuumField:
    _require(isinstance(raw, dict), "field: expected an object")
    _known_keys(raw, "field", _FIELD_KEYS)
    _require("w_inf" in raw, "field.w_inf: required")
    raw_sources = raw.get("sources", [])
    _require(isinstance(raw_sources, list), f"field.sources: expected a list, got {raw_sources!r}")
    sources = []
    for i, s in enumerate(raw_sources):
        where = f"field.sources[{i}]"
        _require(isinstance(s, dict), f"{where}: expected an object")
        _known_keys(s, where, _SOURCE_KEYS)
        for key in ("qs", "r0"):
            _require(key in s, f"{where}.{key}: required")
        sources.append(_owned(
            f"{where}.", FieldSource,
            qs=_number(s["qs"], f"{where}.qs"),
            r0=_vec3(s["r0"], f"{where}.r0"),
            uf=_vec3(s.get("uf", [0, 0, 0]), f"{where}.uf"),
            eps=_number(s.get("eps", 0.01), f"{where}.eps"),
        ))
    return _owned(
        "field.", VacuumField,
        w_inf=_number(raw["w_inf"], "field.w_inf"),
        sources=tuple(sources),
        q_test=_number(raw.get("q_test", 1.0), "field.q_test"),
        a_uniform=_vec3(raw.get("a_uniform", [0, 0, 0]), "field.a_uniform"),
        b_uniform=_vec3(raw.get("b_uniform", [0, 0, 0]), "field.b_uniform"),
    )


def _build_integrator(raw: dict) -> tuple[IntegratorKind, float]:
    _require(isinstance(raw, dict), "integrator: expected an object")
    kind = raw.get("kind", "implicit_midpoint")
    _require(kind in _INTEGRATOR_KINDS, f"integrator.kind: must be one of {_INTEGRATOR_KINDS}, got {kind!r}")
    build = _INTEGRATORS[kind]
    keys = {key.name: type(key.default) for key in dc_fields(build)}  # the number type of each key
    _known_keys(raw, "integrator", ("kind", "h", *keys))
    params = {key: _number(raw[key], f"integrator.{key}", number) for key, number in keys.items() if key in raw}
    return _owned("integrator.", build, **params), _number(raw.get("h", 1e-3), "integrator.h")


def _section(raw, name: str, defaults: dict) -> dict:
    """A config section as an object with known keys, defaults filled in."""
    _require(isinstance(raw, dict), f"{name}: expected an object")
    _known_keys(raw, name, defaults)
    return {**defaults, **raw}


def _positive_int(value, where: str) -> int:
    out = _number(value, where, int)
    _require(out >= 1, f"{where}: must be a positive integer, got {out}")
    return out


#: the longest suffix the CLI puts after name in an artifact's file name
_LONGEST_SUFFIX = "_maxwell_timing.json"
_MAX_FILE_NAME = 255  # bytes, on Linux and macOS file systems


def _checked_name(value) -> str:
    """value as the stem of every artifact's file name in the output directory:
    a string with no '/' and no NUL, short enough for the longest artifact name."""
    _require(isinstance(value, str), f"name: expected a string, got {value!r}")
    _require("/" not in value and "\0" not in value, f"name: must not hold '/' or NUL, got {value!r}")
    try:
        size = len(os.fsencode(value))
    except UnicodeEncodeError:
        raise ConfigError(f"name: cannot be part of a file name, got {value!r}") from None
    most = _MAX_FILE_NAME - len(_LONGEST_SUFFIX)
    _require(size <= most, f"name: must be at most {most} bytes, so that <name>{_LONGEST_SUFFIX} "
                           f"fits in a file name, got {size}")
    return value


def checked_seed(value, where: str = "seed") -> int:
    """value as a seed numpy takes, a non-negative integer (the seed key and --seed)."""
    out = _number(value, where, int)
    _require(out >= 0, f"{where}: must be a non-negative integer, got {out}")
    return out


def _build_maxwell(raw) -> dict:
    """The maxwell section with every key checked and defaults filled in."""
    out = _section(raw, "maxwell", _MAXWELL_DEFAULTS)
    for key in ("advected", "dump_grids"):
        _require(isinstance(out[key], bool), f"maxwell.{key}: expected true or false, got {out[key]!r}")
    n_coarse = _number(out["n_coarse"], "maxwell.n_coarse", int)
    n_fine = _number(out["n_fine"], "maxwell.n_fine", int)
    # the residual norms skip a margin of max(3, n // 10) cells on each side
    _require(n_coarse >= 7, f"maxwell.n_coarse: must be >= 7 to leave an interior, got {n_coarse}")
    _require(n_fine > n_coarse, f"maxwell.n_fine: must be > n_coarse = {n_coarse}, got {n_fine}")
    _require(n_fine <= MAX_GRID_N, f"maxwell.n_fine: must be <= {MAX_GRID_N} (the grid size cap), got {n_fine}")
    out["n_coarse"], out["n_fine"] = n_coarse, n_fine
    return out


def _build_quantum(raw) -> dict:
    out = _section(raw, "quantum", _QUANTUM_DEFAULTS)
    out["steps"] = _positive_int(out["steps"], "quantum.steps")
    return out


def _build_forces(raw) -> dict:
    out = _section(raw, "forces", _FORCES_DEFAULTS)
    out["states"] = _positive_int(out["states"], "forces.states")
    _require(out["states"] <= MAX_FORCE_STATES,
             f"forces.states: must be <= {MAX_FORCE_STATES} (the state count cap), got {out['states']}")
    return out


def _build_compare(raw, models: list[ModelKind], particle: Particle, fld: VacuumField) -> dict:
    """The compare section; the gyration circle takes only the scenarios it
    describes: M0 and M3 with q = 1 in W = -1 and B = (0, 0, b), u0 = (u, 0, 0)."""
    out = _section(raw, "compare", _COMPARE_DEFAULTS)
    _require(
        out["analytic"] in _COMPARE_ANALYTIC,
        f"compare.analytic: must be absent or 'gyration_circle', got {out['analytic']!r}",
    )
    if out["analytic"] == "gyration_circle":
        where = "compare.analytic: 'gyration_circle' needs"
        bx, by, bz = fld.b_uniform.tolist()
        _require(not fld.sources, f"{where} no field sources, got {len(fld.sources)}")
        _require(fld.w_inf == -1.0 and particle.q == 1.0,
                 f"{where} field.w_inf = -1 and particle.q = 1, got {fld.w_inf} and {particle.q}")
        _require(bx == by == 0.0 and bz != 0.0,
                 f"{where} field.b_uniform = [0, 0, b] with b != 0, got {[bx, by, bz]}")
        _require(particle.u0[1] == particle.u0[2] == 0.0,
                 f"{where} particle.u0 = [u, 0, 0], got {particle.u0.tolist()}")
        u = particle.u0[0].item()
        _require(math.isfinite(u / bz),
                 f"{where} field.b_uniform = [0, 0, b] with a finite radius u / b, got b = {bz} for u = {u}")
        others = [m.value for m in models if m not in (ModelKind.M0, ModelKind.M3)]
        _require(not others, f"{where} models M0 and M3 only, got {others}")
    return out


def validate_config(raw: dict) -> ScenarioConfig:
    """Build a typed scenario from a raw JSON object: the JSON itself is checked
    here, every invariant of the values by the type or function that owns it."""
    _require(isinstance(raw, dict), "config root: expected a JSON object")
    _known_keys(raw, "config root", _TOP_LEVEL_KEYS)
    models_raw = raw.get("models", ["M1"])
    _require(isinstance(models_raw, list) and models_raw, "models: expected a non-empty list")
    models = []
    for m in models_raw:
        _require(m in _MODEL_NAMES, f"models: unknown model {m!r} (expected one of {_MODEL_NAMES})")
        models.append(ModelKind(m))

    praw = raw.get("particle", {})
    _require(isinstance(praw, dict), "particle: expected an object")
    _known_keys(praw, "particle", _PARTICLE_KEYS)
    particle = _owned("particle.", Particle, q=_number(praw.get("q", 1.0), "particle.q"),
                      u0=_vec3(praw.get("u0", [0, 0, 0]), "particle.u0"))
    fld = _build_field(raw.get("field", {"w_inf": -1.0}))
    vector_models = [m.value for m in models if m in (ModelKind.M2, ModelKind.M3)]
    _require(
        fld.q_test != 0.0 or not vector_models,
        f"field.q_test: must be nonzero for models {vector_models} (A divides by q_test), got 0",
    )

    r0 = _vec3(raw.get("r0", [0, 0, 0]), "r0")
    tau_end = _number(raw.get("tau_end", 1.0), "tau_end")
    integrator, h = _build_integrator(raw.get("integrator", {}))
    _owned({"tau_end": "tau_end", "h": "integrator.h"}, step_count, tau_end, h)
    for i, model in enumerate(models):  # the start state, with each model's square-root guard
        paths = {"q": "particle.q", "r0": "r0", "model": f"models[{i}]"}
        _owned(paths, init_phase, model, particle, fld, r0)

    raw_tolerances = raw.get("tolerances", {})
    _require(isinstance(raw_tolerances, dict), "tolerances: expected an object")
    tolerances = {}
    for key, value in raw_tolerances.items():
        _require(key in DEFAULT_TOLERANCES, f"tolerances: unknown key {key!r}")
        where = f"tolerances.{key}"
        if isinstance(DEFAULT_TOLERANCES[key], list):
            _require(isinstance(value, list) and len(value) == 2, f"{where}: expected a [low, high] pair")
            low, high = (_number(v, where) for v in value)
            _require(low < high, f"{where}: low must be below high, got [{low}, {high}]")
            tolerances[key] = [low, high]
        else:
            tolerances[key] = _number(value, where)
            _require(tolerances[key] > 0.0, f"{where}: must be > 0, got {tolerances[key]}")

    return ScenarioConfig(
        name=_checked_name(raw.get("name", "scenario")),
        models=models,
        particle=particle,
        field=fld,
        r0=r0,
        tau_end=tau_end,
        integrator=integrator,
        h=h,
        seed=checked_seed(raw.get("seed", 0)),
        out_dir=str(raw.get("out_dir", "out")),
        tolerances=tolerances,
        maxwell=_build_maxwell(raw.get("maxwell", {})),
        quantum=_build_quantum(raw.get("quantum", {})),
        forces=_build_forces(raw.get("forces", {})),
        compare=_build_compare(raw.get("compare", {}), models, particle, fld),
    )


def load_config(path) -> ScenarioConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"config file {p} cannot be read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {p} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return validate_config(raw)
