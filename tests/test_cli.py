import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vacuumflow import presets, verify
from vacuumflow.cli import main
from vacuumflow.config import (
    DEFAULT_TOLERANCES,
    MAX_FORCE_STATES,
    MAX_GRID_N,
    MAX_QUANTUM_STEPS,
    load_config,
    validate_config,
)
from vacuumflow.dynamics import ForceKind, force
from vacuumflow.errors import ConfigError

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
SRC = SCENARIOS.parent / "src"


def _free_config(tmp_path, **overrides):
    raw = {
        "name": "free",
        "models": ["M1"],
        "particle": {"q": 1.0, "u0": [0.5, 0.0, 0.0]},
        "r0": [0.0, 0.0, 0.0],
        "field": {"w_inf": -1.0, "q_test": 1.0, "sources": []},
        "integrator": {"kind": "rk4", "h": 0.01},
        "tau_end": 2.0,
        "seed": 3,
        "out_dir": str(tmp_path / "out"),
    }
    raw.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    return path


def test_simulate_free_particle_constant_energy(tmp_path, capsys):
    cfg = _free_config(tmp_path)
    assert main(["simulate", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    with open(out / "free_M1.csv") as fh:
        rows = list(csv.reader(fh))
    energies = np.array([float(r[8]) for r in rows[1:]])
    assert np.max(np.abs(energies - energies[0])) <= 1e-13
    summary = json.loads((out / "free_M1_drift.json").read_text())
    assert summary["passed"] is True


def test_malformed_config_exit_2(tmp_path, capsys):
    cfg = _free_config(tmp_path, particle={"q": 1.0, "u0": [1.5, 0.0, 0.0]})
    assert main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "u0" in err and "< 1" in err


_SOURCE = {"qs": 0.5, "r0": [1.0, 1.0, 0.0], "uf": [0, 0, 0], "eps": 0.1}
_GYRATION = {"analytic": "gyration_circle"}
_CIRCLE = "compare.analytic: 'gyration_circle' needs"


@pytest.mark.parametrize("key, overrides", [
    ("r0", {"r0": [float("nan"), 0.0, 0.0]}),
    ("particle.u0", {"particle": {"q": 1.0, "u0": [float("inf"), 0.0, 0.0]}}),
    ("field.sources[0].uf", {"field": {"w_inf": -1.0, "sources": [{**_SOURCE, "uf": [0.0, float("nan"), 0.0]}]}}),
    ("field.a_uniform", {"field": {"w_inf": -1.0, "a_uniform": [0.0, 0.0, float("-inf")]}}),
    ("field.b_uniform", {"field": {"w_inf": -1.0, "b_uniform": [float("nan"), 0.0, 0.0]}}),
    ("tau_end", {"tau_end": "abc"}),
    ("integrator.tol", {"integrator": {"kind": "implicit_midpoint", "tol": "tight"}}),
    ("tolerances.energy_drift", {"tolerances": {"energy_drift": "tight"}}),
    ("field.sources[0].qs", {"field": {"w_inf": -1.0, "sources": [{"r0": [1.0, 1.0, 0.0], "eps": 0.1}]}}),
    ("maxwell", {"maxwell": [1]}),
    ("maxwell.n_coarse", {"maxwell": {"n_coarse": "abc"}}),
    ("maxwell.n_coarse", {"maxwell": {"n_coarse": 4}}),
    ("maxwell.n_fine", {"maxwell": {"n_fine": 96.5}}),
    ("maxwell.advected", {"maxwell": {"advected": "yes"}}),
    ("integrator.h", {"integrator": {"kind": "rk4", "h": 1e-320}}),
    ("quantum", {"quantum": [1]}),
    ("quantum.steps", {"quantum": {"steps": 0}}),
    ("quantum.steps", {"quantum": {"steps": "many"}}),
    ("quantum", {"quantum": {"step": 10}}),
    ("forces", {"forces": 5}),
    ("forces.states", {"forces": {"states": 2.5}}),
    ("compare.analytic", {"compare": {"analytic": "ellipse"}}),
    ("compare", {"compare": {"analytic": "gyration_circle", "tol": 1}}),
    ("'bogus'", {"bogus": 1}),
    ("tolerances.energy_drift", {"tolerances": {"energy_drift": -1}}),
    ("tolerances.norm_drift", {"tolerances": {"norm_drift": 0.0}}),
    ("tolerances.maxwell_ratio_band", {"tolerances": {"maxwell_ratio_band": [4.8, 3.2]}}),
    ("tolerances.el_ratio_band", {"tolerances": {"el_ratio_band": [4.0, 4.0]}}),
    ("particle: unknown key 'mass'", {"particle": {"q": 1.0, "u0": [0.5, 0.0, 0.0], "mass": 2.0}}),
    ("field: unknown key 'sorces'", {"field": {"w_inf": -1.0, "sorces": []}}),
    ("field.sources[0]: unknown key 'epsilon'",
     {"field": {"w_inf": -1.0, "sources": [{"qs": 0.5, "r0": [1.0, 1.0, 0.0], "epsilon": 0.3}]}}),
    ("integrator: unknown key 'atol'", {"integrator": {"kind": "rk4", "h": 0.01, "atol": 1e-9}}),
    ("field.sources", {"field": {"w_inf": -1.0, "sources": 5}}),
    ("field.sources", {"field": {"w_inf": -1.0, "sources": None}}),
    # eps^3 underflows to 0 from eps = 1e-108; the source sits at r0
    ("field.sources[0].eps", {"field": {"w_inf": -1.0, "sources": [{**_SOURCE, "r0": [0.0, 0.0, 0.0], "eps": 1e-108}]}}),
    ("seed", {"seed": True}),
    # the M2 square-root guard W^2 - |P|^2 > 0 fails at the start state (P = -W u0 + qA)
    ("models[0]: M2", {"models": ["M2"], "particle": {"q": 1.0, "u0": [0.9, 0.0, 0.0]},
                       "field": {"w_inf": -1.0, "a_uniform": [0.9, 0.0, 0.0]}}),
    ("models[1]: M2", {"models": ["M1", "M2"], "particle": {"q": 1.0, "u0": [0.9, 0.0, 0.0]},
                       "field": {"w_inf": -1.0, "a_uniform": [0.9, 0.0, 0.0]}}),
    ("particle.u0", {"particle": {"q": 1.0, "u0": [1e308, 0.0, 0.0]}}),
    ("field.sources[0].uf", {"field": {"w_inf": -1.0, "sources": [{**_SOURCE, "uf": [1e308, 0.0, 0.0]}]}}),
    # W^2 overflows at r0 (a source of huge charge), so the start guard W^2 - |p|^2 is nan
    ("models[0]: M1", {"field": {"w_inf": -1.0, "sources": [{**_SOURCE, "qs": -1e160}]}}),
    ("integrator.tol", {"integrator": {"kind": "implicit_midpoint", "tol": 0}}),
    ("integrator.max_iter", {"integrator": {"kind": "implicit_midpoint", "max_iter": 0}}),
    ("integrator.atol", {"integrator": {"kind": "rk45", "atol": 0}}),
    ("integrator.rtol", {"integrator": {"kind": "rk45", "rtol": -1e-9}}),
    ("tau_end", {"tau_end": 0}),
    ("integrator.h", {"integrator": {"kind": "rk4", "h": -0.01}}),
    ("field.w_inf", {"field": {"w_inf": 0.0}}),
    ("particle.q", {"particle": {"q": 2.0, "u0": [0.5, 0.0, 0.0]}}),
    ("r0", {"field": {"w_inf": -1e-3, "sources": [{**_SOURCE, "r0": [0.0, 0.0, 0.0]}]}}),
    # w_inf^2 overflows: rejected at load, even where the start momentum is 0
    ("field.w_inf", {"particle": {"q": 1.0, "u0": [0.0, 0.0, 0.0]}, "field": {"w_inf": -1e308}}),
    # one step of h would run the record to tau = h, past tau_end
    ("integrator.h: step must be <= tau_end", {"integrator": {"kind": "rk45", "h": 5.0}}),
    # below RK45's floor (scipy's), where the error target sits under round-off
    ("integrator.rtol", {"integrator": {"kind": "rk45", "rtol": 1e-16}}),
    # numpy's generators take no negative seed
    ("seed", {"seed": -5}),
    # 10**13 states would need some 500 TiB
    ("forces.states", {"forces": {"states": 10**13}}),
    ("forces.states", {"forces": {"states": MAX_FORCE_STATES + 1}}),
    # each setting the gyration circle cannot describe
    (f"{_CIRCLE} no field sources", {"compare": _GYRATION, "field": {"w_inf": -1.0, "sources": [_SOURCE]}}),
    (f"{_CIRCLE} field.w_inf = -1 and particle.q = 1, got -2.0 and 1.0",
     {"compare": _GYRATION, "field": {"w_inf": -2.0}}),
    (f"{_CIRCLE} field.w_inf = -1 and particle.q = 1, got -1.0 and 2.0",
     {"compare": _GYRATION, "particle": {"q": 2.0, "u0": [0.5, 0, 0]}, "field": {"w_inf": -1.0, "q_test": 2.0}}),
    (f"{_CIRCLE} field.b_uniform", {"compare": _GYRATION}),
    (f"{_CIRCLE} field.b_uniform", {"compare": _GYRATION, "field": {"w_inf": -1.0, "b_uniform": [0.1, 0, 1]}}),
    (f"{_CIRCLE} particle.u0", {"compare": _GYRATION, "particle": {"q": 1.0, "u0": [0.5, 0, 0.1]},
                                "field": {"w_inf": -1.0, "b_uniform": [0, 0, 1]}}),
    (f"{_CIRCLE} models M0 and M3 only", {"compare": _GYRATION, "field": {"w_inf": -1.0, "b_uniform": [0, 0, 1]}}),
    # a name or out_dir that would write outside the output directory or is no path
    ("name", {"name": "../escaped"}),
    ("name", {"name": "sub/dir"}),
    ("name", {"name": "a\0b"}),
    ("name", {"name": "x" * 300}),
    ("out_dir", {"out_dir": "out\0dir"}),
    ("name", {"name": 5}),
    ("name", {"name": "\ud800"}),
    # 1e300 loads as the 301-digit integer int(1e300): the quantum command would never end
    ("quantum.steps: must be <= 1000000", {"quantum": {"steps": 1e300}}),
    ("quantum.steps: must be <= 1000000", {"quantum": {"steps": MAX_QUANTUM_STEPS + 1}}),
])
def test_bad_input_exit_2_names_key(tmp_path, capsys, key, overrides):
    """Non-finite vectors, non-numeric scalars, a missing qs, bad maxwell, quantum,
    forces and compare sections, an unbounded step count, an unknown key at the
    top level or in a section (integrator keys depend on the kind), a
    non-positive tolerance, an inverted band, sources that are not a list, a
    softening too small for the kernels, a boolean number, a start state that
    breaks a model's square-root guard, huge speeds, a negative seed, a state
    or quantum step count above its cap, a scenario the gyration circle cannot
    describe, a name or out_dir that is no path inside the output directory and
    each invariant an owning type checks end in exit 2, not a traceback or a
    numpy warning."""
    cfg = _free_config(tmp_path, **overrides)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", str(cfg), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


_ODD_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300, -1e300, 1.0, -1.0, 1e-12,
                     math.nan, math.inf, -math.inf, None, True, "1"]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-3, 100),
)
_STDERR_LINE = re.compile(r"(config error|error): |(simulate|compare) M[0-3]: terminated early: ")


def _vec3(bound):
    return st.lists(st.floats(-bound, bound), min_size=3, max_size=3)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _number_paths(node, path=()):
    """The key path of every number in a raw config."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        if isinstance(value, (dict, list)):
            yield from _number_paths(value, (*path, key))
        elif _is_number(value):
            yield (*path, key)


#: each command's section, values in range and, for run time, small: grids up
#: to n = 16 (mostly without the advected check), 20 quantum steps, 50 force states
_SECTIONS = {
    "maxwell": lambda draw: {"n_coarse": (n := draw(st.integers(7, 15))), "n_fine": draw(st.integers(n + 1, 16)),
                             "advected": draw(st.integers(0, 4)) == 4, "dump_grids": draw(st.booleans())},
    "quantum": lambda draw: {"steps": draw(st.integers(1, 20))},
    "forces": lambda draw: {"states": draw(st.integers(1, 50))},
    "compare": lambda draw: {"analytic": draw(st.sampled_from([None, "gyration_circle"]))},
}
#: (the largest value a fuzzed run takes, the config's cap) per section value; a
#: mutated value above the first but within the cap is cut to the first
_SECTION_MOST = {("maxwell", "n_coarse"): (15, MAX_GRID_N), ("maxwell", "n_fine"): (16, MAX_GRID_N),
                 ("quantum", "steps"): (20, MAX_QUANTUM_STEPS), ("forces", "states"): (50, MAX_FORCE_STATES)}
GYRATION = json.loads((SCENARIOS / "gyration.json").read_text())


@st.composite
def fuzzed_configs(draw, command="simulate"):
    """A config of the right shape for command with values in range, then up to two
    of its numbers replaced by an odd value (zero, subnormal, huge, non-finite, not
    a number) or scaled by a factor of either sign.  A run takes at most 200 steps
    and the section values in _SECTION_MOST.  compare runs two models, about half
    the time on the shipped gyration scenario, which its circle describes."""
    kind = draw(st.sampled_from(["rk4", "implicit_midpoint", "rk45"]))
    h = draw(st.floats(1e-3, 0.2))
    integrator = {"kind": kind, "h": h}
    if kind == "implicit_midpoint":
        integrator.update(tol=draw(st.floats(1e-14, 1e-6)), max_iter=draw(st.integers(1, 60)))
    elif kind == "rk45":
        integrator.update(atol=draw(st.floats(1e-12, 1e-4)), rtol=draw(st.floats(1e-12, 1e-4)))
    q = draw(st.floats(-2.0, 2.0))
    source = st.fixed_dictionaries({"qs": st.floats(-2.0, 2.0), "r0": _vec3(3.0), "uf": _vec3(0.5),
                                    "eps": st.floats(0.02, 0.5)})
    raw = {
        "name": "fuzz",
        "models": draw(st.lists(st.sampled_from(["M0", "M1", "M2", "M3"]), min_size=1, max_size=4, unique=True)),
        "particle": {"q": q, "u0": draw(_vec3(0.5))},
        "r0": draw(_vec3(3.0)),
        "field": {"w_inf": draw(st.floats(-3.0, -0.1)), "q_test": q, "sources": draw(st.lists(source, max_size=3)),
                  "a_uniform": draw(_vec3(1.0)), "b_uniform": draw(_vec3(1.0))},
        "integrator": integrator,
        "tau_end": h * draw(st.integers(1, 200)),
    }
    if command == "compare":
        if draw(st.booleans()):
            raw = copy.deepcopy(GYRATION)
            raw["tau_end"] = raw["integrator"]["h"] * draw(st.integers(1, 200))
        else:
            raw["models"] = draw(st.lists(st.sampled_from(["M0", "M1", "M2", "M3"]), min_size=2, max_size=2,
                                          unique=True))
    if command in _SECTIONS:
        raw[command] = _SECTIONS[command](draw)
    if command == "checks":
        raw["seed"] = draw(st.integers(0, 2**32))
    paths = list(_number_paths(raw))
    for _ in range(draw(st.integers(0, 2))):
        *parents, key = draw(st.sampled_from(paths))
        node = raw
        for parent in parents:
            node = node[parent]
        if _is_number(node[key]) and draw(st.booleans()):
            node[key] *= draw(st.floats(0.5, 2.0)) * draw(st.sampled_from([1.0, -1.0]))
        else:
            node[key] = draw(_ODD_VALUES)
    h, tau_end = raw["integrator"]["h"], raw["tau_end"]
    if _is_number(h) and _is_number(tau_end) and h > 0.0 and tau_end > 200.0 * h:
        raw["tau_end"] = 200.0 * h
    for (section, key), (most, cap) in _SECTION_MOST.items():
        value = raw.get(section, {}).get(key)
        if _is_number(value) and most < value <= cap:
            raw[section][key] = most
    return raw


def _fuzz_command(command, raw):
    """`vacuumflow <command>` on a fuzzed config exits 0, 1 or 2.  Its stderr holds
    only its `config error:` or `error:` line and the `terminated early` line of a
    truncated record: never a traceback, and no numpy or scipy warning.  Every
    JSON artifact is strict JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_text(json.dumps(raw))
        out = Path(tmp) / "out"
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main([command, "--config", str(path), "--out", str(out), "--quiet"])
        for artifact in sorted(out.glob("*.json")):
            _strict_json(artifact)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    assert all(_STDERR_LINE.match(line) for line in lines), lines
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("config error: ")
    assert not [w for w in caught if issubclass(w.category, (RuntimeWarning, UserWarning))]


@settings(max_examples=300, deadline=None)
@given(fuzzed_configs())
def test_simulate_exit_code_fuzz(raw):
    _fuzz_command("simulate", raw)


@pytest.mark.parametrize("command, examples", [("compare", 120), ("forces", 100), ("maxwell", 60),
                                               ("quantum", 50), ("checks", 8)])
def test_command_exit_code_fuzz(command, examples):
    """The other five commands on fuzzed configs and section values, as
    `test_simulate_exit_code_fuzz` runs simulate.  checks runs two flyby
    simulations per example, so it gets few."""
    settings(max_examples=examples, deadline=None)(given(fuzzed_configs(command))(
        lambda raw: _fuzz_command(command, raw)))()


def test_rk45_work_is_bounded(tmp_path, capsys):
    """A find of the fuzz above: a gyration frequency of about 1e6 (q B_z = 1e6)
    over 200 recorded RK45 steps.  M3 spends its evaluation cap and ends its
    record at sample 1 with a termination, M1 (no A) runs through, and the
    command exits 1 within seconds, with no traceback."""
    cfg = _free_config(tmp_path, models=["M1", "M3"], particle={"q": 1e-14, "u0": [0.5, 0.0, 0.0]},
                       field={"w_inf": -1.0, "q_test": 1e-14, "sources": [], "b_uniform": [-0.92, 0.72, 1e20]},
                       integrator={"kind": "rk45", "h": 0.047}, tau_end=9.39)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", str(cfg), "--quiet"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["simulate M3: terminated early: step 1: RK45 took more than 200000 evaluations, "
                     "1000 per recorded step"]
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    m1 = json.loads((tmp_path / "out" / "free_M1_drift.json").read_text())
    m3 = json.loads((tmp_path / "out" / "free_M3_drift.json").read_text())
    assert m1["terminated"] is None and m1["samples"] == 201
    assert m3["samples"] == 1 and 200_000 < m3["meta"]["stats"]["nfev"] <= 200_006

def test_overflowing_baseline_is_rejected_at_load(tmp_path, capsys):
    """flyby.json with w_inf = -1e308 at rest exits 2 naming field.w_inf; it used
    to pass the M1 start guard as inf and exit 1 with NaN drift."""
    raw = copy.deepcopy(FLYBY)
    raw["field"]["w_inf"] = -1e308
    raw["particle"]["u0"] = [0.0, 0.0, 0.0]
    path = tmp_path / "flyby.json"
    path.write_text(json.dumps(raw))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "config error: field.w_inf" in err and "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    with pytest.raises(ConfigError, match="field.w_inf"):
        validate_config(raw)


def _strict_json(path):
    """The JSON file at path, parsed as RFC 8259 JSON: a NaN or an Infinity raises."""
    def refuse(constant):
        raise ValueError(f"{path.name}: {constant} is not JSON")

    return json.loads(path.read_text(), parse_constant=refuse)


def _run_repro(tmp_path, capsys, command, scenario, edit):
    """Run command on the shipped scenario as edit changes it: (exit code, stderr,
    every JSON artifact parsed strictly).  No RuntimeWarning may be raised."""
    raw = json.loads((SCENARIOS / f"{scenario}.json").read_text())
    edit(raw)
    path = tmp_path / "repro.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--config", str(path), "--out", str(out), "--quiet"])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err, {p.name: _strict_json(p) for p in sorted(out.glob("*.json"))}


def test_zero_start_energy_has_no_drift_exit_1(tmp_path, capsys):
    """An M0 start whose energy cancels to 0.0 has no relative drift: the report
    holds a JSON null, stderr says why and the check fails.  It used to divide
    by zero and write a bare Infinity, which is not JSON."""
    def edit(raw):
        raw.update(models=["M0"], r0=[5e-101, 0, 0], tau_end=1, integrator={"kind": "rk4", "h": 0.1})
        raw["field"]["sources"] = [{"qs": -0.5, "r0": [0, 0, 0], "eps": 1e-100}]

    code, err, artifacts = _run_repro(tmp_path, capsys, "simulate", "flyby", edit)
    assert code == 1
    assert err.splitlines() == ["simulate M0: no relative energy drift: the start energy is 0"]
    report = artifacts["flyby_M0_drift.json"]
    assert report["energy_start"] == 0.0 and report["energy_drift"] is None and report["passed"] is False


def test_gyration_radius_overflow_exit_2(tmp_path, capsys):
    """b = 5e-324 makes the circle's radius u / b overflow; the config rejects it
    naming field.b_uniform.  It used to warn twice and write NaN deviations."""
    def edit(raw):
        raw["field"]["b_uniform"] = [0, 0, 5e-324]
        raw["tau_end"] = 50 * raw["integrator"]["h"]

    code, err, artifacts = _run_repro(tmp_path, capsys, "compare", "gyration", edit)
    assert code == 2 and not artifacts
    assert err.startswith(f"config error: {_CIRCLE} field.b_uniform") and "5e-324" in err


def test_compare_of_records_cut_short_exit_1(tmp_path, capsys):
    """b = 1500 over 80 steps: RK45 reaches its evaluation cap in both records
    (M3 at step 22, M0 at 32) while they still overlap.  compare fails the run,
    names each termination on stderr and writes passed: false under the usual
    keys.  It used to print PASS on the shorter range and exit 0."""
    def edit(raw):
        raw["field"]["b_uniform"] = [0, 0, 1500]
        raw["tau_end"] = 80 * raw["integrator"]["h"]

    code, err, artifacts = _run_repro(tmp_path, capsys, "compare", "gyration", edit)
    assert code == 1
    lines = err.splitlines()
    assert [line.split(": ")[:3] for line in lines] == [["compare M3", "terminated early", "step 22"],
                                                        ["compare M0", "terminated early", "step 32"]]
    assert all("RK45 took more than" in line for line in lines)
    report = artifacts["gyration_compare.json"]
    assert report["passed"] is False
    assert set(report) == {"M0_vs_circle", "M3_vs_circle", "max_energy_drift", "max_pos_dev", "models",
                           "passed", "tolerance"}


def test_compare_of_a_record_cut_at_its_start_exit_1(tmp_path, capsys):
    """b = 1e300: RK45 spends its evaluation cap on the first step, so a record
    holds one sample and spans no lab time.  compare exits 1 naming the empty
    overlap and each record's termination, with no traceback."""
    def edit(raw):
        raw["field"]["b_uniform"] = [0, 0, 1e300]
        raw["tau_end"] = 5 * raw["integrator"]["h"]

    code, err, artifacts = _run_repro(tmp_path, capsys, "compare", "gyration", edit)
    assert code == 1 and not artifacts
    assert err.startswith("error: no common lab-time range")
    assert "; M3 terminated early: step 1: RK45 took more than" in err


def test_overflowing_source_kernel_exit_2(tmp_path, capsys):
    """A source of eps 1e-104, where qs / (4 pi eps^3) overflows, is rejected
    naming eps.  It used to load, and the run ended on a NaN W at its first step."""
    def edit(raw):
        raw.update(models=["M0"], r0=[1e-104, 0, 0], integrator={"kind": "rk4", "h": 0.1})
        raw["field"]["sources"] = [{"qs": 0.5, "r0": [0, 0, 0], "eps": 1e-104}]

    code, err, artifacts = _run_repro(tmp_path, capsys, "simulate", "flyby", edit)
    assert code == 2 and not artifacts
    assert err.startswith("config error: field.sources[0].eps: |qs| / (4 pi eps^3) must not overflow")


def test_write_json_refuses_non_finite_values(tmp_path):
    """Artifacts are RFC 8259 JSON, which has no NaN or Infinity."""
    from vacuumflow.cli import _write_json

    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            _write_json(tmp_path / "x.json", {"value": value})


def test_maxwell_grid_size_above_the_cap_exit_2(tmp_path, capsys):
    """n_fine = 100000 used to end in numpy's _ArrayMemoryError and exit 1; the
    cap rejects it at load (far above the cap, so nothing could allocate)."""
    cfg = _free_config(tmp_path, maxwell={"n_fine": 100000})
    assert main(["maxwell", "--config", str(cfg), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"config error: maxwell.n_fine: must be <= {MAX_GRID_N}" in err
    assert "Traceback" not in err


def test_negative_seed_option_exit_2(tmp_path, capsys):
    """--seed -1 used to reach numpy's generator and exit 1 with its ValueError;
    it is checked like the config key.  The state and quantum step count caps
    themselves load."""
    cfg = _free_config(tmp_path)
    for command in ("forces", "checks"):
        assert main([command, "--config", str(cfg), "--seed", "-1", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "config error: --seed: must be a non-negative integer, got -1" in err and "Traceback" not in err
    assert load_config(_free_config(tmp_path, forces={"states": MAX_FORCE_STATES})).forces["states"] == MAX_FORCE_STATES
    assert load_config(_free_config(tmp_path, quantum={"steps": MAX_QUANTUM_STEPS})).quantum["steps"] == MAX_QUANTUM_STEPS


def test_checks_seeds_give_their_own_draws(tmp_path):
    """Each seed gives its own checks artifact, and each criterion its own
    stream of it (one SeedSequence child each): --seed 0 and --seed 1 used to
    share their bytes, and seed s's vector_field_fd drew seed s + 1's
    Legendre stream.  One seed run twice writes the same bytes."""
    cfg = SCENARIOS / "verification.json"
    written = {}
    for run, seed in (("a", 0), ("b", 1), ("c", 1)):
        assert main(["checks", "--config", str(cfg), "--seed", str(seed), "--out", str(tmp_path / run),
                     "--quiet"]) == 0
        written[run] = json.loads((tmp_path / run / "verification_checks.json").read_text())
    assert (tmp_path / "b" / "verification_checks.json").read_bytes() == \
        (tmp_path / "c" / "verification_checks.json").read_bytes()
    assert written["a"]["legendre"] != written["b"]["legendre"]
    assert written["a"]["vector_field_fd"] != written["b"]["vector_field_fd"]
    legendre_seed, vf_seed = np.random.SeedSequence(1).spawn(2)
    assert written["b"]["legendre"] == json.loads(json.dumps(verify.legendre_consistency(seed=legendre_seed)))
    assert written["b"]["vector_field_fd"] == json.loads(json.dumps(verify.vector_field_fd(seed=vf_seed)))


@pytest.mark.parametrize("model", ["M2", "M3"])
def test_zero_test_charge_with_vector_model_exit_2(tmp_path, capsys, model):
    """M2/M3 need A = sum W_i uf_i / q_test, so q_test = 0 is rejected at load."""
    cfg = _free_config(tmp_path, models=["M1", model], particle={"q": 0.0, "u0": [0.5, 0.0, 0.0]},
                       field={"w_inf": -1.0, "q_test": 0.0, "sources": []})
    assert main(["simulate", "--config", str(cfg), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "field.q_test" in err and model in err and "Traceback" not in err


def test_zero_test_charge_with_m1_runs(tmp_path):
    cfg = _free_config(tmp_path, particle={"q": 0.0, "u0": [0.5, 0.0, 0.0]},
                       field={"w_inf": -1.0, "q_test": 0.0, "sources": []})
    assert main(["simulate", "--config", str(cfg), "--quiet"]) == 0


def test_missing_config_exit_2(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2


def test_config_directory_exit_2(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path)]) == 2
    assert f"config file {tmp_path} cannot be read" in capsys.readouterr().err


def test_undecodable_config_exit_2(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe")
    assert main(["simulate", "--config", str(path)]) == 2
    assert f"config file {path} is not UTF-8 text" in capsys.readouterr().err


def test_out_naming_a_file_exit_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    for out in (taken, taken / "run"):
        assert main(["simulate", "--config", str(SCENARIOS / "flyby.json"), "--out", str(out)]) == 2
        assert f"output directory {out} cannot be made" in capsys.readouterr().err


def test_unknown_tolerance_key_rejected(tmp_path):
    for key in ("bogus", "rk45_vs_midpoint"):
        cfg = _free_config(tmp_path, tolerances={key: 1.0})
        assert main(["simulate", "--config", str(cfg)]) == 2


def test_tolerance_failure_exit_1(tmp_path):
    # an absurdly tight drift tolerance fails cleanly with exit code 1
    cfg = _free_config(
        tmp_path,
        field={"w_inf": -1.0, "q_test": 1.0,
               "sources": [{"qs": 0.5, "r0": [1.0, 1.0, 0.0], "uf": [0, 0, 0], "eps": 0.1}]},
        integrator={"kind": "rk4", "h": 0.05},
        tolerances={"energy_drift": 1e-18},
    )
    assert main(["simulate", "--config", str(cfg), "--quiet"]) == 1


def test_deterministic_outputs(tmp_path):
    cfg = _free_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(out_a), "--quiet"]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out_b), "--quiet"]) == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == ["free_M1.csv", "free_M1_drift.json"]  # no timing sidecar: no seconds
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_env_var_output_dir(tmp_path, monkeypatch):
    cfg = _free_config(tmp_path)
    target = tmp_path / "env_out"
    monkeypatch.setenv("VACUUMFLOW_OUT", str(target))
    assert main(["simulate", "--config", str(cfg), "--quiet"]) == 0
    assert (target / "free_M1.csv").exists()


def test_forces_subcommand(tmp_path):
    cfg = _free_config(
        tmp_path,
        field={"w_inf": -1.0, "q_test": 1.0,
               "sources": [{"qs": 0.8, "r0": [0.3, -0.2, 0.1], "uf": [0.35, 0.1, -0.2], "eps": 0.2}],
               "b_uniform": [0.05, 0.02, -0.04]},
        forces={"states": 100},
    )
    assert main(["forces", "--config", str(cfg), "--quiet"]) == 0
    report = json.loads((tmp_path / "out" / "free_forces.json").read_text())
    assert report["passed"] and report["max_identity_dev"] <= DEFAULT_TOLERANCES["force_gap"]


def test_compare_subcommand_m3_vs_m1_zero_a(tmp_path):
    cfg = _free_config(
        tmp_path,
        models=["M3", "M1"],
        field={"w_inf": -1.0, "q_test": 1.0,
               "sources": [{"qs": 0.5, "r0": [1.0, 1.0, 0.0], "uf": [0, 0, 0], "eps": 0.1}]},
        integrator={"kind": "implicit_midpoint", "h": 0.005},
    )
    assert main(["compare", "--config", str(cfg), "--quiet"]) == 0
    report = json.loads((tmp_path / "out" / "free_compare.json").read_text())
    assert report["max_pos_dev"] <= 1e-10


def _gyration_config(tmp_path, **overrides):
    """scenarios/gyration.json, one period long, with the given top-level keys replaced."""
    raw = copy.deepcopy(GYRATION)
    raw.update(tau_end=raw["tau_end"] / 5.0, out_dir=str(tmp_path / "out"), **overrides)
    path = tmp_path / "gyration.json"
    path.write_text(json.dumps(raw))
    return path


def test_compare_gyration_against_circle(tmp_path):
    """The shipped gyration comparison, shortened to one period for speed."""
    assert main(["compare", "--config", str(_gyration_config(tmp_path)), "--quiet"]) == 0
    report = json.loads((tmp_path / "out" / "gyration_compare.json").read_text())
    assert report["max_pos_dev"] <= DEFAULT_TOLERANCES["gyration_pos_dev"]
    assert report["M3_vs_circle"] <= DEFAULT_TOLERANCES["gyration_pos_dev"]
    assert report["M0_vs_circle"] <= DEFAULT_TOLERANCES["gyration_pos_dev"]


def test_compare_circle_follows_the_config(tmp_path):
    """The circle is the config's: centred on r0, with its b and u (both negative
    here); a uniform A, which exerts no force, stays allowed."""
    cfg = _gyration_config(tmp_path, r0=[1.0, -0.5, 0.25], particle={"q": 1.0, "u0": [-0.4, 0.0, 0.0]},
                           field={"w_inf": -1.0, "b_uniform": [0.0, 0.0, -1.5], "a_uniform": [0.0, 0.02, 0.0]})
    assert main(["compare", "--config", str(cfg), "--quiet"]) == 0
    report = json.loads((tmp_path / "out" / "gyration_compare.json").read_text())
    assert report["M3_vs_circle"] < 1e-6 and report["M0_vs_circle"] < 1e-6


def test_compare_summary_names_what_failed(tmp_path, capsys):
    """Every judged value is printed, and the verdict names those that failed."""
    cfg = _gyration_config(tmp_path, tolerances={"gyration_pos_dev": 1e-13})
    assert main(["compare", "--config", str(cfg)]) == 1
    line = capsys.readouterr().out.strip()
    assert re.fullmatch(r"compare M3 vs M0: max_pos_dev=\S+ M3_vs_circle=\S+ M0_vs_circle=\S+ "
                        r"FAIL: M3_vs_circle, M0_vs_circle", line), line


def test_compare_and_criterion_3_share_the_m0_span():
    """The M0 lab span of cmd_compare, on the gyration preset, is criterion 3's old t_span / 4000."""
    sc = presets.gyration()
    span, h = verify.m0_lab_span(sc.particle, sc.tau_end, sc.h)
    assert span == sc.tau_end * (1.0 / math.sqrt(1.0 - 0.6 * 0.6))
    assert h == span / 4000.0


def test_shipped_scenarios_validate():
    for path in sorted(SCENARIOS.glob("*.json")):
        cfg = load_config(path)
        assert cfg.models and cfg.tau_end > 0


def test_validate_rejects_source_invariants():
    with pytest.raises(ConfigError, match="eps"):
        validate_config({
            "models": ["M1"],
            "particle": {"q": 1.0, "u0": [0, 0, 0]},
            "field": {"w_inf": -1.0, "sources": [{"qs": 1.0, "r0": [0, 0, 0], "eps": -1.0}]},
        })
    with pytest.raises(ConfigError, match="uf"):
        validate_config({
            "models": ["M1"],
            "particle": {"q": 1.0, "u0": [0, 0, 0]},
            "field": {"w_inf": -1.0,
                      "sources": [{"qs": 1.0, "r0": [0, 0, 0], "uf": [1.0, 0, 0]}]},
        })
    with pytest.raises(ConfigError, match="q_test"):
        validate_config({
            "models": ["M1"],
            "particle": {"q": 2.0, "u0": [0, 0, 0]},
            "field": {"w_inf": -1.0, "q_test": 1.0},
        })


def _paths(node, path=()):
    """The path of every value in a JSON tree, lists and objects included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


FLYBY = json.loads((SCENARIOS / "flyby.json").read_text())
FUZZ_POOL = (None, True, False, 0, 5, -1.0, 0.5, 1e-108, 1e308, -1e308, float("nan"), float("inf"),
             "x", [], {}, [0.0, 0.0, 0.0], [1.5, 0.0, 0.0], ["M2"])


@settings(max_examples=200)
@given(st.lists(st.tuples(st.sampled_from(list(_paths(FLYBY))), st.sampled_from(FUZZ_POOL)),
                min_size=1, max_size=3))
def test_config_fuzz_loads_or_raises_config_error(edits):
    """flyby.json with 1-3 values replaced from a fixed pool either validates or
    raises ConfigError, never another exception."""
    raw = copy.deepcopy(FLYBY)
    for path, value in edits:
        node = raw
        try:
            for key in path[:-1]:
                node = node[key]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier edit replaced a parent of this path
        if path[-1] in (node if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()):
            node[path[-1]] = copy.deepcopy(value)
    try:
        validate_config(raw)
    except ConfigError:
        pass


def _old_forces_csv(cfg) -> str:
    """The CSV the forces subcommand wrote from its own sampling loop, kept as an oracle."""
    rng = np.random.default_rng(cfg.seed)
    lines = ["rx,ry,rz,ux,uy,uz,t,fcx,fcy,fcz,fmx,fmy,fmz,identity_dev\n"]
    for _ in range(cfg.forces["states"]):
        r = rng.uniform(-1.5, 1.5, 3)
        u = rng.uniform(-1.0, 1.0, 3)
        nu = math.sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2])
        if nu >= 0.95:
            u *= 0.9 / nu
        t = rng.uniform(0.0, 2.0)
        fc = force(ForceKind.ClassicalLorentz, cfg.field, r, u, cfg.particle.q, t)
        fm = force(ForceKind.ModifiedLorentz, cfg.field, r, u, cfg.particle.q, t)
        jac = cfg.field.a_jac(r, t)
        gap = np.array([jac[0, i] * u[0] + jac[1, i] * u[1] + jac[2, i] * u[2] for i in range(3)]) * cfg.particle.q
        dev = float(np.max(np.abs(fc - fm - gap)))
        lines.append(",".join(f"{v:.17g}" for v in [*r, *u, t, *fc, *fm, dev]) + "\n")
    return "".join(lines)


def test_forces_csv_matches_the_old_sampling_loop(tmp_path):
    raw = json.loads((SCENARIOS / "forces.json").read_text())
    raw["forces"]["states"] = 50
    path = tmp_path / "forces.json"
    path.write_text(json.dumps(raw))
    assert main(["forces", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 0
    expected = _old_forces_csv(load_config(path)).encode()
    assert (tmp_path / "forces_forces.csv").read_bytes() == expected


def test_artifacts_do_not_depend_on_the_blas_kernel(tmp_path):
    """The simulate, compare, forces, checks and quantum artifacts written under
    OpenBLAS's kernel for a CPU without FMA (a child process, since the kernel is
    picked at import) equal the bytes written in this process: no 3-vector sum,
    no RK45 stage sum or dense output and no fit goes through BLAS or LAPACK."""
    flyby = tuple(f"flyby_{m}{suffix}" for m in ("M1", "M2", "M3") for suffix in (".csv", "_drift.json"))
    runs = (("simulate", "flyby", flyby),
            ("compare", "gyration", ("gyration_M0.csv", "gyration_M3.csv", "gyration_compare.json")),
            ("forces", "forces", ("forces_forces.csv",)),
            ("checks", "verification", ("verification_checks.json",)),
            ("quantum", "verification", ("verification_quantum.json",)))
    child = "import sys; from vacuumflow.cli import main; sys.exit(main(sys.argv[1:]))"
    env = {**os.environ, "OPENBLAS_CORETYPE": "Nehalem",
           "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    for command, scenario, artifacts in runs:
        argv = [command, "--config", str(SCENARIOS / f"{scenario}.json"), "--quiet"]
        assert main([*argv, "--out", str(tmp_path / "here")]) == 0
        done = subprocess.run([sys.executable, "-c", child, *argv, "--out", str(tmp_path / "nehalem")],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        for artifact in artifacts:
            assert (tmp_path / "nehalem" / artifact).read_bytes() == (tmp_path / "here" / artifact).read_bytes()


#: sha256 prefixes of the artifacts of `simulate --config scenarios/flyby.json`
FLYBY_SHA256 = {
    "flyby_M1.csv": "c73723d1", "flyby_M2.csv": "52dfef89", "flyby_M3.csv": "827a4af6",
    "flyby_M1_drift.json": "7bf22ba2", "flyby_M2_drift.json": "8e1cf070", "flyby_M3_drift.json": "9cddfcf7",
}

#: sha256 prefixes of the artifacts of `compare --config scenarios/gyration.json`
GYRATION_SHA256 = {"gyration_M0.csv": "b155db63", "gyration_M3.csv": "0747d2f7", "gyration_compare.json": "67c01d79"}

#: sha256 prefixes of the artifacts of `checks --config scenarios/verification.json`
CHECKS_SHA256 = {"verification_checks.json": "3a55db1d"}

#: sha256 prefixes of the artifacts of `forces --config scenarios/forces.json`
FORCES_SHA256 = {"forces_forces.csv": "653db41e", "forces_forces.json": "9a548fbb"}

#: sha256 prefixes of the tables of `maxwell` and `quantum --config scenarios/verification.json`
ADVECTED_SHA256 = {"verification_advected.csv": "4a2ac320"}
DISPERSION_SHA256 = {"verification_dispersion.csv": "b88858f7"}


def _assert_pinned(command, scenario, pins, out, unpinned=()):
    """The run writes exactly the pinned and the unpinned files, each pinned one with its sha256 prefix."""
    assert main([command, "--config", str(SCENARIOS / f"{scenario}.json"), "--out", str(out), "--quiet"]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted([*pins, *unpinned])
    for name, prefix in pins.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest()[:8] == prefix, name


def test_flyby_artifacts_keep_their_bytes(tmp_path):
    """The six files of the shipped flyby run keep their bytes: the midpoint
    step, the record columns and the CSV and JSON writers change no bit."""
    _assert_pinned("simulate", "flyby", FLYBY_SHA256, tmp_path)


def test_gyration_compare_artifacts_keep_their_bytes(tmp_path):
    """The three files of the shipped gyration comparison keep their bytes:
    RK45, the Hermite resampling and the writers change no bit.  Its values are
    criterion 3's, bit for bit."""
    _assert_pinned("compare", "gyration", GYRATION_SHA256, tmp_path)
    report = json.loads((tmp_path / "gyration_compare.json").read_text())
    criterion = verify.gyration_deviations()
    names = {"max_pos_dev": "m3_vs_m0", "max_energy_drift": "energy_drift",
             "M3_vs_circle": "m3_vs_circle", "M0_vs_circle": "m0_vs_circle"}
    assert {k: report[k].hex() for k in names} == {k: criterion[v].hex() for k, v in names.items()}


def test_checks_and_forces_artifacts_keep_their_bytes(tmp_path):
    """The random-state criteria 4-5, the EL convergence and the force gap
    keep their bytes: the column right-hand side and the draws change no bit."""
    _assert_pinned("checks", "verification", CHECKS_SHA256, tmp_path / "checks")
    _assert_pinned("forces", "forces", FORCES_SHA256, tmp_path / "forces")


def test_advected_and_dispersion_tables_keep_their_bytes(tmp_path, monkeypatch):
    """The advected and dispersion CSVs keep their bytes through the CLI's CSV
    writer.  The slow reports that neither table reads are stubbed."""
    monkeypatch.setattr(verify, "prop1_suite", lambda **_: _passing_suite())
    monkeypatch.setattr(verify, "norm_drift_report", lambda **_: {"MinimalCoupling": 0.0})
    monkeypatch.setattr(verify, "packet_dispersion_report", lambda **_: {"rel_err": 0.0})
    _assert_pinned("maxwell", "verification", ADVECTED_SHA256, tmp_path / "maxwell",
                   unpinned=("verification_maxwell.json", "verification_maxwell_timing.json"))
    _assert_pinned("quantum", "verification", DISPERSION_SHA256, tmp_path / "quantum",
                   unpinned=("verification_quantum.json", "verification_snapshot.csv"))


def test_only_quantum_loads_scipy(tmp_path):
    """In a fresh interpreter, importing vacuumflow and every submodule loads no
    scipy module and not numpy.fft, nor do `simulate` on flyby.json, `forces`
    and `compare`; `quantum` loads scipy.linalg for LAPACK and numpy.fft for the
    sine transform, and no other scipy subpackage (no scipy.fft, interpolate,
    optimize, sparse, spatial or special), and every command writes its
    artifacts.  So no FFT import lands in the start-up time."""
    child = """
import importlib, json, pkgutil, sys
import vacuumflow
from vacuumflow.cli import main
for info in pkgutil.iter_modules(vacuumflow.__path__):
    if info.name != "__main__":
        importlib.import_module("vacuumflow." + info.name)
loaded = {}
def record(stage):
    loaded[stage] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m == "numpy.fft")
record("import")
for command, scenario in [("simulate", "flyby"), ("forces", "forces"), ("compare", "gyration"),
                          ("quantum", "verification")]:
    code = main([command, "--config", f"{sys.argv[1]}/{scenario}.json", "--out", sys.argv[2], "--quiet"])
    record(f"{command} {code}")
print(json.dumps(loaded))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", child, str(SCENARIOS), str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert list(loaded) == ["import", "simulate 0", "forces 0", "compare 0", "quantum 0"]
    assert loaded["import"] == loaded["simulate 0"] == loaded["forces 0"] == loaded["compare 0"] == []
    assert {"scipy.linalg", "numpy.fft"} <= set(loaded["quantum 0"])
    unused = ("scipy.fft", "scipy.interpolate", "scipy.optimize", "scipy.sparse", "scipy.spatial", "scipy.special")
    for stage, modules in loaded.items():
        assert not set(unused) & set(modules), stage
    for name in ("flyby_M1.csv", "forces_forces.csv", "gyration_M3.csv", "gyration_compare.json",
                 "verification_quantum.json", "verification_snapshot.csv"):
        assert (tmp_path / name).stat().st_size > 0


def _passing_suite(seconds=0.0):
    """A prop1_suite report whose every ratio passes, in place of the slow suite."""
    ratios = {key: 4.0 for key in ("gauss", "faraday", "ampere", "nomono")}
    return {"plane": {"ratio": ratios}, "dipole": {"ratio": ratios},
            "violated": {"ratio": {**ratios, "gauss": 1.0}}, "seconds": seconds}


def test_maxwell_none_ratio_fails(tmp_path, monkeypatch):
    """A residual too small to form a convergence ratio is a failure, not a skip."""
    ratios = {key: 4.0 for key in ("gauss", "faraday", "ampere", "nomono")}
    suite = {"plane": {"ratio": {**ratios, "ampere": None}}, "dipole": {"ratio": ratios},
             "violated": {"ratio": {**ratios, "gauss": 1.0}}, "seconds": 0.0}
    monkeypatch.setattr(verify, "prop1_suite", lambda **_: suite)
    cfg = _free_config(tmp_path, maxwell={"advected": False})
    assert main(["maxwell", "--config", str(cfg), "--quiet"]) == 1
    assert json.loads((tmp_path / "out" / "free_maxwell.json").read_text())["passed"] is False
    suite["plane"]["ratio"]["ampere"] = 4.0
    assert main(["maxwell", "--config", str(cfg), "--quiet"]) == 0


def test_maxwell_dump_grids_writes_the_newest_dipole_level(tmp_path, monkeypatch):
    """maxwell.dump_grids writes each potential of an evolved dipole_grid(n_coarse)
    as an int64 [n, n, n] header and the newest level's float64 samples."""
    from vacuumflow.maxwell import evolve_wave
    from vacuumflow.presets import dipole_grid

    monkeypatch.setattr(verify, "prop1_suite", lambda **_: _passing_suite())
    cfg = _free_config(tmp_path, maxwell={"n_coarse": 8, "advected": False, "dump_grids": True})
    assert main(["maxwell", "--config", str(cfg), "--quiet"]) == 0
    grid, steps, _ = dipole_grid(8)
    evolve_wave(grid, steps)
    header = np.array([8, 8, 8], dtype=np.int64).tobytes()
    for name in grid.FIELD_NAMES:
        samples = np.ascontiguousarray(grid.levels[-1].field(name), dtype=np.float64).tobytes()
        assert (tmp_path / "out" / f"free_grid_{name}.bin").read_bytes() == header + samples


def test_seconds_go_to_the_timing_sidecar(tmp_path, monkeypatch):
    """Two runs that differ only in wall-clock time write byte-identical
    artifacts; the suite's seconds land in <name>_maxwell_timing.json."""
    cfg = _free_config(tmp_path, maxwell={"advected": False})
    for run, seconds in (("a", 1.5), ("b", 2.5)):
        suite = _passing_suite(seconds)
        monkeypatch.setattr(verify, "prop1_suite", lambda suite=suite, **_: suite)
        assert main(["maxwell", "--config", str(cfg), "--out", str(tmp_path / run), "--quiet"]) == 0
        assert sorted(p.name for p in (tmp_path / run).iterdir()) == ["free_maxwell.json",
                                                                      "free_maxwell_timing.json"]
        timing = json.loads((tmp_path / run / "free_maxwell_timing.json").read_text())
        assert timing == {"suite": {"seconds": seconds}}
    report = (tmp_path / "a" / "free_maxwell.json").read_bytes()
    assert report == (tmp_path / "b" / "free_maxwell.json").read_bytes()
    assert b"seconds" not in report


_BELOW, _ABOVE = (lambda x: math.nextafter(x, -math.inf)), (lambda x: math.nextafter(x, math.inf))


@pytest.mark.parametrize("value, key, ok", [
    (3.5, "el_ratio_band", True), (4.5, "el_ratio_band", True),
    (_BELOW(3.5), "el_ratio_band", False), (_ABOVE(4.5), "el_ratio_band", False),
    (2.0, "gauge_violated_ratio_max", False), (_BELOW(2.0), "gauge_violated_ratio_max", True),
    (1e-2, "advected_fixed_min", False), (_ABOVE(1e-2), "advected_fixed_min", True),
    (1e-8, "energy_drift", True), (_ABOVE(1e-8), "energy_drift", False),
    (2.04e-4 + 0.5e-6, "dispersion_error_width", True), (2.04e-4 - 0.5e-6, "dispersion_error_width", True),
    (2.04e-4 + 2e-6, "dispersion_error_width", False), (2.04e-4 - 2e-6, "dispersion_error_width", False),
    (0.0, None, True), (-0.0, None, True), (5e-324, None, False),
    (None, "energy_drift", False), (None, "el_ratio_band", False), (None, None, False),
    (float("nan"), "energy_drift", False),
])
def test_check_rules_at_their_boundaries(value, key, ok):
    """Bands are inclusive, _max/_min strict, other bounds inclusive, None never passes."""
    passed, detail = verify.check(value, key)
    assert passed is ok and detail.startswith("None" if value is None else f"{value:.6g}")


def test_check_reads_the_given_tolerances(tmp_path):
    """The CLI judges with the scenario's tolerances, not the defaults."""
    cfg = load_config(_free_config(tmp_path, tolerances={"force_gap": 1e-3}))
    assert verify.passed(cfg.tolerance, force_gap_stats={"max_identity_dev": 1e-6})
    assert not verify.passed(force_gap_stats={"max_identity_dev": 1e-6})
