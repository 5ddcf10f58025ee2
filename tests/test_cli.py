import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from vacuumflow import verify
from vacuumflow.cli import main
from vacuumflow.config import DEFAULT_TOLERANCES, load_config, validate_config
from vacuumflow.dynamics import ForceKind, force
from vacuumflow.errors import ConfigError

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


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
])
def test_bad_input_exit_2_names_key(tmp_path, capsys, key, overrides):
    """Non-finite vectors, non-numeric scalars, a missing qs, bad maxwell, quantum,
    forces and compare sections, an unbounded step count, an unknown key at the
    top level or in a section (integrator keys depend on the kind), a
    non-positive tolerance and an inverted band end in exit 2, not a
    traceback."""
    cfg = _free_config(tmp_path, **overrides)
    assert main(["simulate", "--config", str(cfg), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


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


def test_compare_gyration_against_circle(tmp_path):
    """The shipped gyration comparison, shortened to one period for speed."""
    raw = json.loads((SCENARIOS / "gyration.json").read_text())
    raw["tau_end"] = raw["tau_end"] / 5.0
    raw["out_dir"] = str(tmp_path / "out")
    cfg = tmp_path / "gyration.json"
    cfg.write_text(json.dumps(raw))
    assert main(["compare", "--config", str(cfg), "--quiet"]) == 0
    report = json.loads((tmp_path / "out" / "gyration_compare.json").read_text())
    assert report["max_pos_dev"] <= DEFAULT_TOLERANCES["gyration_pos_dev"]
    assert report["M3_vs_circle"] <= DEFAULT_TOLERANCES["gyration_pos_dev"]
    assert report["M0_vs_circle"] <= DEFAULT_TOLERANCES["gyration_pos_dev"]


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


def _old_forces_csv(cfg) -> str:
    """The CSV the forces subcommand wrote from its own sampling loop, kept as an oracle."""
    rng = np.random.default_rng(cfg.seed)
    lines = ["rx,ry,rz,ux,uy,uz,t,fcx,fcy,fcz,fmx,fmy,fmz,identity_dev\n"]
    for _ in range(cfg.forces["states"]):
        r = rng.uniform(-1.5, 1.5, 3)
        u = rng.uniform(-1.0, 1.0, 3)
        nu = float(np.linalg.norm(u))
        if nu >= 0.95:
            u *= 0.9 / nu
        t = rng.uniform(0.0, 2.0)
        fc = force(ForceKind.ClassicalLorentz, cfg.field, r, u, cfg.particle.q, t)
        fm = force(ForceKind.ModifiedLorentz, cfg.field, r, u, cfg.particle.q, t)
        gap = cfg.field.a_jac(r, t).T @ u * cfg.particle.q
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


def test_seconds_go_to_the_timing_sidecar(tmp_path, monkeypatch):
    """Two runs that differ only in wall-clock time write byte-identical
    artifacts; the seconds land in <artifact>_timing.json at their key paths."""
    ratios = {key: 4.0 for key in ("gauss", "faraday", "ampere", "nomono")}
    cfg = _free_config(tmp_path, maxwell={"advected": False})
    for run, seconds in (("a", 1.5), ("b", 2.5)):
        suite = {"plane": {"ratio": ratios}, "dipole": {"ratio": ratios},
                 "violated": {"ratio": {**ratios, "gauss": 1.0}}, "seconds": seconds}
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
