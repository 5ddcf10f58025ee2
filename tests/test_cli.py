import csv
import json
from pathlib import Path

import numpy as np
import pytest

from vacuumflow.cli import main
from vacuumflow.config import DEFAULT_TOLERANCES, load_config, validate_config
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
])
def test_bad_input_exit_2_names_key(tmp_path, capsys, key, overrides):
    """Non-finite vectors, non-numeric scalars, a missing qs, bad maxwell, quantum,
    forces and compare sections, an unbounded step count, an unknown top-level
    key, a non-positive tolerance and an inverted band end in exit 2, not a
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
    cfg = _free_config(tmp_path, tolerances={"bogus": 1.0})
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
    for name in ("free_M1.csv", "free_M1_drift.json"):
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
