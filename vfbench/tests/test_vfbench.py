"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q vfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _worker(name, trace):
    out = subprocess.run(
        [*run._worker_cmd(name, 5), "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, check=True, env={**run.os.environ, **run.WORKER_ENV},
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    assert workloads.generate(name, 7) == workloads.generate(name, 7)
    json.dumps(workloads.generate(name, 7))  # plain data only
    if name == "waves":
        assert workloads.generate(name, 7) == workloads.generate(name, 8)
    else:
        assert workloads.generate(name, 7) != workloads.generate(name, 8)


def test_margin_reads_tolerances_by_kind():
    from vacuumflow.config import DEFAULT_TOLERANCES as tol

    assert workloads.margin("energy_drift", 0.5 * tol["energy_drift"]) == pytest.approx(0.5)
    lo, hi = tol["el_ratio_band"]
    assert workloads.margin("el_ratio_band", 0.5 * (lo + hi)) == 0.0
    assert workloads.margin("el_ratio_band", hi) == pytest.approx(1.0)
    assert workloads.margin("advected_fixed_min", 2 * tol["advected_fixed_min"]) == pytest.approx(0.5)
    assert workloads.margin("norm_drift", math.nan) == math.inf
    with pytest.raises(KeyError):
        workloads.margin("no_such_tolerance", 1.0)


@pytest.mark.parametrize("trace", [0, 1])
def test_runner_prints_every_metric_in_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "quantum", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tracing_changes_no_checked_value(name):
    plain, traced = _worker(name, 0), _worker(name, 1)
    assert plain["checks"] == traced["checks"]
    assert plain["failed"] == traced["failed"]
    assert plain["unchecked"] == traced["unchecked"] == 0
    assert set(traced["per_layer"]) == set(tracer.PER_LAYER)


def test_failing_valid_input_is_counted_not_dropped():
    """The attractive near-miss of ROADMAP item 3 raises NoConvergence at h = 0.1."""
    import worker
    from vacuumflow import core, fields, integrate, presets

    sc = presets.standard_flyby()
    fld = fields.VacuumField(
        w_inf=-1.0, sources=(fields.FieldSource(qs=-0.5, r0=(0, 0, 0), uf=(0, 0, 0), eps=0.05),),
        a_uniform=(0.0, 0.02, 0.0),
    )

    def near_miss(_state):
        traj = integrate.simulate(core.ModelKind.M1, sc.particle, fld, [-2.0, 0.01, 0.0], 10.0,
                                  integrate.ImplicitMidpoint(), 0.1)
        return [("energy_drift", traj.max_relative_energy_drift())], len(traj) - 1

    def passing(_state):
        return [("energy_drift", 0.0)], 1

    ops = [workloads.Op("near_miss", near_miss), workloads.Op("passing", passing)]
    passes, records, checks, _ = worker.run_passes(ops, seconds=0, reference="interpreter")
    assert len(passes) == 1
    assert [r["ok"] for r in records] == [False, True]
    assert [r["checked"] for r in records] == [False, True]
    assert "NoConvergence" in records[0]["error"]
    assert checks == [["passing", "energy_drift", 0.0, 0.0]]


def test_failures_count_each_operation_once_however_many_passes():
    import worker

    ops = [
        workloads.Op("miss", lambda _state: ([("norm_drift", 1.0)], 1)),
        workloads.Op("passing", lambda _state: ([("norm_drift", 0.0)], 1)),
        workloads.Op("raises", lambda _state: 1 / 0),
    ]
    _, one_pass, _, _ = worker.run_passes(ops, seconds=0, reference="banded")
    three_passes = one_pass * 3
    assert worker.count_failures(one_pass, 3) == worker.count_failures(three_passes, 3) == (2, 1)
    # an operation that fails in only one pass still counts once
    flaky = [dict(r, ok=True) for r in one_pass[:2]] + one_pass[2:] + one_pass
    assert worker.count_failures(flaky, 3) == (2, 1)


def test_unchecked_output_makes_the_report_exit_nonzero():
    import worker

    ops = [
        workloads.Op("miss", lambda _state: ([("norm_drift", 1.0)], 1)),
        workloads.Op("nan", lambda _state: ([("norm_drift", math.nan)], 1)),
        workloads.Op("raises", lambda _state: 1 / 0),
    ]
    _, records, _, _ = worker.run_passes(ops, seconds=0, reference="banded")
    # every one failed, but only the missed tolerance was checked
    assert [r["ok"] for r in records] == [False, False, False]
    assert [r["checked"] for r in records] == [True, False, False]
    good, bad = {"correct": True}, {"correct": False}
    assert run.all_checked({"quantum": {0: good, 1: good}})
    assert not run.all_checked({"quantum": {0: good, 1: bad}})
    assert not run.all_checked({"quantum": {0: good, 1: None}})


def test_flybys_use_the_package_step_and_keep_w_negative():
    from vacuumflow import config

    for seed in range(20):
        for fb in workloads.generate("trajectories", seed)["flybys"]:
            assert set(fb["integrator"]) == {"kind"}
            cfg = config.validate_config(fb)
            fld = cfg.field
            peak = sum(abs(s.qs) / (4 * math.pi * s.eps) for s in fld.sources)
            assert fld.w_inf + fld.q_test * peak < 0.0


def test_peak_rss_sampler_sees_a_child_process():
    mb80 = "b = bytearray(80_000_000); b[::4096] = b'x' * len(b[::4096])"
    child = textwrap.dedent(f"""
        import subprocess, sys, time
        kid = subprocess.Popen([sys.executable, "-c", "import time; {mb80}; time.sleep(1.5)"])
        {mb80}
        time.sleep(1.5)
        kid.wait()
    """)
    proc = subprocess.Popen([sys.executable, "-c", child])
    code, peak = run.wait_sampling_rss(proc, timeout=30)
    assert code == 0
    # each process alone stays under 100 MB; only the tree sum passes 160 MB
    assert peak > 160e6


def test_runner_fails_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", "quantum", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout == ""
