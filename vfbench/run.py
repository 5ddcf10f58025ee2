"""vacuumflow benchmark: one workload per fresh interpreter, outputs checked.

    python3 vfbench/run.py --workload trajectories --seed 1 --seconds 20 --trace 0
    python3 vfbench/run.py --workload all --seed 1 --seconds 20

A single workload prints a detail line (environment, every end-to-end metric
by name, check values) and then, as the last line, the result
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of ``E2E`` with ``--trace 0``, the per-layer metrics of
``tracer.PER_LAYER`` with ``--trace 1``.  ``attempted`` is the number of
distinct operations of the workload, however many passes over them fit in
``--seconds``; ``failed`` counts those that, in any pass, raised or gave a
checked value that missed its ``DEFAULT_TOLERANCES`` entry, so both are fixed
per seed;
``correct`` is false when some output could not be checked at all (an
operation raised, or a checked value is not a finite number).
``--workload all`` runs every workload untraced and traced, prints a table of
all metrics with their units and the tracing overhead, and exits non-zero if
any run gave no result or had an output it could not check.

Set-up time is the median over five fresh interpreters: four that only set up,
two before and two after the measured one, and the measured one.  Peak memory is sampled over the measured worker's
whole process tree.  ``wall_refs`` is the pass time in units of a reference
kernel timed around every operation (``worker.Reference``); raw seconds are
in the detail line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER  # noqa: E402
from worker import FIRST_PASS_DONE  # noqa: E402
from workloads import THROUGHPUT, WORKLOADS  # noqa: E402

#: end-to-end metrics of the result line: those every workload has, that are
#: never 0 and that stay steady across seeds and host load (see README.md)
E2E = {
    "setup_s": "s",
    "wall_refs": "ref",
    "peak_rss_mb": "MB",
}
#: every end-to-end metric the report prints, with its unit
REPORTED = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_refs": "ref",
    "ref_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    **{name: "1/s" for name in THROUGHPUT.values()},
    "fail_frac": "ratio",
    "accuracy_margin": "ratio",
    "peak_rss_mb": "MB",
}
#: set-up-only interpreters per run, besides the measured one
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 170.0
SAMPLE_EVERY_S = 0.025
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


# -- process-tree memory ------------------------------------------------------------


def _children(pid: int) -> list[int]:
    kids = []
    for task in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            kids += [int(k) for k in task.read_text().split()]
        except OSError:
            pass
    return kids


def tree_rss_bytes(pid: int) -> int:
    """Resident memory of ``pid`` and all its descendants, from /proc."""
    page = os.sysconf("SC_PAGE_SIZE")
    total, todo = 0, [pid]
    while todo:
        p = todo.pop()
        try:
            total += int(Path(f"/proc/{p}/statm").read_text().split()[1]) * page
        except (OSError, IndexError, ValueError):
            continue
        todo += _children(p)
    return total


def wait_sampling_rss(proc: subprocess.Popen, timeout: float, done_sampling=lambda: False) -> tuple[int, int]:
    """Wait for ``proc``, sampling its tree's memory; (exit code, peak bytes).

    Sampling stops early once ``done_sampling()`` is true.
    """
    peak = 0
    sampling = True
    deadline = time.monotonic() + timeout
    while proc.poll() is None:
        if time.monotonic() > deadline:
            proc.kill()
            proc.wait()
            return -9, peak
        if sampling:
            peak = max(peak, tree_rss_bytes(proc.pid))
            sampling = not done_sampling()
        time.sleep(SAMPLE_EVERY_S)
    return proc.returncode, peak


# -- one workload -----------------------------------------------------------------


def _worker_cmd(name: str, seed: int) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--workload", name, "--seed", str(seed)]


def _last_json(text: str):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def _setup_probes(cmd: list[str], env: dict, n: int) -> list[float] | None:
    """Set-up seconds of ``n`` set-up-only interpreters; None if one fails."""
    times = []
    for _ in range(n):
        probe = subprocess.run(cmd + ["--setup-only"], env=env, capture_output=True, text=True,
                               timeout=WORKER_TIMEOUT_S)
        if probe.returncode != 0:
            sys.stderr.write(probe.stderr)
            return None
        times.append(_last_json(probe.stdout)["setup_s"])
    return times


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict | None:
    """The measured worker between set-up probes; None if it gave no result.

    Half the probes run before the measured worker and half after, so the
    set-up median samples the host over the whole run, not one moment of it.
    """
    env = dict(os.environ, **WORKER_ENV)
    cmd = _worker_cmd(name, seed)
    before = _setup_probes(cmd, env, SETUP_PROBES // 2)
    if before is None:
        return None

    out_dir = ROOT / ".vfbench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.NamedTemporaryFile("w+", dir=out_dir) as out:
        proc = subprocess.Popen(cmd + ["--seconds", str(seconds), "--trace", str(trace)],
                                env=env, stdout=out, text=True)
        # memory of set-up and the first pass: later passes repeat the same
        # work, and the allocator's reuse of freed blocks would make the peak
        # depend on how many passes fit
        with open(out.name) as reader:
            code, peak = wait_sampling_rss(proc, WORKER_TIMEOUT_S, lambda: FIRST_PASS_DONE in reader.read())
        out.seek(0)
        text = out.read()
    if code != 0:
        print(f"{name}: worker exited {code}", file=sys.stderr)
        return None
    after = _setup_probes(cmd, env, SETUP_PROBES - SETUP_PROBES // 2)
    if after is None:
        return None
    res = _last_json(text)
    res["setup_probes_s"] = before + [res["setup_s"]] + after
    res["metrics"]["setup_s"] = statistics.median(res["setup_probes_s"])
    res["metrics"]["peak_rss_mb"] = peak / 1e6
    # a missed tolerance is counted in "failed"; "correct" is false only when
    # an output could not be checked at all
    res["correct"] = res["unchecked"] == 0
    return res


def result_line(res: dict, trace: int) -> dict:
    if trace:
        metrics = {k: {"value": res["per_layer"][k], "unit": unit} for k, unit in PER_LAYER.items()}
    else:
        metrics = {k: {"value": res["metrics"][k], "unit": unit} for k, unit in E2E.items()}
    return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}


def _finite(obj):
    """JSON-safe copy: non-finite floats become strings."""
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_finite(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    return obj


def detail_line(res: dict) -> dict:
    keep = ("workload", "seed_used", "traced", "setup_probes_s", "passes", "checks", "notes", "environment")
    failures, n_ops = [], res["attempted"]
    for i in range(n_ops):  # each distinct operation once, at its first failing pass
        o = next((o for o in res["ops"][i::n_ops] if not o["ok"]), None)
        if o is None:
            continue
        if o["error"]:
            why = o["error"].strip().splitlines()[-1]
        elif not o["checked"]:
            why = "a checked value is not a finite number"
        else:
            why = "missed its tolerance"
        failures.append({"op": o["name"], "why": why})
    return _finite({**{k: res[k] for k in keep}, "metrics": res["metrics"], "failures": failures})


# -- all workloads ------------------------------------------------------------------


def _fmt(name: str, res: dict) -> str:
    m = res["metrics"]
    if name == "op_tail_s":
        tail = m["op_tail_s"]
        n = len(res["ops"])
        if tail is None:
            return f"n/a ({n} ops < 11)"
        return f"{tail['value']:.6g} (p{tail['percentile']:.1f} of {tail['samples']} ops)"
    if name in THROUGHPUT.values() and THROUGHPUT[res["workload"]] != name:
        return "n/a (other workload)"
    value = m[name]
    return f"{value:.6g}" if isinstance(value, (int, float)) else str(value)


def all_checked(rows: dict) -> bool:
    """Every run gave a result and every output in it could be checked."""
    return all(r is not None and r["correct"] for runs in rows.values() for r in runs.values())


def report_all(seed: int, seconds: float) -> int:
    rows = {name: {trace: run_workload(name, seed, seconds, trace) for trace in (0, 1)} for name in WORKLOADS}
    for name, runs in rows.items():
        plain, traced = runs[0], runs[1]
        print(f"== {name} (seed {seed}, {seconds:g} s)")
        if plain is None or traced is None:
            print("   no result: the worker exited with an error")
            continue
        for metric, unit in REPORTED.items():
            print(f"   {metric:22s} {_fmt(metric, plain):>34s} {unit}")
        print(f"   {'correct':22s} {str(plain['correct']):>34s}")
        print(f"   {'failed':22s} {plain['failed']:>34d} of {plain['attempted']} operations")
        for failure in detail_line(plain)["failures"]:
            print(f"   failed op {failure['op']}: {failure['why']}")
        overhead = traced["metrics"]["wall_s"] - plain["metrics"]["wall_s"]
        overhead_refs = traced["metrics"]["wall_refs"] / plain["metrics"]["wall_refs"] - 1.0
        print(f"   tracing overhead (traced - untraced wall_s): {overhead:.4g} s "
              f"({100 * overhead / plain['metrics']['wall_s']:+.1f}%; {100 * overhead_refs:+.1f}% in wall_refs)")
        for metric, unit in PER_LAYER.items():
            print(f"   {metric:42s} {traced['per_layer'][metric]:>14.6g} {unit}")
    return 0 if all_checked(rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "vacuumflow" / "__init__.py").is_file():
        print(f"no vacuumflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return report_all(args.seed, args.seconds)
    res = run_workload(args.workload, args.seed, args.seconds, args.trace)
    if res is None:
        return 1
    print(json.dumps(detail_line(res)))
    print(json.dumps(result_line(res, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
