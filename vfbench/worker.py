"""Runs one workload in a fresh interpreter and prints one JSON line.

Started by ``run.py``, never by hand.  The clock starts before ``vacuumflow``
is imported, so set-up time covers the import, input generation and preset
construction up to the first timed operation, plus the first pass's builds of
the presets (grids) each operation gets just before it runs.  Operations then
repeat in whole passes until ``--seconds`` is used up (at least one pass);
every output is checked inside the timed region.  Timings come from ``time.perf_counter``
here; the ``seconds`` the ``verify`` functions report are ignored.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

_T_START = time.perf_counter()

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _last_level_cache() -> str:
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    best = (0, "unknown")
    for idx in caches:
        try:
            level = int((idx / "level").read_text())
            size = (idx / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level > best[0]:
            best = (level, f"L{level} {size}")
    return best[1]


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "last_level_cache": _last_level_cache(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "seed": seed,
    }


def op_tail(latencies: list[float]) -> dict | None:
    """Latency at the highest percentile with at least ten operations beyond it."""
    n = len(latencies)
    if n < 11:
        return None
    ordered = sorted(latencies)
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


class Reference:
    """A fixed piece of work that does not touch vacuumflow.

    Its time, taken before and after every operation, tracks how fast the
    host runs that kind of work at that moment: on a shared 2-core VM a
    fixed Python loop varies 0.12-0.22 s in phases of seconds to minutes, and
    interpreter-bound and array-bound code slow down by different amounts.
    So each workload gets the kind of work it mostly does: ``interpreter``
    (numpy calls on 3-vectors in a Python loop, then two passes over 4 MB,
    about a fifth of its time: a loop alone slows more than the workloads in
    the host's slow phases, and one with twice the memory share slows less),
    ``stencil`` (a 7-point Laplacian on a 96^3 array, written with
    temporaries as numpy code usually is) or ``banded`` (tridiagonal solves
    at n = 4096).
    """

    def __init__(self, kind: str):
        import numpy as np
        from scipy.linalg import solve_banded

        self._np, self._solve_banded = np, solve_banded
        self._run = {"interpreter": self._interpreter, "stencil": self._stencil, "banded": self._banded}[kind]
        self._vec = np.ones(3)
        self._big = np.ones(500_000)
        self._out = np.empty_like(self._big)
        self._grid = np.ones((96, 96, 96)) if kind == "stencil" else None
        self._ab = np.array([np.full(4096, -0.5j), np.full(4096, 1.0 + 1.0j), np.full(4096, -0.5j)])
        self._rhs = np.ones(4096, dtype=complex)

    def _interpreter(self):
        v = self._vec
        for _ in range(2000):
            v = v * 1.0000001 + float(v @ v) * 1e-12
        for _ in range(2):
            self._np.multiply(self._big, 1.0000001, out=self._out)
            self._np.add(self._out, self._big, out=self._out)

    def _stencil(self):
        u = self._grid
        out = self._np.zeros_like(u)
        acc = -6.0 * u[1:-1, 1:-1, 1:-1]
        acc += u[2:, 1:-1, 1:-1] + u[:-2, 1:-1, 1:-1]
        acc += u[1:-1, 2:, 1:-1] + u[1:-1, :-2, 1:-1]
        acc += u[1:-1, 1:-1, 2:] + u[1:-1, 1:-1, :-2]
        out[1:-1, 1:-1, 1:-1] = acc

    def _banded(self):
        for _ in range(30):
            self._solve_banded((1, 1), self._ab, self._rhs)

    def time(self) -> float:
        t0 = time.perf_counter()
        self._run()
        return time.perf_counter() - t0


#: printed once the first pass ends; run.py samples memory up to this line
FIRST_PASS_DONE = "first pass done"


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def run_passes(ops_spec, seconds, reference, tracer=None):
    """Repeat whole passes over the operations until ``seconds`` is used up.

    A pass starts only if the previous one would still fit; the first always
    runs.  Each operation's preset state is built just before it runs and
    dropped right after, so no two grids are held at once; the first pass's
    build time is set-up and is returned, later builds are not timed.

    An operation that raises is recorded with its traceback and the run goes
    on.  ``ok`` is false when an operation raised or a checked value missed
    its tolerance; ``checked`` is false when its output could not be checked
    at all (it raised, or a checked value is not a finite number).  Returns
    (pass records, operation records, checks, first-pass build seconds); a
    pass record holds its wall time (the sum of its operations' latencies)
    and the sum of each latency over the mean reference time around it.
    """
    from tracer import REPREPARE_OP, SETUP_OP
    from workloads import margin

    ref = Reference(reference)
    passes, ops, checks = [], [], []
    prepare_s = 0.0
    t_measure = time.perf_counter()
    while True:
        first = len(ops)
        for op in ops_spec:
            values, work, error = [], 0, None
            if tracer:
                tracer.op = REPREPARE_OP if passes else SETUP_OP
            t_prep = time.perf_counter()
            try:
                state = op.prepare()
            except Exception:  # a failing operation is counted, not fatal
                state, error = None, traceback.format_exc()
            if not passes:
                prepare_s += time.perf_counter() - t_prep
            if tracer:
                tracer.op = len(ops)
            ref_before = ref.time()
            t0 = time.perf_counter()
            if error is None:
                try:
                    values, work = op.run(state)
                except Exception:
                    values, work, error = [], 0, traceback.format_exc()
            margins = [margin(key, value) for key, value in values]
            latency = time.perf_counter() - t0
            ref_s = 0.5 * (ref_before + ref.time())
            state = None
            checked = error is None and all(_finite(v) for _, v in values)
            ok = checked and all(m <= 1.0 for m in margins)
            ops.append({"name": op.name, "s": latency, "ref_s": ref_s, "work": work, "ok": ok,
                        "checked": checked, "error": error})
            checks += [[op.name, k, v, m] for (k, v), m in zip(values, margins)]
        done = ops[first:]
        passes.append({"s": sum(o["s"] for o in done), "refs": sum(o["s"] / o["ref_s"] for o in done)})
        if len(passes) == 1:
            print(FIRST_PASS_DONE, flush=True)
        if time.perf_counter() - t_measure + passes[-1]["s"] > seconds:
            return passes, ops, checks, prepare_s


def count_failures(ops: list[dict], n_ops: int) -> tuple[int, int]:
    """(failed, unchecked) distinct operations over all passes.

    Every pass repeats the same ``n_ops`` operations on the same inputs, so an
    operation counts once however many passes fit in ``--seconds``: failed
    (or unchecked) if it was in any pass.
    """
    failed = sum(not all(o["ok"] for o in ops[i::n_ops]) for i in range(n_ops))
    unchecked = sum(not all(o["checked"] for o in ops[i::n_ops]) for i in range(n_ops))
    return failed, unchecked


def prepare_all(ops_spec) -> float:
    """Seconds to build every operation's preset state, one at a time."""
    total = 0.0
    for op in ops_spec:
        t0 = time.perf_counter()
        state = op.prepare()
        total += time.perf_counter() - t0
        del state
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True, help="checkout root holding src/vacuumflow")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    root = Path(args.root).resolve()
    src = root / "src"
    sys.path.insert(0, str(src))
    # every module, so that set-up pays the package's whole import
    import vacuumflow
    from vacuumflow import cli, config, core, dynamics, fields, integrate, maxwell, presets, quantum, verify  # noqa: F401

    if not Path(vacuumflow.__file__).resolve().is_relative_to(src):
        print(f"vacuumflow imported from {vacuumflow.__file__}, not from {src}", file=sys.stderr)
        return 2

    import workloads
    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    out_dir = root / ".vfbench_out"
    out_dir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        inputs = workloads.generate(args.workload, args.seed)
        wl = workloads.build(args.workload, inputs, tmp)
        setup_s = time.perf_counter() - _T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s + prepare_all(wl.ops)}))
            return 0

        passes, ops, checks, prepare_s = run_passes(wl.ops, args.seconds, wl.reference, tracer)
        setup_s += prepare_s
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    n_ops = len(wl.ops)
    wall_s = statistics.median(p["s"] for p in passes)
    work_per_pass = sum(o["work"] for o in ops[:n_ops])
    failed, unchecked = count_failures(ops, n_ops)
    result = {
        "workload": args.workload,
        "seed_used": wl.seed_used,
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "passes": passes,
        "ops": ops,
        "checks": checks,
        "metrics": {
            "wall_s": wall_s,
            "wall_refs": statistics.median(p["refs"] for p in passes),
            "ref_s": statistics.median(o["ref_s"] for o in ops),
            "op_p50_s": statistics.median(o["s"] for o in ops),
            "op_tail_s": op_tail([o["s"] for o in ops]),
            workloads.THROUGHPUT[args.workload]: work_per_pass / wall_s,
            "fail_frac": failed / n_ops,
            # an operation that raised has no checked value: infinitely far off
            "accuracy_margin": max([c[3] for c in checks] + [float("inf") for o in ops if o["error"]]),
        },
        "attempted": n_ops,
        "failed": failed,
        "unchecked": unchecked,
        "notes": wl.notes,
        "environment": environment(args.seed),
    }
    if tracer:
        tracer.uninstall()
        result["per_layer"] = tracer.per_layer(wall_s)
        tracer.save(out_dir / f"trace_{args.workload}.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
