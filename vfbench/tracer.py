"""Span tracer installed from outside the package, around calls into each layer.

``Tracer.install`` replaces module attributes and class methods of
``vacuumflow`` with wrappers.  Each wrapper records a span (name, parent span,
operation id, start, end) in memory and, where a layer has one, a count such
as points evaluated or bytes written.  ``per_layer`` reduces the spans to the
per-layer metrics; ``save`` writes them out once the run has ended.  A
layer's self time is its span minus the part its child spans cover.
"""

from __future__ import annotations

import math
import os
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

#: operation ids of spans recorded outside an operation: the timed set-up,
#: and the fresh preset state built before each later pass
SETUP_OP = -1
REPREPARE_OP = -2

_VERIFY = (
    "mass_law_deviation", "advected_report", "packet_dispersion_report",
    "model_gap_report", "legendre_consistency", "vector_field_fd", "force_gap_stats",
)
_DYNAMICS_POINT = ("lagrangian", "legendre_momentum", "hamiltonian", "force")
_POINT_METHODS = ("w", "grad_w", "a", "a_dot", "a_jac", "e_b")
_BATCHABLE = ("w", "grad_w", "a", "a_dot")

#: per_layer metric names and units, in report order; see README.md for the
#: end-to-end metric each one should move
PER_LAYER = {
    "fields.local_state.calls": "count",
    "fields.local_state.us_per_call": "us",
    "fields.point_eval.calls": "count",
    "fields.point_eval.us_per_call": "us",
    "fields.batch_eval.points_per_s": "1/s",
    **{f"dynamics.model_rhs.calls.{m}": "count" for m in ("M0", "M1", "M2", "M3")},
    **{f"dynamics.model_rhs.us_per_call.{m}": "us" for m in ("M0", "M1", "M2", "M3")},
    "dynamics.point.calls": "count",
    "dynamics.point.us_per_call": "us",
    "dynamics.el_residual.s": "s",
    "core.guard_min_margin": "ratio",
    "integrate.rhs_per_step.implicit_midpoint": "ratio",
    "integrate.rhs_per_step.rk45": "ratio",
    "integrate.simulate.s": "s",
    "integrate.self_frac": "ratio",
    "integrate.compare.s": "s",
    "integrate.to_csv.s": "s",
    "integrate.to_csv.bytes": "bytes",
    "config.load.ms": "ms",
    "cli.write_json.ms": "ms",
    "cli.bytes_written": "bytes",
    "maxwell.evolve.cell_steps_per_s": "1/s",
    "maxwell.laplacian.ms_per_call": "ms",
    "maxwell.laplacian.computed_gb_per_s": "GB/s",
    "maxwell.sources.ms_per_step": "ms",
    "maxwell.boundary.ms_per_step": "ms",
    "maxwell.residuals.s_per_report": "s",
    "presets.build.s": "s",
    "quantum.build.ms": "ms",
    "quantum.cn_step.us_per_call.periodic512": "us",
    "quantum.cn_step.us_per_call.fixed4096": "us",
    "quantum.apply.us_per_call": "us",
    **{f"verify.{fn}.s": "s" for fn in _VERIFY},
    "trace.wall_s": "s",
}

_PRESETS = (
    "standard_flyby", "gyration", "uniform_a_pair", "nonuniform_a_pair", "moving_source_field",
    "plane_wave_grid", "dipole_grid", "advected_setup", "quantum_profiles",
)


def _integrator_kind(integ) -> str:
    return {"RK4": "rk4", "ImplicitMidpoint": "implicit_midpoint", "RK45": "rk45"}[type(integ).__name__]


class Tracer:
    """Spans and counts for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []  # (name id, parent index, op id, start, end)
        self.counts: dict = defaultdict(float)
        self.guard_min = math.inf
        self.op = SETUP_OP
        self._stack: list[int] = []
        self._patched: list = []
        self._cli_depth = 0

    # -- recording --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _span(self, fn, name_of, after=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            nid = self._name_id(name_of(args))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (nid, parent, self.op, t0, t1)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _guard(self, fn):
        def wrapper(arg):
            self.counts["core.guard_calls"] += 1
            if arg < self.guard_min:
                self.guard_min = arg
            return fn(arg)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------------

    def _replace_everywhere(self, modules, original, wrapper):
        """Point every module attribute bound to ``original`` at ``wrapper``."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _replace_method(self, cls, attr, wrapper):
        self._patched.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        import vacuumflow
        from vacuumflow import cli, config, core, dynamics, fields, integrate, maxwell, presets, quantum, verify

        modules = (vacuumflow, cli, config, core, dynamics, fields, integrate, maxwell, presets, quantum, verify)

        def fixed(name):
            return lambda args: name

        def bytes_of(key, path_arg):
            def after(args, _result):
                size = os.path.getsize(args[path_arg])
                self.counts[key] += size
                if self._cli_depth:
                    self.counts["cli.bytes"] += size
            return after

        def cell_steps(args, _result):
            grid, steps = args[0], args[1]
            self.counts["maxwell.cell_steps"] += grid.n**3 * steps
            self.counts["maxwell.steps"] += steps

        def laplacian_cells(args, _result):
            self.counts["maxwell.laplacian.cells"] += args[0].size

        def simulate_steps(args, result):
            self.counts[f"integrate.steps.{_integrator_kind(args[5])}"] += len(result) - 1

        def batch_points(args, _result):
            if np.ndim(args[1]) > 1:
                self.counts["fields.batch_points"] += np.asarray(args[1]).size // 3

        cli_main = cli.main

        def cli_wrapper(argv=None):
            self._cli_depth += 1
            try:
                return traced_cli(argv)
            finally:
                self._cli_depth -= 1

        traced_cli = self._span(cli_main, fixed("cli.main"))
        self._replace_everywhere(modules, cli_main, cli_wrapper)

        # function -> (span name from the call's arguments, hook after the call)
        functions = {
            config.load_config: (fixed("config.load"), None),
            cli._write_json: (fixed("cli.write_json"), bytes_of("cli.write_json.bytes", 0)),
            integrate.simulate: (lambda args: f"integrate.simulate.{_integrator_kind(args[5])}", simulate_steps),
            integrate.compare_trajectories: (fixed("integrate.compare"), None),
            dynamics.model_rhs: (lambda args: f"dynamics.model_rhs.{args[0].value}", None),
            dynamics.euler_lagrange_residual: (fixed("dynamics.el_residual"), None),
            maxwell.evolve_wave: (fixed("maxwell.evolve"), cell_steps),
            maxwell.laplacian2: (fixed("maxwell.laplacian"), laplacian_cells),
            maxwell.maxwell_residuals: (fixed("maxwell.residuals"), None),
            quantum.build_hamiltonian: (fixed("quantum.build"), None),
            quantum.cn_step: (lambda args: f"quantum.cn_step.{args[0].domain}{args[0].n}", None),
        }
        functions.update({getattr(presets, fn): (fixed("presets.build"), None) for fn in _PRESETS})
        functions.update({getattr(verify, fn): (fixed(f"verify.{fn}"), None) for fn in _VERIFY})
        functions.update({getattr(dynamics, fn): (fixed("dynamics.point"), None) for fn in _DYNAMICS_POINT})
        for fn, (name_of, after) in functions.items():
            self._replace_everywhere(modules, fn, self._span(fn, name_of, after))

        guarded = core.guarded_root
        self._replace_everywhere(modules, guarded, self._guard(guarded))

        vf = fields.VacuumField
        self._replace_method(vf, "local_state", self._span(vf.local_state, fixed("fields.local_state")))
        for attr in _POINT_METHODS:
            def point_or_batch(args, batchable=attr in _BATCHABLE):
                return "fields.batch_eval" if batchable and np.ndim(args[1]) > 1 else "fields.point_eval"

            self._replace_method(vf, attr, self._span(getattr(vf, attr), point_or_batch, batch_points))
        rec = integrate.TrajectoryRecord
        self._replace_method(rec, "to_csv", self._span(rec.to_csv, fixed("integrate.to_csv"),
                                                        bytes_of("integrate.to_csv.bytes", 1)))
        for cls, attrs, name in (
            (maxwell.SeparableSources, ("rho", "j"), "maxwell.sources"),
            (maxwell.AnalyticFarField, ("phi", "a"), "maxwell.boundary"),
            (quantum.TridiagonalOperator, ("apply",), "quantum.apply"),
        ):
            for attr in attrs:
                self._replace_method(cls, attr, self._span(getattr(cls, attr), fixed(name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reduction ------------------------------------------------------------------

    def _arrays(self):
        if not self.spans:
            empty = np.zeros(0)
            return empty.astype(int), empty.astype(int), empty.astype(int), empty, empty
        nid, parent, op, t0, t1 = (np.array(col) for col in zip(*self.spans))
        return nid, parent, op, t0, t1

    def save(self, path) -> None:
        nid, parent, op, t0, t1 = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=nid, parent=parent, op=op,
                            start=t0, end=t1)

    def per_layer(self, trace_wall_s: float) -> dict:
        """Every PER_LAYER metric; 0 where the layer does no work in this run."""
        nid, parent, op, t0, t1 = self._arrays()
        dur = t1 - t0
        has_parent = parent >= 0
        parent_nid = np.where(has_parent, nid[np.maximum(parent, 0)], -1) if len(nid) else nid

        def ids(prefix):
            return [i for i, name in enumerate(self.names) if name.startswith(prefix)]

        def sel(prefix, outermost=False):
            mask = np.isin(nid, ids(prefix))
            if outermost:
                mask &= ~np.isin(parent_nid, ids(prefix))
            return mask

        def under(prefix):
            return np.isin(parent_nid, ids(prefix))

        def per_call(mask, scale):
            n = int(mask.sum())
            return float(dur[mask].sum() / n * scale) if n else 0.0

        def median(mask, scale=1.0):
            return float(statistics.median(dur[mask]) * scale) if mask.any() else 0.0

        def rate(count, mask):
            busy = float(dur[mask].sum())
            return count / busy if busy else 0.0

        c = self.counts
        out = {}
        ls = sel("fields.local_state")
        out["fields.local_state.calls"] = int(ls.sum())
        out["fields.local_state.us_per_call"] = per_call(ls, 1e6)
        pe = sel("fields.point_eval", outermost=True)
        out["fields.point_eval.calls"] = int(pe.sum())
        out["fields.point_eval.us_per_call"] = per_call(pe, 1e6)
        out["fields.batch_eval.points_per_s"] = rate(c["fields.batch_points"], sel("fields.batch_eval", outermost=True))
        for m in ("M0", "M1", "M2", "M3"):
            mask = sel(f"dynamics.model_rhs.{m}")
            out[f"dynamics.model_rhs.calls.{m}"] = int(mask.sum())
            out[f"dynamics.model_rhs.us_per_call.{m}"] = per_call(mask, 1e6)
        dp = sel("dynamics.point", outermost=True)
        out["dynamics.point.calls"] = int(dp.sum())
        out["dynamics.point.us_per_call"] = per_call(dp, 1e6)
        out["dynamics.el_residual.s"] = median(sel("dynamics.el_residual"))
        out["core.guard_min_margin"] = self.guard_min if c["core.guard_calls"] else 0.0

        rhs = sel("dynamics.model_rhs")
        for kind in ("implicit_midpoint", "rk45"):
            steps = c[f"integrate.steps.{kind}"]
            calls = float((rhs & under(f"integrate.simulate.{kind}")).sum())
            out[f"integrate.rhs_per_step.{kind}"] = calls / steps if steps else 0.0
        sim = sel("integrate.simulate")
        out["integrate.simulate.s"] = median(sim)
        sim_time = float(dur[sim].sum())
        rhs_time = float(dur[rhs & under("integrate.simulate")].sum())
        out["integrate.self_frac"] = (sim_time - rhs_time) / sim_time if sim_time else 0.0
        out["integrate.compare.s"] = median(sel("integrate.compare"))
        csv = sel("integrate.to_csv")
        out["integrate.to_csv.s"] = median(csv)
        out["integrate.to_csv.bytes"] = c["integrate.to_csv.bytes"] / csv.sum() if csv.any() else 0.0
        out["config.load.ms"] = median(sel("config.load"), 1e3)
        out["cli.write_json.ms"] = median(sel("cli.write_json"), 1e3)
        cli_calls = int(sel("cli.main").sum())
        out["cli.bytes_written"] = c["cli.bytes"] / cli_calls if cli_calls else 0.0

        out["maxwell.evolve.cell_steps_per_s"] = rate(c["maxwell.cell_steps"], sel("maxwell.evolve"))
        lap = sel("maxwell.laplacian")
        out["maxwell.laplacian.ms_per_call"] = per_call(lap, 1e3)
        # computed, not measured: one 8-byte read of u and one 8-byte write of
        # the result per cell; caches and temporaries are ignored
        out["maxwell.laplacian.computed_gb_per_s"] = rate(16.0 * c["maxwell.laplacian.cells"], lap) / 1e9
        steps = c["maxwell.steps"]
        for name in ("sources", "boundary"):
            busy = float(dur[sel(f"maxwell.{name}") & under("maxwell.evolve")].sum())
            out[f"maxwell.{name}.ms_per_step"] = busy / steps * 1e3 if steps else 0.0
        out["maxwell.residuals.s_per_report"] = median(sel("maxwell.residuals"))

        out["presets.build.s"] = float(dur[sel("presets.build", outermost=True) & (op == SETUP_OP)].sum())
        out["quantum.build.ms"] = median(sel("quantum.build"), 1e3)
        for regime in ("periodic512", "fixed4096"):
            out[f"quantum.cn_step.us_per_call.{regime}"] = per_call(sel(f"quantum.cn_step.{regime}"), 1e6)
        out["quantum.apply.us_per_call"] = per_call(sel("quantum.apply"), 1e6)
        for key in PER_LAYER:
            if key.startswith("verify."):
                out[key] = median(sel(key[: -len(".s")]))
        out["trace.wall_s"] = trace_wall_s
        return {k: out[k] for k in PER_LAYER}
