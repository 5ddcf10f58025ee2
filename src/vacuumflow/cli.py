"""Config-driven command line runner.

Subcommands: simulate, compare, forces, maxwell, quantum, checks; each
criterion's runs and every pass/fail rule come from verify.
Exit codes: 0 all configured tolerances pass, 1 tolerance failure, 2 config error.
Identical config + seed yields byte-identical artifacts (no timestamps in
outputs; floats printed with 17 significant digits).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import verify
from .config import ScenarioConfig, checked_seed, load_config
from .errors import ConfigError, NoOverlap, VacuumFlowError
from .integrate import compare_trajectories, simulate
from .maxwell import evolve_wave
from .presets import dipole_grid
from .quantum import QuantumKind, evolve, snapshot_csv

OUT_ENV_VAR = "VACUUMFLOW_OUT"


def _info(args, *message):
    if not args.quiet:
        print(*message)


def _write_json(path: Path, obj) -> None:
    """Sorted-key JSON of obj, so the same report gives the same bytes; a NaN or
    an infinity raises ValueError, since RFC 8259 JSON has neither."""
    path.write_text(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _write_csv(path: Path, header: str, rows) -> None:
    """header, then one LF line per row of numbers at 17 significant digits."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)


def _out_dir(args, cfg: ScenarioConfig) -> Path:
    out = args.out or os.environ.get(OUT_ENV_VAR) or cfg.out_dir
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file by that name, a file on the path, no permission
        raise ConfigError(f"output directory {path} cannot be made: {exc.strerror or exc}") from exc
    except ValueError as exc:  # a NUL or a lone surrogate in the path
        raise ConfigError(f"out_dir: {exc}") from exc
    return path


# -- subcommands -----------------------------------------------------------------


def cmd_simulate(cfg: ScenarioConfig, out: Path, args) -> bool:
    tol = cfg.tolerance("energy_drift")
    ok = True
    for model in cfg.models:
        traj = simulate(model, cfg.particle, cfg.field, cfg.r0, cfg.tau_end, cfg.integrator, cfg.h)
        csv_path = out / f"{cfg.name}_{model.value}.csv"
        traj.to_csv(csv_path)
        drift = traj.max_relative_energy_drift()
        summary = {
            "model": model.value,
            "samples": len(traj),
            "energy_start": traj.energy[0],
            "energy_drift": drift,
            "tolerance": tol,
            "passed": verify.check(drift, "energy_drift", cfg.tolerance)[0],
            "terminated": traj.meta.get("termination"),
            "meta": traj.meta,
        }
        _write_json(out / f"{cfg.name}_{model.value}_drift.json", summary)
        shown = "none" if drift is None else f"{drift:.3e}"
        _info(args, f"simulate {model.value}: drift={shown} tol={tol:.1e} "
                    f"{'PASS' if summary['passed'] else 'FAIL'} -> {csv_path}")
        ok = ok and summary["passed"]
        if drift is None:
            print(f"simulate {model.value}: no relative energy drift: the start energy is 0",
                  file=sys.stderr)
        if traj.meta.get("termination"):
            print(f"simulate {model.value}: terminated early: {traj.meta['termination']}",
                  file=sys.stderr)
            ok = False
    return ok


def cmd_compare(cfg: ScenarioConfig, out: Path, args) -> bool:
    if len(cfg.models) != 2:
        raise ConfigError(f"compare: models must list exactly 2 entries, got {len(cfg.models)}")
    trajs = verify.run_models(cfg.models, cfg.particle, cfg.field, cfg.r0, cfg.tau_end, cfg.integrator, cfg.h)
    for model, traj in zip(cfg.models, trajs):
        traj.to_csv(out / f"{cfg.name}_{model.value}.csv")
    # a record that RK45 cut short fails the comparison, as it fails simulate
    cut = [(model.value, traj.meta["termination"]) for model, traj in zip(cfg.models, trajs)
           if traj.meta.get("termination")]
    try:
        pos_dev, energy_drift = compare_trajectories(*trajs)
    except NoOverlap as exc:  # a record cut at its start spans no time: say why
        raise NoOverlap("; ".join([str(exc)] + [f"{name} terminated early: {why}" for name, why in cut])) from exc
    # (report key, value, tolerance key) of every judged value
    judged = [("max_pos_dev", pos_dev, "compare_pos_dev")]
    if cfg.compare["analytic"] == "gyration_circle":
        judged += [(f"{model.value}_vs_circle", verify.circle_deviation(traj, cfg.particle, cfg.field, cfg.r0),
                    "gyration_pos_dev") for model, traj in zip(cfg.models, trajs)]
    failed = [name for name, value, key in judged if not verify.check(value, key, cfg.tolerance)[0]]
    failed += [f"{name} terminated early" for name, _ in cut]
    report = {"models": [m.value for m in cfg.models], "max_energy_drift": energy_drift,
              "tolerance": cfg.tolerance("compare_pos_dev"), "passed": not failed,
              **{name: value for name, value, _ in judged}}
    _write_json(out / f"{cfg.name}_compare.json", report)
    values = " ".join(f"{name}={value:.3e}" for name, value, _ in judged)
    _info(args, f"compare {' vs '.join(report['models'])}: {values} "
                f"{'FAIL: ' + ', '.join(failed) if failed else 'PASS'}")
    for name, termination in cut:
        print(f"compare {name}: terminated early: {termination}", file=sys.stderr)
    return report["passed"]


def cmd_forces(cfg: ScenarioConfig, out: Path, args) -> bool:
    n_states = cfg.forces["states"]
    gap = verify.force_gap_stats(seed=cfg.seed, n_states=n_states, fld=cfg.field)
    table = out / f"{cfg.name}_forces.csv"
    _write_csv(table, "rx,ry,rz,ux,uy,uz,t,fcx,fcy,fcz,fmx,fmy,fmz,identity_dev", gap["rows"])
    tol = cfg.tolerance("force_gap")
    passed = verify.passed(cfg.tolerance, force_gap_stats=gap)
    worst = gap["max_identity_dev"]
    _write_json(out / f"{cfg.name}_forces.json",
                {"states": n_states, "max_identity_dev": worst, "tolerance": tol, "passed": passed})
    _info(args, f"forces: max identity deviation {worst:.3e} tol={tol:.1e} "
                f"{'PASS' if passed else 'FAIL'} -> {table}")
    return passed


def cmd_maxwell(cfg: ScenarioConfig, out: Path, args) -> bool:
    n_coarse = cfg.maxwell["n_coarse"]
    suite = verify.prop1_suite(n_coarse=n_coarse, n_fine=cfg.maxwell["n_fine"])
    ok = verify.passed(cfg.tolerance, prop1_suite=suite)
    adv = None
    if cfg.maxwell["advected"]:
        adv = verify.advected_report()
        ok = verify.passed(cfg.tolerance, advected_report=adv) and ok
        _write_csv(out / f"{cfg.name}_advected.csv", "time,comoving,fixed",
                   zip(adv["times"], adv["comoving"], adv["fixed"]))
    band = cfg.tolerance("maxwell_ratio_band")
    # the wall-clock seconds go beside the report, so the report keeps its bytes from run to run
    report = {"suite": {k: v for k, v in suite.items() if k != "seconds"}, "advected": adv,
              "ratio_band": band, "passed": ok}
    _write_json(out / f"{cfg.name}_maxwell.json", report)
    _write_json(out / f"{cfg.name}_maxwell_timing.json", {"suite": {"seconds": suite["seconds"]}})
    if cfg.maxwell["dump_grids"]:
        grid, steps, _ = dipole_grid(n_coarse)
        evolve_wave(grid, steps)
        grid.dump_binary(str(out / f"{cfg.name}_grid"))
    _info(args, f"maxwell: ratios within {band}: {'PASS' if ok else 'FAIL'}")
    return ok


def cmd_quantum(cfg: ScenarioConfig, out: Path, args) -> bool:
    disp = verify.dispersion_report()
    drift = verify.norm_drift_report(steps=cfg.quantum["steps"])
    packet = verify.packet_dispersion_report()
    gap = verify.model_gap_report()
    ok = verify.passed(cfg.tolerance, dispersion_report=disp, norm_drift_report=drift,
                       packet_dispersion_report=packet, model_gap_report=gap)

    columns = ("hk", "exact", "truncated", "error")
    _write_csv(out / f"{cfg.name}_dispersion.csv", ",".join(columns),
               ([row[c] for c in columns] for row in disp["rows"]))
    # one snapshot artifact for plotting: criterion 10's minimal-coupling packet after 200 steps
    op, state = verify.periodic_packet(QuantumKind.MinimalCoupling)
    snapshot_csv(evolve(op, state, 0.01, 200), out / f"{cfg.name}_snapshot.csv")

    _write_json(out / f"{cfg.name}_quantum.json",
                {"dispersion": disp, "norm_drift": drift, "packet": packet, "model_gap": gap,
                 "passed": ok})
    _info(args, f"quantum: exponent={disp['exponent']:.3f} gap_err={gap['abs_err']:.2e} "
                f"{'PASS' if ok else 'FAIL'}")
    return ok


def cmd_checks(cfg: ScenarioConfig, out: Path, args) -> bool:
    # one independent stream per criterion, so every seed gives its own draws
    legendre_seed, vf_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    legendre = verify.legendre_consistency(seed=legendre_seed)
    vf = verify.vector_field_fd(seed=vf_seed)
    el = verify.el_convergence()
    ok = verify.passed(cfg.tolerance, legendre_consistency=legendre, vector_field_fd=vf, el_convergence=el)
    _write_json(out / f"{cfg.name}_checks.json",
                {"legendre": legendre, "vector_field_fd": vf, "euler_lagrange": el, "passed": ok})
    _info(args, f"checks: EL ratio={el['ratio']:.2f} {'PASS' if ok else 'FAIL'}")
    return ok


_COMMANDS = {
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "forces": cmd_forces,
    "maxwell": cmd_maxwell,
    "quantum": cmd_quantum,
    "checks": cmd_checks,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vacuumflow",
        description="Vacuum-potential-field electrodynamics: simulation and verification suites",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="scenario JSON path")
    parser.add_argument("--out", default=None, help=f"output directory (or ${OUT_ENV_VAR})")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--quiet", action="store_true", help="suppress stdout summaries")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = checked_seed(args.seed, "--seed")
        out = _out_dir(args, cfg)
        ok = _COMMANDS[args.command](cfg, out, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except VacuumFlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
