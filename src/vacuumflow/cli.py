"""Config-driven command line runner.

Subcommands: simulate, compare, forces, maxwell, quantum, checks.
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
from .config import ScenarioConfig, load_config
from .core import ModelKind
from .errors import ConfigError, VacuumFlowError
from .integrate import simulate

OUT_ENV_VAR = "VACUUMFLOW_OUT"


def _info(args, *message):
    if not args.quiet:
        print(*message)


def _split_seconds(o):
    """(o without its "seconds" keys, those keys at the same key paths or None)."""
    if isinstance(o, dict):
        kept, timing = {}, {}
        for k, v in o.items():
            v, t = _split_seconds(v)
            if k == "seconds":
                timing[k] = v
                continue
            kept[k] = v
            if t is not None:
                timing[k] = t
        return kept, timing or None
    if isinstance(o, (list, tuple)):
        pairs = [_split_seconds(v) for v in o]
        timing = [t for _, t in pairs]
        return [k for k, _ in pairs], timing if any(t is not None for t in timing) else None
    if isinstance(o, (np.floating, np.integer)):
        return o.item(), None
    return o, None


def _write_json(path: Path, obj) -> None:
    """Sorted-key JSON of obj without its wall-clock "seconds" keys, which go
    to <stem>_timing.json beside it (only when obj has one), so the artifact
    itself stays byte-identical from run to run."""
    kept, timing = _split_seconds(obj)
    path.write_text(json.dumps(kept, sort_keys=True, indent=2) + "\n")
    if timing is not None:
        timing_path = path.with_name(f"{path.stem}_timing.json")
        timing_path.write_text(json.dumps(timing, sort_keys=True, indent=2) + "\n")


def _out_dir(args, cfg: ScenarioConfig) -> Path:
    out = args.out or os.environ.get(OUT_ENV_VAR) or cfg.out_dir
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
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
            "passed": bool(drift <= tol),
            "terminated": traj.meta.get("termination"),
            "meta": traj.meta,
        }
        _write_json(out / f"{cfg.name}_{model.value}_drift.json", summary)
        _info(args, f"simulate {model.value}: drift={drift:.3e} tol={tol:.1e} "
                    f"{'PASS' if summary['passed'] else 'FAIL'} -> {csv_path}")
        ok = ok and summary["passed"]
        if traj.meta.get("termination"):
            print(f"simulate {model.value}: terminated early: {traj.meta['termination']}",
                  file=sys.stderr)
            ok = False
    return ok


def cmd_compare(cfg: ScenarioConfig, out: Path, args) -> bool:
    if len(cfg.models) != 2:
        raise ConfigError(f"compare: models must list exactly 2 entries, got {len(cfg.models)}")
    from .integrate import compare_trajectories

    a_model, b_model = cfg.models
    trajs = {}
    for model in cfg.models:
        tau_end = cfg.tau_end
        h = cfg.h
        if model is ModelKind.M0:
            # M0 runs on the lab clock; stretch by gamma to cover the same span
            u = float(np.linalg.norm(cfg.particle.u0))
            gamma = 1.0 / np.sqrt(1.0 - u * u)
            tau_end = cfg.tau_end * gamma
            h = tau_end / max(2, int(round(cfg.tau_end / cfg.h)))
        trajs[model] = simulate(model, cfg.particle, cfg.field, cfg.r0, tau_end, cfg.integrator, h)
        trajs[model].to_csv(out / f"{cfg.name}_{model.value}.csv")
    pos_dev, energy_dev = compare_trajectories(trajs[a_model], trajs[b_model])
    tol = cfg.tolerance("compare_pos_dev")
    report = {
        "models": [a_model.value, b_model.value],
        "max_pos_dev": pos_dev,
        "max_energy_dev": energy_dev,
        "tolerance": tol,
        "passed": bool(pos_dev <= tol),
    }
    analytic = cfg.compare["analytic"]
    if analytic == "gyration_circle":
        from .presets import gyration_analytic

        gtol = cfg.tolerance("gyration_pos_dev")
        for model, traj in trajs.items():
            dev = float(np.max(np.linalg.norm(traj.r - gyration_analytic(traj.t), axis=1)))
            report[f"{model.value}_vs_circle"] = dev
            report["passed"] = bool(report["passed"] and dev <= gtol)
    _write_json(out / f"{cfg.name}_compare.json", report)
    _info(args, f"compare {a_model.value} vs {b_model.value}: max_pos_dev={pos_dev:.3e} "
                f"{'PASS' if report['passed'] else 'FAIL'}")
    return report["passed"]


def cmd_forces(cfg: ScenarioConfig, out: Path, args) -> bool:
    n_states = cfg.forces["states"]
    gap = verify.force_gap_stats(seed=cfg.seed, n_states=n_states, fld=cfg.field)
    table = out / f"{cfg.name}_forces.csv"
    with open(table, "w") as fh:
        fh.write("rx,ry,rz,ux,uy,uz,t,fcx,fcy,fcz,fmx,fmy,fmz,identity_dev\n")
        for row in gap["rows"]:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
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
        with open(out / f"{cfg.name}_advected.csv", "w") as fh:
            fh.write("time,comoving,fixed\n")
            for t, c, f in zip(adv["times"], adv["comoving"], adv["fixed"]):
                fh.write(f"{t:.17g},{c:.17g},{f:.17g}\n")
    band = cfg.tolerance("maxwell_ratio_band")
    report = {"suite": suite, "advected": adv, "ratio_band": band, "passed": ok}
    _write_json(out / f"{cfg.name}_maxwell.json", report)
    if cfg.maxwell["dump_grids"]:
        from .maxwell import evolve_wave
        from .presets import dipole_grid

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

    with open(out / f"{cfg.name}_dispersion.csv", "w") as fh:
        fh.write("hk,exact,truncated,error\n")
        for row in disp["rows"]:
            fh.write(f"{row['hk']:.17g},{row['exact']:.17g},{row['truncated']:.17g},{row['error']:.17g}\n")
    # one snapshot artifact for plotting
    from .quantum import QuantumKind, QuantumModel, build_hamiltonian, evolve, gaussian_packet, snapshot_csv
    from .presets import HBAR_DEFAULT, quantum_profiles

    dx, w, a = quantum_profiles()
    model = QuantumModel(QuantumKind.MinimalCoupling, w, a, q=1.0)
    op = build_hamiltonian(model, dx, HBAR_DEFAULT, "periodic")
    state = gaussian_packet(w.size, dx, x0=0.5 * w.size * dx, sigma0=0.8, k0=2.0, hbar=HBAR_DEFAULT)
    snapshot_csv(evolve(op, state, 0.01, 200), out / f"{cfg.name}_snapshot.csv")

    _write_json(out / f"{cfg.name}_quantum.json",
                {"dispersion": disp, "norm_drift": drift, "packet": packet, "model_gap": gap,
                 "passed": ok})
    _info(args, f"quantum: exponent={disp['exponent']:.3f} gap_err={gap['abs_err']:.2e} "
                f"{'PASS' if ok else 'FAIL'}")
    return ok


def cmd_checks(cfg: ScenarioConfig, out: Path, args) -> bool:
    legendre = verify.legendre_consistency(seed=cfg.seed or 1)
    vf = verify.vector_field_fd(seed=(cfg.seed or 1) + 1)
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
            cfg.seed = args.seed
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
