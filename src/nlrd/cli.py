"""Config-driven command line.

Commands: solve, maximal, front, subsolution, verify <suite>,
experiment <name>. Exit codes: 0 all checks pass, 1 a check or a
computation failed, 2 a precondition or config key was rejected.

Determinism: every command is a pure function of (config, seed, conv
path); the computation is single-threaded and bit-reproducible.
``--with-timing`` adds the run's wall time to the report JSON, which is
then no longer byte-identical across runs.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from .config import build_pieces, build_problem, load_config, resolve
from .errors import NumericalFailure, PreconditionError
from .grid import field_to_csv
from .kernels import kernel_constants, marginal_j1
from .obstacles import PsiSpec, deformation_family
from .solver import build_subsolution, evolve, front_profile, maximal_solution
from .verify import (
    Report,
    bounds_suite,
    comparison_suite,
    counterexample_check,
    liouville_experiment,
    robustness_experiment,
)

__all__ = ["main"]


def _write_progress(path, rows) -> None:
    with open(path, "w") as fh:
        fh.write("step,residual_sup,min_u,max_u\n")
        for step, sup, lo, hi in rows:
            fh.write(f"{step},{sup:.17g},{lo:.17g},{hi:.17g}\n")


def _kernel_csv(path, kernel) -> None:
    offs = kernel.offsets()
    with open(path, "w") as fh:
        heads = [f"d{a}" for a in range(kernel.dim)]
        fh.write(",".join(heads + ["weight"]) + "\n")
        flat = [o.ravel() for o in offs]
        wv = kernel.weights.ravel()
        for i in range(wv.size):
            cols = [str(int(f[i])) for f in flat] + [f"{wv[i]:.17g}"]
            fh.write(",".join(cols) + "\n")


def _emit(report: Report, outdir: str, stem: str, args) -> None:
    from . import __version__

    report.meta.setdefault("package_version", __version__)
    report.wall_time = time.perf_counter() - args.started
    report.write_json(os.path.join(outdir, f"{stem}.report.json"), args.with_timing)
    report.write_csv(os.path.join(outdir, f"{stem}.checks.csv"))


def _phi_and_constants(cfg, kernel, f):
    kc = kernel_constants(kernel, f, cfg["experiment"]["alphas"])
    phi = front_profile(
        marginal_j1(kernel), f,
        line_length=cfg["front"]["line_length"],
        tol=cfg["front"]["tol"],
    )
    return phi, kc


def cmd_solve(cfg, args, outdir) -> int:
    p = build_problem(cfg, args.conv)
    if cfg["solver"]["u0"] == "hostile":
        u0 = p.hostile_datum()
    elif cfg["solver"]["u0"] == "ones":
        u0 = p.constant_datum(1.0)
    elif cfg["solver"]["u0"] == "counterexample":
        from .verify import counterexample_field

        u0 = counterexample_field(p)
    else:
        raise PreconditionError(f"unknown initial datum {cfg['solver']['u0']!r}")
    res = evolve(
        p, u0,
        dt=cfg["solver"]["dt"],
        max_steps=cfg["solver"]["max_steps"],
        residual_tol=cfg["solver"]["tol"],
        log_every=cfg["solver"]["log_every"],
    )
    rep = Report("solve", resolve(cfg), [])
    rep.meta["dt"] = res.dt
    rep.meta["steps"] = res.steps
    rep.add("converged", res.converged, res.residual_sup, cfg["solver"]["tol"], None,
            note=f"{res.steps} steps")
    min_u = float(np.min(res.u.values[p.domain_mask]))
    rep.add("min_u", None, min_u)
    field_to_csv(res.u, os.path.join(outdir, "field.csv"))
    _write_progress(os.path.join(outdir, "progress.csv"), res.log_rows)
    _kernel_csv(os.path.join(outdir, "kernel.csv"), p.kernel)
    _emit(rep, outdir, "solve", args)
    return 0 if rep.passed else 1


def cmd_maximal(cfg, args, outdir) -> int:
    _, kernel, f, fext = build_pieces(cfg)
    kc = kernel_constants(kernel, f, cfg["experiment"]["alphas"])
    v = maximal_solution(
        kernel, fext,
        cfg["ball"]["center"], cfg["ball"]["radius"], kc.d0,
        tol=cfg["ball"]["tol"], path=args.conv,
    )
    rep = Report("maximal", resolve(cfg), [])
    rep.add("iterations", None, float(v.iterations))
    rep.add("final_increment", v.final_increment <= cfg["ball"]["tol"],
            v.final_increment, cfg["ball"]["tol"], None)
    vmax = float(np.max(v.values[v.bmask]))
    rep.add("max_above_theta", vmax > f.theta, vmax, f.theta, None)
    field_to_csv(v.field, os.path.join(outdir, "maximal.csv"))
    with open(os.path.join(outdir, "iterations.csv"), "w") as fh:
        fh.write("iteration,decrease,worst_rise\n")
        for it, dec, rise in v.history:
            fh.write(f"{it},{dec:.17g},{rise:.17g}\n")
    _emit(rep, outdir, "maximal", args)
    return 0 if rep.passed else 1


def cmd_front(cfg, args, outdir) -> int:
    _, kernel, f, _ = build_pieces(cfg)
    phi = front_profile(marginal_j1(kernel), f, line_length=cfg["front"]["line_length"],
                        tol=cfg["front"]["tol"])
    rep = Report("front", resolve(cfg), [])
    rep.add("residual_off_bands", phi.residual_sup <= 1e-8, phi.residual_sup, 0.0, 1e-8)
    rep.add("left_limit", abs(phi.left_value - phi.limits[0]) <= 1e-3,
            phi.left_value, phi.limits[0], 1e-3)
    rep.add("right_limit", abs(phi.right_value - phi.limits[1]) <= 1e-3,
            phi.right_value, phi.limits[1], 1e-3)
    coords = phi.coords()
    with open(os.path.join(outdir, "front.csv"), "w") as fh:
        fh.write("x,phi\n")
        for x, v in zip(coords, phi.values):
            fh.write(f"{x:.17g},{v:.17g}\n")
    _emit(rep, outdir, "front", args)
    return 0 if rep.passed else 1


def cmd_subsolution(cfg, args, outdir) -> int:
    _, kernel, f, fext = build_pieces(cfg)
    kc = kernel_constants(kernel, f, cfg["experiment"]["alphas"])
    v = maximal_solution(kernel, fext, cfg["ball"]["center"], cfg["ball"]["radius"],
                         kc.d0, tol=cfg["ball"]["tol"], path=args.conv)
    delta = cfg["subsolution"]["delta"]
    if delta is None:
        delta = kc.delta0 / 2.0 if kc.delta0 is not None else None
    if delta is None:
        raise PreconditionError("delta0 undefined for this kernel; set subsolution.delta")
    w = build_subsolution(v, delta, kc, path=args.conv)
    rep = Report("subsolution", resolve(cfg), [])
    rep.add("certificate_min", w.verify_min >= -w.tol_geom, w.verify_min,
            -w.tol_geom, w.tol_geom, note=f"delta = {delta!r}")
    field_to_csv(w.field, os.path.join(outdir, "subsolution.csv"))
    _emit(rep, outdir, "subsolution", args)
    return 0 if rep.passed else 1


def cmd_verify(cfg, args, outdir) -> int:
    suite = args.name
    if suite == "comparison":
        p = build_problem(cfg, args.conv)
        phi, kc = _phi_and_constants(cfg, p.kernel, p.f.base)
        rep = comparison_suite(p, cfg["experiment"]["trials"], args.seed, phi=phi,
                               config=resolve(cfg))
    elif suite == "bounds":
        p = build_problem(cfg, args.conv)
        phi, kc = _phi_and_constants(cfg, p.kernel, p.f.base)
        res = evolve(p, p.hostile_datum(), dt=cfg["solver"]["dt"],
                     residual_tol=cfg["solver"]["tol"], max_steps=cfg["solver"]["max_steps"])
        if not res.converged:
            raise NumericalFailure("bounds suite needs a converged stationary field")
        rep = bounds_suite(res.u, p, phi, kc, alphas=cfg["experiment"]["alphas"],
                           probe_deltas=cfg["experiment"]["probe_deltas"],
                           config=resolve(cfg))
    else:
        raise PreconditionError(f"unknown verify suite {suite!r}")
    _emit(rep, outdir, f"verify_{suite}", args)
    return 0 if rep.passed else 1


def cmd_experiment(cfg, args, outdir) -> int:
    name = args.name
    if name == "counterexample":
        p = build_problem(cfg, args.conv)
        rep = counterexample_check(p, resolve(cfg))
    elif name == "liouville":
        p = build_problem(cfg, args.conv)
        phi, kc = _phi_and_constants(cfg, p.kernel, p.f.base)
        sweep_opts = {
            "epsilon": cfg["experiment"]["sweep_epsilon"],
            "angles": cfg["experiment"]["sweep_angles"],
        }
        if cfg["experiment"]["sweep_ball_radius"] is not None:
            sweep_opts["ball_radius"] = cfg["experiment"]["sweep_ball_radius"]
        rep = liouville_experiment(
            p, phi, kc, config=resolve(cfg), mode=args.mode,
            residual_tol=cfg["solver"]["tol"], max_steps=cfg["solver"]["max_steps"],
            alphas=cfg["experiment"]["alphas"], sweep_opts=sweep_opts,
            log_every=cfg["solver"]["log_every"], dt=cfg["solver"]["dt"],
        )
    elif name == "robustness":
        grid, kernel, f, fext = build_pieces(cfg)
        kc = kernel_constants(kernel, f, cfg["experiment"]["alphas"])
        o = cfg["obstacle"]
        fam = deformation_family(
            o["radius"], PsiSpec(kind=o["psi"], k=o["psi_k"], amp=o["psi_amp"])
        )
        rep = robustness_experiment(
            fam, grid, kernel, fext, kc,
            eps_grid=cfg["experiment"]["epsilons"],
            alphas=cfg["experiment"]["alphas"],
            pass_eps=cfg["experiment"]["pass_eps"],
            residual_tol=cfg["solver"]["tol"],
            max_steps=cfg["solver"]["max_steps"],
            config=resolve(cfg),
            margin=o["margin"],
            far_field=cfg["problem"]["far_field"],
            clamp_width=cfg["problem"]["clamp_width"],
            dt=cfg["solver"]["dt"],
            conv_path=args.conv,
            log_every=cfg["solver"]["log_every"],
        )
    else:
        raise PreconditionError(f"unknown experiment {name!r}")
    for stem, fld in rep.fields.items():
        field_to_csv(fld, os.path.join(outdir, f"{stem}.csv"))
    for stem, rows in rep.log_rows.items():
        _write_progress(os.path.join(outdir, f"{stem}.csv"), rows)
    _emit(rep, outdir, name, args)
    return 0 if rep.passed else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nlrd",
        description="Nonlocal bistable reaction-diffusion around obstacles: "
                    "solvers and verification experiments.",
    )
    ap.add_argument("--config", default=None, help="INI config path")
    ap.add_argument("--out", default="out", help="artifact directory")
    ap.add_argument("--conv", default="fast", choices=["direct", "fast", "both"],
                    help="convolution path ('both' cross-checks every application)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--with-timing", action="store_true",
                    help="include wall time in the report JSON (breaks byte determinism)")
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("solve")
    sub.add_parser("maximal")
    sub.add_parser("front")
    sub.add_parser("subsolution")
    v = sub.add_parser("verify")
    v.add_argument("name", choices=["comparison", "bounds"])
    e = sub.add_parser("experiment")
    e.add_argument("name", choices=["liouville", "counterexample", "robustness"])
    e.add_argument("--mode", default="standard", choices=["standard", "sweep"])
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not hasattr(args, "mode"):
        args.mode = "standard"
    args.started = time.perf_counter()
    try:
        cfg = load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        handler = {
            "solve": cmd_solve,
            "maximal": cmd_maximal,
            "front": cmd_front,
            "subsolution": cmd_subsolution,
            "verify": cmd_verify,
            "experiment": cmd_experiment,
        }[args.command]
        code = handler(cfg, args, args.out)
    except PreconditionError as exc:
        print(f"precondition rejected: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - args.started
    print(f"{args.command}: exit {code} ({elapsed:.1f}s)", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
