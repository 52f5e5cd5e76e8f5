"""Config-driven command line.

Commands: solve, maximal, front, subsolution, verify <suite>,
experiment <name>. Exit codes: 0 all checks pass, 1 a check or a
computation failed, 2 a precondition or config key was rejected.

One pipeline runs every command: parse the arguments, load the config,
run the command's handler, stamp its :class:`Report` with the resolved
config and the package version, write the artifacts into ``--out``, exit.
A handler opens no file: it names its artifacts on the report, each by
file stem, as fields (``field_to_csv``) and as tables (a header, then
rows of integers and ``.17g`` floats). ``main`` then writes those and
``<stem>.report.json`` and ``<stem>.checks.csv``, where the stem is the
command, ``verify_<suite>`` or the experiment's name.

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

from . import __version__
from .config import build_pieces, build_problem, load_config, resolve
from .errors import NumericalFailure, PreconditionError
from .grid import field_to_csv
from .kernels import kernel_constants, marginal_j1
from .solver import (DECREASE_FLOOR, build_subsolution, cone_slope, evolve, front_profile,
                     maximal_solution)
from .verify import (
    PROGRESS_HEADER,
    Report,
    bounds_suite,
    comparison_suite,
    counterexample_check,
    counterexample_field,
    liouville_experiment,
    robustness_experiment,
)

__all__ = ["main"]


def _write_table(path, header, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v}" if isinstance(v, int) else f"{v:.17g}" for v in row) + "\n")


def _front(cfg, kernel, f):
    """The clamped-line front of ``[front]`` against the kernel's marginal."""
    return front_profile(marginal_j1(kernel), f, line_length=cfg["front"]["line_length"],
                         tol=cfg["front"]["tol"])


def _phi_and_constants(cfg, kernel, f):
    kc = kernel_constants(kernel, f, cfg["experiment"]["alphas"])
    return _front(cfg, kernel, f), kc


def _ball(cfg, args, check=lambda kc: None):
    """The maximal ball solution of ``[ball]``, and the kernel constants
    (d0, delta0 and W1,1 only: no Nikol'skii seminorm is read), which
    ``check`` sees before the ball is solved."""
    _, kernel, f = build_pieces(cfg)
    kc = kernel_constants(kernel, f, ())
    check(kc)
    v = maximal_solution(kernel, f, cfg["ball"]["center"], cfg["ball"]["radius"],
                         kc.d0, path=args.conv)
    return v, kc


def cmd_solve(cfg, args) -> Report:
    p = build_problem(cfg, args.conv)
    if cfg["solver"]["u0"] == "hostile":
        u0 = p.hostile_datum()
    elif cfg["solver"]["u0"] == "ones":
        u0 = p.constant_datum(1.0)
    elif cfg["solver"]["u0"] == "counterexample":
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
    rep = Report("solve")
    rep.meta["dt"] = res.dt
    rep.meta["steps"] = res.steps
    rep.add("converged", res.residual_sup, "<=", cfg["solver"]["tol"], note=f"{res.steps} steps")
    rep.add("min_u", float(np.min(res.u.values[p.domain_mask])))
    k = p.kernel
    rep.fields["field"] = res.u
    rep.tables["progress"] = (PROGRESS_HEADER, res.log_rows)
    rep.tables["kernel"] = (
        [f"d{a}" for a in range(k.dim)] + ["weight"],
        list(zip(*[o.ravel().tolist() for o in k.offsets()], k.weights.ravel().tolist())),
    )
    return rep


def cmd_maximal(cfg, args) -> Report:
    v, _ = _ball(cfg, args)
    rep = Report("maximal")
    rep.add("iterations", float(v.iterations))
    rep.add("resolvent_shift", v.kshift)
    rep.add("final_increment", v.final_increment, "<=", DECREASE_FLOOR)
    rep.add("max_above_theta", float(np.max(v.values[v.bmask])), ">", v.f.theta)
    rep.fields["maximal"] = v.field
    rep.tables["iterations"] = (("iteration", "decrease", "worst_rise"), v.history)
    return rep


def cmd_front(cfg, args) -> Report:
    _, kernel, f = build_pieces(cfg)
    phi = _front(cfg, kernel, f)
    rep = Report("front")
    rep.add("residual_off_bands", phi.residual_sup, "<=", 0.0, 1e-8)
    rep.add("left_limit", float(phi.values[0]), "|-|<=", 0.0, 1e-3)
    rep.add("right_limit", float(phi.values[-1]), "|-|<=", 1.0, 1e-3)
    rep.tables["front"] = (("x", "phi"), list(zip(phi.coords(), phi.values)))
    return rep


def cmd_subsolution(cfg, args) -> Report:
    delta = cfg["subsolution"]["delta"]
    v, kc = _ball(cfg, args, lambda kc: cone_slope(delta, kc))
    w = build_subsolution(v, delta, kc, path=args.conv)
    rep = Report("subsolution")
    rep.add("certificate_min", w.verify_min, ">=", 0.0, 1e-12,
            note=f"delta = {w.delta!r}, {w.shell_cells} positive shell cells")
    rep.fields["subsolution"] = w.field
    return rep


def cmd_comparison(cfg, args) -> Report:
    p = build_problem(cfg, args.conv)
    phi = _front(cfg, p.kernel, p.f)
    return comparison_suite(p, cfg["experiment"]["trials"], args.seed, phi=phi)


def cmd_bounds(cfg, args) -> Report:
    p = build_problem(cfg, args.conv)
    phi, kc = _phi_and_constants(cfg, p.kernel, p.f)
    res = evolve(p, p.hostile_datum(), dt=cfg["solver"]["dt"],
                 residual_tol=cfg["solver"]["tol"], max_steps=cfg["solver"]["max_steps"])
    if not res.converged:
        raise NumericalFailure("bounds suite needs a converged stationary field")
    return bounds_suite(res.u, p, phi, kc, alphas=cfg["experiment"]["alphas"],
                        probe_deltas=cfg["experiment"]["probe_deltas"])


def cmd_counterexample(cfg, args) -> Report:
    return counterexample_check(build_problem(cfg, args.conv))


def cmd_liouville(cfg, args) -> Report:
    p = build_problem(cfg, args.conv)
    phi, kc = _phi_and_constants(cfg, p.kernel, p.f)
    sweep_opts = {
        "epsilon": cfg["experiment"]["sweep_epsilon"],
        "angles": cfg["experiment"]["sweep_angles"],
    }
    if cfg["experiment"]["sweep_ball_radius"] is not None:
        sweep_opts["ball_radius"] = cfg["experiment"]["sweep_ball_radius"]
    return liouville_experiment(
        p, phi, kc, mode=args.mode,
        residual_tol=cfg["solver"]["tol"], max_steps=cfg["solver"]["max_steps"],
        alphas=cfg["experiment"]["alphas"], sweep_opts=sweep_opts,
        log_every=cfg["solver"]["log_every"], dt=cfg["solver"]["dt"],
        probe_deltas=cfg["experiment"]["probe_deltas"],
    )


def cmd_robustness(cfg, args) -> Report:
    grid, kernel, f = build_pieces(cfg)
    kc = kernel_constants(kernel, f, cfg["experiment"]["alphas"])
    return robustness_experiment(
        cfg["obstacle"], grid, kernel, f, kc,
        eps_grid=cfg["experiment"]["epsilons"],
        alphas=cfg["experiment"]["alphas"],
        pass_eps=cfg["experiment"]["pass_eps"],
        residual_tol=cfg["solver"]["tol"],
        max_steps=cfg["solver"]["max_steps"],
        clamp_width=cfg["problem"]["clamp_width"],
        dt=cfg["solver"]["dt"],
        conv_path=args.conv,
        log_every=cfg["solver"]["log_every"],
    )


# report file stem -> handler
HANDLERS = {
    "solve": cmd_solve,
    "maximal": cmd_maximal,
    "front": cmd_front,
    "subsolution": cmd_subsolution,
    "verify_comparison": cmd_comparison,
    "verify_bounds": cmd_bounds,
    "counterexample": cmd_counterexample,
    "liouville": cmd_liouville,
    "robustness": cmd_robustness,
}


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


def _stem(args) -> str:
    if args.command == "verify":
        return f"verify_{args.name}"
    return args.name if args.command == "experiment" else args.command


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    stem = _stem(args)
    out = args.out
    try:
        if args.seed < 0:
            raise PreconditionError(f"--seed must be >= 0, got {args.seed}")
        if args.command == "experiment" and args.mode == "sweep" and args.name != "liouville":
            raise PreconditionError(f"--mode sweep applies to experiment liouville only, "
                                    f"not {args.name}")
        cfg = load_config(args.config)
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as exc:
            raise PreconditionError(f"--out {out!r} cannot be a directory: {exc.strerror}") from exc
        rep = HANDLERS[stem](cfg, args)
        rep.config = resolve(cfg)
        rep.meta["package_version"] = __version__
        for name, fld in rep.fields.items():
            field_to_csv(fld, os.path.join(out, f"{name}.csv"))
        for name, (header, rows) in rep.tables.items():
            _write_table(os.path.join(out, f"{name}.csv"), header, rows)
        rep.wall_time = time.perf_counter() - started
        rep.write_json(os.path.join(out, f"{stem}.report.json"), args.with_timing)
        rep.write_csv(os.path.join(out, f"{stem}.checks.csv"))
    except PreconditionError as exc:
        print(f"precondition rejected: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    code = 0 if rep.passed else 1
    elapsed = time.perf_counter() - started
    print(f"{args.command}: exit {code} ({elapsed:.1f}s)", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
