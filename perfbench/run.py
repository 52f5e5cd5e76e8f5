"""nlrd benchmark: whole CLI runs in fresh child processes, checked and timed.

    python3 perfbench/run.py --workload liouville --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; paths are resolved from this file.
The loop is closed: one child at a time, the next starts after the previous
one exits. Each run is gated on its exit code, its report and the workload's
named certificates. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
adds one traced run (``trace_child.py``) and prints the per-layer metrics.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from importlib.metadata import PackageNotFoundError, version
from typing import Callable

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_PROBES = 7          # set-up is timed this many times per run; median reported
RUN_LIMIT_S = 170.0       # one invocation must end within 180 s
BYTES_PER_TAP_CELL = 24   # direct multiply-add: read src, read dst, write dst (float64)

# set-up as every CLI run pays it: interpreter start, numpy and nlrd imports,
# config parse; no numerics
SETUP_PROBE = "import sys; from nlrd import cli; cli.load_config(sys.argv[1])"

END_TO_END = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
]

PER_LAYER = [
    ("convolve.fast.calls", "count"),
    ("convolve.fast.self_s", "s"),
    ("convolve.fast.padded_cells", "cells"),
    ("convolve.direct2d.calls", "count"),
    ("convolve.direct2d.self_s", "s"),
    ("convolve.direct2d.tap_cells", "cells"),
    ("convolve.direct2d.computed_bytes", "B"),
    ("convolve.direct1d.calls", "count"),
    ("convolve.direct1d.self_s", "s"),
    ("grid.holder_quotient.calls", "count"),
    ("grid.holder_quotient.self_s", "s"),
    ("grid.holder_quotient.pairs_used", "count"),
    ("grid.holder_quotient.exact_frac", "ratio"),
    ("grid.field_to_csv.calls", "count"),
    ("grid.field_to_csv.self_s", "s"),
    ("grid.field_to_csv.bytes", "B"),
    ("solver.evolve.steps", "count"),
    ("solver.evolve.self_s", "s"),
    ("solver.maximal_solution.outer_iters", "count"),
    ("solver.maximal_solution.self_s", "s"),
    ("solver.resolvent_solve.calls", "count"),
    ("solver.resolvent_solve.inner_convs", "count"),
    ("solver.resolvent_solve.self_s", "s"),
    ("solver.front_profile.sweeps", "count"),
    ("solver.front_profile.self_s", "s"),
    ("nonlinearity.f.calls", "count"),
    ("nonlinearity.f.self_s", "s"),
    ("operators.Problem.build_s", "s"),
    ("operators.residual.self_s", "s"),
    ("kernels.kernel_constants.self_s", "s"),
    ("obstacles.jmass.self_s", "s"),
    ("config.load_config.self_s", "s"),
    ("verify.bounds_suite.self_s", "s"),
    ("verify.sliding_radius.self_s", "s"),
    ("verify.comparison_suite.self_s", "s"),
    ("verify.report_write.self_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
]


# ---------------------------------------------------------------------------
# workloads


def _require(checks: dict, names) -> list:
    return [f"certificate {n} {'absent' if n not in checks else 'did not pass'}"
            for n in names if checks.get(n, {}).get("passed") is not True]


def _liouville_certificates(checks: dict) -> list:
    sliding = [n for n in checks if n.startswith("sliding_radius_e")]
    problems = _require(checks, ["liouville_min_u"] + sliding)
    problems += [f"certificate {n} measured {checks[n]['measured']!r}, not -inf"
                 for n in sliding if checks[n]["measured"] != "-inf"]
    if not sliding:
        problems.append("certificate sliding_radius_e* absent")
    return problems


def _maximal_certificates(checks: dict) -> list:
    return _require(checks, ["final_increment", "max_above_theta"])


def _comparison_certificates(checks: dict) -> list:
    problems = []
    for prefix in ("weak_", "strong_"):
        names = [n for n in checks if n.startswith(prefix)]
        problems += _require(checks, names) if names else [f"certificate {prefix}* absent"]
    return problems


@dataclass(frozen=True)
class Workload:
    config: str           # relative to the checkout root
    command: tuple        # CLI words after the global flags
    seeded: bool          # pass --seed; only commands with randomness read it
    artifacts: tuple      # every file the command must write; report JSON first
    certificates: Callable[[dict], list]  # {check name: check} -> problems
    working_set: str


WORKLOADS = {
    "liouville": Workload(
        "configs/liouville_disk.ini", ("experiment", "liouville"), False,
        ("liouville.report.json", "liouville.checks.csv", "field.csv", "progress.csv"),
        _liouville_certificates,
        "256^2 float64 field 0.5 MiB, FFT box 288^2; Hoelder pair arrays up to "
        "~150 MiB (peak RSS), below L3"),
    "maximal": Workload(
        "perfbench/configs/maximal_r15.ini", ("maximal",), False,
        ("maximal.report.json", "maximal.checks.csv", "maximal.csv", "iterations.csv"),
        _maximal_certificates,
        "480^2 ball box, FFT box 500^2: 1.9 MiB per real array, below L3"),
    "comparison": Workload(
        "configs/liouville_disk.ini", ("verify", "comparison"), True,
        ("verify_comparison.report.json", "verify_comparison.checks.csv"),
        _comparison_certificates,
        "256^2 float64 fields 0.5 MiB each, kernel 17^2 taps, below L2"),
}


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mib: float


@dataclass
class Run:
    child: Child
    problems: list
    hashes: dict


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # numpy's BLAS must not start worker threads
    return env


def spawn(cmd: list, env: dict, log, deadline: float) -> Child:
    """Run ``cmd`` to completion; wall time spans spawn to exit. A child still
    running at ``deadline`` is killed and reported with code -9."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=log, stderr=log)
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(max(1, int(deadline - t0)))
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    except _Timeout:
        proc.kill()
        _, status, ru = os.wait4(proc.pid, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0)


def gate(wl: Workload, code: int, outdir: str) -> list:
    """Why a run failed: exit code, report verdict, artifacts, certificates."""
    problems = [] if code == 0 else [f"exit code {code}"]
    problems += [f"missing artifact {a}" for a in wl.artifacts
                 if not os.path.isfile(os.path.join(outdir, a))]
    try:
        with open(os.path.join(outdir, wl.artifacts[0])) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return problems + [f"report unreadable: {exc}"]
    if report.get("passed") is not True:
        problems.append("report passed is not true")
    return problems + wl.certificates({c["name"]: c for c in report.get("checks", [])})


def sha256_all(outdir: str) -> dict:
    out = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def run_cli(wl: Workload, seed: int, env: dict, log, deadline: float,
            outdir: str, spans: str | None = None) -> Run:
    """One CLI invocation into a fresh ``outdir``; traced when ``spans`` is set."""
    if os.path.isdir(outdir):
        for name in os.listdir(outdir):
            os.remove(os.path.join(outdir, name))
    os.makedirs(outdir, exist_ok=True)
    args = ["--config", os.path.join(ROOT, wl.config), "--out", outdir]
    args += (["--seed", str(seed)] if wl.seeded else []) + list(wl.command)
    if spans is None:
        cmd = [sys.executable, "-m", "nlrd.cli"] + args
    else:
        cmd = [sys.executable, os.path.join(BENCH_DIR, "trace_child.py"), spans, "--"] + args
    child = spawn(cmd, env, log, deadline)
    return Run(child, gate(wl, child.code, outdir), sha256_all(outdir))


def untraced_runs(wl, seed, seconds, env, log, deadline) -> list:
    """Back-to-back runs, as many as bring the measured time closest to
    ``seconds``; at least one, since a CLI run cannot be cut short."""
    runs: list = []
    start = time.perf_counter()
    outdir = os.path.join(OUT, "run", "untraced")
    while True:
        runs.append(run_cli(wl, seed, env, log, deadline, outdir))
        now, last = time.perf_counter(), runs[-1].child.wall_s
        if (runs[-1].child.code == -signal.SIGKILL or now - start + last / 2 >= seconds
                or now + 1.5 * last > deadline):
            return runs


# ---------------------------------------------------------------------------
# metrics


def summary(values: list) -> dict:
    """Median, quartiles (as statistics.quantiles gives them) and count."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def layer_metrics(spans: list, traced_s: float, untraced_s: float) -> dict:
    """Per-layer values from spans ``[name, start, end, parent, extra]``.

    Self time is a span's duration minus the durations of its direct child
    spans. Coverage is the share of the traced run's wall time (spawn to
    exit) inside outermost spans.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    calls, counts = Counter(), defaultdict(Counter)
    total, self_s = defaultdict(float), defaultdict(float)
    convs_under = Counter()  # convolve calls by the name of their parent span
    covered = 0.0
    for i, (name, start, end, parent, extra) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - child[i]
        counts[name].update(extra or {})
        if parent is None:
            covered += end - start
        elif name.startswith("convolve."):
            convs_under[spans[parent][0]] += 1
    hq = "grid.holder_quotient"
    special = {
        "convolve.direct2d.computed_bytes":
            BYTES_PER_TAP_CELL * counts["convolve.direct2d"]["tap_cells"],
        f"{hq}.exact_frac": counts[hq]["exact"] / calls[hq] if calls[hq] else 0.0,
        "solver.resolvent_solve.inner_convs": convs_under["solver.resolvent_solve"],
        "solver.front_profile.sweeps": convs_under["solver.front_profile"],
        "operators.Problem.build_s": total["operators.Problem.build"],
        "trace.coverage": covered / traced_s,
        "trace.overhead_s": traced_s - untraced_s,
    }
    out = {}
    for metric, _ in PER_LAYER:
        span, key = metric.rsplit(".", 1)
        if metric in special:
            out[metric] = special[metric]
        elif key == "calls":
            out[metric] = calls[span]
        elif key == "self_s":
            out[metric] = self_s[span]
        else:
            out[metric] = counts[span][key]
    return out


def _cache_sizes() -> dict:
    """Total L2 and L3 over all instances, as ``lscpu`` reports them."""
    def read(path: str) -> str:
        with open(path) as fh:
            return fh.read().strip()

    instances: dict = defaultdict(dict)  # level -> {shared cpu list: KiB}
    base = "/sys/devices/system/cpu"
    try:
        for cpu in os.listdir(base):
            cache = os.path.join(base, cpu, "cache")
            if not (cpu[3:].isdigit() and os.path.isdir(cache)):
                continue
            for idx in (d for d in os.listdir(cache) if d.startswith("index")):
                entry = {k: read(os.path.join(cache, idx, k))
                         for k in ("type", "level", "size", "shared_cpu_list")}
                if entry["type"] != "Instruction" and entry["size"].endswith("K"):
                    instances[entry["level"]][entry["shared_cpu_list"]] = int(entry["size"][:-1])
    except OSError:
        pass
    return {f"L{lv}": (f"{sum(instances[lv].values()) / 1024:g} MiB "
                       f"({len(instances[lv])} instance(s))" if instances[lv] else "unknown")
            for lv in ("2", "3")}


def machine_facts(seed: int, wl: Workload) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = version("numpy")
    except PackageNotFoundError:
        numpy_version = "unknown"
    return {
        "nproc": os.cpu_count(), "cpu": cpu, **_cache_sizes(),
        "python": platform.python_version(), "numpy": numpy_version, "seed": seed,
        "working_set": wl.working_set + "; every working set fits in cache, "
                                        "no bandwidth figure is claimed",
    }


def print_artifacts(name: str, wl: Workload, seed: int, runs: list) -> None:
    """Print the first run's sha256 digests and whether every untraced run
    matches the reference: the first untraced run made in this checkout for
    this workload (and seed, where the command reads it). Informational."""
    ref_path = os.path.join(OUT, "reference",
                            name + (f"-seed{seed}" if wl.seeded else "") + ".json")
    if not os.path.exists(ref_path) and not runs[0].problems:
        with open(ref_path, "w") as fh:
            json.dump(runs[0].hashes, fh, indent=1, sort_keys=True)
    reference = runs[0].hashes
    if os.path.exists(ref_path):
        with open(ref_path) as fh:
            reference = json.load(fh)
    for artifact, digest in runs[0].hashes.items():
        print(f"sha256 {name} {artifact} {digest}")
    same = sum(1 for r in runs if r.hashes == reference)
    print(f"artifacts_identical {name}: {str(same == len(runs)).lower()} "
          f"({same} of {len(runs)} untraced runs match the first untraced run "
          f"in this checkout, {os.path.relpath(ref_path, ROOT)})")


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    deadline = time.perf_counter() + RUN_LIMIT_S
    for needed in ("src/nlrd/cli.py", wl.config):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found under {ROOT}", file=sys.stderr)
            return 2
    os.makedirs(os.path.join(OUT, "reference"), exist_ok=True)
    env = child_env()
    probe = [sys.executable, "-c", SETUP_PROBE, os.path.join(ROOT, wl.config)]

    with open(os.path.join(OUT, f"{args.workload}.log"), "w") as log:
        # the first import writes bytecode caches, which users pay once
        if spawn(probe, env, log, deadline).code != 0:
            print(f"perfbench: set-up probe failed, see {log.name}", file=sys.stderr)
            return 1
        setups, traced, spans = [], None, None
        if args.trace:
            # one untraced run: the reference for the artifacts and the overhead
            runs = [run_cli(wl, args.seed, env, log, deadline,
                            os.path.join(OUT, "run", "untraced"))]
            spans_path = os.path.join(OUT, "spans.json")
            if os.path.exists(spans_path):
                os.remove(spans_path)
            traced = run_cli(wl, args.seed, env, log, deadline,
                             os.path.join(OUT, "run", "traced"), spans_path)
            try:
                with open(spans_path) as fh:
                    spans = json.load(fh)["spans"]
            except (OSError, ValueError, KeyError) as exc:
                traced.problems.append(f"traced run wrote no spans: {exc!r}")
                spans = []
        else:
            setups = [spawn(probe, env, log, deadline) for _ in range(SETUP_PROBES)]
            runs = untraced_runs(wl, args.seed, args.seconds, env, log, deadline)

    print("machine " + json.dumps(machine_facts(args.seed, wl)))
    all_runs = runs + ([traced] if traced else [])
    problems = [p for r in all_runs for p in r.problems]
    problems += [f"set-up probe exit code {c.code}" for c in setups if c.code != 0]
    failed = sum(1 for r in all_runs if r.problems)
    attempted = len(all_runs)

    print_artifacts(args.workload, wl, args.seed, runs)

    results: dict = {}
    if args.trace:
        if traced.hashes != runs[0].hashes:
            problems.append("traced artifacts differ from the untraced run's")
        untraced_s = runs[0].child.wall_s
        values = layer_metrics(spans, traced.child.wall_s, untraced_s)
        for metric, unit in PER_LAYER:
            results[metric] = {"value": values[metric], "unit": unit}
            print(f"layer {args.workload} {metric} = {values[metric]} {unit}")
        print(f"traced run {traced.child.wall_s} s, untraced run {untraced_s} s")
    else:
        samples = {
            "run_s": [r.child.wall_s for r in runs],
            "setup_s": [c.wall_s for c in setups],
            "cpu_s": [r.child.cpu_s for r in runs],
            "peak_rss_mb": [r.child.rss_mib for r in runs],
        }
        for metric, unit in END_TO_END:
            s = summary(samples[metric])
            results[metric] = {"value": s["median"], "unit": unit}
            print(f"metric {args.workload} {metric} = {s['median']} {unit} "
                  f"(median; q1 {s['q1']}, q3 {s['q3']}, n={s['n']})")
    print(f"metric {args.workload} failed_frac = {failed / attempted} ratio "
          f"({failed} failed of {attempted} attempted)")
    for p in problems:
        print(f"FAILED {args.workload}: {p}")

    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": results}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
