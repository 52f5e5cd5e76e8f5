import csv
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import nlrd.cli
import nlrd.grid
import nlrd.solver
import nlrd.verify
import oracles
from nlrd.cli import main
from nlrd.config import build_problem, load_config

COUNTEREXAMPLE_INI = """
[grid]
lo = -4,-4
hi = 4,4
h = 0.0625

[kernel]
profile = tophat
radius = 0.5

[obstacle]
family = annulus
r1 = 1.0
r2 = 2.0
"""

SOLVE_ONES_INI = """
[grid]
lo = -4,-4
hi = 4,4
h = 0.0625

[kernel]
profile = quartic
radius = 0.5

[obstacle]
family = none

[solver]
u0 = ones
"""

LIOUVILLE_SMALL_INI = """
[grid]
lo = -5,-5
hi = 5,5
h = 0.125

[kernel]
profile = quartic
radius = 0.5

[obstacle]
family = ball
radius = 1.0

[experiment]
alphas = 1.0
"""

MAXIMAL_INI = """
[grid]
lo = -9,-9
hi = 9,9
h = 0.125

[kernel]
profile = quartic
radius = 0.5

[f]
theta = 0.25
amplitude = 3.0

[obstacle]
family = none

[ball]
center = 0,0
radius = 4.0
"""

SWEEP_INI = (Path(__file__).resolve().parents[1] / "configs" / "sweep_covering.ini").read_text()
# the covering replay on a kernel with no cone slope delta0
SWEEP_TOPHAT_INI = SWEEP_INI.replace("profile = quartic", "profile = tophat")


def _cfg(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_counterexample_exit_zero(tmp_path):
    cfg = _cfg(tmp_path, COUNTEREXAMPLE_INI)
    out = tmp_path / "out"
    code = main(["--config", cfg, "--out", str(out), "experiment", "counterexample"])
    assert code == 0
    report = json.loads((out / "counterexample.report.json").read_text())
    assert report["passed"] is True
    res = [c for c in report["checks"] if c["name"] == "residual_sup"][0]
    assert res["measured"] <= 1e-12
    assert (out / "counterexample.checks.csv").exists()


def test_solve_ones_stops_at_step_zero(tmp_path):
    cfg = _cfg(tmp_path, SOLVE_ONES_INI)
    out = tmp_path / "out"
    code = main(["--config", cfg, "--out", str(out), "--conv", "direct", "solve"])
    assert code == 0
    prog = (out / "progress.csv").read_text().strip().split("\n")
    assert prog[0] == "step,residual_sup,min_u,max_u"
    assert prog[1].startswith("0,")
    assert len(prog) == 2
    rep = json.loads((out / "solve.report.json").read_text())
    assert "0 steps" in rep["checks"][0]["note"]


def test_liouville_on_annulus_exits_one(tmp_path):
    cfg = _cfg(tmp_path, COUNTEREXAMPLE_INI)
    out = tmp_path / "out"
    code = main(["--config", cfg, "--out", str(out), "experiment", "liouville"])
    assert code == 1
    report = json.loads((out / "liouville.report.json").read_text())
    assert report["passed"] is False


def test_unknown_config_key_exits_two(tmp_path, capsys):
    cfg = _cfg(tmp_path, "[grid]\nwavelength = 3\n")
    code = main(["--config", cfg, "experiment", "counterexample"])
    assert code == 2
    err = capsys.readouterr().err
    assert "wavelength" in err


COUNTEREXAMPLE = ("experiment", "counterexample")


@pytest.mark.parametrize("bad,command", [
    (COUNTEREXAMPLE_INI.replace("radius = 0.5", "radius = nan"), COUNTEREXAMPLE),
    (COUNTEREXAMPLE_INI.replace("h = 0.0625", "h = inf"), COUNTEREXAMPLE),
    (COUNTEREXAMPLE_INI.replace("lo = -4,-4", "lo = -4,-inf"), COUNTEREXAMPLE),
    (COUNTEREXAMPLE_INI + "\n[grid]\nh = 0.125\n", COUNTEREXAMPLE),
    # the scheme stops at its rounding floor, so [ball] tol is no key any more:
    # any value of it, the old floor's rejects too, exits 2 as an unknown key
    (COUNTEREXAMPLE_INI + "\n[ball]\ntol = -1\n", COUNTEREXAMPLE),
    (COUNTEREXAMPLE_INI + "\n[solver]\ntol = 0\n", COUNTEREXAMPLE),
    (COUNTEREXAMPLE_INI + "\n[solver]\ndt = 0\n", COUNTEREXAMPLE),
    (COUNTEREXAMPLE_INI + "\n[solver]\nmax_steps = -5\n", COUNTEREXAMPLE),
    (COUNTEREXAMPLE_INI + "\n[experiment]\ntrials = -3\n", COUNTEREXAMPLE),
    (COUNTEREXAMPLE_INI + "\n[experiment]\nsweep_angles = -5\n", COUNTEREXAMPLE),
    (COUNTEREXAMPLE_INI + "\n[front]\ntol = -1\n", COUNTEREXAMPLE),
    (COUNTEREXAMPLE_INI.replace("family = annulus", "family = ball\ncenter = 0"),
     COUNTEREXAMPLE),
    (COUNTEREXAMPLE_INI.replace("r1 = 1.0", "r1 = 1.0\nradius = -1"), COUNTEREXAMPLE),
    (COUNTEREXAMPLE_INI.replace("r1 = 1.0", "r1 = 1.0\na = -1"), COUNTEREXAMPLE),
    (COUNTEREXAMPLE_INI.replace("r1 = 1.0", "r1 = 1.0\nmargin = -1"), COUNTEREXAMPLE),
    (MAXIMAL_INI.replace("center = 0,0", "center = 0"), ("maximal",)),
    # psi had one legal value and is no key any more: exit 2 as an unknown key
    (COUNTEREXAMPLE_INI.replace("family = annulus", "family = deformed\npsi = garbage"),
     ("solve",)),
    # without the pass_eps check this run completes and passes, certifying no epsilon
    (COUNTEREXAMPLE_INI + "\n[experiment]\nepsilons = 0.2\npass_eps = -1\n",
     ("experiment", "robustness")),
    # the robustness sweep builds K_eps and its problems from these keys too
    (COUNTEREXAMPLE_INI.replace("r1 = 1.0", "r1 = 1.0\nmargin = 7.5")
     + "\n[problem]\nclamp_width = 3.0\n[experiment]\nepsilons = 0.1\n",
     ("experiment", "robustness")),
    (COUNTEREXAMPLE_INI + "\n[problem]\nclamp_width = 3.0\n[experiment]\nepsilons = 0.1\n",
     ("experiment", "robustness")),
    # the extension is each solver's own choice, not a config key
    (MAXIMAL_INI.replace("amplitude = 3.0", "amplitude = 3.0\nextension = odd"),
     ("maximal",)),
    # the star family and its keys are gone: points is an unknown key
    (COUNTEREXAMPLE_INI.replace("family = annulus", "family = star\npoints = 0"),
     ("solve",)),
    (COUNTEREXAMPLE_INI.replace("family = annulus", "family = deformed\npsi_k = -1"),
     ("solve",)),
    (SOLVE_ONES_INI + "log_every = -3\n", ("solve",)),
    # solutions tend to 1 at infinity: the clamp value is no key any more
    (COUNTEREXAMPLE_INI + "\n[problem]\nfar_field = 1.0\n", COUNTEREXAMPLE),
    # the covering replay rotates about the origin of a 2-D grid
    (LIOUVILLE_SMALL_INI.replace("lo = -5,-5", "lo = -5").replace("hi = 5,5", "hi = 5")
     .replace("family = ball", "family = ball\ncenter = 0"),
     ("experiment", "liouville", "--mode", "sweep")),
    (MAXIMAL_INI + "tol = 1e-16\n", ("maximal",)),
    # no profile of this kind can be sampled
    (SOLVE_ONES_INI.replace("profile = quartic", "profile = custom"), ("front",)),
    # with no alphas the bounds suite passed without a single Hoelder row
    (LIOUVILLE_SMALL_INI.replace("alphas = 1.0", "alphas ="), ("verify", "bounds")),
    # a probe level 1 - delta outside (0, 1) is no level of u
    (LIOUVILLE_SMALL_INI + "probe_deltas = 2\n", ("verify", "bounds")),
    (LIOUVILLE_SMALL_INI + "probe_deltas = 0.1,-0.5\n", ("verify", "bounds")),
    # with no probe deltas the bounds suite passed without a single probe row
    (LIOUVILLE_SMALL_INI + "probe_deltas =\n", ("verify", "bounds")),
    # a negative bump would carve K_eps out of K; it used to run under solve
    (COUNTEREXAMPLE_INI.replace("family = annulus", "family = deformed\npsi_amp = -1"),
     ("solve",)),
    # the kernel table is sized before it is allocated, as a grid is
    (LIOUVILLE_SMALL_INI.replace("radius = 0.5", "radius = 1e6"), ("front",)),
    (LIOUVILLE_SMALL_INI.replace("radius = 0.5", "radius = 1e300"), ("solve",)),
    (LIOUVILLE_SMALL_INI.replace("radius = 0.5", "radius = 1e6"), ("experiment", "liouville")),
    # the deformed family checks its own epsilon, so solve rejects what robustness
    # does (the step budget only keeps the run short where it is not rejected)
    (COUNTEREXAMPLE_INI.replace("family = annulus", "family = deformed\nepsilon = 1.2\npsi_amp = 0.5")
     + "\n[solver]\nmax_steps = 5\n", ("solve",)),
    (COUNTEREXAMPLE_INI.replace("family = annulus", "family = deformed\nepsilon = -0.5")
     + "\n[solver]\nmax_steps = 5\n", ("solve",)),
    # a sweep level 1 - sweep_epsilon outside (0, 1) fails the replay or
    # passes it vacuously
    (COUNTEREXAMPLE_INI + "\n[experiment]\nsweep_epsilon = -0.5\n", COUNTEREXAMPLE),
    (COUNTEREXAMPLE_INI + "\n[experiment]\nsweep_epsilon = 5\n", COUNTEREXAMPLE),
    # only the Liouville experiment has a sweep mode
    (COUNTEREXAMPLE_INI, (*COUNTEREXAMPLE, "--mode", "sweep")),
    (LIOUVILLE_SMALL_INI + "epsilons = 0.1\n[solver]\nmax_steps = 5\n",
     ("experiment", "robustness", "--mode", "sweep")),
    (SWEEP_TOPHAT_INI, ("experiment", "liouville", "--mode", "sweep")),
], ids=["nan_radius", "inf_spacing", "inf_in_list", "duplicate_section",
        "negative_ball_tol", "zero_solver_tol", "zero_dt", "negative_max_steps",
        "negative_trials", "negative_sweep_angles", "negative_front_tol",
        "short_obstacle_center", "negative_obstacle_radius", "negative_ellipse_axis",
        "negative_margin", "short_ball_center", "garbage_psi", "negative_pass_eps",
        "robustness_margin", "robustness_clamp_width", "maximal_odd_extension",
        "zero_star_points", "negative_psi_k", "negative_log_every",
        "far_field_unknown_key", "sweep_mode_1d", "ball_tol_below_floor",
        "custom_profile", "empty_alphas",
        "probe_delta_above_one", "negative_probe_delta", "empty_probe_deltas", "negative_psi_amp",
        "huge_kernel_radius", "huge_kernel_radius_solve", "huge_kernel_radius_liouville",
        "deformed_epsilon_above_one", "negative_deformed_epsilon",
        "negative_sweep_epsilon", "sweep_epsilon_above_one",
        "counterexample_sweep_mode", "robustness_sweep_mode", "sweep_mode_tophat"])
def test_malformed_config_exits_two_without_traceback(tmp_path, bad, command):
    cfg = _cfg(tmp_path, bad)
    proc = subprocess.run(
        [sys.executable, "-m", "nlrd.cli", "--config", cfg,
         "--out", str(tmp_path / "o"), *command],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("precondition rejected:")
    assert proc.stderr.count("\n") == 1


def test_sweep_mode_refuses_kernel_without_delta0_before_evolving(tmp_path, monkeypatch,
                                                                   capsys):
    def evolve(*args, **kwargs):
        raise AssertionError("the evolution ran")

    monkeypatch.setattr(nlrd.verify, "evolve", evolve)
    cfg = _cfg(tmp_path, SWEEP_TOPHAT_INI)
    code = main(["--config", cfg, "--out", str(tmp_path / "o"),
                 "experiment", "liouville", "--mode", "sweep"])
    assert code == 2
    assert "W^{1,1}" in capsys.readouterr().err


def test_subsolution_on_tophat_gives_one_message_with_or_without_delta(tmp_path, capsys):
    ini = MAXIMAL_INI.replace("profile = quartic", "profile = tophat")
    errs = []
    for text in (ini, ini + "\n[subsolution]\ndelta = 0.05\n"):
        code = main(["--config", _cfg(tmp_path, text), "--out", str(tmp_path / "o"),
                     "subsolution"])
        assert code == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0].startswith("precondition rejected: delta0 undefined") and "W^{1,1}" in errs[0]


@pytest.mark.parametrize("ini", [
    MAXIMAL_INI.replace("profile = quartic", "profile = tophat"),
    MAXIMAL_INI + "\n[subsolution]\ndelta = -1\n",
], ids=["tophat", "negative_delta"])
def test_subsolution_checks_delta_before_solving_the_ball(tmp_path, monkeypatch, ini):
    def maximal_solution(*args, **kwargs):
        raise AssertionError("the ball was solved")

    monkeypatch.setattr(nlrd.cli, "maximal_solution", maximal_solution)
    assert main(["--config", _cfg(tmp_path, ini), "--out", str(tmp_path / "o"),
                 "subsolution"]) == 2


def test_subsolution_row_fails_on_a_negative_certificate(tmp_path, monkeypatch):
    # the certificate the nearest-cell projection read on the R = 15 ball
    real = nlrd.cli.build_subsolution
    monkeypatch.setattr(nlrd.cli, "build_subsolution", lambda *a, **kw: dataclasses.replace(
        real(*a, **kw), verify_min=-0.0788))
    out = tmp_path / "o"
    assert main(["--config", _cfg(tmp_path, MAXIMAL_INI), "--out", str(out),
                 "subsolution"]) == 1
    with open(out / "subsolution.checks.csv") as fh:
        rows = {r["name"]: r for r in csv.DictReader(fh)}
    assert rows["certificate_min"]["verdict"] == "fail"


def test_negative_seed_exits_two_without_traceback(tmp_path):
    # np.random.default_rng rejects a negative seed with a ValueError
    proc = subprocess.run(
        [sys.executable, "-m", "nlrd.cli", "--config", _cfg(tmp_path, COUNTEREXAMPLE_INI),
         "--out", str(tmp_path / "o"), "--seed", "-1", "verify", "comparison"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("precondition rejected:") and "--seed" in proc.stderr
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("where", ["file", "below_file", "empty"])
def test_out_naming_a_file_exits_two_without_traceback(tmp_path, where):
    taken = tmp_path / "taken"
    taken.write_text("")
    out = {"file": taken, "below_file": taken / "o", "empty": ""}[where]
    proc = subprocess.run(
        [sys.executable, "-m", "nlrd.cli", "--config", _cfg(tmp_path, COUNTEREXAMPLE_INI),
         "--out", str(out), *COUNTEREXAMPLE],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("precondition rejected:") and str(out) in proc.stderr
    assert proc.stderr.count("\n") == 1


def test_liouville_honours_probe_deltas(tmp_path):
    cfg = _cfg(tmp_path, LIOUVILLE_SMALL_INI + "probe_deltas = 0.2\n")
    out = tmp_path / "out"
    main(["--config", cfg, "--out", str(out), "experiment", "liouville"])
    names = {c["name"] for c in json.loads((out / "liouville.report.json").read_text())["checks"]}
    assert "uniform_bound_delta_0.2" in names
    assert not any(n.startswith("uniform_bound_delta_0.1") for n in names)


def test_readme_example_config_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Example config", 1)[1]
    block = section.split("```ini\n", 1)[1].split("```", 1)[0]
    p = build_problem(load_config(_cfg(tmp_path, block)))
    assert p.obstacle.family == "ball"


def test_perfbench_tracer_runs_liouville(tmp_path):
    # the tracer wraps package functions and methods by name: deleting or
    # renaming one of them breaks the benchmark, and this run with it
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p))
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "trace_child.py"), str(spans), "--",
         "--config", _cfg(tmp_path, LIOUVILLE_SMALL_INI), "--out", str(tmp_path / "o"),
         "experiment", "liouville"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(spans.read_text())["spans"]


def test_perfbench_tracer_finds_every_name_it_wraps():
    # install() looks up every traced function and method by name, and the
    # tracer's counts read these result fields; it patches the package, so
    # it runs in a child process
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(root / "src"), str(root / "perfbench"), os.environ.get("PYTHONPATH"))
        if p))
    proc = subprocess.run(
        [sys.executable, "-c", "import trace_child; trace_child.install(trace_child.Tracer())"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "exact" in {f.name for f in dataclasses.fields(nlrd.grid.HolderEstimate)}
    assert "iterations" in {f.name for f in dataclasses.fields(nlrd.solver.MaximalSolution)}


def test_tiny_spacing_exits_two_before_allocating(tmp_path, capsys):
    cfg = _cfg(tmp_path, LIOUVILLE_SMALL_INI.replace("h = 0.125", f"h = {2.0**-20!r}"))
    tracemalloc.start()
    try:
        code = main(["--config", cfg, "--out", str(tmp_path / "o"), "solve"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 1 << 20  # a field of this grid would take 800 TiB
    err = capsys.readouterr().err
    assert err.startswith("precondition rejected:") and "exceeds MAX_CELLS" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", [
    ("experiment", "liouville"), ("experiment", "robustness"), ("verify", "bounds"),
])
def test_configured_dt_reaches_evolve(tmp_path, monkeypatch, command):
    cfg = _cfg(tmp_path, LIOUVILLE_SMALL_INI.replace(
        "alphas = 1.0", "alphas = 1.0\nepsilons = 0.1") + "\n[solver]\ndt = 0.05\n")
    real = nlrd.cli.evolve
    seen = []

    def spy(p, u0, dt=None, **kw):
        seen.append((dt, p.conv_path))
        return real(p, u0, dt=dt, **kw)

    for mod in (nlrd.cli, nlrd.verify):
        monkeypatch.setattr(mod, "evolve", spy)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--conv", "direct", *command]) == 0
    assert seen and all(s == (0.05, "direct") for s in seen)
    if command[1] == "liouville":
        rep = json.loads((out / "liouville.report.json").read_text())
        assert rep["meta"]["dt"] == 0.05


def test_robustness_writes_progress_per_epsilon(tmp_path):
    cfg = _cfg(tmp_path, LIOUVILLE_SMALL_INI.replace(
        "alphas = 1.0", "alphas = 1.0\nepsilons = 0.2,0.1") + "\n[solver]\nlog_every = 50\n")
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "experiment", "robustness"]) == 0
    assert sorted(p.name for p in out.glob("progress*.csv")) == [
        "progress_eps_0.1.csv", "progress_eps_0.2.csv"]
    for eps in ("0.1", "0.2"):
        rows = (out / f"progress_eps_{eps}.csv").read_text().split("\n")
        assert rows[0] == "step,residual_sup,min_u,max_u"
        assert rows[1].startswith("0,")
        assert rows[2].startswith("50,")


def test_zero_log_every_logs_only_the_final_row(tmp_path):
    cfg = _cfg(tmp_path, LIOUVILLE_SMALL_INI + "\n[solver]\nlog_every = 0\nmax_steps = 3\n")
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "solve"]) == 1  # budget, not tolerance
    rows = (out / "progress.csv").read_text().strip().split("\n")
    assert len(rows) == 2 and rows[1].startswith("3,")


def test_with_timing_records_wall_time(tmp_path):
    cfg = _cfg(tmp_path, COUNTEREXAMPLE_INI)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--with-timing",
                 "experiment", "counterexample"]) == 0
    report = json.loads((out / "counterexample.report.json").read_text())
    assert report["wall_time_s"] > 0
    assert main(["--config", cfg, "--out", str(out), "experiment", "counterexample"]) == 0
    report = json.loads((out / "counterexample.report.json").read_text())
    assert "wall_time_s" not in report


# kernels whose taps bridge the annulus: no cell is cut off from the clamp
# band, so there is no 0/1 state to check or to start from
BRIDGED = {"tophat_1.2": COUNTEREXAMPLE_INI.replace("radius = 0.5", "radius = 1.2"),
           "r2_1.3": COUNTEREXAMPLE_INI.replace("r2 = 2.0", "r2 = 1.3")}


def _bridged_exits_two(tmp_path, capsys, ini, command):
    cfg = _cfg(tmp_path, ini + "\n[solver]\nu0 = counterexample\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), *command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("precondition rejected: ") and "every domain cell" in err
    assert err.count("\n") == 1


def test_wide_kernel_precondition_exits_two(tmp_path, capsys):
    _bridged_exits_two(tmp_path, capsys, BRIDGED["tophat_1.2"], COUNTEREXAMPLE)


@pytest.mark.parametrize("bridged,command", [
    ("r2_1.3", COUNTEREXAMPLE), ("tophat_1.2", ("solve",)), ("r2_1.3", ("solve",)),
])
def test_bridged_annulus_exits_two(tmp_path, capsys, bridged, command):
    _bridged_exits_two(tmp_path, capsys, BRIDGED[bridged], command)


def test_counterexample_past_half_radius_is_exact(tmp_path):
    # a kernel radius above 1/2 still leaves the hole cut off from the clamp
    # band, and the residual is exactly 0 on the direct path
    cfg = _cfg(tmp_path, COUNTEREXAMPLE_INI.replace("radius = 0.5", "radius = 0.6"))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--conv", "direct",
                 "experiment", "counterexample"]) == 0
    report = json.loads((out / "counterexample.report.json").read_text())
    assert {c["name"]: c["measured"] for c in report["checks"]}["residual_sup"] == 0.0
    assert report["meta"]["unreached_cells"] == 812


TINY_INI = LIOUVILLE_SMALL_INI + "epsilons = 0.1\ntrials = 6\n"


RERUN_FORMS = [
    ("solve", TINY_INI, ("solve",), {"field.csv", "progress.csv", "kernel.csv"}),
    ("maximal", MAXIMAL_INI, ("maximal",), {"maximal.csv", "iterations.csv"}),
    ("front", TINY_INI, ("front",), {"front.csv"}),
    ("subsolution", MAXIMAL_INI, ("subsolution",), {"subsolution.csv"}),
    ("verify_comparison", TINY_INI, ("verify", "comparison"), set()),
    ("verify_bounds", TINY_INI, ("verify", "bounds"), set()),
    ("counterexample", COUNTEREXAMPLE_INI, ("experiment", "counterexample"), set()),
    ("liouville", TINY_INI, ("experiment", "liouville"), {"field.csv", "progress.csv"}),
    ("robustness", TINY_INI, ("experiment", "robustness"),
     {"field_eps_0.1.csv", "progress_eps_0.1.csv"}),
]


@pytest.mark.parametrize("stem,ini,command,files", RERUN_FORMS,
                         ids=[form[0] for form in RERUN_FORMS])
def test_rerun_is_byte_identical(tmp_path, stem, ini, command, files):
    """Each command writes exactly its report, its checks and its own
    files, the same bytes on every run, on either convolution path. Each
    verdict in its checks follows from its row; an "info" row that has a
    relation is one recorded but not asserted."""
    cfg = _cfg(tmp_path, ini)
    for conv in ("direct", "fast"):
        outs = [tmp_path / conv / "out0", tmp_path / conv / "out1"]
        for out in outs:
            assert main(["--config", cfg, "--out", str(out), "--conv", conv, "--seed", "3",
                         *command]) == 0
        names = {p.name for p in outs[0].iterdir()}
        assert names == files | {f"{stem}.report.json", f"{stem}.checks.csv"}
        assert {p.name for p in outs[1].iterdir()} == names
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        with open(outs[0] / f"{stem}.checks.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["name", "measured", "relation", "bound", "tolerance", "verdict",
                          "note"]
        assert rows
        for row in rows:
            assert row[5] == oracles.row_verdict(row) or (row[5] == "info" and row[2]), row


def test_console_entry_point(tmp_path):
    cfg = _cfg(tmp_path, COUNTEREXAMPLE_INI)
    proc = subprocess.run(
        [sys.executable, "-m", "nlrd.cli", "--config", cfg,
         "--out", str(tmp_path / "o"), "experiment", "counterexample"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


def test_front_command(tmp_path):
    cfg = _cfg(tmp_path, SOLVE_ONES_INI)
    out = tmp_path / "out"
    code = main(["--config", cfg, "--out", str(out), "front"])
    assert code == 0
    lines = (out / "front.csv").read_text().strip().split("\n")
    assert lines[0] == "x,phi"
    assert len(lines) > 1000


def test_maximal_and_subsolution_commands(tmp_path):
    cfg = _cfg(tmp_path, MAXIMAL_INI)
    out = tmp_path / "out"
    code = main(["--config", cfg, "--out", str(out), "maximal"])
    assert code == 0
    logs = (out / "iterations.csv").read_text().strip().split("\n")
    assert logs[0] == "iteration,decrease,worst_rise"
    assert len(logs) > 2
    rep = json.loads((out / "maximal.report.json").read_text())
    shift = next(c for c in rep["checks"] if c["name"] == "resolvent_shift")
    # -min f' = 2.25 for theta = 0.25, amplitude 3: already a quarter multiple
    assert shift["passed"] is None and shift["measured"] == 2.25
    again = tmp_path / "again"
    assert main(["--config", cfg, "--out", str(again), "maximal"]) == 0
    for name in ("maximal.report.json", "maximal.checks.csv", "maximal.csv", "iterations.csv"):
        assert (out / name).read_bytes() == (again / name).read_bytes(), name
    code = main(["--config", cfg, "--out", str(out), "subsolution"])
    assert code == 0
    rep = json.loads((out / "subsolution.report.json").read_text())
    assert rep["passed"] is True


def test_verify_comparison_command(tmp_path):
    ini = """
[grid]
lo = -3,-3
hi = 3,3
h = 0.0625

[kernel]
profile = quartic
radius = 0.5

[obstacle]
family = ball
radius = 0.5

[experiment]
trials = 6
"""
    cfg = _cfg(tmp_path, ini)
    out = tmp_path / "out"
    code = main(["--config", cfg, "--out", str(out), "verify", "comparison"])
    assert code == 0
    rep = json.loads((out / "verify_comparison.report.json").read_text())
    assert rep["passed"] is True
    assert rep["meta"]["seed"] == 0


def test_solve_emits_kernel_table(tmp_path):
    cfg = _cfg(tmp_path, SOLVE_ONES_INI)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--conv", "both", "solve"]) == 0
    lines = (out / "kernel.csv").read_text().strip().split("\n")
    assert lines[0] == "d0,d1,weight"
    assert len(lines) == 1 + 17 * 17
