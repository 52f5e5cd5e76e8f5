"""INI-style configuration: strict schema, typed parsing, full echo.

Unknown sections or keys are rejected (exit code 2 from the CLI), and
every run embeds the fully resolved configuration (defaults filled) into
its report so artifacts are reproducible from the echo alone.
"""

from __future__ import annotations

import configparser
import math

from .errors import PreconditionError
from .grid import Grid, make_grid
from .kernels import Kernel, KernelProfile, build_kernel
from .nonlinearity import make_bistable
from .obstacles import Obstacle, build_obstacle
from .operators import Problem

__all__ = ["load_config", "resolve", "build_problem", "build_pieces"]


def _float(s: str) -> float:
    v = float(s)
    if not math.isfinite(v):
        raise ValueError("value must be finite")
    return v


def _floats(s: str):
    return tuple(_float(v) for v in s.split(",") if v.strip() != "")


def _vertices(s: str):
    out = []
    for part in s.split(";"):
        xy = _floats(part)
        if len(xy) != 2:
            raise PreconditionError(f"vertex {part!r} is not an x,y pair")
        out.append(xy)
    return tuple(out)


def _float_or_auto(s: str):
    return None if s.strip() == "auto" else _float(s)


def _checked(parse, ok, message: str):
    """``parse``, then reject a value for which ``ok`` is false."""

    def checked(s: str):
        v = parse(s)
        if not ok(v):
            raise ValueError(message)
        return v

    return checked


def _positive(parse):
    """``parse``, then reject values <= 0 (``auto``/None passes through)."""
    return _checked(parse, lambda v: v is None or v > 0, "value must be positive")


def _nonnegative(parse):
    return _checked(parse, lambda v: v >= 0, "value must be non-negative")


def _nonempty(parse):
    return _checked(parse, lambda v: len(v) > 0, "list must not be empty")


_SCHEMA: dict = {
    "grid": {
        "lo": (_floats, "-8,-8"),
        "hi": (_floats, "8,8"),
        "h": (_float, "0.0625"),
    },
    "kernel": {
        "profile": (str, "quartic"),
        "radius": (_float, "0.5"),
        "inner_radius": (_float, "0.25"),
    },
    "f": {
        "theta": (_float, "0.3"),
        "amplitude": (_float, "1.0"),
    },
    "obstacle": {
        "family": (str, "ball"),
        "center": (_floats, "0,0"),
        "radius": (_positive(_float), "1.0"),
        "a": (_positive(_float), "2.0"),
        "b": (_positive(_float), "0.8"),
        "vertices": (_vertices, "-1,-1;1,-1;1,1;-1,1"),
        "r1": (_float, "1.0"),
        "r2": (_float, "2.0"),
        "epsilon": (_float, "0.1"),
        "psi_k": (_positive(int), "6"),
        "psi_amp": (_float, "1.0"),
        "margin": (_nonnegative(_float), "1.5"),
    },
    "problem": {
        "clamp_width": (_float_or_auto, "auto"),
    },
    "solver": {
        "dt": (_positive(_float_or_auto), "auto"),
        "tol": (_positive(_float), "1e-8"),
        "max_steps": (_positive(int), "200000"),
        "log_every": (_nonnegative(int), "1000"),
        "u0": (str, "hostile"),
    },
    "ball": {
        "center": (_floats, "0,0"),
        "radius": (_float, "15.0"),
    },
    "subsolution": {
        "delta": (_float_or_auto, "auto"),
    },
    "front": {
        "line_length": (_float_or_auto, "auto"),
        "tol": (_positive(_float), "1e-12"),
    },
    "experiment": {
        "alphas": (_nonempty(_floats), "0.5,1.0"),
        "epsilons": (_floats, "1,0.5,0.2,0.1,0.05"),
        "pass_eps": (_float, "0.1"),
        "trials": (_positive(int), "100"),
        "probe_deltas": (_checked(_nonempty(_floats), lambda v: all(0 < d < 1 for d in v),
                                  "entries must lie in (0, 1)"), "0.1,0.01"),
        "sweep_epsilon": (_checked(_float, lambda v: 0 < v < 1, "value must lie in (0, 1)"),
                          "0.25"),
        "sweep_ball_radius": (_float_or_auto, "auto"),
        "sweep_angles": (_positive(int), "16"),
    },
}


def load_config(path: str | None) -> dict:
    """Parse and validate an INI file against the schema; fill defaults.

    Malformed INI syntax (a duplicate section, say), non-finite numbers,
    non-positive solver tolerances, steps, step budgets, trial counts,
    obstacle radii and psi frequencies, a negative obstacle margin or
    solver log interval, an empty ``alphas`` or ``probe_deltas`` list, and
    a probe delta or ``sweep_epsilon`` outside (0, 1) are rejected as
    preconditions, like unknown keys."""
    try:
        return _load(path)
    except configparser.Error as exc:
        raise PreconditionError(" ".join(str(exc).split())) from None


def _load(path: str | None) -> dict:
    cp = configparser.ConfigParser()
    if path is not None:
        read = cp.read(path)
        if not read:
            raise PreconditionError(f"config file {path!r} not readable")
    for section in cp.sections():
        if section not in _SCHEMA:
            raise PreconditionError(f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in _SCHEMA[section]:
                raise PreconditionError(f"unknown config key [{section}] {key}")
    out: dict = {}
    for section, keys in _SCHEMA.items():
        out[section] = {}
        for key, (parse, default) in keys.items():
            raw = cp.get(section, key, fallback=default)
            try:
                out[section][key] = parse(raw)
            except PreconditionError:
                raise
            except Exception as exc:
                raise PreconditionError(f"bad value [{section}] {key} = {raw!r}: {exc}")
    return out


def resolve(cfg: dict) -> dict:
    """Deterministic string echo of the resolved configuration."""
    echo: dict = {}
    for section in sorted(cfg):
        echo[section] = {}
        for key in sorted(cfg[section]):
            v = cfg[section][key]
            if isinstance(v, tuple):
                echo[section][key] = ";".join(
                    ",".join(f"{x!r}" for x in item) if isinstance(item, tuple) else f"{item!r}"
                    for item in v
                )
            else:
                echo[section][key] = repr(v)
    return echo


def build_grid(cfg: dict) -> Grid:
    g = cfg["grid"]
    return make_grid(g["lo"], g["hi"], g["h"])


def build_kernel_cfg(cfg: dict, grid: Grid) -> Kernel:
    k = cfg["kernel"]
    prof = KernelProfile(
        kind=k["profile"], radius=k["radius"],
        inner_radius=k["inner_radius"] if k["profile"] == "ring" else 0.0,
    )
    return build_kernel(prof, grid)


def build_obstacle_cfg(cfg: dict, grid: Grid) -> Obstacle:
    o = cfg["obstacle"]
    return build_obstacle(o["family"], o, grid, margin=o["margin"])


def build_problem(cfg: dict, conv_path: str = "fast") -> Problem:
    grid, kernel, f = build_pieces(cfg)
    return Problem(
        kernel,
        build_obstacle_cfg(cfg, grid),
        f,
        clamp_width=cfg["problem"]["clamp_width"],
        conv_path=conv_path,
    )


def build_pieces(cfg: dict):
    """Grid, kernel, bistable: shared prologue of most commands."""
    grid = build_grid(cfg)
    kernel = build_kernel_cfg(cfg, grid)
    return grid, kernel, make_bistable(cfg["f"]["theta"], cfg["f"]["amplitude"])
