"""Reproducible experiment runner.

Each experiment writes one data file (CSV or JSON) plus a sidecar manifest
``<out>.manifest.json`` echoing the resolved configuration, the library
version and the wall time. Data files are byte-identical across reruns
with the same seed; the manifest is the only place timing lives.

Two tables drive the configuration: ``KEYS`` gives each key its parser,
bound and help text, and ``EXPERIMENTS`` gives each experiment its runner and
the keys it reads, with their defaults. An experiment accepts ``format``,
``out`` and its own keys; any other flag or config-file key is refused.
Configuration is flat ``key = value`` text; command-line flags override file
values and go through the same parsers. Grid-valued keys accept comma lists
(``1,2,5``), inclusive integer ranges (``2..8``) and ``linspace(a,b,n)``; a
grid that starts with a negative value must be joined to its flag
(``--d=-1,0.5``), or argparse reads it as an option.

Exit codes: 0 success, 2 unknown experiment or command-line usage error
(argparse), 3 invalid configuration (a malformed or out-of-bounds value, a
non-finite value, a missing required key, or a key the experiment does
not read), 4 unwritable output path, 5 numerical failure (a Lyapunov residual
over its limit, the state sampler out of attempts, a state that fails the
bona-fide check, a numpy linear-algebra failure, or a floating-point overflow
or non-finite result, as from variances too large to square). Data file and manifest
are each written to a temp file and renamed into place.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .analysis import (
    NetworkPoint,
    block_logneg_formula,
    gle_formula,
    network_cluster_cm,
    pairwise_logneg_formula,
    pairwise_logneg_numeric,
    swap_logneg_two,
)
from .gaussian import PhysicalityError
from .optomech import detuning_sweep, standard_params
from .relay import bell_detect, build_relay, cluster_closed_form, diff_x_variance, sum_p_variance
from .sources import (
    frontier_closed_form,
    max_swap_logneg_at_asymmetry,
    sample_normal_form,
    tmsv,
)

EXIT_OK = 0
EXIT_UNKNOWN_EXPERIMENT = 2
EXIT_BAD_CONFIG = 3
EXIT_UNWRITABLE = 4
EXIT_NUMERICAL = 5

_FLOAT_FMT = "{:.12g}"


class ConfigError(ValueError):
    pass


# --- grid / config parsing ------------------------------------------------


def _require_finite(values, text):
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"grid values must be finite, got {text!r}")
    return values


def parse_grid(text):
    """Parse a grid spec: comma list, integer range a..b, or linspace(a,b,n).

    Every value must be finite: ``nan`` and ``inf`` are refused.
    """
    text = str(text).strip()
    if not text:
        raise ConfigError("empty grid")
    if text.startswith("linspace(") and text.endswith(")"):
        inner = text[len("linspace(") : -1].split(",")
        if len(inner) != 3:
            raise ConfigError(f"bad linspace spec: {text!r}")
        try:
            a, b, n = float(inner[0]), float(inner[1]), int(inner[2])
        except ValueError as exc:
            raise ConfigError(f"bad linspace spec: {text!r}") from exc
        if n < 1:
            raise ConfigError("linspace needs at least one point")
        # the endpoints first, so numpy never sees them; then the points,
        # which overflow when b - a does
        _require_finite([a, b], text)
        return _require_finite([float(v) for v in np.linspace(a, b, n)], text)
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            lo, hi = int(lo), int(hi)
        except ValueError as exc:
            raise ConfigError(f"bad range spec: {text!r}") from exc
        if hi < lo:
            raise ConfigError(f"empty range: {text!r}")
        return [float(v) for v in range(lo, hi + 1)]
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad grid value in {text!r}") from exc
    if not values:
        raise ConfigError("empty grid")
    return _require_finite(values, text)


def parse_int_grid(text):
    values = parse_grid(text)
    out = []
    for v in values:
        if v != int(v):
            raise ConfigError(f"expected integers, got {v}")
        out.append(int(v))
    return out


def read_config_file(path):
    """Flat key = value text; '#' starts a comment; later keys win."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, _, value = line.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


# --- output ----------------------------------------------------------------


def _format_cell(value):
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _FLOAT_FMT.format(float(value))
    return str(value)


def _write_atomic(path, payload):
    """Write ``payload`` to ``path`` through a temp file in the same directory.

    The temp file is renamed over ``path`` only once it is complete, so a
    failed write leaves any previous file as it was, and no temp file stays.
    """
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_table(path, fmt, columns, rows):
    if fmt == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(_format_cell(v) for v in row) for row in rows)
        payload = "\n".join(lines) + "\n"
    else:
        # floats go through the same 12-digit formatter as the CSV path, so
        # the two formats carry identical values; strict JSON has no NaN or
        # infinity, so a non-finite value (an unstable point) is written null
        clean = [
            [
                (float(_FLOAT_FMT.format(float(v))) if math.isfinite(v) else None)
                if isinstance(v, (float, np.floating))
                else int(v)
                for v in row
            ]
            for row in rows
        ]
        table = {"columns": list(columns), "rows": clean}
        payload = json.dumps(table, indent=1, allow_nan=False) + "\n"
    _write_atomic(path, payload)


def write_manifest(path, manifest):
    _write_atomic(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# --- experiment runners -----------------------------------------------------

# Each runner takes the resolved config dict and returns (columns, rows,
# summary line or None).


def _run_swap_check(cfg):
    rng = np.random.default_rng(cfg["seed"])
    n_list = list(range(2, cfg["n_max"] + 1))
    rows = []
    worst = 0.0
    for sample in range(cfg["samples"]):
        nf = sample_normal_form(rng, cfg["x_max"])
        state = nf.state()
        for n in n_list:
            closed = cluster_closed_form(nf.x, nf.y, nf.z, n).assemble()
            piped, _ = bell_detect([state] * n, build_relay(n))
            err = float(np.max(np.abs(closed - piped.cov)))
            worst = max(worst, err)
            rows.append((sample, n, nf.x, nf.y, nf.z, err))
    columns = ("sample", "n", "x", "y", "z", "max_abs_error")
    summary = (
        f"swap-check: max |closed form - pipeline| = {worst:.3e} "
        f"over {cfg['samples']} states, N in 2..{cfg['n_max']}"
    )
    return columns, rows, summary


def _run_fig2a(cfg):
    rng = np.random.default_rng(cfg["seed"])
    rows = []
    for _ in range(cfg["samples"]):
        nf = sample_normal_form(rng, cfg["x_max"])
        e_in = nf.log_negativity()
        e_out = swap_logneg_two(nf.x, nf.y, nf.z)
        rows.append((cfg["seed"], nf.x, nf.y, nf.z, nf.d, e_in, e_out))
    columns = ("seed", "x", "y", "z", "d", "e_in", "e_out")
    return columns, rows, f"fig2a: {len(rows)} samples at x_max = {cfg['x_max']:g}"


def _run_fig2b(cfg):
    x_max = cfg["x_max"]
    rows = [
        (d, max_swap_logneg_at_asymmetry(d, x_max), frontier_closed_form(d, x_max))
        for d in cfg["d"]
    ]
    columns = ("d", "e_max", "e_max_closed_form")
    return columns, rows, f"fig2b: frontier on {len(rows)} asymmetry points"


def _run_network_sweep(cfg):
    rows = []
    for mu, eta, omega, n in itertools.product(cfg["mu"], cfg["eta"], cfg["omega"], cfg["n"]):
        pt = NetworkPoint(mu, eta, omega, n)
        rows.append(
            (
                mu,
                eta,
                omega,
                n,
                pairwise_logneg_formula(pt),
                pairwise_logneg_numeric(network_cluster_cm(pt)),
                gle_formula(pt),
                block_logneg_formula(pt, n // 2),
            )
        )
    columns = ("mu", "eta", "omega", "n", "e_formula", "e_numeric", "gle", "block")
    return columns, rows, f"network-sweep: {len(rows)} grid points"


def _optomech_params(cfg, g_mhz):
    """The standard optomechanical parameters at coupling ``g_mhz`` (ordinary MHz) under ``cfg``."""
    return standard_params(
        g_eff=2 * np.pi * g_mhz * 1e6,
        kappa_convention=cfg["kappa_convention"],
        temp=cfg["temp_mk"] * 1e-3,
    )


def _run_fig2c(cfg):
    rows = []
    for g_mhz in cfg["g_eff_mhz"]:
        base = _optomech_params(cfg, g_mhz)
        deltas = [r * base.omega_m for r in cfg["delta_over_omega_m"]]
        for row in detuning_sweep(base, deltas, n_users=(2,)):
            rows.append((g_mhz,) + row)
    columns = ("g_eff_mhz", "delta_over_omega_m", "n", "e_in_optomech", "e_mech_pairwise", "stable")
    return columns, rows, f"fig2c: {len(rows)} sweep points"


def _run_fig2d(cfg):
    if len(cfg["g_eff_mhz"]) != 1:
        raise ConfigError(f"fig2d takes one g_eff_mhz value, got {cfg['g_eff_mhz']}")
    (g_mhz,) = cfg["g_eff_mhz"]
    base = _optomech_params(cfg, g_mhz)
    deltas = [r * base.omega_m for r in cfg["delta_over_omega_m"]]
    sweep = detuning_sweep(base, deltas, n_users=cfg["n"])
    rows = []
    for n in cfg["n"]:
        best = (float("-inf"), float("nan"), float("nan"))
        for d_ratio, n_row, e_in, e_pair, stable in sweep:
            if n_row == n and stable and not np.isnan(e_pair) and e_pair > best[0]:
                best = (e_pair, d_ratio, e_in)
        e_max = best[0] if best[0] > float("-inf") else float("nan")
        rows.append((n, e_max, best[1], best[2]))
    columns = ("n", "e_mech_max", "delta_over_omega_m_at_max", "e_in_at_max")
    return columns, rows, f"fig2d: max-over-detuning swap output for N in {cfg['n']}"


def _run_ghz_limit(cfg):
    rows = []
    for mu in cfg["mu"]:
        nf = tmsv(mu)
        for n in cfg["n"]:
            cm = cluster_closed_form(nf.x, nf.y, nf.z, n).assemble()
            var_sum = sum_p_variance(cm)
            var_diff = diff_x_variance(cm, 0, 1)
            rows.append(
                (
                    mu,
                    n,
                    var_sum,
                    var_diff,
                    abs(var_sum - n / mu),
                    abs(var_diff - 2.0 / mu),
                )
            )
    columns = ("mu", "n", "var_sum_p", "var_diff_x", "dev_sum_p", "dev_diff_x")
    return columns, rows, f"ghz-limit: {len(rows)} (mu, N) points"


# --- configuration tables ----------------------------------------------------


def _as_int(value):
    try:
        return int(str(value))
    except ValueError as exc:
        raise ConfigError(f"must be an integer, got {value!r}") from exc


def _as_float(value):
    try:
        number = float(str(value))
    except ValueError as exc:
        raise ConfigError(f"must be a number, got {value!r}") from exc
    if not math.isfinite(number):
        raise ConfigError(f"must be finite, got {value!r}")
    return number


#: key -> (parser, bound, help). A bound is (test, text): every parsed value
#: (each point of a grid) must pass the test.
KEYS = {
    "format": (str, (lambda v: v in ("csv", "json"), "csv or json"), "csv or json (default csv)"),
    "seed": (_as_int, (lambda v: v >= 0, ">= 0"), "RNG seed"),
    "samples": (_as_int, (lambda v: v >= 1, ">= 1"), "number of sampled states"),
    "n_max": (_as_int, (lambda v: v >= 2, ">= 2"), "largest relay size"),
    "x_max": (_as_float, (lambda v: v > 1, "> 1"), "sampler cap on normal-form variances"),
    "mu": (parse_grid, (lambda v: v >= 1, ">= 1"), "grid of TMSV variances"),
    "eta": (parse_grid, (lambda v: 0 < v <= 1, "in (0, 1]"), "grid of channel transmissivities"),
    "omega": (parse_grid, (lambda v: v >= 1, ">= 1"), "grid of channel thermal variances"),
    "n": (parse_int_grid, (lambda v: v >= 2, ">= 2"), "grid of user counts, e.g. 2..8"),
    "d": (parse_grid, None, "grid of asymmetry values"),
    "delta_over_omega_m": (parse_grid, None, "detuning grid in units of the mechanical frequency"),
    "g_eff_mhz": (parse_grid, (lambda v: v >= 0, ">= 0"), "effective coupling(s), ordinary MHz"),
    "temp_mk": (_as_float, (lambda v: v >= 0, ">= 0"), "bath temperature in millikelvin"),
    "kappa_convention": (
        str,
        (lambda v: v in ("angular", "ordinary"), "angular or ordinary"),
        "read the quoted cavity linewidth as 'angular' (rad/s) or 'ordinary' (Hz)",
    ),
}

_OPTOMECH = {
    "delta_over_omega_m": "linspace(0,1.5,31)",
    "temp_mk": "0.4",
    "kappa_convention": "angular",
}

#: name -> (runner, {key it reads: default}); a None default marks a required key.
EXPERIMENTS = {
    "swap-check": (_run_swap_check, {"seed": None, "samples": "200", "n_max": "8", "x_max": "10"}),
    "fig2a": (_run_fig2a, {"seed": None, "samples": "10000", "x_max": "10"}),
    "fig2b": (_run_fig2b, {"d": "linspace(-1.5,1.5,31)", "x_max": "10"}),
    "network-sweep": (_run_network_sweep, {"mu": "5", "eta": "0.9", "omega": "1", "n": "2..8"}),
    "fig2c": (_run_fig2c, {"g_eff_mhz": "4,8,8.5", **_OPTOMECH}),
    "fig2d": (_run_fig2d, {"g_eff_mhz": "8", "n": "2..5", **_OPTOMECH}),
    "ghz-limit": (_run_ghz_limit, {"mu": "2,10,100", "n": "2..8"}),
}


def resolve_config(experiment, args, file_values):
    """Merge flags over file values over the experiment's defaults into one checked dict.

    Only ``format``, ``out`` and the experiment's own keys are accepted.
    """
    _, defaults = EXPERIMENTS[experiment]
    keys = {"format": "csv", **defaults}
    given = dict(file_values)
    for key in ("out", *KEYS):
        if getattr(args, key, None) is not None:
            given[key] = getattr(args, key)
    unread = sorted(set(given) - set(keys) - {"out"})
    if unread:
        raise ConfigError(
            f"{experiment} does not read {', '.join(map(repr, unread))}; "
            f"its keys are format, out, {', '.join(defaults)}"
        )

    cfg = {}
    for key, default in keys.items():
        raw = given.get(key, default)
        if raw is None:
            raise ConfigError(f"{experiment} requires {key}")
        parse, bound, _ = KEYS[key]
        try:
            value = parse(raw)
        except ConfigError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
        if bound and not all(map(bound[0], value if isinstance(value, list) else [value])):
            raise ConfigError(f"{key}: must be {bound[1]}, got {raw!r}")
        cfg[key] = value
    cfg["out"] = str(given.get("out", f"{experiment}.{cfg['format']}"))
    return cfg


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cvswap",
        description="Entanglement-swapping network experiments (data emitters, no plotting).",
    )
    parser.add_argument("experiment", help="one of: " + ", ".join(sorted(EXPERIMENTS)))
    parser.add_argument("--config", help="flat key=value config file; flags override it")
    parser.add_argument("--out", help="output data file (default <experiment>.<format>)")
    for key, (_, _, help_text) in KEYS.items():
        parser.add_argument("--" + key.replace("_", "-"), help=help_text)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.experiment not in EXPERIMENTS:
        print(
            f"error: unknown experiment {args.experiment!r}; choose from "
            + ", ".join(sorted(EXPERIMENTS)),
            file=sys.stderr,
        )
        return EXIT_UNKNOWN_EXPERIMENT

    try:
        file_values = read_config_file(args.config) if args.config else {}
        cfg = resolve_config(args.experiment, args, file_values)
        runner, _ = EXPERIMENTS[args.experiment]
        started = time.perf_counter()
        columns, rows, summary = runner(cfg)
    # PhysicalityError and LinAlgError are ValueErrors too, so they go first
    except (RuntimeError, ArithmeticError, PhysicalityError, np.linalg.LinAlgError) as exc:
        print(f"error: numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    wall = time.perf_counter() - started

    manifest = {
        "experiment": args.experiment,
        "version": __version__,
        "config": cfg,
        "rows": len(rows),
        "wall_time_s": wall,
    }
    try:
        write_table(cfg["out"], cfg["format"], columns, rows)
        write_manifest(cfg["out"] + ".manifest.json", manifest)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE

    if summary:
        print(summary)
    print(f"wrote {cfg['out']} ({len(rows)} rows)")
    return EXIT_OK


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
