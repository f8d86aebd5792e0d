"""Reproducible experiment runner.

Each experiment writes one data file (CSV or JSON) plus a sidecar manifest
``<out>.manifest.json`` echoing the resolved configuration, the library
version and the wall time. Data files are byte-identical across reruns
with the same seed; the manifest is the only place timing lives.

Configuration is flat ``key = value`` text; command-line flags override
file values. Grid-valued keys accept comma lists (``1,2,5``), inclusive
integer ranges (``2..8``) and ``linspace(a,b,n)``; a grid that starts with a
negative value must be joined to its flag (``--d=-1,0.5``), or argparse reads
it as an option.

Exit codes: 0 success, 2 unknown experiment or command-line usage error
(argparse), 3 invalid configuration or grid (including a non-finite grid
value), 4 unwritable output path, 5 numerical failure (a Lyapunov residual
over its limit, or the state sampler out of attempts). Data file and
manifest are each written to a temp file and renamed into place.
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
from concurrent.futures import ProcessPoolExecutor

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

SAMPLING_EXPERIMENTS = {"swap-check", "fig2a"}


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


def _resolve(flag_value, file_values, key, default):
    if flag_value is not None:
        return flag_value
    if key in file_values:
        return file_values[key]
    return default


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
# summary line or None). Grid order is fixed up front so pooled execution
# cannot reorder output.


def _run_swap_check(cfg):
    rng = np.random.default_rng(cfg["seed"])
    n_list = list(range(2, cfg["n_max"] + 1))
    plans = {n: build_relay(n) for n in n_list}
    rows = []
    worst = 0.0
    for sample in range(cfg["samples"]):
        nf = sample_normal_form(rng, cfg["x_max"])
        for n in n_list:
            closed = cluster_closed_form(nf.x, nf.y, nf.z, n).assemble()
            piped, _ = bell_detect([nf.state() for _ in range(n)], plans[n])
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


def _fig2b_point(args):
    d, x_max = args
    return (d, max_swap_logneg_at_asymmetry(d, x_max), frontier_closed_form(d, x_max))


def _run_fig2b(cfg):
    points = [(d, cfg["x_max"]) for d in cfg["d"]]
    rows = _pool_map(_fig2b_point, points, cfg["workers"])
    columns = ("d", "e_max", "e_max_closed_form")
    return columns, rows, f"fig2b: frontier on {len(rows)} asymmetry points"


def _network_row(args):
    mu, eta, omega, n = args
    pt = NetworkPoint(mu, eta, omega, n)
    cm = network_cluster_cm(pt)
    return (
        mu,
        eta,
        omega,
        n,
        pairwise_logneg_formula(pt),
        pairwise_logneg_numeric(cm),
        gle_formula(pt),
        block_logneg_formula(pt, n // 2),
    )


def _run_network_sweep(cfg):
    points = [
        (mu, eta, omega, n)
        for mu, eta, omega, n in itertools.product(
            cfg["mu"], cfg["eta"], cfg["omega"], cfg["n"]
        )
    ]
    rows = _pool_map(_network_row, points, cfg["workers"])
    columns = ("mu", "eta", "omega", "n", "e_formula", "e_numeric", "gle", "block")
    return columns, rows, f"network-sweep: {len(rows)} grid points"


def _run_fig2c(cfg):
    rows = []
    deltas = None
    for g_mhz in cfg["g_eff_mhz"]:
        base = standard_params(
            g_eff=2 * np.pi * g_mhz * 1e6,
            kappa_convention=cfg["kappa_convention"],
            temp=cfg["temp_mk"] * 1e-3,
        )
        deltas = [r * base.omega_m for r in cfg["delta_over_omega_m"]]
        for row in detuning_sweep(base, deltas, n_users=(2,), local_preprocessing=cfg["local_preprocessing"]):
            rows.append((g_mhz,) + row)
    columns = ("g_eff_mhz", "delta_over_omega_m", "n", "e_in_optomech", "e_mech_pairwise", "stable")
    return columns, rows, f"fig2c: {len(rows)} sweep points"


def _run_fig2d(cfg):
    g_mhz = cfg["g_eff_mhz"][0]
    base = standard_params(
        g_eff=2 * np.pi * g_mhz * 1e6,
        kappa_convention=cfg["kappa_convention"],
        temp=cfg["temp_mk"] * 1e-3,
    )
    deltas = [r * base.omega_m for r in cfg["delta_over_omega_m"]]
    sweep = detuning_sweep(base, deltas, n_users=cfg["n"], local_preprocessing=cfg["local_preprocessing"])
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


def _pool_map(fn, items, workers):
    if workers <= 1 or len(items) < 2:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # executor.map preserves submission order, so the output order is
        # the grid order no matter which worker finishes first
        return list(pool.map(fn, items, chunksize=max(1, len(items) // (4 * workers))))


EXPERIMENTS = {
    "swap-check": _run_swap_check,
    "fig2a": _run_fig2a,
    "fig2b": _run_fig2b,
    "network-sweep": _run_network_sweep,
    "fig2c": _run_fig2c,
    "fig2d": _run_fig2d,
    "ghz-limit": _run_ghz_limit,
}


# --- config resolution -------------------------------------------------------


def _as_int(value, key):
    try:
        return int(str(value))
    except ValueError as exc:
        raise ConfigError(f"{key} must be an integer, got {value!r}") from exc


def _as_float(value, key):
    try:
        return float(str(value))
    except ValueError as exc:
        raise ConfigError(f"{key} must be a number, got {value!r}") from exc


def _as_switch(value, key):
    text = str(value).strip().lower()
    if text in ("on", "true", "1", "yes"):
        return True
    if text in ("off", "false", "0", "no"):
        return False
    raise ConfigError(f"{key} must be on or off, got {value!r}")


def resolve_config(experiment, args, file_values):
    """Merge flags over file values over defaults into one validated dict."""
    cfg = {"experiment": experiment}

    fmt = str(_resolve(args.format, file_values, "format", "csv"))
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    cfg["format"] = fmt

    out = _resolve(args.out, file_values, "out", None)
    cfg["out"] = str(out) if out is not None else f"{experiment}.{fmt}"

    seed = _resolve(args.seed, file_values, "seed", None)
    cfg["seed"] = _as_int(seed, "seed") if seed is not None else None
    if experiment in SAMPLING_EXPERIMENTS and cfg["seed"] is None:
        raise ConfigError(f"{experiment} samples randomly; a seed is required")

    workers = os.environ.get("CVSWAP_WORKERS")
    if workers is None:
        workers = _resolve(None, file_values, "workers", 1)
    cfg["workers"] = _as_int(workers, "workers")
    if cfg["workers"] < 1:
        raise ConfigError("workers must be >= 1")

    cfg["samples"] = _as_int(_resolve(args.samples, file_values, "samples", 200), "samples")
    if experiment == "fig2a" and args.samples is None and "samples" not in file_values:
        cfg["samples"] = 10000
    if cfg["samples"] < 1:
        raise ConfigError("samples must be >= 1")

    cfg["n_max"] = _as_int(_resolve(args.n_max, file_values, "n_max", 8), "n_max")
    if cfg["n_max"] < 2:
        raise ConfigError("n_max must be >= 2")

    cfg["x_max"] = _as_float(_resolve(args.x_max, file_values, "x_max", 10.0), "x_max")
    if cfg["x_max"] <= 1.0:
        raise ConfigError("x_max must exceed 1")

    cfg["mu"] = parse_grid(_resolve(args.mu, file_values, "mu", "2,10,100" if experiment == "ghz-limit" else "5"))
    if any(m < 1.0 for m in cfg["mu"]):
        raise ConfigError("mu grid values must be >= 1")

    cfg["eta"] = parse_grid(_resolve(args.eta, file_values, "eta", "0.9"))
    if any(not 0.0 < e <= 1.0 for e in cfg["eta"]):
        raise ConfigError("eta grid values must lie in (0, 1]")

    cfg["omega"] = parse_grid(_resolve(args.omega, file_values, "omega", "1"))
    if any(w < 1.0 for w in cfg["omega"]):
        raise ConfigError("omega grid values must be >= 1")

    default_n = "2..5" if experiment in ("fig2c", "fig2d") else "2..8"
    cfg["n"] = parse_int_grid(_resolve(args.n, file_values, "n", default_n))
    if any(n < 2 for n in cfg["n"]):
        raise ConfigError("n grid values must be >= 2")

    cfg["d"] = parse_grid(_resolve(args.d, file_values, "d", "linspace(-1.5,1.5,31)"))

    cfg["delta_over_omega_m"] = parse_grid(
        _resolve(args.delta_over_omega_m, file_values, "delta_over_omega_m", "linspace(0,1.5,31)")
    )

    default_g = "4,8,8.5" if experiment == "fig2c" else "8"
    cfg["g_eff_mhz"] = parse_grid(_resolve(args.g_eff_mhz, file_values, "g_eff_mhz", default_g))
    if any(g < 0 for g in cfg["g_eff_mhz"]):
        raise ConfigError("g_eff_mhz must be non-negative")

    cfg["temp_mk"] = _as_float(_resolve(args.temp_mk, file_values, "temp_mk", 0.4), "temp_mk")
    if cfg["temp_mk"] < 0:
        raise ConfigError("temp_mk must be non-negative")

    convention = str(_resolve(args.kappa_convention, file_values, "kappa_convention", "angular"))
    if convention not in ("angular", "ordinary"):
        raise ConfigError("kappa_convention must be angular or ordinary")
    cfg["kappa_convention"] = convention

    lp = _resolve(args.local_preprocessing, file_values, "local_preprocessing", "on")
    cfg["local_preprocessing"] = _as_switch(lp, "local_preprocessing")

    return cfg


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cvswap",
        description="Entanglement-swapping network experiments (data emitters, no plotting).",
    )
    parser.add_argument("experiment", help="one of: " + ", ".join(sorted(EXPERIMENTS)))
    parser.add_argument("--config", help="flat key=value config file; flags override it")
    parser.add_argument("--seed", type=int, help="RNG seed (required for sampling experiments)")
    parser.add_argument("--out", help="output data file (default <experiment>.<format>)")
    parser.add_argument("--format", help="csv or json (default csv)")
    parser.add_argument("--samples", type=int, help="number of sampled states")
    parser.add_argument("--n-max", type=int, dest="n_max", help="largest relay size for swap-check")
    parser.add_argument("--x-max", type=float, dest="x_max", help="sampler cap on normal-form variances")
    parser.add_argument("--mu", help="grid of TMSV variances")
    parser.add_argument("--eta", help="grid of channel transmissivities")
    parser.add_argument("--omega", help="grid of channel thermal variances")
    parser.add_argument("--n", help="grid of user counts, e.g. 2..8")
    parser.add_argument("--d", help="grid of asymmetry values for fig2b")
    parser.add_argument(
        "--delta-over-omega-m",
        dest="delta_over_omega_m",
        help="detuning grid in units of the mechanical frequency",
    )
    parser.add_argument("--g-eff-mhz", dest="g_eff_mhz", help="effective coupling(s), ordinary MHz")
    parser.add_argument("--temp-mk", dest="temp_mk", help="bath temperature in millikelvin")
    parser.add_argument(
        "--kappa-convention",
        dest="kappa_convention",
        help="read the quoted cavity linewidth as 'angular' (rad/s) or 'ordinary' (Hz)",
    )
    parser.add_argument(
        "--local-preprocessing",
        dest="local_preprocessing",
        help="on/off: rotate each optomechanical copy to standard form before the relay",
    )
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG

    started = time.perf_counter()
    try:
        columns, rows, summary = EXPERIMENTS[args.experiment](cfg)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except RuntimeError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    wall = time.perf_counter() - started

    manifest = {
        "experiment": args.experiment,
        "version": __version__,
        "config": {k: v for k, v in cfg.items() if k != "experiment"},
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
