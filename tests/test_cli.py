import csv
import errno
import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cvswap import cli, optomech
from cvswap.gaussian import PhysicalityError
from cvswap.cli import (
    EXIT_BAD_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_UNKNOWN_EXPERIMENT,
    EXIT_UNWRITABLE,
    ConfigError,
    main,
    parse_grid,
    parse_int_grid,
    read_config_file,
)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_parse_grid_forms():
    assert parse_grid("1,2.5,10") == [1.0, 2.5, 10.0]
    assert parse_grid("2..5") == [2.0, 3.0, 4.0, 5.0]
    assert parse_grid("linspace(0,1,5)") == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert parse_int_grid("2..4") == [2, 3, 4]


def test_parse_grid_errors():
    for bad in ("", "a,b", "5..2", "linspace(0,1)", "linspace(0,1,0)"):
        with pytest.raises(ConfigError):
            parse_grid(bad)
    with pytest.raises(ConfigError):
        parse_int_grid("1.5,2")


def test_read_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nmu = 2,4\nn = 2..3  # trailing comment\nseed = 9\n")
    values = read_config_file(cfg)
    assert values == {"mu": "2,4", "n": "2..3", "seed": "9"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ConfigError):
        read_config_file(bad)
    with pytest.raises(ConfigError):
        read_config_file(tmp_path / "missing.cfg")


def test_unknown_experiment_exits_2(capsys):
    assert main(["teleport"]) == EXIT_UNKNOWN_EXPERIMENT
    assert "unknown experiment" in capsys.readouterr().err


def test_missing_seed_exits_3(capsys):
    assert main(["fig2a", "--samples", "3"]) == EXIT_BAD_CONFIG
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["fig2a", "swap-check"])
def test_negative_seed_exits_3_names_the_key_and_writes_nothing(experiment, capsys, tmp_path):
    # the key's bound refuses it before numpy's generator, whose own message
    # names no key, ever sees it
    out = tmp_path / "a.csv"
    assert main([experiment, "--seed", "-1", "--samples", "3", "--out", str(out)]) == EXIT_BAD_CONFIG
    assert "seed: must be >= 0, got '-1'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_invalid_grid_exits_3(capsys, tmp_path):
    out = str(tmp_path / "x.csv")
    assert main(["ghz-limit", "--mu", "0.5", "--out", out]) == EXIT_BAD_CONFIG
    assert main(["network-sweep", "--eta", "1.5", "--out", out]) == EXIT_BAD_CONFIG
    assert main(["ghz-limit", "--format", "xml", "--out", out]) == EXIT_BAD_CONFIG
    capsys.readouterr()


def test_non_finite_grid_exits_3_and_writes_nothing(capsys, tmp_path):
    out = tmp_path / "b.csv"
    assert main(["fig2b", "--d", "nan,0", "--out", str(out)]) == EXIT_BAD_CONFIG
    assert "finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    for bad in ("inf", "0,-inf", "NaN", "linspace(0,inf,3)", "linspace(nan,1,2)"):
        with pytest.raises(ConfigError):
            parse_grid(bad)


def test_numerical_failure_exits_5_and_writes_nothing(capsys, tmp_path, monkeypatch):
    # every Lyapunov residual is above zero, so a zero limit fails the first point
    monkeypatch.setattr(optomech, "_RESIDUAL_LIMIT", 0.0)
    out = tmp_path / "c.csv"
    assert main(["fig2c", "--out", str(out)]) == EXIT_NUMERICAL
    assert "Lyapunov solver residual" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, raised",
    [
        (["network-sweep", "--mu", "1e200"], "OverflowError"),
        (["network-sweep", "--mu=1e300", "--eta=1e-300", "--omega=1", "--n=20"], "OverflowError"),
        (["ghz-limit", "--mu", "1e300", "--n", "2"], "OverflowError"),
        (["fig2b", "--x-max", "1e150"], "FloatingPointError"),
        (["network-sweep", "--mu", "1e30"], "PhysicalityError"),
        (["fig2b", "--x-max", "1e200"], "FloatingPointError"),
    ],
)
def test_huge_variances_exit_5_and_write_nothing(argv, raised, capsys, tmp_path):
    # finite configurations whose variances overflow when squared, or leave
    # the frontier search only rounding noise, are numerical failures: no
    # traceback, no numpy warning printed on the way and no data file
    # holding NaN
    out = tmp_path / "o.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv, "--out", str(out)]) == EXIT_NUMERICAL
    assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert f"numerical failure: {raised}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_far_below_zero_swap_entanglement_writes_zeros_without_a_warning(tmp_path, capsys):
    # E2 = ln(2 / mu) is far below zero here; every clamped formula reads 0
    out = tmp_path / "ns.csv"
    argv = ["network-sweep", "--mu=1e17", "--eta=1e-17", "--omega=1", "--n=3", "--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == EXIT_OK
    assert [w.message for w in caught] == []
    capsys.readouterr()
    columns, (row,) = read_csv(out)
    assert [float(v) for c, v in zip(columns, row) if c in ("e_formula", "gle", "block")] == [0.0] * 3


def test_swap_entanglement_whose_denominator_overflows_writes_zeros_without_a_warning(tmp_path, capsys):
    # (1 - eta) mu omega passes the largest double; E2, about -ln(1e154), is
    # read from logs, and every clamped formula reads 0
    out = tmp_path / "ns.csv"
    argv = ["network-sweep", "--mu", "1e154", "--eta", "0.5", "--omega", "1e160", "--n", "2", "--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == EXIT_OK
    assert [w.message for w in caught] == []
    capsys.readouterr()
    columns, (row,) = read_csv(out)
    assert [float(v) for c, v in zip(columns, row) if c in ("e_formula", "e_numeric", "gle", "block")] == [0.0] * 4


@pytest.mark.parametrize("experiment", ["swap-check", "fig2a"])
def test_sampler_at_a_cap_of_1e150_writes_finite_rows(experiment, capsys, tmp_path):
    # the sampler's verdict reads the kernel, which rescales a pair whose
    # products would overflow, so draws of variance up to 1e150 are judged,
    # not lost to an OverflowError
    out = tmp_path / "o.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([experiment, "--x-max", "1e150", "--seed", "1", "--samples", "5", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    with out.open() as f:
        rows = list(csv.DictReader(f))
    assert rows and all(np.isfinite(float(value)) for row in rows for value in row.values())


@pytest.mark.parametrize("experiment", ["swap-check", "fig2a"])
def test_sampler_at_a_cap_of_1e200_writes_finite_rows(experiment, capsys, tmp_path):
    # past a cap of about 1.3e154 x y and 2 z_max can overflow; the sampler
    # reads z_max and draws z without either, so the run writes its rows
    out = tmp_path / "o.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([experiment, "--x-max", "1e200", "--seed", "1", "--samples", "1", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    with out.open() as f:
        rows = list(csv.DictReader(f))
    assert rows and all(np.isfinite(float(value)) for row in rows for value in row.values())


@pytest.mark.parametrize(
    "error, code",
    [
        (PhysicalityError("state is not bona fide"), EXIT_NUMERICAL),
        (np.linalg.LinAlgError("SVD did not converge"), EXIT_NUMERICAL),
        (RuntimeError("sampler out of attempts"), EXIT_NUMERICAL),
        (ConfigError("fig2d takes one g_eff_mhz value"), EXIT_BAD_CONFIG),
        (ValueError("mu must be >= 1"), EXIT_BAD_CONFIG),
    ],
)
def test_runner_errors_map_to_their_exit_codes(error, code, capsys, tmp_path, monkeypatch):
    # PhysicalityError and LinAlgError are ValueErrors, but they report a
    # numerical failure, not an invalid configuration
    def failing_runner(cfg):
        raise error

    _, keys = cli.EXPERIMENTS["ghz-limit"]
    monkeypatch.setitem(cli.EXPERIMENTS, "ghz-limit", (failing_runner, keys))
    out = tmp_path / "g.csv"
    assert main(["ghz-limit", "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert str(error) in err
    assert ("numerical failure" in err) == (code == EXIT_NUMERICAL)
    assert list(tmp_path.iterdir()) == []


def test_unwritable_output_exits_4(capsys, tmp_path):
    missing_dir = tmp_path / "not" / "here" / "out.csv"
    code = main(["ghz-limit", "--mu", "2", "--n", "2..3", "--out", str(missing_dir)])
    assert code == EXIT_UNWRITABLE
    assert "cannot write" in capsys.readouterr().err


@pytest.mark.parametrize("failing_write", [1, 2])
def test_failed_write_keeps_previous_files(tmp_path, monkeypatch, capsys, failing_write):
    out = tmp_path / "ghz.csv"
    manifest = tmp_path / "ghz.csv.manifest.json"
    assert main(["ghz-limit", "--mu", "2", "--n", "2..3", "--out", str(out)]) == EXIT_OK
    before = {path: path.read_bytes() for path in (out, manifest)}

    writes = []

    class DiskFull:
        """A file whose write lands half its text and then fails like a full disk."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    def failing_open(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        writes.append(path)
        return DiskFull(fh) if len(writes) == failing_write else fh

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    code = main(["ghz-limit", "--mu", "3,4", "--n", "2..3", "--out", str(out)])
    assert code == EXIT_UNWRITABLE
    assert "No space left" in capsys.readouterr().err
    assert len(writes) == failing_write
    # the failed file keeps its old bytes; only a table written before a
    # failed manifest is new
    assert manifest.read_bytes() == before[manifest]
    assert (out.read_bytes() == before[out]) == (failing_write == 1)
    assert sorted(p.name for p in tmp_path.iterdir()) == [out.name, manifest.name]


def test_json_writes_null_for_unstable_points(tmp_path, capsys):
    out = tmp_path / "c.json"
    argv = ["fig2c", "--format", "json", "--delta-over-omega-m=-1,0.5", "--g-eff-mhz", "8"]
    assert main(argv + ["--out", str(out)]) == EXIT_OK

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    payload = json.loads(out.read_text(), parse_constant=reject)
    columns = payload["columns"]
    by_delta = {row[columns.index("delta_over_omega_m")]: row for row in payload["rows"]}
    unstable, stable = by_delta[-1.0], by_delta[0.5]
    assert unstable[columns.index("stable")] == 0
    assert unstable[columns.index("e_in_optomech")] is None
    assert unstable[columns.index("e_mech_pairwise")] is None
    assert stable[columns.index("stable")] == 1
    assert stable[columns.index("e_in_optomech")] > 0.0
    capsys.readouterr()


def test_negative_grid_start_needs_the_equals_form(tmp_path, capsys):
    out = tmp_path / "c.csv"
    flag = "--delta-over-omega-m"
    assert main(["fig2c", f"{flag}=-1,0.5", "--g-eff-mhz", "8", "--out", str(out)]) == EXIT_OK
    _, rows = read_csv(out)
    assert [float(r[1]) for r in rows] == [-1.0, 0.5]
    # written apart, "-1,0.5" reads as an option: an argparse usage error, exit 2
    with pytest.raises(SystemExit) as exc:
        main(["fig2c", flag, "-1,0.5", "--out", str(out)])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_ghz_limit_csv_schema_and_values(tmp_path, capsys):
    out = tmp_path / "ghz.csv"
    assert main(["ghz-limit", "--mu", "2,10", "--n", "2..4", "--out", str(out)]) == EXIT_OK
    header, rows = read_csv(out)
    assert header == ["mu", "n", "var_sum_p", "var_diff_x", "dev_sum_p", "dev_diff_x"]
    assert len(rows) == 6
    for row in rows:
        mu, n = float(row[0]), int(row[1])
        assert float(row[2]) == pytest.approx(n / mu, abs=1e-11)
        assert float(row[3]) == pytest.approx(2.0 / mu, abs=1e-11)
    capsys.readouterr()


def test_json_output_round_trips(tmp_path, capsys):
    out = tmp_path / "ghz.json"
    code = main(["ghz-limit", "--mu", "2", "--n", "2..3", "--format", "json", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["columns"][:2] == ["mu", "n"]
    assert len(payload["rows"]) == 2
    assert payload["rows"][0][2] == pytest.approx(1.0)
    capsys.readouterr()


def test_manifest_contents(tmp_path, capsys):
    out = tmp_path / "b.csv"
    assert main(["fig2b", "--d", "0,0.5", "--x-max", "5", "--out", str(out)]) == EXIT_OK
    manifest = json.loads((tmp_path / "b.csv.manifest.json").read_text())
    assert manifest["experiment"] == "fig2b"
    assert manifest["rows"] == 2
    assert "wall_time_s" in manifest
    assert manifest["config"]["x_max"] == 5.0
    from cvswap import __version__

    assert manifest["version"] == __version__
    capsys.readouterr()


def test_fig2b_oracle_column_matches_its_closed_form_at_a_large_cap(tmp_path, capsys):
    # the oracle's z search must not drift from the closed form as the cap grows
    out = tmp_path / "fig2b.csv"
    assert main(["fig2b", "--x-max", "1000", "--out", str(out)]) == EXIT_OK
    header, rows = read_csv(out)
    assert header == ["d", "e_max", "e_max_closed_form"] and len(rows) == 31
    values = np.array(rows, dtype=float)
    np.testing.assert_allclose(values[:, 1], values[:, 2], rtol=0.0, atol=1e-9)
    capsys.readouterr()


def test_seeded_runs_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        code = main(["fig2a", "--samples", "40", "--seed", "7", "--out", str(out)])
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mu = 2,4\nn = 2..3\nomega = 1\neta = 1\n")
    out = tmp_path / "ns.csv"
    code = main(
        ["network-sweep", "--config", str(cfg), "--mu", "9", "--out", str(out)]
    )
    assert code == EXIT_OK
    _, rows = read_csv(out)
    assert {row[0] for row in rows} == {"9"}
    assert {row[3] for row in rows} == {"2", "3"}  # n grid came from the file
    capsys.readouterr()


def test_swap_check_reports_max_deviation(tmp_path, capsys):
    out = tmp_path / "sc.csv"
    code = main(
        ["swap-check", "--samples", "5", "--n-max", "4", "--seed", "3", "--out", str(out)]
    )
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert "max |closed form - pipeline|" in captured.out
    _, rows = read_csv(out)
    assert len(rows) == 5 * 3
    assert all(float(row[5]) < 1e-9 for row in rows)


def test_network_sweep_zero_input_entanglement(tmp_path, capsys):
    out = tmp_path / "ns.csv"
    code = main(["network-sweep", "--mu", "1", "--n", "2..4", "--out", str(out)])
    assert code == EXIT_OK
    _, rows = read_csv(out)
    for row in rows:
        assert [float(v) for v in row[4:]] == [0.0, 0.0, 0.0, 0.0]
    capsys.readouterr()


def test_fig2c_and_fig2d_schemas(tmp_path, capsys):
    c_out = tmp_path / "c.csv"
    code = main(
        [
            "fig2c",
            "--delta-over-omega-m",
            "linspace(0,1.5,4)",
            "--g-eff-mhz",
            "8",
            "--out",
            str(c_out),
        ]
    )
    assert code == EXIT_OK
    header, rows = read_csv(c_out)
    assert header[0] == "g_eff_mhz" and len(rows) == 4
    assert any(float(r[3]) > 0 for r in rows)  # optical-mechanical entanglement shows up

    d_out = tmp_path / "d.csv"
    code = main(
        ["fig2d", "--delta-over-omega-m", "linspace(0,1.5,4)", "--out", str(d_out)]
    )
    assert code == EXIT_OK
    header, rows = read_csv(d_out)
    assert header[0] == "n"
    assert [int(r[0]) for r in rows] == [2, 3, 4, 5]
    capsys.readouterr()


def test_console_script_wiring(tmp_path):
    out = tmp_path / "ghz.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "cvswap.cli", "ghz-limit", "--mu", "2", "--n", "2..3", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


# Small argument sets that run every experiment in well under a second.
_QUICK_ARGS = {
    "swap-check": ["--samples", "2", "--n-max", "3", "--seed", "1"],
    "fig2a": ["--samples", "5", "--seed", "1"],
    "fig2b": ["--d", "0,0.5", "--x-max", "5"],
    "network-sweep": ["--mu", "2", "--n", "2..3"],
    "fig2c": ["--g-eff-mhz", "8", "--delta-over-omega-m", "0.5"],
    "fig2d": ["--delta-over-omega-m", "0.5", "--n", "2..3"],
    "ghz-limit": ["--mu", "2", "--n", "2..3"],
}


@pytest.mark.parametrize("experiment", sorted(cli.EXPERIMENTS))
def test_unread_flag_exits_3_and_names_the_key(experiment, tmp_path, capsys):
    _, keys = cli.EXPERIMENTS[experiment]
    out = tmp_path / "x.csv"
    unread = [k for k in cli.KEYS if k not in keys and k != "format"]
    assert unread
    for key in unread:
        flag = "--" + key.replace("_", "-")
        argv = [experiment, *_QUICK_ARGS[experiment], flag, "2", "--out", str(out)]
        assert main(argv) == EXIT_BAD_CONFIG
        assert f"does not read '{key}'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("experiment", sorted(cli.EXPERIMENTS))
def test_unread_file_key_exits_3_and_names_the_key(experiment, tmp_path, capsys):
    _, keys = cli.EXPERIMENTS[experiment]
    out = tmp_path / "out" / "x.csv"
    out.parent.mkdir()
    cfg = tmp_path / "run.cfg"
    for key in [k for k in cli.KEYS if k not in keys and k != "format"] + ["n_mx", "config"]:
        cfg.write_text(f"{key} = 2\n")
        argv = [experiment, *_QUICK_ARGS[experiment], "--config", str(cfg), "--out", str(out)]
        assert main(argv) == EXIT_BAD_CONFIG
        assert f"does not read '{key}'" in capsys.readouterr().err
    assert list(out.parent.iterdir()) == []


@pytest.mark.parametrize("experiment", sorted(cli.EXPERIMENTS))
def test_manifest_config_holds_only_the_experiments_keys(experiment, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main([experiment, *_QUICK_ARGS[experiment], "--out", str(out)]) == EXIT_OK
    manifest = json.loads((tmp_path / "x.csv.manifest.json").read_text())
    _, keys = cli.EXPERIMENTS[experiment]
    assert set(manifest["config"]) == {"format", "out", *keys}
    capsys.readouterr()


def test_malformed_value_exits_3_from_a_flag_and_a_file(tmp_path, capsys):
    out = tmp_path / "b.csv"
    assert main(["fig2b", "--x-max", "abc", "--out", str(out)]) == EXIT_BAD_CONFIG
    assert "x_max" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("x_max = abc\n")
    assert main(["fig2b", "--config", str(cfg), "--out", str(out)]) == EXIT_BAD_CONFIG
    assert "x_max" in capsys.readouterr().err
    # scalars refuse nan and inf like grids do, before the sampler or the
    # thermal occupation sees them
    for experiment, flag, value in (
        ("fig2b", "--x-max", "inf"),
        ("fig2b", "--x-max", "nan"),
        ("fig2c", "--temp-mk", "inf"),
    ):
        assert main([experiment, flag, value, "--out", str(out)]) == EXIT_BAD_CONFIG
        assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_fig2c_runs_at_a_tiny_positive_temperature(tmp_path, capsys):
    # at 0.1 uK, hbar omega_m / k_B T is past exp's float range: the thermal
    # occupation is exactly 0, as at 0 K, and the table is the 0 K table
    tiny, zero = tmp_path / "tiny.csv", tmp_path / "zero.csv"
    assert main(["fig2c", "--temp-mk", "0.0001", "--out", str(tiny)]) == EXIT_OK
    assert main(["fig2c", "--temp-mk", "0", "--out", str(zero)]) == EXIT_OK
    assert tiny.read_bytes() == zero.read_bytes()
    capsys.readouterr()


def test_workers_is_neither_read_from_the_environment_nor_a_key(tmp_path, capsys, monkeypatch):
    # every experiment runs in-process: CVSWAP_WORKERS is ignored, and a
    # config file that sets workers is refused like any other unread key
    monkeypatch.setenv("CVSWAP_WORKERS", "0")
    ns = tmp_path / "ns.csv"
    assert main(["network-sweep", *_QUICK_ARGS["network-sweep"], "--out", str(ns)]) == EXIT_OK
    assert "workers" not in json.loads(ns.with_name("ns.csv.manifest.json").read_text())["config"]
    capsys.readouterr()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("workers = 2\n")
    for experiment in ("fig2b", "network-sweep"):
        out = tmp_path / f"{experiment}.csv"
        argv = [experiment, *_QUICK_ARGS[experiment], "--config", str(cfg), "--out", str(out)]
        assert main(argv) == EXIT_BAD_CONFIG
        assert "does not read 'workers'" in capsys.readouterr().err
        assert not out.exists()


def test_local_preprocessing_is_not_a_key(tmp_path, capsys):
    # each optomechanical copy is always rotated into standard form: the
    # flag is an argparse usage error, and the file key an unread key
    out = tmp_path / "out" / "c.csv"
    out.parent.mkdir()
    with pytest.raises(SystemExit) as exc:
        main(["fig2c", *_QUICK_ARGS["fig2c"], "--local-preprocessing", "on", "--out", str(out)])
    assert exc.value.code == 2
    assert "--local-preprocessing" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("local_preprocessing = on\n")
    for experiment in ("fig2c", "fig2d"):
        argv = [experiment, *_QUICK_ARGS[experiment], "--config", str(cfg), "--out", str(out)]
        assert main(argv) == EXIT_BAD_CONFIG
        assert "does not read 'local_preprocessing'" in capsys.readouterr().err
    assert list(out.parent.iterdir()) == []


def test_fig2d_refuses_more_than_one_coupling(tmp_path, capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("fig2d ran a sweep")

    monkeypatch.setattr(cli, "detuning_sweep", no_sweep)
    out = tmp_path / "d.csv"
    assert main(["fig2d", "--g-eff-mhz", "4,8", "--out", str(out)]) == EXIT_BAD_CONFIG
    assert "g_eff_mhz" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _readme_command_line_table():
    """{experiment: {key: default or None}} from README's Command-line table."""
    readme = Path(__file__).resolve().parents[1].joinpath("README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        name = re.fullmatch(r"`([a-z0-9-]+)`", cells[0])
        if line.startswith("|") and name:
            spans = re.findall(r"`([a-z_]+)(?:=([^`]*))?`", cells[2])
            table[name.group(1)] = {key: default or None for key, default in spans}
    return table


def test_readme_command_line_table_matches_the_experiments():
    table = _readme_command_line_table()
    assert set(table) == set(cli.EXPERIMENTS)
    for name, (_, keys) in cli.EXPERIMENTS.items():
        assert table[name] == keys, name
