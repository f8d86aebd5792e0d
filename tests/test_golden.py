"""Frozen CLI data files: every experiment's default output, byte for byte.

``golden/index.json`` lists each file with the command line that writes it
and the Python and numpy versions it was written with. The five small
default outputs are kept whole. The default ``swap-check --seed 1`` (91 KB)
and ``fig2a --seed 7`` (807 KB) outputs are kept as SHA-256 digests, each
beside a whole file at a small ``--samples``. The sampler draws states in
order, so that small file is the first rows of the default output, and a
digest mismatch is shown row by row against it.

A change that means to move an output regenerates its golden file with
``python tests/test_golden.py`` (run from the repository root with the
package importable) and names the file and the reason in CHANGES.md. A golden
file is never regenerated to make a defect pass.
"""

import hashlib
import json
import math
import platform
from pathlib import Path

import numpy as np
import pytest

from cvswap.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"
INDEX = json.loads((GOLDEN / "index.json").read_text())


def _write(argv, path):
    """Write one data file through the CLI in-process; returns its bytes."""
    assert main([*argv, "--out", str(path)]) == EXIT_OK
    return path.read_bytes()


def _cells(line):
    out = []
    for cell in line.split(","):
        try:
            out.append(float(cell))
        except ValueError:
            out.append(cell)
    return out


def _first_difference(got, want):
    """Name the first row where two CSV texts differ and the largest relative difference of their numbers."""
    got_rows, want_rows = got.decode().splitlines(), want.decode().splitlines()
    first = next(
        (r for r, (g, w) in enumerate(zip(got_rows, want_rows)) if g != w),
        min(len(got_rows), len(want_rows)),
    )
    worst = 0.0
    for g, w in zip(got_rows, want_rows):
        for a, b in zip(_cells(g), _cells(w)):
            if isinstance(a, float) and isinstance(b, float) and a != b and math.isfinite(a - b):
                worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    if first == len(got_rows) == len(want_rows):
        return "rows agree"
    shown = (got_rows + ["<missing>"])[first], (want_rows + ["<missing>"])[first]
    return (
        f"first differing row {first} (header is row 0): got {shown[0]!r}, want {shown[1]!r}; "
        f"{len(got_rows)} rows against {len(want_rows)}; largest relative difference {worst:.3g}"
    )


def _host_note():
    here = {"python": platform.python_version(), "numpy": np.__version__}
    wrote = {key: INDEX[key] for key in here}
    if here == wrote:
        return ""
    return (
        f"\nThis host runs Python {here['python']} and numpy {here['numpy']}; the golden files were "
        f"written with Python {wrote['python']} and numpy {wrote['numpy']}, and a library upgrade "
        "can move a rounding boundary of the 12-digit output."
    )


@pytest.mark.parametrize("name", sorted(INDEX["files"]))
def test_cli_data_file_matches_its_golden_copy(name, tmp_path, capsys):
    entry = INDEX["files"][name]
    got = _write(entry["argv"], tmp_path / name)
    capsys.readouterr()
    if "sha256" in entry:
        if hashlib.sha256(got).hexdigest() == entry["sha256"]:
            return
        want = (GOLDEN / entry["prefix"]).read_bytes()
        rows = want.decode().count("\n")
        head = b"".join(got.splitlines(keepends=True)[:rows])
        detail = _first_difference(head, want) + f" in the first {rows} rows (against {entry['prefix']})"
        pytest.fail(f"{name} ({' '.join(entry['argv'])}): SHA-256 differs; {detail}{_host_note()}")
    want = (GOLDEN / name).read_bytes()
    if got != want:
        pytest.fail(f"{name} ({' '.join(entry['argv'])}): {_first_difference(got, want)}{_host_note()}")


def regenerate(tmp):
    """Rewrite every golden file and the recorded versions from this tree."""
    INDEX["python"], INDEX["numpy"] = platform.python_version(), np.__version__
    for name, entry in INDEX["files"].items():
        data = _write(entry["argv"], Path(tmp) / name)
        if "sha256" in entry:
            entry["sha256"] = hashlib.sha256(data).hexdigest()
        else:
            (GOLDEN / name).write_bytes(data)
    (GOLDEN / "index.json").write_text(json.dumps(INDEX, indent=1) + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        regenerate(tmp)
