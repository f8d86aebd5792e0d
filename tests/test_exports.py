import ast
import functools
import importlib
import inspect
import math
import os
import pkgutil
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import cvswap

_MODULES = ["cvswap"] + [f"cvswap.{info.name}" for info in pkgutil.iter_modules(cvswap.__path__)]


@pytest.mark.parametrize("module_name", _MODULES)
def test_every_exported_name_resolves(module_name):
    # a stale __all__ entry breaks only `from ... import *`
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert [name for name in exported if not hasattr(module, name)] == []
    assert len(set(exported)) == len(exported)


def test_package_surface_is_the_union_of_the_submodule_surfaces():
    # the public surface is declared once, in the modules; the package adds
    # only its version and never a name of its own
    declared = [name for m in _MODULES[1:] for name in getattr(importlib.import_module(m), "__all__", [])]
    assert cvswap.__all__[0] == "__version__"
    assert len(set(cvswap.__all__)) == len(cvswap.__all__)
    assert set(cvswap.__all__[1:]) == set(declared)
    assert len(set(declared)) == len(declared)


def _parameters(obj):
    try:
        return inspect.signature(obj).parameters
    except ValueError:  # an exception class inherits a builtin with none to read
        return {}


def test_no_public_callable_takes_a_clamped_flag():
    # a formula's unclamped value is private; the public name returns max(0, value)
    callables = [getattr(cvswap, name) for name in cvswap.__all__ if callable(getattr(cvswap, name))]
    assert [f.__name__ for f in callables if "clamped" in _parameters(f)] == []


_ROOT = Path(__file__).resolve().parent.parent


def _read_names(folders, bound=frozenset()):
    """NAME tokens of every .py file under the folders, but for the names def or class lines define.

    A token at a (path, row, column) in ``bound`` is skipped too.
    """
    reached = set()
    for folder in folders:
        for path in sorted((_ROOT / folder).rglob("*.py")):
            with path.open("rb") as f:
                previous = None
                for token in tokenize.tokenize(f.readline):
                    if token.type == tokenize.NAME and previous not in ("def", "class"):
                        if (path, *token.start) not in bound:
                            reached.add(token.string)
                    if token.type not in (tokenize.NL, tokenize.COMMENT):
                        previous = token.string
    return reached


def test_every_public_name_is_reached_outside_its_definition():
    # a public name is code only if something calls or reads it: the library,
    # a demo or the benchmark harness, not the tests alone. A NAME token
    # counts unless it is the name a def or class line defines.
    reached = _read_names(("src", "demos", "perfbench"))
    assert [name for name in cvswap.__all__ if name not in reached] == []


def test_every_public_method_and_property_is_reached_outside_its_definition():
    # the same reach for each public method and property that an exported
    # class defines itself: a test-only predicate on a class is not code
    reached = _read_names(("src", "demos", "perfbench"))
    kinds = (property, functools.cached_property, staticmethod, classmethod)
    members = [
        f"{name}.{attr}"
        for name in cvswap.__all__
        if inspect.isclass(cls := getattr(cvswap, name))
        for attr, value in vars(cls).items()
        if not attr.startswith("_") and (inspect.isfunction(value) or isinstance(value, kinds))
    ]
    assert len(members) > 8  # the scan sees the classes' methods
    assert [m for m in members if m.rpartition(".")[2] not in reached] == []


def test_every_private_module_name_is_read_in_the_library():
    # a private name bound at module level under src/cvswap (a def, a class
    # or an assignment target; not a dunder, which the interpreter reads) is
    # code only while the library reads it, so a constant cannot outlive its
    # last reader. A NAME token counts unless it is where the name is bound.
    private, bound = set(), set()
    for path in sorted((_ROOT / "src" / "cvswap").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found = [n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                found = [n for n in found if isinstance(n.ctx, ast.Store)]
                bound.update((path, n.lineno, n.col_offset) for n in found)
                names = [n.id for n in found]
            else:
                names = []
            private.update(name for name in names if name.startswith("_") and not name.startswith("__"))
    assert len(private) > 50  # the scan sees the library
    read = _read_names(("src",), frozenset(bound))
    assert sorted(private - read) == []


_FIRST_ORACLE_CALLS = """
import sys
import cvswap
from cvswap import analysis, sources
before = set(sys.modules)
cm = analysis.network_cluster_cm(analysis.NetworkPoint(5.0, 0.9, 1.1, 4))
analysis.pairwise_logneg_numeric(cm)
analysis.block_logneg_numeric(cm, [0, 1], [2, 3])
analysis.gle_numeric(cm)
sources.max_swap_logneg_at_asymmetry(0.5, 10.0)
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_first_oracle_calls_import_no_module():
    # A module that an oracle imports on its first call is paid again by
    # every fresh interpreter, as the benchmark's set-up time counts it
    # (numpy.fft alone pulls in four). So after `import cvswap`, one call
    # each of the pair, block and GLE oracles and of the frontier search
    # adds nothing to sys.modules.
    env = {**os.environ, "PYTHONPATH": str(Path(cvswap.__file__).resolve().parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", _FIRST_ORACLE_CALLS], capture_output=True, text=True, env=env, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []


#: Parameters with a default that only the tests set, and why each stays.
_TEST_ONLY_PARAMETERS = {
    "sample_normal_form(require_entangled)": "acceptance criterion 1 draws forms that need not be entangled",
}


def _calls(folders):
    """{callee name: [(positional count, keyword names)]} over every ast.Call in the folders.

    A callee is a bare name or the last attribute of a dotted one, read
    through the file's ``from ... import name as alias`` lines. A ``*args``
    counts as every position and a ``**kwargs`` as every keyword.
    """
    calls = {}
    for folder in folders:
        for path in sorted((_ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text())
            aliases = {
                alias.asname: alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                for alias in node.names
                if alias.asname
            }
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                starred = any(isinstance(arg, ast.Starred) for arg in node.args)
                keywords = {kw.arg for kw in node.keywords}
                calls.setdefault(aliases.get(name, name), []).append(
                    (math.inf if starred else len(node.args), keywords)
                )
    return calls


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    # an option is code only if something sets it: for each public callable,
    # every parameter with a default is passed, by position or by keyword, at
    # some call in the library, a demo or the benchmark harness
    # an exemption must name a parameter its callable still has, so a stale
    # entry fails here under its own name rather than in the set comparison
    stale = []
    for entry in _TEST_ONLY_PARAMETERS:
        name, _, param = entry.removesuffix(")").partition("(")
        if name not in cvswap.__all__ or param not in _parameters(getattr(cvswap, name)):
            stale.append(entry)
    assert stale == []
    calls = _calls(("src", "demos", "perfbench"))
    unset, checked = [], 0
    for name in cvswap.__all__:
        obj = getattr(cvswap, name)
        if not callable(obj):
            continue
        for position, param in enumerate(_parameters(obj).values()):
            if param.default is inspect.Parameter.empty or param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD):
                continue
            checked += 1
            by_position = param.kind is not param.KEYWORD_ONLY
            if not any(
                (by_position and count > position) or param.name in keywords or None in keywords
                for count, keywords in calls.get(name, [])
            ):
                unset.append(f"{name}({param.name})")
    assert checked > 5  # the scan sees the defaulted parameters
    # an exemption lapses once a call sets the parameter
    assert sorted(unset) == sorted(_TEST_ONLY_PARAMETERS)
