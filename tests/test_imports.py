"""numpy stays out of the commands that build no arrays, and dataclasses,
inspect, fractions and decimal out of the start of every command."""

import json
import subprocess
import sys

import pytest

from adelie.cli import main
from adelie.roots import build
from test_acceptance import _cli_env

# runs each argv through cli.main with numpy unimportable, and prints
# [exit code, stdout, stderr] per command as one JSON list
NO_NUMPY_CHILD = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from adelie.cli import main
out = []
for argv in json.loads(sys.argv[1]):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    out.append([code, stdout.getvalue(), stderr.getvalue()])
print(json.dumps(out))
"""

WEIGHTS = {"A3": (-1, -1, -1), "D5": (-1,) * 5, "E8": (-1, -1, -1, 0, 0, 0, 0, 0)}


def _commands():
    for name, weight in WEIGHTS.items():
        coords = [str(v) for v in weight]
        top = [str(v) for v in build(name).highest_root().coords]
        for fmt in ("text", "json"):
            common = [name, "--format", fmt]
            yield ["roots", *common]
            yield ["cartan", *common]
            for command in ("bwb", "cht", "cotangent"):
                yield [command, *common, "--", *coords]
            yield ["surface", *common]
            yield ["surface", *common, "--root", *top]


def test_commands_without_arrays_run_without_numpy(capsys):
    commands = list(_commands())
    child = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_CHILD, json.dumps(commands)],
        capture_output=True, cwd="/", env=_cli_env(), text=True,
    )
    assert child.returncode == 0, child.stderr
    for argv, (code, out, err) in zip(commands, json.loads(child.stdout), strict=True):
        expected = main(argv), *capsys.readouterr()
        assert [code, out, err] == list(expected), argv


@pytest.mark.parametrize("modules", ["adelie.cli", "adelie.surface, adelie.cotangent, adelie.flag"])
def test_import_leaves_the_array_modules_out(modules):
    script = (
        f"import sys, {modules}; "
        "print(sorted(m for m in sys.modules if m == 'numpy' or m in "
        "('adelie.chevalley', 'adelie.obstruction', 'adelie.verify')))"
    )
    child = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, cwd="/", env=_cli_env(), text=True
    )
    assert (child.returncode, child.stdout) == (0, "[]\n"), child.stderr


def test_surface_suite_leaves_fractions_and_decimal_out():
    # the -2 class enumeration runs on the integer elimination
    script = (
        "import sys; before = set(sys.modules); "
        "from adelie import roots, surface; "
        "surface.verify_surface(roots.build('E8')); "
        "print(sorted({'fractions', 'decimal'} & set(sys.modules) - before))"
    )
    child = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, cwd="/", env=_cli_env(), text=True
    )
    assert (child.returncode, child.stdout) == (0, "[]\n"), child.stderr


def test_start_up_leaves_dataclasses_and_fractions_out():
    # the baseline is what the interpreter had loaded before adelie, so a
    # module its site hooks import is not counted against the package
    script = (
        "import sys; before = set(sys.modules); "
        "import adelie.cli; from adelie import roots, surface; roots.build('E8'); "
        "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal'} "
        "& set(sys.modules) - before))"
    )
    child = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, cwd="/", env=_cli_env(), text=True
    )
    assert (child.returncode, child.stdout) == (0, "[]\n"), child.stderr
