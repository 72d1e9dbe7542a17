"""numpy stays out of the commands that build no arrays, batch, surface and
verify out of the commands that do not run them, and dataclasses, inspect,
fractions and decimal out of the start of every command.  The commands that
CI runs on the installed package load every module file between them."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import adelie
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
        "('adelie.batch', 'adelie.chevalley', 'adelie.obstruction', 'adelie.verify')))"
    )
    child = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, cwd="/", env=_cli_env(), text=True
    )
    assert (child.returncode, child.stdout) == (0, "[]\n"), child.stderr


# imports adelie.cli, runs each argv through main and prints, as one JSON list,
# which of the lazy modules (batch, surface and verify unless named) are loaded
# after the import and after each command
LAZY_CHILD = """
import contextlib, io, json, sys
from adelie.cli import main
lazy = json.loads(sys.argv[2]) if len(sys.argv) > 2 else (
    "adelie.batch", "adelie.surface", "adelie.verify")
def loaded():
    return sorted(m for m in lazy if m in sys.modules)
out = [loaded()]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        out.append([main(argv), loaded()])
print(json.dumps(out))
"""


def test_batch_and_surface_load_only_in_the_commands_that_run_them():
    commands = [
        ["cht", "E6", "--", *["-1"] * 6],
        ["euler", "E6", "--degree", "2", "--", *["0"] * 6],
        ["surface", "E6"],
    ]
    child = subprocess.run(
        [sys.executable, "-c", LAZY_CHILD, json.dumps(commands)],
        capture_output=True, cwd="/", env=_cli_env(), text=True,
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == [
        [], [0, []], [0, ["adelie.batch"]], [0, ["adelie.batch", "adelie.surface"]],
    ]


def test_obstruction_loads_the_suites_only_to_certify():
    # verify holds the oracle that --certify reads; verify imports surface
    commands = [["obstruction", "E6"], ["obstruction", "E6", "--certify"]]
    child = subprocess.run(
        [sys.executable, "-c", LAZY_CHILD, json.dumps(commands)],
        capture_output=True, cwd="/", env=_cli_env(), text=True,
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == [
        [], [0, []], [0, ["adelie.surface", "adelie.verify"]],
    ]


def test_the_suites_without_arrays_leave_numpy_out():
    # verify imports chevalley and obstruction only in the suites that build
    # their arrays; the chevalley suite at the end loads chevalley
    arrays = ["numpy", "adelie.chevalley", "adelie.obstruction"]
    commands = [["verify", "E8", suite] for suite in ("bwb", "index", "cht", "descent", "surface")]
    commands.append(["verify", "A2", "chevalley"])
    child = subprocess.run(
        [sys.executable, "-c", LAZY_CHILD, json.dumps(commands), json.dumps(arrays)],
        capture_output=True, cwd="/", env=_cli_env(), text=True,
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == [[]] + [[0, []]] * 5 + [
        [0, ["adelie.chevalley", "numpy"]],
    ]


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


# runs each argv as `python -m adelie` runs it, stdout discarded, and prints
# as one JSON list the exit codes and the file of each code object executed:
# the audit hook sees the exec of every imported module and of __main__.py
INSTALLED_STEP_CHILD = """
import contextlib, io, json, runpy, sys
ran = set()
sys.addaudithook(lambda event, args: event == "exec" and ran.add(args[0].co_filename))
codes = []
for argv in json.loads(sys.argv[1]):
    sys.argv = ["adelie", *argv]
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            runpy.run_module("adelie", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            codes.append(exc.code)
print(json.dumps([codes, sorted(ran)]))
"""


def test_the_installed_step_loads_every_module_file():
    # CI's installed-entry-point step runs these three commands and no other
    # check of the package, so a module file that none of them loads could
    # be left out of the install unseen
    commands = [
        ["--version"],
        ["verify", "E8", "all", "--format", "json"],
        ["euler", "E6", "--degree", "2", "--format", "json", "--", *["0"] * 6],
    ]
    child = subprocess.run(
        [sys.executable, "-c", INSTALLED_STEP_CHILD, json.dumps(commands)],
        capture_output=True, cwd="/", env=_cli_env(), text=True,
    )
    assert child.returncode == 0, child.stderr
    codes, ran = json.loads(child.stdout)
    assert codes == [0, 0, 0]
    package = Path(adelie.__file__).resolve().parent
    files = {path.name for path in package.glob("*.py")}
    assert files - {Path(f).name for f in ran if Path(f).parent == package} == set()
    assert "__main__.py" in files and "batch.py" in files
