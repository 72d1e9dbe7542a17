"""Command-line coverage: payload shapes, exit codes, determinism."""

import hashlib
import inspect
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from adelie import batch, cli, cotangent, obstruction, verify
from adelie.cli import COMMAND_FOR_OPERATION, COMMANDS, _report, build_parser, main
from adelie.errors import BudgetExceeded, CancellationFailure, ConstructionFailure
from adelie.flag import bwb
from adelie.report import H2VanishVerdict, VerificationReport
from test_acceptance import _cli_env


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    # the format flag goes before any "--" separator guarding negative coords
    code, out, err = run(capsys, argv[0], "--format", "json", *argv[1:])
    assert err == ""
    return code, json.loads(out)


def _readme_commands():
    # each `adelie ...` line of the README's "Command line" block, less its comment
    text = (Path(__file__).parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines() if line.startswith("adelie ")
    ]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_line_examples_exit_zero(capsys, argv):
    assert main(argv) == 0, capsys.readouterr().err


def test_readme_library_quickstart_prints_what_its_comments_say(capsys):
    # each printed line equals its print's comment, up to the first ", "
    text = (Path(__file__).parent.parent / "README.md").read_text()
    block = text.split("## Library quickstart", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    expected = [
        line.split("# ", 1)[1].split(", ", 1)[0]
        for line in block.splitlines() if line.startswith("print(")
    ]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
    assert expected == ["AllVanish", "1", "1", "psi[1,1] + phi[0,1]phi[1,0]"]


def test_dispatch_table_covers_all_commands():
    assert sorted(COMMAND_FOR_OPERATION) == [
        "bwb", "cartan", "chevalley", "cht", "cotangent",
        "euler", "obstruction", "roots", "surface", "verify",
    ]


def test_roots_text_and_json(capsys):
    code, out, _ = run(capsys, "roots", "A3")
    assert code == 0
    assert "6 positive roots" in out
    code, payload = run_json(capsys, "roots", "A3")
    assert code == 0
    assert payload["schema"] == 1
    assert payload["count"] == 6
    assert payload["highest_root"] == [1, 1, 1]


def test_cartan_json(capsys):
    code, payload = run_json(capsys, "cartan", "A2")
    assert code == 0
    assert payload["cartan"] == [[2, -1], [-1, 2]]


def test_bwb_concentrated_and_vanishing(capsys):
    code, payload = run_json(capsys, "bwb", "A2", "--", "-1", "0")
    assert code == 0
    assert payload["status"] == "AllVanish"
    assert payload["euler"] == 0
    code, payload = run_json(capsys, "bwb", "A2", "--basis", "root", "--", "-1", "0")
    assert code == 0
    assert payload["status"] != "AllVanish"
    assert payload["degree"] == 1
    assert payload["dimension"] == 1
    assert payload["euler"] == -1


def test_cht_chain_payload(capsys):
    code, payload = run_json(capsys, "cht", "A2", "--basis", "root", "--", "-1", "-1")
    assert code == 0
    assert payload["value"] == 1
    assert payload["chain"] == [[0, 0], [1, 1]]
    assert payload["shift"] == 2
    assert payload["interval_points"] == 2


def test_cotangent_verdict(capsys):
    code, payload = run_json(capsys, "cotangent", "A3", "--basis", "root", "--", "-1", "-1", "-1")
    assert code == 0
    assert payload["cht"] == 1
    assert payload["h2_vanish"] is True


def test_euler_growth(capsys):
    values = []
    for degree in ("0", "1", "2"):
        code, payload = run_json(
            capsys, "euler", "A1", "--basis", "root", "--degree", degree, "--", "-1"
        )
        assert code == 0
        values.append(payload["euler"])
    assert values == [-1, 1, 3]


def test_chevalley_verify_and_dump(capsys):
    code, payload = run_json(capsys, "chevalley", "A2")
    assert code == 0
    assert payload["ok"] is True
    assert payload["dimension"] == 8
    code, out, _ = run(capsys, "chevalley", "A2", "--dump")
    assert code == 0
    assert len(out.strip().splitlines()) == 12
    assert "0,1 | 1,0 | +1" in out


def test_chevalley_check_is_the_exhaustive_sweep(capsys):
    code, payload = run_json(capsys, "verify", "A3", "chevalley")
    assert code == 0
    assert payload["details"] == {"jacobi": "exhaustive"}
    with pytest.raises(SystemExit) as exc:
        main(["chevalley", "A2", "--full"])
    assert exc.value.code == 2


def test_obstruction_halves(capsys):
    code, payload = run_json(capsys, "obstruction", "A2")
    assert code == 0
    assert payload["bianchi_ok"] is True
    assert payload["classes"]["1,1"] == "psi[1,1] + phi[0,1]phi[1,0]"
    code, payload = run_json(capsys, "obstruction", "A2", "--half", "negative", "--certify")
    assert code == 0
    assert payload["solvable"] is True
    assert len(payload["requirements"]) == 2


def test_obstruction_certify_exits_one_when_not_solvable(capsys, monkeypatch):
    # an oracle that never vanishes leaves the closure ok and the system unsolvable
    monkeypatch.setattr(
        verify, "half_h2_oracle",
        lambda rs, half: lambda a: H2VanishVerdict(root=a, vanishes=False, source="fake"),
    )
    code, out, err = run(capsys, "obstruction", "A2", "--half", "negative", "--certify")
    assert (code, err) == (1, "")
    assert out.splitlines()[-3:] == [
        "# bianchi closure: ok", "# solvable: False", "# nontriviality requirements: 2",
    ]
    code, payload = run_json(capsys, "obstruction", "A2", "--certify")
    assert (code, payload["bianchi_ok"], payload["solvable"]) == (1, True, False)


def test_surface_check_and_lookup(capsys):
    code, payload = run_json(capsys, "surface", "A2")
    assert code == 0
    assert payload["ok"] is True
    assert payload["minus_two_classes"] == 6
    code, payload = run_json(capsys, "surface", "A3", "--root", "1", "1", "1")
    assert code == 0
    assert payload["divisor"] == [1, 1, 1]
    assert payload["restrictions"] == [-1, 0, -1]
    assert payload["h2_vanishes"] is True


def test_verify_each_suite(capsys):
    for suite in ("chevalley", "bwb", "index", "cht", "descent", "surface", "obstruction", "all"):
        code, payload = run_json(capsys, "verify", "A2", suite)
        assert code == 0, suite
        assert payload["ok"] is True
        assert payload["suite"] == suite


def test_json_runs_are_identical(capsys):
    _, first, _ = run(capsys, "verify", "A2", "all", "--format", "json")
    _, second, _ = run(capsys, "verify", "A2", "all", "--format", "json")
    assert first == second


def test_bad_inputs_exit_two(capsys):
    code, _, err = run(capsys, "roots", "Z9")
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "bwb", "A2", "1")
    assert code == 2
    code, _, err = run(capsys, "surface", "A2", "--root", "1")
    assert code == 2


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "A2"])
    assert exc.value.code == 2


def test_thread_env_is_tolerated(capsys, monkeypatch):
    monkeypatch.setenv("ADELIE_THREADS", "8")
    assert run(capsys, "roots", "A1")[0] == 0
    monkeypatch.setenv("ADELIE_THREADS", "junk")
    assert run(capsys, "roots", "A1")[0] == 0


def test_main_caps_openblas_at_one_thread_when_unset(capsys, monkeypatch):
    # setenv first, so that the value main sets is undone after the test
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert run(capsys, "roots", "A1")[0] == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"


def test_main_keeps_the_callers_openblas_threads(capsys, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    assert run(capsys, "roots", "A1")[0] == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "4"


def test_the_library_leaves_the_environment_alone():
    # only the command line chooses the thread count
    script = (
        "import os; before = dict(os.environ); "
        "import adelie, adelie.cli, adelie.verify; "
        "from adelie.chevalley import build_constants; build_constants(adelie.build('A2')); "
        "print(dict(os.environ) == before)"
    )
    env = _cli_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    child = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, cwd="/", env=env, text=True
    )
    assert (child.returncode, child.stdout) == (0, "True\n"), child.stderr


def test_failed_report_rendering():
    rep = VerificationReport(name="demo", checked=3, violations=["broken fact"])
    _, payload, lines = _report(rep)
    assert lines[0] == "demo: FAILED (3 checks)"
    assert any("broken fact" in line for line in lines)
    assert payload["ok"] is False
    assert payload["violations"] == ["broken fact"]


def _raising(exc):
    def command(rs, args):
        raise exc

    return command


def test_exit_zero_on_success(capsys):
    code, out, err = run(capsys, "bwb", "A2", "--", "-1", "0")
    assert (code, err) == (0, "")
    assert "all cohomology vanishes" in out


def test_bwb_runs_borel_weil_bott_once(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "bwb", lambda rs, lam: calls.append(lam) or bwb(rs, lam))
    code, payload = run_json(capsys, "bwb", "A2", "--", "-3", "2")
    assert (code, payload["degree"], payload["euler"], len(calls)) == (0, 1, -3, 1)


def test_exit_one_on_failed_verification(capsys, monkeypatch):
    failing = VerificationReport(name="demo", checked=1, violations=["broken fact"])
    monkeypatch.setattr(verify, "run_suite", lambda rs, suite: failing)
    code, payload = run_json(capsys, "verify", "A2", "bwb")
    assert code == 1
    assert payload["ok"] is False


def test_exit_two_on_exhausted_budget(capsys):
    code, out, err = run(capsys, "euler", "A2", "--degree", "3", "--max-terms", "2", "0", "0")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "exceed the budget" in err


def test_exit_two_on_negative_degree(capsys):
    code, out, err = run(capsys, "euler", "A2", "--degree", "-1", "--", "0", "0")
    assert (code, out) == (2, "")
    assert err == "error: degree must be non-negative, got -1\n"


@pytest.mark.parametrize(
    "exc", [ConstructionFailure("broken table"), CancellationFailure("stray terms")]
)
def test_exit_three_on_internal_error(capsys, monkeypatch, exc):
    monkeypatch.setitem(COMMAND_FOR_OPERATION, "roots", _raising(exc))
    code, out, err = run(capsys, "roots", "A2")
    assert (code, out) == (3, "")
    assert err == f"internal error: {exc}\n"


def test_exit_three_when_the_obstruction_suite_build_fails(capsys, monkeypatch):
    # the suite reports a failed build as the bug it is, not as a violation;
    # verify reads build_system from obstruction when the suite runs
    monkeypatch.setattr(obstruction, "build_system", _raising(CancellationFailure("stray terms")))
    code, out, err = run(capsys, "verify", "A2", "obstruction")
    assert (code, out, err) == (3, "", "internal error: stray terms\n")


def test_exit_three_on_any_other_exception(capsys, monkeypatch):
    # an exception outside the AdelieError tree is a bug in adelie, not bad
    # input or a failed verification, and leaves no traceback
    monkeypatch.setitem(COMMAND_FOR_OPERATION, "roots", _raising(KeyError("h1")))
    code, out, err = run(capsys, "roots", "A2")
    assert (code, out) == (3, "")
    assert err == "internal error: KeyError: 'h1'\n"


def test_other_adelie_errors_stay_at_two(capsys, monkeypatch):
    monkeypatch.setitem(COMMAND_FOR_OPERATION, "roots", _raising(BudgetExceeded("too many")))
    code, _, err = run(capsys, "roots", "A2")
    assert code == 2
    assert err == "error: too many\n"


def test_exit_three_when_firing_passes_lambda_plus(capsys, monkeypatch):
    # lambda+ bounds the firing from above, so passing it is a bug, not bad
    # input: a reflection walk that stops at once, with no lift, makes it so
    monkeypatch.setattr(cotangent, "dominant_conjugate", lambda rs, lam: (lam, (), (0,) * rs.rank))
    code, out, err = run(capsys, "cht", "A2", "--", "-1", "0")
    assert (code, out) == (3, "")
    assert err.startswith("internal error:") and "firing from" in err


@pytest.mark.parametrize("name,coords,budget,walk", [
    ("A4", (-3,) * 4, 50, "kept 50 dominant weights (cap 50) and reached height 14 of 30"),
    # the shipped cap, reached within the seconds allowed below; the height
    # is that of the layer being visited when the 20,000th point is found,
    # so it pins the walk's step set and order (cover steps only)
    ("E8", (-2,) * 8, None, "kept 20000 dominant weights (cap 20000) and reached height 593 of 1240"),
    ("D16", (-1,) * 16, None,
     "kept 20000 dominant weights (cap 20000) and reached height 362 of 1240"),
], ids=["A4", "E8", "D16"])
def test_exit_two_when_the_interval_walk_reaches_the_cap(capsys, monkeypatch, name, coords, budget, walk):
    if budget is not None:
        monkeypatch.setattr(cotangent, "_POINT_BUDGET", budget)
    start = time.perf_counter()
    code, out, err = run(capsys, "cht", name, "--", *map(str, coords))
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    weight = ",".join(map(str, coords))
    assert err == f"error: {name} {{{weight}|weight}}: interval walk {walk} above lambda*\n"


# SHA-256 of the exact `cht --format json` stdout, recorded from the box walk
# that the root-step walk replaced, so the witness chain cannot drift.
CHT_PAYLOAD_SHA256 = {
    ("A4", (-3, -3, -3, -3)): "cfa83fe6dce9d55081469a6a2beaa0aa669bb14f4a3c3e5cc6b4211163809a7f",
    ("D6", (-1,) * 6): "dcaabdf8553e0f6705ac7f64374daa092b57f422cd967b3311e06933c4ef508d",
    ("E6", (-1,) * 6): "32fbc71b3b139494a14e47122c1d50b333c342b811928b845b38dccd099a051b",
    ("E8", (-1, -1, -1, 0, 0, 0, 0, 0)): "45b33e27621d4a7fccdbd819fa77a2f41d5d3744b8fe828e781a5271bd9b1246",
    # cht 310 over 14869 interval points, recorded from the height-layer walk
    ("E8", (-1,) * 8): "b77db97043dcfb79d5f32eacc7f079b567cf098317e9c68b91736728fed57ea1",
}


@pytest.mark.parametrize("name,coords", sorted(CHT_PAYLOAD_SHA256))
def test_cht_payload_is_pinned(capsys, name, coords):
    code, out, err = run(capsys, "cht", name, "--format", "json", "--", *map(str, coords))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CHT_PAYLOAD_SHA256[name, coords]


# SHA-256 of the exact `verify T cht --format json` stdout and its checked
# count, recorded from the np.ndindex ball sweep that itertools.product
# replaced, so the sweep's slice and coverage cannot drift.
VERIFY_CHT_SHA256 = {
    "A5": (3155, "4ec05576b884c6b14211387a8db053b6695ed48ce1d9d6ff34f7758782eea5a8"),
    "E6": (801, "5a135c313ed8f71f70445e8b0e8778a45d7371879e2c57fb6788853c0756a8a7"),
    "E7": (505, "9e0b8d12a50f099417920d6057ae870cf90d11443ef90a23fa767b81c4fb49aa"),
    "E8": (257, "b1ab640cae91decb0587cca30458147f91c8afe20b419b6f3d723ba1af7e0543"),
}


@pytest.mark.parametrize("name", sorted(VERIFY_CHT_SHA256))
def test_verify_cht_payload_is_pinned(capsys, name):
    checked, digest = VERIFY_CHT_SHA256[name]
    code, out, err = run(capsys, "verify", name, "cht", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["checked"] == checked
    assert hashlib.sha256(out.encode()).hexdigest() == digest

# (checked, SHA-256 of the exact stdout less its checked field, seconds
# allowed) of `verify T all --format json` on every supported type.  A bound
# is ten times the in-process figure measured on a 2-vCPU VM, and at least
# 1 s, so a suite that walks a 3^rank box again fails here in seconds (such a
# walk took 11-13 s on A16 and D16).  The digests were recorded while the
# surface suite also walked the descent of every negative root, which moved
# checked alone.
VERIFY_ALL_SHA256 = {
    "A1": (28, "4dcf9fea1b6971f96b48f3f3029014cdbc5ad025ce1f0a6bdc14ed35741ec4ac", 2),
    "A2": (194, "036d667b41df0256140ec6bc2f43d6588b92fd99c9e989911e7d429176928fef", 1),
    "A3": (950, "f905f64d34e24e3cd1776be22781b9d57fb4902c2b690ba841c846940ff40777", 1),
    "A4": (3586, "9bca0c71bba2697cbb1d14d72744d2a9bdde442f2c72a802c488c180edcac9e1", 1),
    "A5": (11676, "4bc9a40f0e3d2c2b686905034b7cda145ec44709b1af8e7d827e9cf0a6f0520d", 2),
    "A6": (21842, "d7d01a085ead69a6c3d537146427a9d875fd4a204403c2d11bc08e7ea3a1ecb8", 1),
    "A7": (46748, "0db25866931c042746a435568f8911654d6ec7959430ddea32cb2728af255238", 1),
    "A8": (93042, "9c6bea7a5af55596720c0804c8cfeff67fb6121d2a4b1e1ad5f0f7612bcadaca", 1),
    "A9": (173690, "6890ff6bcd69a8c93f47b64a841e44148eee2b3d84ff31dee395f5fa2a598b2a", 1),
    "A10": (305822, "0ced5d4158c0ac4df5ee13aca8a51b138b23c42c372f3a7fa5c6909d655b1477", 1),
    "A11": (512976, "610d4643c12ed0ee38f807f9100cc45e481a675b50edab360592811e2dc60a73", 1),
    "A12": (825994, "d759afa0aca0e12cba503ba41e47c930c880676b24da05550ee218e3052ea6f3", 1),
    "A13": (1284402, "4db4292bea95189e61a4f2db923a9c0b6581af97870f7bd13c9d083bca8f84d8", 1),
    "A14": (1937910, "b38a8490f65a37294ebcfd42f69f6911f1afdf28af193db4e565419d1b34e861", 2),
    "A15": (2848032, "d1cf9ccdab596b59b4149178116848d0c40d8f725a73c3ee8f0430018d1e6f51", 2),
    "A16": (4089826, "8dec5ea5ae847493bb455e2487ae18cf54721735ece4d79fe3e2a6df3eaedeef", 2),
    "D3": (950, "6b24089bbef382cc22edf36443a84025ed5b8ff0f00748e4e06cf0aa132e0b10", 1),
    "D4": (5218, "02c60ad893968ada7b4e5e58730e1893005bd2e440e8a394dd377656f4150597", 1),
    "D5": (20791, "6718d3b532df5cf591664f904e2a653fc187bf05dc76067bf370fd82d6c89c57", 2),
    "D6": (54104, "acc0b9e10ee723a56778cb170214cb85acb5615575dacc33f5d50a2fed290113", 1),
    "D7": (136558, "36be361869c623b248b8793d714ca4ec9393ed59ba9a29bd8ded4d073f6b1ee7", 1),
    "D8": (306722, "77e0ffa262d4220f4f4ff5ec4232f34e0fc2afe63a26967dbbd9c52d1493560a", 1),
    "D9": (627767, "b2a3d8664e19d9aad7627b5b4b42828368543229c4b507a6eec19041ea3fe38a", 1),
    "D10": (1191252, "7e3f5477b008433c15986056fd7db7fc2f457561cc7aef65f6694ba09ecf2b49", 2),
    "D11": (2126148, "3bb010366c4696cca6b707a3f9cbff8782d550911acaf9e6a59800b385dc9d9d", 2),
    "D12": (3607354, "f966f0b2ebc0667935c5d485d96d4d90debf505618d14b645811b4e684becadc", 2),
    "D13": (5865537, "6f330e7077a45c4ce069584f35c5e57866667a57fb6edf74b10c49d022649536", 3),
    "D14": (9197932, "080a4242a645e78b70f28080b9561fa44f93594747dd1e7bd4dfb03cbf309997", 3),
    "D15": (13980102, "d2ede0d728966e9d269738a7c6cd95a71e96fc5e4934437d7ad0bc27f12843f7", 4),
    "D16": (20678658, "bac3b7862114adf340d4a13346b3ab17ade49816d24b914a5c6984dcb956eba1", 6),
    "E6": (87672, "c2afc2b2794cfda6f185f484568e69c84ad6065cfae9de9931ee411daf853e0e", 1),
    "E7": (416313, "035ddf1d6212cd6f2a7569261e07ade6a846d98675a2e1cbb61e1cdcbceb525b", 1),
    "E8": (2628386, "9a9e82903e2138b04b76e74019b6ba5ec6aa6514ab4d77466689a2b7a3df4ae2", 2),
}


@pytest.mark.parametrize("name", list(VERIFY_ALL_SHA256))
def test_verify_all_payload_is_pinned_on_every_type(capsys, name):
    checked, digest, seconds = VERIFY_ALL_SHA256[name]
    t0 = time.perf_counter()
    code, out, err = run(capsys, "verify", name, "all", "--format", "json")
    elapsed = time.perf_counter() - t0
    assert (code, err) == (0, "")
    assert json.loads(out)["checked"] == checked
    rest = out.replace(f'"checked": {checked}, ', "", 1)
    assert hashlib.sha256(rest.encode()).hexdigest() == digest
    assert elapsed < seconds, f"{name}: {elapsed:.2f} s"


# (exit code, SHA-256 of the exact stdout, seconds allowed) of `obstruction T
# --half H --certify --format json` on every supported type and both halves,
# recorded from the padded bracket table that the term lists replaced.  A
# bound is ten times the in-process figure, constants built afresh, measured
# on a 2-vCPU VM, and at least 1 s.
OBSTRUCTION_SHA256 = {
    ("A1", "positive"): (0, "7b3d6e4a90b9b74935eb4f668753e7c709d2eb8a0b367323e90c2503d7ac60a4", 1),
    ("A1", "negative"): (0, "1736009d0fb875d7fb9ba1f9ce49b7d05c588f28854f8b5824f6917c2b2d1874", 1),
    ("A2", "positive"): (0, "0f39478ceabe512c56d20e572147a146ec56fbebb2b62e8ef149660c17f36ed9", 1),
    ("A2", "negative"): (0, "74c3cacd97bc12fd4a39f0d93bdf9850a7eb8cbad8250076c8195aed092506a3", 1),
    ("A3", "positive"): (0, "2b1372363e9779eeaf84e2a539c83114c9d9f66288d5a3240b4a989442723f15", 1),
    ("A3", "negative"): (0, "3b2ce486f957b345e04b87b216c752fa368af43ea2ea9d31581571f1ed6e450c", 1),
    ("A4", "positive"): (0, "0b82d0e87357203085c14c64b5a1ace02687ecd1dfe0804d14e95b8c414474b4", 1),
    ("A4", "negative"): (0, "bb3690e2f11ec4e8fee58e959964f8057370b05c6e4b165db12b747ad8c4b3f5", 1),
    ("A5", "positive"): (0, "09f9076477a03fc9918be3a533b23a03e95c1a1bc054b56ead214dda243947d9", 1),
    ("A5", "negative"): (0, "8a9d6f5a0d27f17602e81efccb302974c2c7646b63be00233b287a6577c81a83", 1),
    ("A6", "positive"): (0, "6f8e1b67d96505ded43bfbc3310b6e077afbebfa63a46d89e2b19b1fbf6ed84c", 1),
    ("A6", "negative"): (0, "88a277fbff79690ecdce8f7f31f22ba1be6c2398b94c610af4399837c6cc494e", 1),
    ("A7", "positive"): (0, "cce0ed44754483d9d204b07f8e8ca35cd119d5ba68894e31f8336b4b1ce411db", 1),
    ("A7", "negative"): (0, "f1783c245f94d3af8da85b94034a232d242c41fb46dfbb84bdccc99cac702723", 1),
    ("A8", "positive"): (0, "7b70fab596486684326127aa2588b6c75bcd350aba65530c04253baf7316de6f", 1),
    ("A8", "negative"): (0, "24cbeed9bfeea1b00a31fc9b973a9670225d26453373f0efd4b6c7f2a2106c92", 1),
    ("A9", "positive"): (0, "f7ee724259c0391153b720c0a129e16961659d643d7c0af538b275af3683034a", 1),
    ("A9", "negative"): (0, "08c3df7ee13cb5b143f3aac7fb0390d2913fc9c3915dc3bc275d4489039d6f16", 1),
    ("A10", "positive"): (0, "f0a7a313a18c1c8781f6cbae4e1533e3ed9d24df39907f28bc9c632fe0af60c5", 1),
    ("A10", "negative"): (0, "7267cd4e9751b571cc8aeeec759074602fe716f03f168bb7c8eb98f0a197dfe1", 1),
    ("A11", "positive"): (0, "c14551ea165babc5508c59b21cc60c710a5708c3c7a407b374729276d6299860", 1),
    ("A11", "negative"): (0, "67ffc5d9e898f13f0ac15493238e992a620d4042b82e433ee66880e678a7e241", 1),
    ("A12", "positive"): (0, "c5cb5d492589bef23b2bd9589187f8df6e9b763f34444ea19945c24a604d16a8", 1),
    ("A12", "negative"): (0, "779a14e70920338612161922770d6930688ca560c15e934fc305c55255c67d9f", 1),
    ("A13", "positive"): (0, "9041f78bea2bb0fed462818ad0a030c84eadb32a756966bc15d1087bf842dad6", 1),
    ("A13", "negative"): (0, "7b67787bab6ddf2b7954c11da7364625ae86acb271c0db3c7b214d7b1709594f", 1),
    ("A14", "positive"): (0, "8f2f23c4912f1ad78606e77e1a6b16000a73fb7eb6260479aa6da76049146d60", 1),
    ("A14", "negative"): (0, "44294ddb0a2eab5322529a5d55df6605ba1545d340a8f5a7f5e330d637b2dcee", 1),
    ("A15", "positive"): (0, "2bce5dca2a5707dffe5c0baff700b8bdbd025d904704da9cf65696b91356847c", 1),
    ("A15", "negative"): (0, "4e5b022acf65f9214aca4b2191145c9bc4358e0d7754706239fe0d54f3b24d93", 1),
    ("A16", "positive"): (0, "b09e0e4f959e3e429e92cb4caea47a8c000e4f55ece4f84e903588844b802b1d", 1),
    ("A16", "negative"): (0, "92fd5f832698f3b4c98a2d8d7ec1ae695d329b00d9a21231141b5cc2fbc573de", 1),
    ("D3", "positive"): (0, "af779beeea133ec849526b1f5b8b17f4ad930d8a19862cf46e828c66aed146a5", 1),
    ("D3", "negative"): (0, "adfb4c1c71d0c92db33df2211e85775b07f03512817d0fd7745fadcdff32ec35", 1),
    ("D4", "positive"): (0, "1a4e8c2e6a7ca8036d9463a2a2510565479d217afdfd28283012731a53121df4", 1),
    ("D4", "negative"): (0, "84f63210ec0e54fa568a6aca401cbf4b4488f4377f32526ed05f106f1f88b9f9", 1),
    ("D5", "positive"): (0, "b22b808254a57a0f20ab25e7bd38bb5d3d1195eefc447526225a29f46c86457f", 1),
    ("D5", "negative"): (0, "93bfb8abb04deff0b03b408388754945bf9f888dc36d211591d59bd6db13077d", 1),
    ("D6", "positive"): (0, "7b8cde6291e972512c5c12ef781ce16758f1c68c056542f8a623b397a9b316a1", 1),
    ("D6", "negative"): (0, "65884561fd3cdc5247a87345e095a8429bd698e4e8a4f03d68e1b11165cf8e96", 1),
    ("D7", "positive"): (0, "c0dbbe397130bcf74fc3d82701e1dda28786cda46e9139a5ce748a6854ca13cf", 1),
    ("D7", "negative"): (0, "a9821e735df1c7931945087ab029911b0cc4db6c58d978d96ab24a8379e47d6d", 1),
    ("D8", "positive"): (0, "35167b182712cbf1567e43e2392e58155b88a74c01fcb8c1ae1e4872163d0da8", 1),
    ("D8", "negative"): (0, "ddc6e68a8872a4c5fb66d9fbe962ce696457a7be75143b6da235aa9bc04cba05", 1),
    ("D9", "positive"): (0, "55352823ef36a61a52c355fe1977c27ab595e410b208d6743ddd457b231d1b5b", 1),
    ("D9", "negative"): (0, "19c0d5ded36d059d81ef358d8d7b045842b7446eb8e76e5b81f071975b1c1237", 1),
    ("D10", "positive"): (0, "048147424c1de2aa429bd97a69e1de37d5010566c66ab8b2ce96315a87488bad", 1),
    ("D10", "negative"): (0, "6e75b574d7cc824cb00754c6bcdf8e29dca9c9affcf7ad171f7ebca81b9fd01e", 1),
    ("D11", "positive"): (0, "52a0548254e0289488559a5dab5cdb3aca47ddd0f9fcf1ac445246a41ed68dc1", 1),
    ("D11", "negative"): (0, "f686a36936f8aa252e1e4130ff4ce7eaa79d2934983619341f6fd68cb0808edf", 1),
    ("D12", "positive"): (0, "1db00cc2daae49628de949babf6097c72eb4f51d2bb6fcf127b11ccb720f503f", 1),
    ("D12", "negative"): (0, "bce92c7f4690273105c33967f75e45ee30a633877b125992723303a4d2e2cc49", 1),
    ("D13", "positive"): (0, "02161d12d418460709ee375fe8d433112e874026ad1ce7b3b52d7ead40ff568a", 1),
    ("D13", "negative"): (0, "b0070dac63ee2b0b519e10335ea531ea6f2b5e7d4b10832fe1735c75f8dcd29f", 1),
    ("D14", "positive"): (0, "5fe7e41119a88ca61a0e31cb1daf9bc5233c70e940a0e6cecbb46b702d3e1d53", 1),
    ("D14", "negative"): (0, "4096f62e13e1f6afcfab8ecf6d7019e0689d0c9dc324ed26b97486b7730414c2", 1),
    ("D15", "positive"): (0, "e9aafd8824669f8dc42833a19eb6670150da16a700aa14079622461845cdf01b", 2),
    ("D15", "negative"): (0, "42579248eae5218eb54ab3607cdc4b95b17276f8cf50d3de570d0ebee5502afb", 2),
    ("D16", "positive"): (0, "897b2dea83ec8d33757213106620266211cf78fe53e29e170c3df1571d2cbec4", 2),
    ("D16", "negative"): (0, "9512e69dbde47d208edeb74dfec5703f48135a5e50d2a0a6c2e6bf85f3a0f1c2", 2),
    ("E6", "positive"): (0, "283a189f244700b99d1e5b4b38781eeb07f8d5039c52a0e808e5f31324b7675e", 1),
    ("E6", "negative"): (0, "6a795a8de4fc0ae723e614eca327f90542af99220eeeac62613ca87d663cb037", 1),
    ("E7", "positive"): (0, "dcd2dc017d68343eeee2ac9268d76b1bfba4421c250b8b22e6d4109e7e57c5df", 1),
    ("E7", "negative"): (0, "d93a23f2d741622d0485970b417e5fcfe60d037cc6f972df22801774f1d5706e", 1),
    ("E8", "positive"): (0, "946d74fd2a23d635722ab28d5489956cf020eea1c086d58aca3ad7af804633c5", 1),
    ("E8", "negative"): (0, "5e11832480e6bcc4b7852c775dfbb967331875ce3153b5c941e3f32146f85fa8", 1),
}


@pytest.mark.parametrize("name,half", list(OBSTRUCTION_SHA256))
def test_certified_obstruction_payload_is_pinned_on_every_type(capsys, name, half):
    expected, digest, seconds = OBSTRUCTION_SHA256[name, half]
    t0 = time.perf_counter()
    code, out, err = run(capsys, "obstruction", name, "--half", half, "--certify",
                         "--format", "json")
    elapsed = time.perf_counter() - t0
    assert (code, err) == (expected, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert elapsed < seconds, f"{name} {half}: {elapsed:.2f} s"


# Python refuses to print an int of more than sys.get_int_max_str_digits()
# digits (4300 by default); an answer that long is a usage error, not a crash
needs_print_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this Python prints any int"
)
HUGE = str(10 ** 1000)


@needs_print_limit
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_exit_two_when_the_bwb_dimension_is_too_long_to_print(capsys, fmt):
    code, out, err = run(capsys, "bwb", "E8", "--format", fmt, "--", HUGE, *"0" * 7)
    assert (code, out) == (2, "")
    assert err == "error: E8: dimension has 77921 digits, too many to print\n"


@needs_print_limit
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_exit_two_when_the_graded_euler_value_is_too_long_to_print(capsys, fmt):
    code, out, err = run(
        capsys, "euler", "E8", "--degree", "0", "--format", fmt, "--", HUGE, *"0" * 7
    )
    assert (code, out) == (2, "")
    assert err == "error: E8: euler has 77921 digits, too many to print\n"


@needs_print_limit
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_exit_two_when_a_cht_weight_is_too_long_to_print(capsys, fmt):
    # root coordinates (N, (N + 1) / 2) with N = 10**4300 - 1 give the dominant
    # weight ((3N - 1) / 2, 1), so the interval is one point and its first
    # coordinate has 4,301 digits
    n = 10 ** 4300 - 1
    root = [str(n), str((n + 1) // 2)]
    code, out, err = run(capsys, "cht", "A2", "--basis", "root", "--format", fmt, "--", *root)
    assert (code, out) == (2, "")
    assert err == "error: A2: weight has 4301 digits, too many to print\n"


@needs_print_limit
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["cht", "cotangent"])
def test_exit_two_when_a_budget_message_names_a_weight_too_long_to_print(
    capsys, monkeypatch, command, fmt
):
    # root coordinates (-N, 0) with N = 10**4300 - 1 are the weight (-2N, N);
    # the walk reaches its cap, and the message names the 4,301-digit
    # coordinate and the interval's height by their digit counts
    monkeypatch.setattr(cotangent, "_POINT_BUDGET", 50)
    n = 10 ** 4300 - 1
    code, out, err = run(
        capsys, command, "A2", "--basis", "root", "--format", fmt, "--", str(-n), "0"
    )
    assert (code, out) == (2, "")
    assert err == (
        f"error: A2 {{-<4301 digits>,{n}|weight}}: interval walk kept 50 dominant "
        "weights (cap 50) and reached height 14 of <4301 digits> above lambda*\n"
    )


# the case above in a child whose address space is capped at 512 MB: the
# interval walk sizes nothing by the interval's height, which has 4,301
# digits here, so a table sized by it fails this test by MemoryError instead
# of filling the machine's memory
_CAPPED_BUDGET_CHILD = """
import resource, sys
limit, hard = 512 * 2 ** 20, resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (limit if hard == resource.RLIM_INFINITY else min(limit, hard), hard))
from adelie import cotangent
from adelie.cli import main
cotangent._POINT_BUDGET = 50
sys.exit(main(["cht", "A2", "--basis", "root", "--", str(1 - 10 ** 4300), "0"]))
"""


@needs_print_limit
def test_a_budget_walk_of_huge_height_runs_in_bounded_memory():
    pytest.importorskip("resource")
    child = subprocess.run(
        [sys.executable, "-c", _CAPPED_BUDGET_CHILD],
        capture_output=True, text=True, env=_cli_env(), timeout=120,
    )
    assert (child.returncode, child.stdout) == (2, ""), child.stderr
    assert child.stderr.endswith(
        "interval walk kept 50 dominant weights (cap 50) and reached height 14 of "
        "<4301 digits> above lambda*\n"
    )


@needs_print_limit
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_budget_message_for_a_count_too_long_to_print(capsys, fmt):
    # the degree-10**40 multisets of the 120 positive roots of E8 number
    # C(10**40 + 119, 119), which has 4,564 digits
    degree = str(10 ** 40)
    code, out, err = run(
        capsys, "euler", "E8", "--degree", degree, "--format", fmt, "--", *"0" * 8
    )
    assert (code, out) == (2, "")
    assert err == (
        f"error: more than 1000000 multisets of degree {degree} exceed the budget 1000000\n"
    )
    # a count that prints is still named exactly
    code, out, err = run(capsys, "euler", "E8", "--degree", "30", "--", *"0" * 8)
    assert (code, out) == (2, "")
    assert err == (
        "error: 25759028272395653625172989187520 multisets of degree 30 "
        "exceed the budget 1000000\n"
    )


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_budget_bounds_the_fold_layers(capsys, fmt):
    # A1 has one multiset of each degree, but the fold keeps degree + 1 layers
    start = time.perf_counter()
    code, out, err = run(capsys, "euler", "A1", "--degree", str(10 ** 7), "--format", fmt, "--", "0")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == "error: 10000001 fold layers of degree 10000000 exceed the budget 1000000\n"
    # the largest degree the budget allows still answers
    code, out, err = run(capsys, "euler", "A1", "--degree", "999", "--max-terms", "1000", "--", "0")
    assert (code, out, err) == (0, "A1 {0|weight}: graded euler characteristic at degree 999 is 1999\n", "")


def test_the_multiset_budget_has_one_default(capsys, monkeypatch):
    # euler_characteristic_graded, its batch kernel and --max-terms all read
    # cotangent.MAX_TERMS, and the help prints it
    kernels = (cotangent.euler_characteristic_graded, batch.euler_characteristic_graded)
    defaults = [inspect.signature(f).parameters["max_terms"].default for f in kernels]
    assert defaults == [cotangent.MAX_TERMS] * 2 and cotangent.MAX_TERMS == 10 ** 6
    assert build_parser().parse_args(["euler", "A2", "0", "0"]).max_terms == cotangent.MAX_TERMS
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit):
        build_parser().parse_args(["euler", "--help"])
    assert "term budget before giving up (default 1000000)\n" in capsys.readouterr().out


def test_every_command_that_reads_a_weight_has_a_basis():
    # _vector reads args.basis with no fallback
    for name, command, _, arguments in COMMANDS:
        reads = "_vector(args, rs)" in inspect.getsource(command)
        assert reads == ("--basis" in dict(arguments)), name


# runs argv as a grandchild and prints [exit code, stdout, stderr, maxrss]: a
# child's ru_maxrss starts from the high-water mark of the process that forked
# it, so a small intermediate keeps the test suite's own size out of it
MAXRSS_CHILD = """
import json, resource, subprocess, sys
run = subprocess.run(sys.argv[1:], capture_output=True, text=True)
maxrss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(json.dumps([run.returncode, run.stdout, run.stderr, maxrss]))
"""


def test_deep_fold_on_a1_keeps_two_layers():
    # the fold keeps two layers, each one multiset on A1, so the peak stays
    # near the interpreter's and numpy's own, whatever the degree
    cmd = [sys.executable, "-m", "adelie", "euler", "A1", "--degree", "300000", "--", "0"]
    child = subprocess.run([sys.executable, "-c", MAXRSS_CHILD, *cmd],
                           capture_output=True, cwd="/", env=_cli_env(), text=True)
    assert child.returncode == 0, child.stderr
    code, out, err, maxrss = json.loads(child.stdout)
    assert (code, out, err) == (
        0, "A1 {0|weight}: graded euler characteristic at degree 300000 is 600001\n", ""
    )
    assert maxrss < 60 * 1024, maxrss  # kilobytes on Linux


# SHA-256 of the exact `euler --format json` stdout, recorded from the sum that
# called flag.euler_characteristic once per distinct weight
EULER_PAYLOAD_SHA256 = {
    ("E6", 2, (0,) * 6): "cd0a14b7cb086c3abd5e5fb27d41c54c51909172a88e3bc332cd473e60f608cf",
    ("E6", 2, (2, -1, 0, 1, 0, 0)): "cc398e366851e2d255632f23fe100d4ece048824fce34b39ca1bdabae04b9028",
    ("E7", 2, (0,) * 7): "8491d7c17cdd43682379d2fe6cd460210ce27f76a8bc96f43ce8f279bde3190f",
    ("E7", 2, (-2, 2, 2, -2, 0, 2, 1)): "cb9615ef99a05bbd3a3c76ac3d8249a3450ae31f3f235aa7888b87c810867970",
    ("E8", 2, (0,) * 8): "dc1e4e2c8bd629cdeac65f30a0fa76ef8674d67f5e4cc01232a9a80503bc3d3d",
    ("E8", 2, (2, 2, -3, 1, 2, 0, 2, 0)): "cc4d817c5fb212e241e1f3fa66d92737af4c5500949ff4a18539fc26656ef591",
    ("E8", 3, (0,) * 8): "7b85704a4f400c72a38c16185e84814e2bd140dd4e3436e75f3b090c926776f9",
    ("E8", 3, (2, 2, -3, 1, 2, 0, 2, 0)): "4ae880099095fca21f5d795599279a0fd64137d707d81d09b56eba5e0a99f9c0",
    # recorded from the dict fold before the prefix-slice fold replaced it
    ("E7", 3, (0,) * 7): "16dfbb150dcfcf370a091ae537edaf68aa738b5763415a51e34dac8a18288a76",
    ("D8", 3, (0,) * 8): "3021fa509cb61919b7c36b7a0983976e2120f4b8e278fb9b73d0a6c0bdcf2c1b",
    ("A8", 3, (0,) * 8): "760dd3a74e9b13ba887ae8882990567f1d3831fe36333e44108ea2475f1957e0",
}


@pytest.mark.parametrize("name,degree,coords", list(EULER_PAYLOAD_SHA256))
def test_euler_payload_is_pinned(capsys, name, degree, coords):
    code, out, err = run(
        capsys, "euler", name, "--degree", str(degree), "--format", "json", "--", *map(str, coords)
    )
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == EULER_PAYLOAD_SHA256[name, degree, coords]


@pytest.mark.parametrize("command", [
    "obstruction E6 --half negative --certify --format json",
    "verify D5 all --format json",
    "chevalley A4 --format json",
])
def test_stdout_does_not_depend_on_the_hash_seed(command):
    # str hashes move with the seed, and with them the order of a set of
    # strings or of anything keyed through one: stdout must not move
    outs = []
    for seed in ("0", "3"):
        child = subprocess.run(
            [sys.executable, "-m", "adelie", *shlex.split(command)], capture_output=True,
            cwd="/", env={**_cli_env(), "PYTHONHASHSEED": seed}, text=True,
        )
        assert child.returncode == 0, child.stderr
        outs.append(child.stdout)
    assert outs[0] == outs[1]
