"""The CLI's exact bytes: exit code, stdout and stderr of a fixed matrix.

Each entry of CLI_PINS is one command line, run in process in text and in
JSON; its pair holds the SHA-256 of json.dumps([code, stdout, stderr]) for
each format (CHECKED_PINS holds the lines that print a checked count apart
from that count).  The matrix covers every command on A3, D4 and E8, with
--dump, --certify and --root, and the error paths that main reports.
--help is left out, as argparse wraps it to the terminal width and its
layout varies across Python versions; so are argparse's own rejections,
which are checked by exit code and stdout only.
"""

import hashlib
import json

import pytest

from adelie.cli import main


def _digest(capsys, argv, count=""):
    # count: text that stdout must hold, taken out once before hashing
    code = main(argv)
    captured = capsys.readouterr()
    assert count in captured.out
    out = captured.out.replace(count, "", 1)
    return hashlib.sha256(json.dumps([code, out, captured.err]).encode()).hexdigest()


CLI_PINS = {
    "roots A3": (
        "7db223755230b82d706a5b1011bc853fe1c6f9a52b4615a0a71868de6ab67fe2",
        "a55b128daddda9428784238efb6b7453e16f7f50be3ece3f1e028ac7ce6e9c0c",
    ),
    "cartan A3": (
        "9a0fa44b30b9ff50843011f058d74ed54b50098c04525cb6bb2cb21e01148127",
        "9ccf27d502b35f1d17294395f4d3addfb2f9160e40c358d47ca98be7f418c363",
    ),
    "bwb A3 -- -1 0 0": (
        "ab6d519f4b0e306c1645b06c702899fba4c4e0bcbc07a46cc9d52513202b4499",
        "55c4d309bc028757c99d4a8f303579132084b3ebe6181ca0ba04473cddb0c3f3",
    ),
    "bwb A3 --basis root -- 2 -1 -1": (
        "fd7b27f032e86427980096eacc723b282cdf87a0ee79ada0f4002fed8cd7c61d",
        "afdfdff536687a9264f3508242b7258e82af00633e99e2839b27e89fb05090ff",
    ),
    "cht A3 --basis root -- -1 0 0": (
        "c22632e4b8f425b053960a34efec2b46f8e0bd91a36521189215a1ea65b9a801",
        "607f96594bd9d046749c1ede0f55fb48eeefebcbfc840de975dd01325fd45b18",
    ),
    "cotangent A3 --basis root -- -1 0 0": (
        "7817e9d314f446159f64a1b3f9eeecfce39c75e3568605460d7f6d0b491492cf",
        "55647944784a2edb57826f998132939325c7b20da7e88f0d15422798f06011e4",
    ),
    "euler A3 --degree 1 -- 0 0 0": (
        "edd2f558b13c6f6bd7bea204da8dd1d5052e00b0b2f2ccd130989ac046c67be2",
        "697d809830e5fd65646a3bc494547638f10044297a918f9011ab2adc42bfe90a",
    ),
    "chevalley A3": (
        "faec72c8220bf973203d9d08ed854525fcdb263a3b64d711d1a271cbc65a9be0",
        "bbd883a7ce6faa4d1ac72c548c6b37d0acf32f4b859d9883f43945b0e548f3d0",
    ),
    "chevalley A3 --dump": (
        "2bfea2bc002ff1583a17ac5cd1ea316af526a334b00e63f76ed9d31766267d58",
        "d16ea2ad438e8f20081d205b8f1a29b2468aecedb3b61c7f0a81dab7517246ec",
    ),
    "obstruction A3 --certify": (
        "f52444e824b33b0b0cb9ab759507a067ce9c1a6d09c8e9c535d1fc2d202630f3",
        "fbb77c234701d808c8c14414364b67141cd23b37d40d824a358d59167de3191d",
    ),
    "obstruction A3 --half negative --certify": (
        "23345c637752a7684065ebffb98357ec7d95b4b35cc4a58b882a87596ed38a4e",
        "77d67259b5eecd342d13ecfd47053ad93100f67361853775b1a4ce99ebbf8fe2",
    ),
    "surface A3 --root 1 1 1": (
        "226a54bcc9747f417fc90b4b5fd3100ccecfcdd83453f5345c35f500dbb633af",
        "16a23fa42a4dbfe32d527f62ec29675986baa9903efeda4680cfbb5065738f22",
    ),
    "roots D4": (
        "1439e5e8ea18c967ef827fd93952535896fb0843c9ce40fdc5b0197aca739a4b",
        "b9f628c6f945d543ea9e8e5d3821fc7ee95927b3c4c4c70f9cd4ae929a74825e",
    ),
    "cartan D4": (
        "b985caae681d56a081b338ccedd0885d29d618decff2e3c32fc38cd51594ebe2",
        "6a1ca903924852b13f9776d2067b5da0ff8d0c83a40825c6ecfc97153eccdd0b",
    ),
    "bwb D4 -- -1 0 0 0": (
        "c0d7e6f6a311d17a8f0b8577fe3bdad6bec8e57bd4f3e556187dfe1bb321d862",
        "4ba150701760503b50db2e1f39aabe86cd6ced9057b60933718833aeff07e6e6",
    ),
    "bwb D4 --basis root -- 2 -1 -1 -1": (
        "6241567c0dc51c1e7e1610cb72b6c3377287cadb491f40a2ccd4e6d68102bcf6",
        "f87c8c2a49fa3148cc107910ab6eac7d338f145013e068f774aae187abf660c7",
    ),
    "cht D4 --basis root -- -1 0 0 0": (
        "ae7aeb7d14493e9e4c81f44d442109e0d9147211879de238b80aaaee06cb14fe",
        "df17a18d4e3ddd7a3240926f77d1b8328688394b07137f56b2f11c60358b3bd7",
    ),
    "cotangent D4 --basis root -- -1 0 0 0": (
        "19f726dcd068cf25375dd547813b6f9e0161ee2378f6314893b952707fdd4dcc",
        "71f2dd197280703c824ae587adba5bfbc5b531a19c3900e7474e339a4f0f3000",
    ),
    "euler D4 --degree 1 -- 0 0 0 0": (
        "6ca53508da24cf52584b08a053b0b20cbd9fa0cbecb0979c879da1a9212e1693",
        "7a07933b0833da60631ca04e88e96ff5d4dadbebfb18cf9ff88565fe2bee2785",
    ),
    "chevalley D4": (
        "02a1eb309e9e96453bb54eb11c2bb2dab7d9a2dfe0444eb0c1af2d15d8eea8c4",
        "c9458258d6968efb6b0aa92cc9378ce47e4e3d1c876a6a05bcef952db2d48674",
    ),
    "chevalley D4 --dump": (
        "a0e5f47caf39fe105f7eece1f70155c881a45597562de26e577b55550ebb92be",
        "4f482454194cda40a7f88b8388c2834b171a3a5264c960c641c507d5e1694e5c",
    ),
    "obstruction D4 --certify": (
        "eff100ebcdebf6b2800393ed2183a9efaf3984fc16db6877fe334b1f9b89de49",
        "e0dd586118c71cdcacdde0190f9288949eae5c7f48af4d0f8f4b9ece0ce7df24",
    ),
    "obstruction D4 --half negative --certify": (
        "d4b77deaf475ca5dc8e860b52d46f25dccf19289689f8ceb82774b8c1a00fafa",
        "4947c8b2c9ca01b6cc62685c3bc5d322b313d961d15003f11abf2f20312b8c78",
    ),
    "surface D4 --root 1 2 1 1": (
        "23d46ebfcd8c406b6933939fe954f12e714422b88d9b0e4a31c30ab2a61b2b18",
        "d45242fbd5e21b6133e15a013dc908be94ad56b133d9a493c6c5a741a076877c",
    ),
    "roots E8": (
        "77768e9f29ffe72b5c796db6525dbd2e64f79e5cf0ad150f4426657fd9fcf822",
        "c081a77525ce862e79c0f2a1fb319ddaba512f066d20863d9b2f68eeb607b25a",
    ),
    "cartan E8": (
        "7ed5aca01c7d7d3117305503d26c5aa801ed50c57bbf703a7e7d7eb0d6dc74f6",
        "4448489556a890850a9c84a7e3bdd2cb3678ca92507635208da75b338c5fa43a",
    ),
    "bwb E8 -- -1 0 0 0 0 0 0 0": (
        "0070ae01ec045d29a8dc387bd04d84659b35ae3fd6c7033b833f6f3f969524a9",
        "76895f538ca87b4db078415572cd857891b8bd1a23c61e1849d10ff4e4db7761",
    ),
    "bwb E8 --basis root -- 2 -1 -1 -1 -1 -1 -1 -1": (
        "13e38515bbc94e59a1a2a44e66c319109771bb7abb6e9f05117bb95014b94c39",
        "2e9371bb476c3680e4d2252f1115d624acc1afbcb576d2aff8a5348fc04a87c4",
    ),
    "cht E8 --basis root -- -1 0 0 0 0 0 0 0": (
        "7d2269e865f7d72acf71cfc438eeb85974041ebc561c3c1dbb76cc62b017b56e",
        "7c6fcfb856ce2a1c561e8b454f55d32e044e0e16586e005594a5886e59782497",
    ),
    "cotangent E8 --basis root -- -1 0 0 0 0 0 0 0": (
        "15540b2b8951d6387a1b7b12cf4e7f84e00861b35c2543af8e9f3875994bb7e0",
        "4ef23586e222d752b148885241603e4e157fe17fd8825b90d8847120f801e803",
    ),
    "euler E8 --degree 1 -- 0 0 0 0 0 0 0 0": (
        "03221831f51c910fe76307c2cd68a97cc92f8ed91b0ebc091387ae0d49442d82",
        "e7b701978f809821ac69157771d1581852bc436866e2ec8f44d33e89ba0966f8",
    ),
    "chevalley E8": (
        "0f91d5a110d38a52f82b9e7abc8248e547bbeffa5f2044574d787f770ce6dc1c",
        "d660ad87fe0baf4a400c00f8396d744db840b0b099dc5ba00587b3ee98a9a71f",
    ),
    "chevalley E8 --dump": (
        "2b6fd635d6791175f510cd0214b1afbcca60b7ac9bc1e1e7da1e3d33e0c6872a",
        "ab7f6bcf89ef1c07aa3f1e08b19bc410896226b25a144cc5d896b8ffd5c2f94b",
    ),
    "obstruction E8 --certify": (
        "9921ae452945268fe19cf489f66079b05cab41b298114e1689d11ac9a2ff2794",
        "3e0af381b5e51a1c0071d64b07ac07d5ff908b517aab2b40616f8b51927b42d6",
    ),
    "obstruction E8 --half negative --certify": (
        "facd733f3f502355f0eca193bb43bee7e1f154565332c7d242e627e34a205228",
        "2756ff6e077b7d469df378a9c5399c150cb4a30bc82c04216082d228696149ab",
    ),
    "surface E8 --root 2 3 4 6 5 4 3 2": (
        "2ece37c9b957b5078f0a3e1dda442774946b6a84a827c1dd7515d100793c7c10",
        "1d911f1789f6ff60adedba0a5548093729f7b623b620e9018186b53abb2d95fa",
    ),
    "roots Z9": (
        "9dbb63d3064c9e1ca2c3890430ac48d32c3185721eed10288e6915c21a0a10c6",
        "9dbb63d3064c9e1ca2c3890430ac48d32c3185721eed10288e6915c21a0a10c6",
    ),
    "bwb A2 1": (
        "19cced2db4dd09a284366f129f525214c9b20e13ee595e21227d9b5f1244be64",
        "19cced2db4dd09a284366f129f525214c9b20e13ee595e21227d9b5f1244be64",
    ),
    "euler A2 --degree -1 -- 0 0": (
        "8b5b9d09808d8bedbec0e79f84fcc7827450335c8d437e88ea6ae74d85412a5a",
        "8b5b9d09808d8bedbec0e79f84fcc7827450335c8d437e88ea6ae74d85412a5a",
    ),
    "euler A2 --degree 3 --max-terms 2 0 0": (
        "43b804dce96d9d71799db71c14775d2dfad28ac5804f19248b1beba1cf6d4f60",
        "43b804dce96d9d71799db71c14775d2dfad28ac5804f19248b1beba1cf6d4f60",
    ),
    "surface A2 --root 1": (
        "8b7d6fd118b6ff916b900435c7caf29a782d51f1481e9ece42b5cc6ed8307313",
        "8b7d6fd118b6ff916b900435c7caf29a782d51f1481e9ece42b5cc6ed8307313",
    ),
    "surface A3 --root 1 0 1": (
        "55f5d1823e650983e4ebded3b5a75ba78f661a8d791c90afb2af01a5ccb4e52e",
        "55f5d1823e650983e4ebded3b5a75ba78f661a8d791c90afb2af01a5ccb4e52e",
    ),
}

# The lines that print a checked count: per format, (checked, SHA-256 as
# above with the count taken out of stdout, as ' (N checks)' in text and
# '"checked": N, ' in JSON).  The digests were recorded while the surface
# suite also walked the descent of every negative root, which moved checked
# alone.
CHECKED_PINS = {
    "surface A3": (
        (10, "c1d498573a734a173a2ce836af151d598014850d194dd18757674d53acca0348"),
        (10, "15b00615a04d0aadea30db1af589b3f558be4dd77feba8068cf321c342a1bcb5"),
    ),
    "verify A3 all": (
        (950, "eb067c302aa1c576c55b72310a858d2cadcb0d1f39b3fbde8a9e280f77868a70"),
        (950, "b932a7a778ed1a7462275c3b658e9dfa79994b7dbecc48ff61b8cc866691374b"),
    ),
    "surface D4": (
        (17, "213cb73579fb0f14d108966ec947aad943aa20d4acefa65e96ed80b03e2d94b1"),
        (17, "3d55e8150ab91aef01f1e83b3c438aa79d8018301e46cd2916a1308e05a1a4ad"),
    ),
    "verify D4 all": (
        (5218, "de1747997c6b777deeb14cb7f69a2b551d4df500c61e58ae04a70a386b687984"),
        (5218, "40fbf3f3c6b7df9036162af2b2223d00146f38fa9f7b1b0d7b3d59dc12676e17"),
    ),
    "surface E8": (
        (129, "369718ff86180bf64b68f6761f6c9f52aa8e6bd12baa6b083eac4d980782e024"),
        (129, "628b6d880c6d65bd0384ee992f55c57917c8a83d94f2955e2d37e92d7dc0d77d"),
    ),
    "verify E8 all": (
        (2628386, "787af1d4b363a98e778d7ff40404927a197ea07f23abaef871356d2030401d76"),
        (2628386, "27dc3e703bd4793d809ecb2982236ef1e763ad549e3395ec7abead410d56ed29"),
    ),
}
COUNT = {"text": " ({} checks)", "json": '"checked": {}, '}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("line", [*CLI_PINS, *CHECKED_PINS])
def test_cli_bytes_are_pinned(capsys, line, fmt):
    argv = line.split()
    if fmt == "json":
        # the format flag goes before any "--" separator guarding negative coords
        argv[1:1] = ["--format", "json"]
    if line in CLI_PINS:
        assert _digest(capsys, argv) == CLI_PINS[line][fmt == "json"]
    else:
        checked, digest = CHECKED_PINS[line][fmt == "json"]
        assert _digest(capsys, argv, COUNT[fmt].format(checked)) == digest


@pytest.mark.parametrize("line,bad", [("frobnicate A2", "frobnicate"), ("verify A2 nosuite", "nosuite")])
def test_argparse_rejections_exit_two_with_empty_stdout(capsys, line, bad):
    with pytest.raises(SystemExit) as exc:
        main(line.split())
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert bad in captured.err
