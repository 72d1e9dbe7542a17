"""Record the reference answers that run.py compares against.

    python3 perfbench/record.py [WORKLOAD...]

Run it from the root of a checkout of the commit whose answers are the
reference; it rewrites perfbench/reference/*.json, or only the files of the
named workloads.  Deep queries get a reference when they finish within
RECORD_DEADLINE_S, which is longer than the benchmark's deadline, so a later
commit that solves more of the ladder is still compared against an answer.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import checks
import run
import workloads

RECORD_DEADLINE_S = 90.0
# the fixed weight queries every weight-queries run answers among its timed stream
REFERENCE_SEED = "reference"
REFERENCE_LENGTH = 2000


def _write(name: str, data) -> None:
    (run.REFERENCE / name).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv) -> int:
    chosen = set(argv) or {"cli-matrix", "deep-cotangent", "weight-queries"}
    run.OUT.mkdir(exist_ok=True)
    tmp = run.OUT / "tmp-record"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    run.RUN_BUDGET_S = float("inf")
    runner = run.Runner(time.perf_counter(), tmp)
    try:
        if "cli-matrix" in chosen:
            record_cli(runner)
        if "deep-cotangent" in chosen:
            record_deep(runner)
        if "weight-queries" in chosen:
            record_weight(runner, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


def record_cli(runner) -> None:
    cli = {}
    for name, t, argv in workloads.CLI_MATRIX:
        op = runner.spawn(["cli", t, *argv], workloads.CLI_DEADLINE_S)
        verdict, _route = checks.split_payload(json.loads(op["stdout"]))
        cli[name] = {"exit": op["exit"], "verdict_sha256": checks.digest(verdict)}
        print(f"{name}: exit {op['exit']} in {op['seconds']:.2f} s", file=sys.stderr)
    _write("cli_matrix.json", cli)


def record_deep(runner) -> None:
    deep = {}
    for name, t, argv in workloads.DEEP_LADDER:
        op = runner.spawn(["cli", t, *argv], RECORD_DEADLINE_S)
        print(f"{name}: exit {op['exit']} in {op['seconds']:.2f} s"
              f"{' (stopped)' if op['stopped'] else ''}", file=sys.stderr)
        if op["exit"] == 0:
            payload = json.loads(op["stdout"])
            deep[name] = {k: payload[k] for k in (
                "value", "lambda_star", "lambda_plus", "shift", "interval_points", "euler",
            ) if k in payload}
    _write("deep_cotangent.json", deep)


def record_weight(runner, tmp) -> None:
    reference = workloads.weight_stream(REFERENCE_SEED, REFERENCE_LENGTH)
    qfile = tmp / "queries.json"
    qfile.write_text(json.dumps({"stream": [], "reference": reference}))
    answers = tmp / "answers"
    answers.mkdir()
    runner.spawn(["warm", str(qfile), str(answers), "0", *workloads.WARM_TYPES],
                 RECORD_DEADLINE_S)
    lines = (answers / "reference.jsonl").read_text().splitlines()
    fields = [checks.reference_fields(kind, json.loads(line)[1])
              for (kind, _t, _c), line in zip(reference, lines)]

    def rows(items):  # one query or answer a line
        return "[\n" + ",\n".join(json.dumps(x, sort_keys=True) for x in items) + "\n]"

    (run.REFERENCE / "weight_queries.json").write_text(
        f'{{"queries": {rows(reference)},\n"answers": {rows(fields)}}}\n')


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
