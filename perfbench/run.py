"""adelie benchmark: run one workload, check every answer, print the metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Workloads are described in
workloads.py and README.md.  Load is a closed loop with one client: one adelie
process at a time, each started only after the previous one has ended.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the workload twice
with the same inputs, untraced and then with every function in
tracer.TARGETS wrapped, and prints the per-layer metrics from the second run
plus trace_overhead, the ratio of the two runs' time per operation.  Spans
are kept under .perfbench_out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is the run record (seed,
versions, every operation's time and outcome, unsolved and failed names).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference"
OUT = ROOT / ".perfbench_out"

RUN_BUDGET_S = 165.0  # every run ends well inside the harness's 180 s
STOP_GRACE_S = 5.0  # SIGTERM to SIGKILL
SETUP_SAMPLES = 8  # set-up-only processes of weight-queries, for the setup_s median
SETUP_ALLOWANCE_S = 60.0

# end-to-end metric units, in the order BENCHMARK.json lists them
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "solved": "count",
}


def _die_with_parent() -> None:
    """In the child before exec: take SIGKILL when the harness dies."""
    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


class Runner:
    """Starts adelie processes one at a time and collects what they report."""

    def __init__(self, started: float, tmp: Path) -> None:
        self.started = started
        self.tmp = tmp
        self.n = 0
        self.env = dict(os.environ)
        # an absolute src path: children may run with another working directory
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        self.info: dict = {}

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.started)

    def spawn(self, args: list[str], deadline: float, trace: Path | None = None) -> dict:
        """Run child.py with args until it exits or the deadline passes."""
        self.n += 1
        base = self.tmp / f"p{self.n}"
        cmd = [sys.executable, str(CHILD), f"{base}.result"]
        if trace is not None:
            cmd += ["--trace", str(trace)]
        cmd += args
        limit = min(deadline, self.remaining())
        if limit <= 0:
            return {"seconds": 0.0, "exit": None, "stopped": True, "budget": True,
                    "maxrss_mb": 0.0, "stdout": "", "stderr": "", "setup_s": None}
        with open(f"{base}.out", "wb") as out, open(f"{base}.err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT,
                                    preexec_fn=_die_with_parent)
            pidfd = os.pidfd_open(proc.pid)
            reaped = False
            try:
                stopped = not select.select([pidfd], [], [], limit)[0]
                if stopped:
                    proc.send_signal(signal.SIGTERM)
                    if not select.select([pidfd], [], [], STOP_GRACE_S)[0]:
                        proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                reaped = True
                seconds = time.perf_counter() - t0
            finally:
                if not reaped:  # the harness itself is being stopped
                    os.kill(proc.pid, signal.SIGKILL)
                    os.wait4(proc.pid, 0)
                os.close(pidfd)
            proc.returncode = os.waitstatus_to_exitcode(status)
        result = {}
        if os.path.exists(f"{base}.result"):
            with open(f"{base}.result") as fh:
                result = json.load(fh)
        for key in ("python", "numpy", "blas_threads"):
            if key in result:
                self.info[key] = result[key]
        return {
            "seconds": seconds,
            "exit": proc.returncode,
            "stopped": stopped,
            "budget": stopped and limit < deadline,
            "maxrss_mb": usage.ru_maxrss / 1024.0,
            "stdout": Path(f"{base}.out").read_text(),
            "stderr": Path(f"{base}.err").read_text()[-2000:],
            "setup_s": result.get("setup_s"),
        }


def _load_reference(name: str) -> dict:
    path = REFERENCE / name
    return json.loads(path.read_text()) if path.exists() else {}


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _beyond(n: int, q: int) -> int:
    """Samples strictly above the q-th percentile position."""
    return n - 1 - int((n - 1) * q / 100)


# -- per-process workloads --------------------------------------------------

def judge_cli(op: dict, name: str, ref: dict) -> tuple[str, str, dict | None]:
    """(status, reason, route descriptors) for one cli-matrix command."""
    if op["stopped"]:
        return "failed", "stopped at the deadline", None
    try:
        payload = json.loads(op["stdout"])
    except json.JSONDecodeError:
        return "failed", f"exit {op['exit']}, no JSON output: {op['stderr'][-200:]!r}", None
    verdict, route = checks.split_payload(payload)
    want = ref.get(name)
    if want is None:
        return "failed", "no seed reference", route
    if op["exit"] != want["exit"]:
        return "failed", f"exit {op['exit']}, seed exit {want['exit']}", route
    if checks.digest(verdict) != want["verdict_sha256"]:
        return "failed", "verdict differs from the seed reference", route
    return "ok", "", route


def judge_deep(op: dict, name: str, argv: list[str], ref: dict) -> tuple[str, str]:
    """(status, reason) for one deep-cotangent query.

    Stopping at the deadline, and exit 2 (the CLI's code for an adelie error,
    which includes BudgetExceeded), leave the query unsolved; any other
    non-zero exit, and any wrong answer, is a failure.
    """
    if op["budget"]:
        return "failed", "run budget exhausted"
    if op["stopped"]:
        return "unsolved", f"stopped at the {workloads.DEEP_DEADLINE_S:g} s deadline"
    if op["exit"] == 2:
        return "unsolved", op["stderr"].strip()[-200:]
    if op["exit"] != 0:
        return "failed", f"exit {op['exit']}: {op['stderr'][-200:]!r}"
    try:
        payload = json.loads(op["stdout"])
    except json.JSONDecodeError:
        return "failed", "no JSON output"
    t = argv[1]
    weight = [int(v) for v in argv[argv.index("--") + 1:]]
    if argv[0] == "cht":
        bad = checks.check_cht(t, weight, payload)
        fields = ("value", "lambda_star", "lambda_plus", "shift", "interval_points")
    else:
        bad = checks.check_graded_euler(t, weight, payload["degree"], payload["euler"])
        fields = ("euler",)
    if bad:
        return "failed", bad
    want = ref.get(name)
    if want is not None and any(payload[k] != want[k] for k in fields):
        return "failed", "answer differs from the seed reference"
    return "ok", ""


def run_processes(runner: Runner, workload: str, seed: int, trace_dir: Path | None,
                  passes: int = 1) -> dict:
    """The workload's fixed list, `passes` times, one process per operation.

    An operation's latency is the median of its runs, and wall_s is the sum
    of those medians, the time of one typical pass; an operation is solved
    when every run of it is right.  An operation left unsolved is not run in
    later passes.
    """
    if workload == "cli-matrix":
        ops, deadline = workloads.CLI_MATRIX, workloads.CLI_DEADLINE_S
        ref = _load_reference("cli_matrix.json")
    else:
        ops, deadline = workloads.DEEP_LADDER, workloads.DEEP_DEADLINE_S
        ref = _load_reference("deep_cotangent.json")
    done, dumps, left_out = [], [], []
    for p in range(passes):
        for name, t, argv in workloads.ordered(ops, seed, p):
            if any(op["name"] == name and op["status"] == "unsolved" for op in done):
                continue
            trace = None if trace_dir is None else trace_dir / f"proc-{len(done)}.json"
            op = runner.spawn(["cli", t, *argv], deadline, trace)
            if trace is not None:
                # a process stopped at its deadline got only part of the way, so
                # its spans would make the per-layer counts vary from run to run
                if op["stopped"]:
                    left_out.append(name)
                elif trace.exists():
                    dumps.append(trace)
            if workload == "cli-matrix":
                status, reason, route = judge_cli(op, name, ref)
            else:
                (status, reason), route = judge_deep(op, name, argv, ref), None
            done.append({"name": name, "pass": p, "status": status, "reason": reason,
                         "seconds": op["seconds"], "exit": op["exit"],
                         "maxrss_mb": op["maxrss_mb"], "setup_s": op["setup_s"],
                         "route": route})
    runs: dict = {}
    for op in done:
        runs.setdefault(op["name"], []).append(op)
    times = [statistics.median(op["seconds"] for op in r) for r in runs.values()]
    solved = sum(all(op["status"] == "ok" for op in r) for r in runs.values())
    wall = sum(times)
    setups = [op["setup_s"] for op in done if op["setup_s"] is not None]
    return {
        "ops": done,
        "dumps": dumps,
        "spans_left_out": left_out,
        "attempted": len(done),
        "failed": sum(op["status"] == "failed" for op in done),
        "wall_s": wall,
        "per_op_s": sum(op["seconds"] for op in done) / len(done),
        "metrics": {
            "setup_s": statistics.median(setups) if setups else 0.0,
            "wall_s": wall,
            "peak_rss_mb": max(op["maxrss_mb"] for op in done),
            "queries_per_s": solved / wall if wall else 0.0,
            "query_p50_ms": 1e3 * _percentile(times, 50),
            "query_p99_ms": 1e3 * _percentile(times, 99),
            "solved": solved,
        },
        "samples": len(times),
        "beyond_p99": _beyond(len(times), 99),
        "setup_samples": len(setups),
    }


# -- weight-queries ---------------------------------------------------------

def run_weight(runner: Runner, seed: int, seconds: float, trace_dir: Path | None) -> dict:
    """The warm process: a timed stream for `seconds` (0: the fixed traced
    stream) with the fixed reference queries answered in slices spread over
    it; then every answer is checked.

    The timed metrics come from the reference queries, a fixed amount of work
    that is the same for every seed: the stream's own time is `seconds` by
    construction, and its seeded mix moves its throughput and its tail from
    seed to seed.  The stream's figures go to the run record.  The reference
    queries are answered in REFERENCE_ROUNDS rounds, one after another, and a
    query's latency is the median of its rounds; wall_s is the sum of those
    medians, the time of one typical round.
    """
    length = workloads.STREAM_LENGTH if seconds else workloads.TRACE_STREAM_LENGTH
    stream = workloads.weight_stream(seed, length)
    ref = _load_reference("weight_queries.json")
    reference, want = ref.get("queries", []), ref.get("answers", [])
    tag = "plain" if trace_dir is None else "traced"
    qfile = runner.tmp / f"queries-{tag}.json"
    rounds = workloads.REFERENCE_ROUNDS
    qfile.write_text(json.dumps({"stream": stream, "reference": reference * rounds}))
    answers = runner.tmp / f"answers-{tag}"
    answers.mkdir()

    setups, rss = [], []
    for _ in range(SETUP_SAMPLES if seconds else 0):
        op = runner.spawn(["setup", *workloads.WARM_TYPES], SETUP_ALLOWANCE_S)
        if op["setup_s"] is not None:
            setups.append(op["setup_s"])
        rss.append(op["maxrss_mb"])
    trace = None if trace_dir is None else trace_dir / "proc-0.json"
    # the warm process may take what is left of the run's budget
    op = runner.spawn(["warm", str(qfile), str(answers), repr(seconds), *workloads.WARM_TYPES],
                      RUN_BUDGET_S, trace)
    if op["setup_s"] is not None:
        setups.append(op["setup_s"])
    rss.append(op["maxrss_mb"])

    def read(name):
        path = answers / name
        if not path.exists():
            return []
        return [json.loads(line) for line in path.read_text().splitlines()]

    answered = read("stream.jsonl")
    ref_answers = read("reference.jsonl")
    failures = []
    verdicts: dict = {}  # a repeated query is checked once

    def check(kind, t, coords, ans):
        key = json.dumps([kind, t, coords, ans])
        if key not in verdicts:
            verdicts[key] = checks.WARM_CHECKS[kind](t, coords, ans)
        return verdicts[key]

    correct = 0
    for (kind, t, coords), (_dt, ans) in zip(stream, answered):
        bad = check(kind, t, coords, ans)
        if bad:
            failures.append(f"{kind} {t} {coords}: {bad}")
        else:
            correct += 1
    runs = [[] for _ in reference]  # each reference query's call times
    right = [True] * len(reference)
    for k in range(rounds * len(reference)):
        i = k % len(reference)
        kind, t, coords = reference[i]
        if k >= len(ref_answers):
            bad = "not answered"
        else:
            dt, ans = ref_answers[k]
            runs[i].append(dt)
            bad = check(kind, t, coords, ans)
            if bad is None and checks.reference_fields(kind, ans) != want[i]:
                bad = "answer differs from the seed reference"
        if bad:
            failures.append(f"reference {kind} {t} {coords}: {bad}")
            right[i] = False
    solved = sum(right)
    attempted = len(answered) + rounds * len(reference)
    if op["exit"] != 0:
        attempted += 1
        failures.append(f"warm process exit {op['exit']}"
                        f"{' (stopped)' if op['stopped'] else ''}: {op['stderr'][-300:]!r}")
    times = [statistics.median(r) for r in runs if r]
    wall = sum(times)
    stream_times = [dt for dt, _ in answered]
    distinct = len({json.dumps(q) for q in stream[:len(answered)]})
    # the measured weight of each call kind, over everything the process answered
    mix = {kind: {"calls": 0, "s": 0.0} for kind, _ in workloads.KIND_SHARES}
    calls = stream[:len(answered)] + (reference * rounds)[:len(ref_answers)]
    call_times = stream_times + [dt for dt, _ in ref_answers]
    for (kind, _t, _c), dt in zip(calls, call_times):
        mix[kind]["calls"] += 1
        mix[kind]["s"] += dt
    busy_s = sum(call_times)
    for share in mix.values():
        share["call_share"] = share["calls"] / len(calls) if calls else 0.0
        share["time_share"] = share["s"] / busy_s if busy_s else 0.0
    dumps = [trace] if trace is not None and trace.exists() else []
    return {
        "ops": [],
        "dumps": dumps,
        "spans_left_out": [],
        "failures": failures,
        "attempted": max(attempted, 1),
        "failed": len(failures),
        "wall_s": wall,
        "per_op_s": busy_s / len(calls) if calls else 0.0,
        "mix": mix,
        "stream": {
            "queries": len(answered),
            "queries_per_s": correct / sum(stream_times) if stream_times else 0.0,
            "p50_ms": 1e3 * _percentile(stream_times, 50) if stream_times else 0.0,
            "p99_ms": 1e3 * _percentile(stream_times, 99) if stream_times else 0.0,
        },
        "metrics": {
            "setup_s": statistics.median(setups) if setups else 0.0,
            "wall_s": wall,
            "peak_rss_mb": max(rss),
            "queries_per_s": solved / wall if wall else 0.0,
            "query_p50_ms": 1e3 * _percentile(times, 50) if times else 0.0,
            "query_p99_ms": 1e3 * _percentile(times, 99) if times else 0.0,
            "solved": solved,
        },
        "samples": len(times),
        "beyond_p99": _beyond(len(times), 99),
        "repeat_share": 1 - distinct / len(answered) if answered else 0.0,
        "stream_exhausted": len(answered) == len(stream),
        "setup_samples": len(setups),
    }


# -- driver -----------------------------------------------------------------

def run_workload(runner: Runner, workload: str, seed: int, seconds: float,
                 trace_dir: Path | None, passes: int = 1) -> dict:
    if workload == "weight-queries":
        return run_weight(runner, seed, seconds, trace_dir)
    return run_processes(runner, workload, seed, trace_dir, passes)


def _record(workload, seed, seconds, trace, runner, runs) -> dict:
    main = runs[-1]
    rec = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": runner.info.get("python"),
        "numpy": runner.info.get("numpy"),
        "blas_threads": runner.info.get("blas_threads"),
        "nproc": len(os.sched_getaffinity(0)),
        "latency_samples": main["samples"],
        "samples_beyond_p99": main["beyond_p99"],
        "setup_samples": main["setup_samples"],
    }
    if main["ops"]:
        rec["passes"] = 1 + max(op["pass"] for op in main["ops"])
    if workload == "deep-cotangent":
        rec["deadline_s"] = workloads.DEEP_DEADLINE_S
    if workload == "weight-queries":
        rec["repeat_share"] = main["repeat_share"]
        rec["stream_exhausted"] = main["stream_exhausted"]
        rec["mix"] = main["mix"]
        rec["stream"] = main["stream"]
    rec["unsolved"] = [op["name"] for op in main["ops"] if op["status"] == "unsolved"]
    rec["failures"] = [f"{op['name']}: {op['reason']}" for r in runs for op in r["ops"]
                       if op["status"] == "failed"] + [f for r in runs for f in r.get("failures", [])]
    rec["ops"] = [{k: op[k] for k in ("name", "pass", "status", "seconds", "exit", "route")}
                  for op in main["ops"]]
    return rec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-matrix", "weight-queries", "deep-cotangent"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    # stopping the harness stops its child too (Runner.spawn's finally)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "adelie" / "__init__.py").is_file():
        print(f"error: no adelie sources under {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    try:
        runner = Runner(started, tmp)
        seconds = args.seconds if args.workload == "weight-queries" else 0.0
        if not args.trace:
            passes = workloads.PASSES.get(args.workload, 1)
            runs = [run_workload(runner, args.workload, args.seed, seconds, None, passes)]
            metrics = {k: {"value": runs[0]["metrics"][k], "unit": u}
                       for k, u in E2E_UNITS.items()}
        else:
            trace_dir = OUT / f"trace-{args.workload}-seed{args.seed}"
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir()
            # the same inputs twice: untraced for the overhead base, then traced;
            # weight-queries answers a fixed-length stream so counts repeat exactly
            plain = run_workload(runner, args.workload, args.seed, 0.0, None)
            traced = run_workload(runner, args.workload, args.seed, 0.0, trace_dir)
            runs = [plain, traced]
            dumps = [json.loads(p.read_text()) for p in traced["dumps"]]
            layer = tracer.summarise(dumps)
            units = {**{f"{n}.{k}": u for n in tracer.SPAN_NAMES
                        for k, u in (("calls", "count"), ("s", "s"), ("self_s", "s"))},
                     **tracer.COUNTS}
            metrics = {k: {"value": layer[k], "unit": units[k]} for k in units}
            overhead = traced["per_op_s"] / plain["per_op_s"] if plain["per_op_s"] else 0.0
            metrics["trace_overhead"] = {"value": overhead, "unit": "ratio"}
        record = _record(args.workload, args.seed, args.seconds, args.trace, runner, runs)
        if args.trace:
            record["absent"] = sorted({a for d in dumps for a in d["absent"]})
            record["spans_left_out"] = traced["spans_left_out"]
            record["untraced_wall_s"] = runs[0]["wall_s"]
            record["traced_wall_s"] = runs[1]["wall_s"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
