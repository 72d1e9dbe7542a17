"""One adelie process of the benchmark: set up, run, report.

Usage (the harness in run.py builds these command lines):

    child.py RESULT [--trace SPANS] cli TYPE ARG...
    child.py RESULT [--trace SPANS] warm QUERIES ANSWERS SECONDS TYPE...
    child.py RESULT setup TYPE...

Set-up is the import of adelie plus building the named root systems (for
``warm`` and ``setup`` also their resolution lattices and descent oracles);
its time and the process's environment go to RESULT as JSON.  ``cli`` then
runs ``adelie.cli.main`` on ARG (stdout is the command's own output) and
exits with its code.  ``warm`` answers the "stream" queries of the QUERIES
file in order until they have taken SECONDS (0: answer them all), with its
"reference" queries answered in REFERENCE_SLICES equal slices spread evenly
over the stream's time (SECONDS 0: over its length), timing each library
call; the answers
go one per line to reference.jsonl and stream.jsonl in the directory
ANSWERS.  ``setup`` does the set-up of ``warm`` and exits.  With --trace the
public functions named in tracer.TARGETS are wrapped before set-up and the
spans go to SPANS when the process ends normally; a process stopped by a
signal writes none.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


# the reference queries are answered in this many slices spread over the stream
REFERENCE_SLICES = 20


def _blas_threads():
    """Thread count of numpy's OpenBLAS, or None when it cannot be asked."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _weight(coords):
    from adelie.roots import weight_vector
    return weight_vector(*coords)


def _answer(kind, value):
    """Plain-JSON form of one library answer."""
    if kind == "bwb":
        return {
            "status": value.status,
            "degree": value.degree,
            "highest_weight": None if value.highest_weight is None
            else list(value.highest_weight.coords),
            "dimension": value.dimension,
            "word": None if value.word is None else list(value.word),
        }
    if kind == "euler":
        return value
    if kind == "cotangent":
        rep = value.report
        return {
            "value": rep.value,
            "lambda_star": list(rep.lambda_star.coords),
            "lambda_plus": list(rep.lambda_plus.coords),
            "shift": rep.shift,
            "interval_points": rep.interval_points,
            "chain": [list(v.coords) for v in rep.chain],
            "vanishing_above": value.vanishing_above,
            "h2_vanish": value.h2_vanish,
        }
    divisor, verdict = value
    return {
        "divisor": list(divisor.coeffs),
        "vanishes": verdict.vanishes,
        "detail": verdict.detail,
    }


def _warm(queries_path, answers_dir, seconds, systems, lattices, oracles):
    from adelie import cotangent, flag, surface
    from adelie.roots import root_vector

    calls = {
        "bwb": lambda t, c: flag.bwb(systems[t], _weight(c)),
        "euler": lambda t, c: flag.euler_characteristic(systems[t], _weight(c)),
        "cotangent": lambda t, c: cotangent.cotangent_verdict(systems[t], _weight(c)),
        "surface": lambda t, c: (
            surface.root_to_divisor(lattices[t], root_vector(*c)),
            oracles[t](root_vector(*c)),
        ),
    }
    with open(queries_path) as fh:
        queries = json.load(fh)
    clock = time.perf_counter

    def answer(out, batch):
        for kind, t, coords in batch:
            t0 = clock()
            value = calls[kind](t, coords)
            dt = clock() - t0
            out.write(json.dumps([dt, _answer(kind, value)]) + "\n")

    # The reference queries are answered in slices spread over the stream, so
    # their summed time averages the machine's speed over the whole run; the
    # time box counts the stream's time only.
    stream, reference = queries["stream"], queries["reference"]
    cuts = [len(reference) * k // REFERENCE_SLICES for k in range(REFERENCE_SLICES + 1)]

    def due(k, n, stream_s):
        if seconds:
            return stream_s >= seconds * k / REFERENCE_SLICES
        return n >= len(stream) * k // REFERENCE_SLICES

    with open(os.path.join(answers_dir, "reference.jsonl"), "w") as ref_out, \
            open(os.path.join(answers_dir, "stream.jsonl"), "w") as stream_out:
        start, ref_s, k = clock(), 0.0, 0
        for n, query in enumerate(stream):
            stream_s = clock() - start - ref_s
            while k < REFERENCE_SLICES and due(k, n, stream_s):
                t0 = clock()
                answer(ref_out, reference[cuts[k]:cuts[k + 1]])
                ref_s += clock() - t0
                k += 1
            if seconds and stream_s >= seconds:
                break
            answer(stream_out, [query])
        answer(ref_out, reference[cuts[k]:])

def main(argv) -> int:
    result_path = argv.pop(0)
    trace_path = None
    if argv[0] == "--trace":
        trace_path = argv[1]
        argv = argv[2:]
    mode = argv.pop(0)

    import adelie.cli  # noqa: F401  imports every module of the package
    from adelie import roots, surface

    tracer = None
    if trace_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    if mode == "cli":
        types, argv = argv[:1], argv[1:]
    elif mode == "setup":
        types = argv
    else:
        queries_path, answers_dir, seconds = argv[0], argv[1], float(argv[2])
        types = argv[3:]
    systems = {t: roots.build(t) for t in types}
    lattices = oracles = None
    if mode != "cli":
        lattices = {t: surface.resolution_lattice(rs) for t, rs in systems.items()}
        oracles = {t: surface.surface_h2_oracle(lat) for t, lat in lattices.items()}
    setup_s = time.perf_counter() - T0

    import numpy

    record = {
        "setup_s": setup_s,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
    }
    with open(result_path, "w") as fh:
        json.dump(record, fh)

    if mode == "setup":
        return 0
    code = 0
    if mode == "cli":
        code = adelie.cli.main(argv)
    else:
        _warm(queries_path, answers_dir, seconds, systems, lattices, oracles)
    sys.stdout.flush()
    if tracer is not None:
        tracer.dump(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
