"""The measured process: one client sending CLI commands in a closed loop.

Usage: python3 client.py OPS_JSON RESULTS_JSONL SECONDS LIMIT [SPANS_JSONL]

Runs the ops listed in OPS_JSON in order through ``stablecount.cli.run``
in this interpreter, each op only after the previous one finished, until
SECONDS have passed or LIMIT ops are done (0 means no limit).  Each op's
commands are timed one by one; stdout and stderr are captured for the
checks, which run in the orchestrating process afterwards.  With
SPANS_JSONL, calls into the library's public functions are traced and the
spans are written there at the end.  The last line of RESULTS_JSONL holds
the environment and the peak resident memory of this process.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time


def _clear_caches() -> None:
    # every CLI call starts a fresh process, so no memo survives between ops
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "stablecount":
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def _environment() -> dict:
    import mpmath
    import mpmath.libmp

    return {
        "python": sys.version.split()[0],
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv: list[str]) -> int:
    ops_path, results_path, seconds, limit = argv[:4]
    spans_path = argv[4] if len(argv) > 4 else None
    seconds, limit = float(seconds), int(limit)

    from stablecount import cli

    tracer = None
    if spans_path:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    with open(ops_path, encoding="utf-8") as fh:
        ops = json.load(fh)
    if limit:
        ops = ops[:limit]

    exhausted = True
    start = time.perf_counter()
    with open(results_path, "w", encoding="utf-8") as out:
        for index, op in enumerate(ops):
            if time.perf_counter() - start >= seconds:
                exhausted = False
                break
            _clear_caches()
            gc.collect()
            if tracer:
                tracer.begin_op(index)
            record = {"durations": [], "cmds": []}
            for cmd in op["cmds"]:
                stdout, stderr = io.StringIO(), io.StringIO()
                code, exc = None, None
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    t0 = time.perf_counter()
                    try:
                        code = cli.run(cmd)
                    except Exception as err:  # a crash is a result to report
                        exc = type(err).__name__
                    record["durations"].append(time.perf_counter() - t0)
                record["cmds"].append(
                    {"code": code, "exc": exc, "out": stdout.getvalue(), "err": stderr.getvalue()}
                )
            out.write(json.dumps(record) + "\n")
        usage = resource.getrusage(resource.RUSAGE_SELF)
        summary = {
            "peak_rss_mb": usage.ru_maxrss / 1024,
            "inputs_exhausted": exhausted,
            "env": _environment(),
        }
        out.write(json.dumps(summary) + "\n")
    if tracer:
        tracer.dump(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
