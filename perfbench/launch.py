"""Run one unit of benchmark work in a fresh interpreter.

    launch.py --status FILE --setup CONFIG
        Set-up only: import iterboot, load the config, build its
        schedules, record the time, exit.
    launch.py --status FILE [--trace DIR] -- ARGS...
        ``iterboot ARGS...``, exactly as the console script runs it.

The status file receives CLOCK_MONOTONIC timestamps (comparable with
the parent's clock) and the process's own CPU time at the moment the
work starts, so the parent can split set-up from work.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _write(path: str, status: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(status, fh)


def main(argv: list[str]) -> int:
    status_path = argv[argv.index("--status") + 1]
    if "--setup" in argv:
        cfg_path = argv[argv.index("--setup") + 1]
        t0 = time.monotonic()
        import iterboot.cli  # noqa: F401  (the whole package, as the CLI loads it)
        from iterboot import config

        t1 = time.monotonic()
        cfg = config.load_config(cfg_path)
        t2 = time.monotonic()
        for p in cfg.policies:
            config.build_schedule(p, cfg.T)
        t3 = time.monotonic()
        _write(
            status_path,
            {
                "ready": t3,
                "import_s": t1 - t0,
                "load_config_ms": (t2 - t1) * 1e3,
                "build_schedules_ms": (t3 - t2) * 1e3,
            },
        )
        return 0

    from iterboot import cli

    trace_dir = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    if trace_dir is not None:
        import tracer

        tracer.install(trace_dir)
    status = {"ready": time.monotonic(), "cpu_ready": _cpu_s()}
    rc = cli.main(argv[argv.index("--") + 1 :])
    status["end"] = time.monotonic()
    status["rc"] = rc
    if trace_dir is not None:
        tracer.dump()
    _write(status_path, status)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
