"""One fresh, single-threaded process: set up, run one qemlab command, report.

    python3 perfbench/worker.py WORKLOAD SEED DIR MODE

MODE is ``setup`` (stop once the command is ready to call), ``run`` or
``trace`` (run it with the tracer's shims installed).  BLAS thread pools are
limited to one thread by the caller's environment.  The worker writes the
workload's config to DIR/config.json, the command's artifacts to
DIR/artifacts and, when tracing, every span to DIR/spans.json.  Its last
stdout line is a JSON object: ``ready`` (CLOCK_MONOTONIC when the command
could be called), and for a run ``rc``, ``wall_s``, ``rss_kb``, ``threads``
and, when tracing, ``layers``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import numpy  # noqa: E402,F401  (part of set-up, as for any CLI user)
from qemlab import cli  # noqa: E402

from workloads import TIMING_FILES, WORKLOADS  # noqa: E402


def _threads() -> int | None:
    """OS threads of this process (Linux), to confirm it is single-threaded."""
    try:
        status = Path("/proc/self/status").read_text()
    except OSError:
        return None
    return next(int(line.split()[1]) for line in status.splitlines()
                if line.startswith("Threads:"))


def main(name: str, seed: int, workdir: Path, mode: str) -> dict:
    workload = WORKLOADS[name]
    workdir.mkdir(parents=True, exist_ok=True)
    config = workdir / "config.json"
    config.write_text(json.dumps(workload.config(seed)))
    report = {"ready": time.monotonic()}
    if mode == "setup":
        return report
    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    out = workdir / "artifacts"
    argv = [workload.command, "--config", str(config), "--out", str(out),
            "--seed", str(seed)]
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception:  # reported as a failed operation, not a crash
        traceback.print_exc()
        rc = -1
    report["wall_s"] = time.perf_counter() - start
    report["rc"] = rc
    report["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report["threads"] = _threads()
    if tracer is not None:
        tracer.uninstall()
        written = sum(p.stat().st_size for p in out.glob("*")
                      if p.name not in TIMING_FILES)
        report["layers"] = tracer.metrics(written)
        tracer.dump(workdir / "spans.json")
    return report


if __name__ == "__main__":
    name, seed, workdir, mode = sys.argv[1:5]
    print(json.dumps(main(name, int(seed), Path(workdir), mode)), flush=True)
