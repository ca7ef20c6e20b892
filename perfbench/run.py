"""Benchmark of the qemlab CLI: end-to-end and per-layer metrics per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --report [--seed N] [--seconds S]

Run from a checkout of the repository; the program is imported from its
``src`` directory.  Every operation is one real qemlab command
(``qemlab.cli.main``) in a fresh single-threaded worker process
(``worker.py``), given only ``--config``, ``--out`` and ``--seed``.  The
workload seed goes into the config's ``seed``.  After each command the
primary artifacts are checked against the workload's acceptance criterion
(``workloads.py``) and must be byte-identical to the first command of the
run, which has the same seed.  Each run also self-tests its checks on
deliberately wrong copies of its artifacts.

``--trace 0`` repeats the command for about ``--seconds`` and reports the
medians of ``wall_s`` (the command), ``setup_s`` (worker start until the
command is ready to call) and ``peak_rss_mb`` (the worker's ``ru_maxrss``);
it also prints ``failed_frac``.  ``--trace 1`` runs untraced and traced
commands in pairs and reports the per-layer metrics of ``tracer.py`` plus
``trace.overhead_s``, the traced minus the untraced ``wall_s``.  The last
stdout line is the JSON result.  ``--report`` does both for every workload,
prints one table and writes ``perfbench/out/report.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracer import EXACT_COUNTS, LAYER_METRICS  # noqa: E402
from workloads import TIMING_FILES, WORKLOADS, self_test  # noqa: E402

SETUP_PROBES = 5  # set-up-only workers per run, besides one per command
WORKER_TIMEOUT_S = 45  # about 5x the slowest command
LAST_START_S = 120  # no worker starts later than this into a run

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {**LAYER_METRICS, "trace.overhead_s": "s"}

# One thread per worker, whatever BLAS numpy was built with.
WORKER_ENV = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class Attempt:
    """One worker process: its report, artifacts and failed conditions."""

    def __init__(self, workload, seed: int, mode: str, tag: str):
        self.failures: list[str] = []
        self.artifacts: dict[str, str] = {}
        self.report: dict = {}
        self.setup_s = None
        workdir = OUT / f"{workload.name}-{seed}-{os.getpid()}-{tag}"
        start = time.monotonic()
        try:
            self._spawn(workload, seed, mode, workdir)
            self.setup_s = self.report["ready"] - start
            if mode != "setup":
                self._collect(workload, seed, workdir, mode)
        except RuntimeError as exc:
            self.failures.append(str(exc))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def _spawn(self, workload, seed, mode, workdir):
        argv = [sys.executable, str(HERE / "worker.py"), workload.name,
                str(seed), str(workdir), mode]
        try:
            proc = subprocess.run(argv, env=WORKER_ENV, capture_output=True,
                                  text=True, timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise RuntimeError("worker timed out") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"worker exit code {proc.returncode}: "
                               f"{proc.stderr[-2000:]}")
        self.report = json.loads(lines[-1])

    def _collect(self, workload, seed, workdir, mode):
        if self.report["threads"] not in (1, None):
            self.failures.append(f"worker ran {self.report['threads']} threads")
        if self.report["rc"] != 0:
            self.failures.append(f"exit code {self.report['rc']}")
            return
        out = workdir / "artifacts"
        self.artifacts = {p.name: p.read_text() for p in sorted(out.iterdir())
                          if p.name not in TIMING_FILES}
        try:
            self.failures += workload.check(self.artifacts)
        except (KeyError, ValueError, IndexError) as exc:
            self.failures.append(f"unreadable artifacts: {exc!r}")
        if mode == "trace":
            OUT.mkdir(exist_ok=True)
            shutil.copyfile(workdir / "spans.json",
                            OUT / f"spans-{workload.name}-seed{seed}.json")

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        for name, text in self.artifacts.items():
            h.update(name.encode() + b"\0" + text.encode() + b"\0")
        return h.hexdigest()


def _repeat(step, start: float, seconds: float, at_least: int) -> list:
    """Call ``step`` at least ``at_least`` times, then while the next call
    is expected to end within ``seconds`` of ``start``."""
    results, longest = [], 0.0
    while True:
        t = time.monotonic()
        results.append(step())
        longest = max(longest, time.monotonic() - t)
        next_end = time.monotonic() - start + longest
        if next_end > LAST_START_S or (len(results) >= at_least
                                       and next_end > seconds):
            return results


def _verify(workload, attempts: list[Attempt]) -> list[str]:
    """Cross-attempt checks: identical artifacts, checks not vacuous."""
    problems = []
    done = [a for a in attempts if a.artifacts]
    for a in done[1:]:
        if a.digest != done[0].digest:
            a.failures.append("artifacts differ from the first command of "
                              "this seed")
    if done:
        try:
            missed = self_test(workload, done[0].artifacts)
        except (KeyError, ValueError, IndexError, TypeError) as exc:
            missed = [f"mutation crashed: {exc!r}"]
        problems += [f"self-test: check accepts a wrong artifact ({m})"
                     for m in missed]
    return problems


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed last."""
    workload = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    tags = itertools.count()
    start = time.monotonic()

    def attempt(mode):
        return Attempt(workload, seed, mode, str(next(tags)))

    if not trace:
        probes = [attempt("setup") for _ in range(SETUP_PROBES)]
        attempts = _repeat(lambda: attempt("run"), start, seconds, at_least=3)
        problems = _verify(workload, attempts)
        problems += [f"set-up probe: {f}" for a in probes for f in a.failures]
        timed = [a for a in attempts if "wall_s" in a.report]
        if not timed:
            raise RuntimeError(f"{name}: no command ran to the end")
        metrics = {
            "wall_s": statistics.median(a.report["wall_s"] for a in timed),
            "setup_s": statistics.median(a.setup_s for a in probes + attempts
                                         if a.setup_s is not None),
            "peak_rss_mb": statistics.median(a.report["rss_kb"]
                                             for a in timed) / 1024.0,
        }
        units = END_TO_END
        print(f"{name:12s} wall_s samples (n={len(timed)}): "
              + " ".join(f"{a.report['wall_s']:.3f}" for a in timed))
    else:
        pairs = _repeat(lambda: (attempt("run"), attempt("trace")), start,
                        seconds, at_least=1)
        attempts = [a for pair in pairs for a in pair]
        problems = _verify(workload, attempts)
        pairs = [p for p in pairs if all("wall_s" in a.report for a in p)]
        if not pairs:
            raise RuntimeError(f"{name}: no command pair ran to the end")
        traced = [t.report["layers"] for _, t in pairs]
        for layers in traced[1:]:
            moved = [k for k in EXACT_COUNTS if layers[k] != traced[0][k]]
            if moved:
                problems.append(f"counts differ between traced commands: {moved}")
        metrics = {k: (traced[0][k] if k in EXACT_COUNTS else
                       statistics.median(t[k] for t in traced))
                   for k in LAYER_METRICS}
        metrics["trace.overhead_s"] = statistics.median(
            t.report["wall_s"] - u.report["wall_s"] for u, t in pairs)
        units = PER_LAYER

    failed = sum(1 for a in attempts if a.failures)
    for a in attempts:
        for f in a.failures:
            problems.append(f"{name} seed {seed}: {f}")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }


def _print_metrics(name: str, result: dict, failed_frac: bool) -> None:
    for key, m in result["metrics"].items():
        print(f"{name:12s} {key:32s} {m['value']:>14.6g} {m['unit']}")
    if failed_frac:
        failed, attempted = result["failed"], result["attempted"]
        print(f"{name:12s} {'failed_frac':32s} {failed / attempted:>14.6g} "
              f"ratio ({failed} failed / {attempted} commands)")


def report(seed: int, seconds: float) -> int:
    """Both runs of every workload, one table, and perfbench/out/report.json."""
    results = {}
    for name in WORKLOADS:
        plain = run_workload(name, seed, seconds, trace=False)
        traced = run_workload(name, seed, seconds, trace=True)
        results[name] = {"end_to_end": plain, "per_layer": traced}
    print(f"{'workload':12s} {'metric':32s} {'value':>14s} unit")
    for name, r in results.items():
        _print_metrics(name, r["end_to_end"], failed_frac=True)
    for name, r in results.items():
        _print_metrics(name, r["per_layer"], failed_frac=False)
    OUT.mkdir(exist_ok=True)
    (OUT / "report.json").write_text(json.dumps(
        {"seed": seed, "seconds": seconds, "results": results}, indent=2) + "\n")
    ok = all(r["end_to_end"]["correct"] and r["per_layer"]["correct"]
             for r in results.values())
    print(f"all checks {'passed' if ok else 'FAILED'}; wrote {OUT / 'report.json'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=44.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload traced and untraced")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qemlab" / "cli.py").is_file():
        print(f"error: no qemlab sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload is None and not args.report:
        parser.error("--workload is required without --report")
    try:
        if args.report:
            return report(args.seed, args.seconds)
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_metrics(args.workload, result, failed_frac=not args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
