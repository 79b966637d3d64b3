"""fsing benchmark: one command, every end-to-end metric, every answer checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it benchmarks the fsing sources in
``src/`` of that checkout and nothing else (no install, no build step).

Workloads (see ``workloads.py`` and ``BENCHMARK.json`` for why):

* ``klt-det``: klt certification of the Q-defined 5-variable determinantal
  ring at p = 3, e <= 3, then an independent re-check of its certificate;
* ``mixed-batch``: the ``tau-relative`` jobs (relative test ideals, Skoda
  checks, pair test ideals) and the ``certify-batch`` jobs (``run_job`` on
  the bundled corpus and on Q-defined lc / klt / fpt inputs, plus
  splitting-oracle cross-checks) in one shuffled batch.

With ``--trace 0`` the workload runs in a fresh single-threaded worker
process for at least ``--seconds`` seconds (whole rounds of its jobs), and
the set-up time is measured in SETUP_SAMPLES further fresh processes, half
of them before the worker and half after it.  The metrics are

* ``setup_s``: fresh interpreter to first job (importing fsing and building
  the inputs), median over the set-up samples;
* ``wall_s``: time to all answers of one round, median over rounds.  It
  is the sum of the job latencies: first job start to last job end, less
  the harness's untimed work between jobs (a garbage collection, so that
  each job starts on a collected heap, and summarizing the answer);
* ``job_p50_s`` / ``job_tail_s``: median job latency, and the latency at the
  highest percentile that still has at least 10 jobs beyond it (the maximum
  when a round has fewer than 11 jobs);
* ``peak_rss_mb``: peak resident memory of the worker process;
* ``fail_frac``: failed jobs / attempted jobs (printed, and carried by the
  ``failed`` and ``attempted`` fields of the result line).

With ``--trace 1`` the worker alternates untraced and traced rounds for
``--seconds`` (at least one pair).  The metrics are the per-layer metrics of
the traced rounds (see ``tracer.py``; counts, which must repeat exactly, and
median times), the layers' shares of self time and the tracing overhead.
The spans of the last traced round are written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when the run completed (even with failed jobs, which count in ``failed``),
and non-zero, with no result line, when it could not run at all or when a
traced run finds a layer the workload must reach without calls, or a count
that differs between traced rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER_UNITS  # noqa: E402

# Half the set-up samples are taken before the worker runs and half after,
# so their median spans the whole run rather than one moment of a machine
# whose speed drifts.
SETUP_SAMPLES = 16
SETUP_TIMEOUT_S = 10.0
RUN_LIMIT_S = 177.0   # the whole command must end within 180 s

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "job_p50_s": "s", "job_tail_s": "s",
    "peak_rss_mb": "MB",
}


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON")}
    env.update({"PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1",
                "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"})
    return env


def worker_cmd(args, *extra) -> list:
    flags = [f for f, on in (("--tiny", args.tiny),
                             ("--plant-wrong", args.plant_wrong)) if on]
    return [sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            *flags, *extra]


def setup_sample(args) -> float:
    """Seconds from spawning a fresh interpreter to its first job."""
    start = perf_counter()
    proc = subprocess.Popen(worker_cmd(args, "--setup-only"),
                            stdout=subprocess.PIPE, text=True,
                            env=worker_env(), cwd=ROOT)
    killer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)  # unblocks readline
    killer.start()
    try:
        line = proc.stdout.readline()
        ready = perf_counter()
        proc.communicate()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if line.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError("set-up sample failed")
    return ready - start


def run_worker(args, timeout: float) -> dict:
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(worker_cmd(args, *extra), capture_output=True,
                          text=True, env=worker_env(), cwd=ROOT,
                          timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="small workload variant (harness self-test only)")
    ap.add_argument("--plant-wrong", action="store_true",
                    help="corrupt one known answer (harness self-test only)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fsing" / "__init__.py").is_file():
        print(f"error: no fsing sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = perf_counter()
    try:
        half = 0 if args.trace else SETUP_SAMPLES // 2
        setups = [setup_sample(args) for _ in range(half)]
        res = run_worker(args, RUN_LIMIT_S - (perf_counter() - start))
        setups += [setup_sample(args) for _ in range(half)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = res["attempted"], res["failed"]
    if args.trace:
        if res["trace_problems"]:
            for problem in res["trace_problems"]:
                print(f"error: {problem}", file=sys.stderr)
            return 1
        values = {k: res["per_layer"][k] for k in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
    else:
        values = {"setup_s": statistics.median(setups),
                  "wall_s": res["wall_s"], "job_p50_s": res["job_p50_s"],
                  "job_tail_s": res["job_tail_s"],
                  "peak_rss_mb": res["peak_rss_mb"]}
        units = END_TO_END_UNITS

    print(f"workload {res['workload']}  seed {res['seed']}  "
          f"rounds {res['rounds']}  jobs/round {res['jobs']}")
    for name, value in values.items():
        print(f"  {name:36s} {value:14.6f} {units[name]}")
    if not args.trace:
        print(f"  {'fail_frac':36s} {failed / attempted:14.6f} ratio"
              f"   ({failed} of {attempted} jobs)")
        print(f"  job_tail_s is p{res['tail_percentile']:.1f} of "
              f"{res['jobs']} per-job median latencies")
    for problem in res["failures"]:
        print(f"  FAILED {problem}")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
