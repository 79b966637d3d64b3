"""One benchmark run of one workload, in a fresh single-threaded process.

Started by ``perfbench/run.py``; prints one JSON object as its last line.

Untraced mode runs whole rounds of the workload's jobs until ``--seconds``
have passed (at least one round); every round gets freshly built inputs,
built outside the timed region.  Traced mode (``--trace 1``) alternates
untraced and traced rounds for ``--seconds`` (at least one pair) and
reports the per-layer metrics of the traced rounds (counts, which must
repeat exactly, and median times) with the tracing overhead: median traced
round wall time minus median untraced round wall time.

After the timed rounds every job's answer is checked against the
known-answer table, and every positive certificate a job emitted is
re-verified with ``fsing.verify.verify_witness_data``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import random
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# No job runs past this point, so the whole run, with its answer checks and
# the set-up samples taken after it, ends inside 180 s.
RUN_DEADLINE_S = 155.0
TAIL_BEYOND = 10
ORDERED = {"klt-det"}   # its second job re-checks the first job's certificate


class JobTimeout(BaseException):
    """Raised by the wall-cap alarm; not an Exception, so no handler in the
    library can swallow it."""


def _alarm(signum, frame):
    raise JobTimeout()


def import_fsing():
    src = (ROOT / "src").resolve()
    if not (src / "fsing" / "__init__.py").is_file():
        raise SystemExit(f"no fsing sources under {src}")
    sys.path.insert(0, str(src))
    import fsing

    if Path(fsing.__file__).resolve().parent != src / "fsing":
        raise SystemExit(f"fsing was imported from {fsing.__file__}")
    from workloads import load_modules

    return load_modules()


class Runner:
    def __init__(self, args, mods):
        from workloads import Names, build

        self.args = args
        self.mods = mods
        self.names = Names(random.Random(f"names-{args.seed}"))
        self._build = build
        self.order = None
        self.deadline = perf_counter() + RUN_DEADLINE_S

    def build(self):
        jobs = self._build(self.args.workload, self.mods, self.names, ROOT,
                           self.args.tiny)
        if self.order is None:
            self.order = list(range(len(jobs)))
            if self.args.workload not in ORDERED:
                random.Random(f"order-{self.args.seed}").shuffle(self.order)
        return [jobs[i] for i in self.order]

    def run_round(self, jobs, tracer=None):
        """Run every job once; wall time is the sum of the job latencies."""
        ctx = {}
        records = [self.run_job(job, ctx, tracer) for job in jobs]
        gc.unfreeze()   # let this round's inputs be collected
        return sum(r["latency"] for r in records), records

    def run_job(self, job, ctx, tracer):
        """Time one job; summarize its result outside the timed region.

        Only the summary, the certificates to re-verify and any problem are
        kept, so the heap does not grow with earlier results.
        """
        record = {"label": job.label, "latency": 0.0, "error": None,
                  "summary": None, "certs": [], "problem": None}
        remaining = self.deadline - perf_counter()
        if remaining <= 0:
            record["error"] = "not started: run deadline reached"
            return record
        cap = min(job.cap_s, remaining)
        span = tracer.span(f"job:{job.label}") if tracer else \
            contextlib.nullcontext()
        # Each job starts on a collected heap with everything older frozen,
        # so the collector's work inside a job depends on that job alone,
        # not on the job order or on the inputs built for other jobs.
        gc.collect()
        gc.freeze()
        raw = None
        start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, cap)
        try:
            with span:
                raw = job.call(ctx)
        except JobTimeout:
            record["error"] = f"wall cap of {cap:.1f} s exceeded"
        except Exception as exc:  # raising, BudgetExceededError included
            record["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            record["latency"] = perf_counter() - start
        if record["error"] is None:
            try:
                record["summary"] = job.summarize(raw)
                record["certs"] = job.certificates(raw)
                if job.extra_check is not None:
                    record["problem"] = job.extra_check(raw)
            except Exception as exc:
                record["error"] = (f"unreadable result: "
                                   f"{type(exc).__name__}: {exc}")
        return record

    def check(self, record, expect):
        """None when the job's answer is right, else the reason it is not."""
        label = record["label"]
        if record["error"]:
            return record["error"]
        if label not in expect:
            return "no known answer for this job"
        if record["summary"] != expect[label]:
            return (f"wrong answer: got {record['summary']}, "
                    f"expected {expect[label]}")
        if record["problem"]:
            return record["problem"]
        for cert in record["certs"]:
            if not self.mods.verify.verify_witness_data(cert["verification"]):
                return "certificate fails independent re-verification"
        return None


def latency_stats(rounds):
    """Median and tail over per-job median latencies across rounds.

    The tail is the latency at the highest percentile that still has at
    least TAIL_BEYOND jobs beyond it; with fewer jobs it is the maximum.
    """
    per_job = {}
    for records in rounds:
        for rec in records:
            per_job.setdefault(rec["label"], []).append(rec["latency"])
    values = sorted(statistics.median(v) for v in per_job.values())
    n = len(values)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n   # 1-based
    return {"job_p50_s": statistics.median(values),
            "job_tail_s": values[rank - 1],
            "tail_percentile": 100.0 * rank / n,
            "jobs": n}


def run_rounds(runner, jobs, seconds, trace):
    """Run rounds for at least ``seconds`` (at least one).

    With ``trace`` every untraced round is followed by a traced round, so a
    slow spell of the machine hits both sides of the tracing overhead.
    Returns the untraced round walls, the untraced rounds' records and the
    traced rounds' data.
    """
    walls, rounds = [], []
    traced = {"walls": [], "rounds": [], "layers": [], "last_tracer": None}
    first = perf_counter()
    while True:
        wall, records = runner.run_round(jobs)
        walls.append(wall)
        rounds.append(records)
        if trace:
            from tracer import Tracer, span_metrics

            tracer = Tracer()
            tracer.install()
            try:
                with tracer.span("setup"):
                    jobs = runner.build()
                traced_wall, records = runner.run_round(jobs, tracer)
            finally:
                tracer.uninstall()
            traced["walls"].append(traced_wall)
            traced["rounds"].append(records)
            traced["layers"].append(span_metrics(tracer))
            traced["last_tracer"] = tracer
            wall += traced_wall
        if (perf_counter() - first >= seconds
                or perf_counter() + wall > runner.deadline):
            return walls, rounds, traced
        jobs = runner.build()


def layer_summary(traced, walls):
    """Per-layer metrics over the traced rounds, and any count mismatch.

    Counts must repeat exactly between traced rounds; times are medians.
    """
    from tracer import PER_LAYER_UNITS

    runs = traced["layers"]
    out, problems = dict(runs[0]), []
    for name, unit in PER_LAYER_UNITS.items():
        values = [run[name] for run in runs if name in run]
        if unit == "count" and len(set(values)) > 1:
            problems.append(f"{name} differs between traced rounds: {values}")
        elif unit != "count" and values:
            out[name] = statistics.median(values)
    out["trace.wall_s"] = statistics.median(traced["walls"])
    out["trace.untraced_wall_s"] = statistics.median(walls)
    out["trace.overhead_s"] = out["trace.wall_s"] - out[
        "trace.untraced_wall_s"]
    return out, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import fsing, build the inputs, print READY, exit")
    ap.add_argument("--tiny", action="store_true",
                    help="a small variant of the workload (harness self-test)")
    ap.add_argument("--plant-wrong", action="store_true",
                    help="corrupt one known answer (harness self-test)")
    args = ap.parse_args(argv)

    from workloads import WORKLOAD_NAMES, ACTIVE_LAYERS

    if args.workload not in WORKLOAD_NAMES:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    mods = import_fsing()
    runner = Runner(args, mods)
    jobs = runner.build()
    if args.setup_only:
        print("READY", flush=True)
        return 0

    from answers import EXPECT

    expect = dict(EXPECT)
    if args.plant_wrong:
        expect[min(j.label for j in jobs)] = {"planted": "wrong answer"}

    signal.signal(signal.SIGALRM, _alarm)
    walls, rounds, traced = run_rounds(runner, jobs, args.seconds, args.trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    answers, failures = {}, []
    attempted = failed = 0
    for records in rounds + traced["rounds"]:
        for rec in records:
            attempted += 1
            problem = runner.check(rec, expect)
            if problem:
                failed += 1
                failures.append(f"{rec['label']}: {problem}")
            else:
                answers.setdefault(rec["label"], rec["summary"])

    per_layer, trace_problems = None, []
    if args.trace:
        per_layer, trace_problems = layer_summary(traced, walls)
        calls = per_layer.pop("_layer_calls")
        idle = [layer for layer in ACTIVE_LAYERS[args.workload]
                if not calls[layer]]
        if idle and not args.tiny:
            trace_problems.append(f"active layers recorded no call: {idle}")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        traced["last_tracer"].write_spans(
            out_dir / f"spans-{args.workload}-seed{args.seed}"
                      f"{'-tiny' if args.tiny else ''}.jsonl")

    result = {
        "workload": args.workload, "seed": args.seed,
        "rounds": len(walls), "attempted": attempted, "failed": failed,
        "wall_s": statistics.median(walls), "round_walls": walls,
        "peak_rss_mb": peak_rss_mb,
        "order": [rec["label"] for rec in rounds[0]],
        "answers": answers, "failures": failures[:20],
        "trace_problems": trace_problems,
    }
    result.update(latency_stats(rounds))
    if per_layer is not None:
        result["per_layer"] = per_layer
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
