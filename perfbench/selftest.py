"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py            # tiny variants, about a minute
    python3 perfbench/selftest.py --full     # also the full determinism check

Uses tiny variants of the workloads in BENCHMARK.json (klt-det at
e_max = 1; Skoda checks at n <= 2 and three certify-batch jobs) and checks
that

* every end-to-end and every per-layer metric prints with its unit, and
  the last output line has exactly the keys of the result contract;
* a planted wrong expectation raises fail_frac above 0;
* two seeds change the job order (and the variable names) but no answer;
* two traced runs give identical count-type per-layer metrics;
* the tracer patches names that modules imported from each other and
  restores every original afterwards.

``--full`` repeats the last check on the full workloads (several minutes:
a traced klt-det run alone takes about two).  Exit code 0 when every check
passes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END_UNITS, worker_env  # noqa: E402
from tracer import PER_LAYER_UNITS  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def run(workload, seed=1, trace=0, *flags):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           *flags]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=400)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}: "
                             f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def worker(workload, seed):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          env=worker_env(), timeout=400, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_printed(workload, trace, units):
    table, result = run(workload, 1, trace, "--tiny")
    assert set(result) == RESULT_KEYS, result.keys()
    assert result["correct"] and result["failed"] == 0, (workload, table)
    assert set(result["metrics"]) == set(units), workload
    for name, unit in units.items():
        entry = result["metrics"][name]
        assert entry["unit"] == unit and isinstance(entry["value"],
                                                    (int, float)), name
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in table), f"{name} not printed with its unit"
    if not trace:
        assert any(line.split()[:1] == ["fail_frac"] for line in table)
    return result


def counts(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] == "count"}


def check_determinism(workload, *flags):
    first = counts(run(workload, 1, 1, *flags)[1])
    second = counts(run(workload, 1, 1, *flags)[1])
    assert first == second, {k: (first[k], second[k]) for k in first
                             if first[k] != second[k]}


def check_patching():
    """The tracer rebinds names imported into other modules and restores
    every original on uninstall."""
    import worker
    from tracer import Tracer

    fsing = worker.import_fsing()
    modules = [m for name, m in sys.modules.items()
               if name == "fsing" or name.startswith("fsing.")]
    before = [(m, dict(vars(m))) for m in modules]
    imported = [(fsing.fcriteria, "colon_ideal"),
                (fsing.testideals, "buchberger"),
                (fsing.certify, "strongly_fregular"),
                (fsing.verify, "verify_witness_data")]
    tracer = Tracer()
    tracer.install()
    try:
        for mod, attr in imported:
            assert hasattr(getattr(mod, attr), "__wrapped__"), (mod, attr)
    finally:
        tracer.uninstall()
    for mod, names in before:
        assert all(vars(mod)[k] is v for k, v in names.items()), mod
    assert not hasattr(fsing.polycore.Polynomial.__mul__, "__wrapped__")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--full", action="store_true")
    args = ap.parse_args(argv)
    check_patching()
    print("ok   tracer patches imported names and restores every original")
    for workload in WORKLOADS:
        check_printed(workload, 0, END_TO_END_UNITS)
        check_printed(workload, 1, PER_LAYER_UNITS)
        print(f"ok   {workload}: every metric printed with its unit")

        _, planted = run(workload, 1, 0, "--tiny", "--plant-wrong")
        assert planted["failed"] >= 1 and not planted["correct"], planted
        print(f"ok   {workload}: planted wrong answer counted "
              f"({planted['failed']} of {planted['attempted']} failed)")

        runs = [worker(workload, seed) for seed in (1, 2, 3, 4)]
        assert all(r["failed"] == 0 for r in runs), workload
        assert all(r["answers"] == runs[0]["answers"] for r in runs)
        orders = {tuple(r["order"]) for r in runs}
        assert len(runs[0]["order"]) < 2 or len(orders) > 1, workload
        print(f"ok   {workload}: seeds 1-4 give {len(orders)} job orders, "
              f"identical answers")

        check_determinism(workload, "--tiny")
        print(f"ok   {workload}: traced counts repeat exactly (tiny)")
    if args.full:
        for workload in WORKLOADS:
            check_determinism(workload)
            print(f"ok   {workload}: traced counts repeat exactly (full)")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
