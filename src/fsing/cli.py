"""Command-line interface.

    certify MODE --input FILE [--prime P] [--e-max N] [--gb-budget N]
                 [--assert-q-gorenstein] [--test-element EXPR]
                 [--level N] [--n-max N] [--json OUT]

MODE is one of lc, klt, sfr, gsfr, deform, fpt, tau, corpus.  Input files
use the JSON schema documented in the README; corpus mode executes a job
list and exits nonzero when any expectation fails.
"""

from __future__ import annotations

import argparse
import json
import sys

from .arithmodels import ReductionError
from .certify import CertifyError, parse_job, run_corpus, run_job
from .polycore import PolyError
from .testideals import TestIdealError
from .triples import PresentationError

MODES = ("lc", "klt", "sfr", "gsfr", "deform", "fpt", "tau", "corpus")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="certify",
        description="Certify singularities via Frobenius splitting mod p "
                    "and compute test ideals.")
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--input", required=True, help="JSON input file")
    parser.add_argument("--prime", type=int, default=None)
    parser.add_argument("--e-max", type=int, default=None, dest="e_max")
    parser.add_argument("--gb-budget", type=int, default=None, dest="gb_budget")
    parser.add_argument("--assert-q-gorenstein", action="store_true",
                        default=None, dest="assert_q_gorenstein")
    parser.add_argument("--test-element", default=None, dest="test_element")
    parser.add_argument("--level", type=int, default=None,
                        help="perfection level for gsfr mode")
    parser.add_argument("--n-max", type=int, default=None, dest="n_max",
                        help="truncation level for tau mode")
    parser.add_argument("--json", default=None, dest="json_out",
                        help="write the certificate/report to this file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.mode == "corpus":
        report = run_corpus(args.input, args.json_out)
        for item in report["results"]:
            flag = "PASS" if item["pass"] else "FAIL"
            print(f"[{flag}] {item['name']}")
            if not item["pass"]:
                print(json.dumps({k: item.get(k) for k in
                                  ("expected", "got", "error")},
                                 indent=2, sort_keys=True, default=str))
        print("corpus:", "all PASS" if report["all_pass"] else "FAILURES")
        return 0 if report["all_pass"] else 1

    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        job = parse_job(
            data, args.mode,
            prime=args.prime,
            e_max=args.e_max,
            gb_budget=args.gb_budget,
            assert_q_gorenstein=args.assert_q_gorenstein,
            level=args.level,
            n_max=args.n_max,
        )
        if args.test_element is not None:
            job.test_element = job.spec.ring.parse(args.test_element)
        result = run_job(job)
    except (CertifyError, OSError, ValueError, PolyError, PresentationError,
            ReductionError, TestIdealError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    payload = json.dumps(result, indent=2, sort_keys=True)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(payload)
            fh.write("\n")
    print(payload)
    cert = result.get("certificate")
    if cert is not None and cert.get("status") == "inconclusive":
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
