"""Command-line front end: generate instances, solve, verify, and scan.

Exit codes: 0 success (or verified), 1 definitive negative, 2 budget
exhausted or heuristic failure, 3 usage error, malformed input or a file
that cannot be read or written.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from .collection import Collection, TransversalCertificate, verify_certificate
from .errors import InvalidInput, TransversalsError
from .exact import EXHAUSTED, FOUND, NONE, SearchBudget, find_transversal_cycle
from .gen import GenSpec, generate
from .links import builtin_link, cycle_counts
from .pipeline import PipelineConfig, solve_transversal_hamilton
from .rng import split

EXIT_SUCCESS = 0
EXIT_NEGATIVE = 1
EXIT_EXHAUSTED = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits with 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _digest(C: Collection) -> str:
    payload = json.dumps(C.to_json(), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _load_json(path: str, parse):
    """parse(json.load(file)), with malformed content reported as InvalidInput."""
    with open(path, encoding="utf-8") as fh:
        try:
            return parse(json.load(fh))
        except (KeyError, TypeError, ValueError) as exc:  # ValueError covers JSONDecodeError
            raise InvalidInput(f"{path}: malformed input: {exc!r}") from exc


def _load_collection(path: str) -> Collection:
    return _load_json(path, Collection.from_json)


def cmd_gen(args) -> int:
    spec = GenSpec(
        n=args.n,
        k=args.k,
        m=args.m if args.m is not None else args.n,
        delta_fraction=args.delta,
        family=args.family,
        seed=args.seed,
    )
    C = generate(spec)
    out = json.dumps(C.to_json(), sort_keys=True, indent=None)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out + "\n")
    else:
        print(out)
    return EXIT_SUCCESS


def cmd_solve(args) -> int:
    C = _load_collection(getattr(args, "in"))
    link = builtin_link(args.link)
    started = time.monotonic()
    certificate = None
    trace = None
    if args.engine == "exact":
        budget = SearchBudget(node_limit=args.budget_nodes, time_limit=args.budget_secs)
        result = find_transversal_cycle(C, link, budget)
        outcome = {FOUND: "success", NONE: "none", EXHAUSTED: "exhausted"}[result.status]
        certificate = result.certificate
        if args.trace:
            trace = {"nodes": result.nodes, **result.stats}
    else:
        cfg = PipelineConfig(seed=args.seed)
        run = solve_transversal_hamilton(C, link, cfg=cfg)
        outcome = "success" if run else f"failure step {run.failure.step}" if run.failure else "failure"
        certificate = run.certificate
        if args.trace:
            trace = [r.to_json() for r in run.records]
    elapsed = time.monotonic() - started
    cert_path = None
    if certificate is not None and args.out_cert:
        with open(args.out_cert, "w", encoding="utf-8") as fh:
            json.dump(certificate.to_json(), fh)
        cert_path = args.out_cert
    report = {
        "instance": _digest(C),
        "outcome": outcome,
        "wall_time": round(elapsed, 3),
        "seed": args.seed,
        "certificate": cert_path,
    }
    if trace is not None:
        report["trace"] = trace
    print(json.dumps(report))
    if outcome == "success":
        return EXIT_SUCCESS
    if outcome == "none":
        return EXIT_NEGATIVE
    return EXIT_EXHAUSTED


def cmd_verify(args) -> int:
    C = _load_collection(getattr(args, "in"))
    cert = _load_json(args.cert, lambda obj: TransversalCertificate.from_json(obj, C.n, C.k))
    link = builtin_link(args.link) if args.link else None
    n = C.n if link is not None else None
    result = verify_certificate(C, cert, link, n)
    print(json.dumps({"ok": result.ok, "reason": result.reason, "detail": result.detail}))
    return EXIT_SUCCESS if result.ok else EXIT_NEGATIVE


def _scan_trial(payload) -> tuple[str, float]:
    (n, k, m, link_name, delta, engine, trial_seed,
     budget_nodes, budget_secs) = payload
    link = builtin_link(link_name)
    spec = GenSpec(n=n, k=k, m=m, delta_fraction=delta, family="random", seed=trial_seed)
    C = generate(spec)
    started = time.monotonic()
    if engine == "exact":
        result = find_transversal_cycle(
            C, link, SearchBudget(node_limit=budget_nodes, time_limit=budget_secs)
        )
        status = result.status
    else:
        run = solve_transversal_hamilton(C, link, cfg=PipelineConfig(seed=trial_seed))
        status = FOUND if run else EXHAUSTED
    return status, time.monotonic() - started


def cmd_scan(args) -> int:
    link = builtin_link(args.link)
    m = args.m if args.m is not None else cycle_counts(link, args.n)
    if not args.delta_step > 0:
        raise InvalidInput(f"--delta-step must be positive, got {args.delta_step}")
    if not math.isfinite(args.delta_from) or not math.isfinite(args.delta_to):
        raise InvalidInput(f"--delta-from and --delta-to must be finite: {args.delta_from}, {args.delta_to}")
    if args.trials < 0:
        raise InvalidInput(f"--trials must not be negative, got {args.trials}")
    SearchBudget(node_limit=args.budget_nodes, time_limit=args.budget_secs)  # rejects a bad budget now
    deltas = []
    d = args.delta_from
    while d <= args.delta_to + 1e-9:
        deltas.append(round(d, 10))
        d += args.delta_step
    # an unwritable --out fails here, before the first trial runs
    out = args.out or None
    fh = open(out, "w", newline="", encoding="utf-8") if out else sys.stdout
    try:
        writer = csv.DictWriter(
            fh, fieldnames=["delta", "trials", "successes", "nones", "exhausted", "mean_time"]
        )
        writer.writeheader()
        for di, delta in enumerate(deltas):
            payloads = [
                (
                    args.n,
                    args.k,
                    m,
                    args.link,
                    delta,
                    args.engine,
                    split(args.seed, "scan", di, trial),
                    args.budget_nodes,
                    args.budget_secs,
                )
                for trial in range(args.trials)
            ]
            if args.jobs > 1 and payloads:
                with ProcessPoolExecutor(max_workers=min(args.jobs, len(payloads))) as pool:
                    outcomes = list(pool.map(_scan_trial, payloads))
            else:
                outcomes = [_scan_trial(p) for p in payloads]
            statuses = [s for s, _ in outcomes]
            times = [t for _, t in outcomes]
            writer.writerow(
                {
                    "delta": delta,
                    "trials": args.trials,
                    "successes": statuses.count(FOUND),
                    "nones": statuses.count(NONE),
                    "exhausted": statuses.count(EXHAUSTED),
                    "mean_time": round(sum(times) / len(times), 4) if times else 0.0,
                }
            )
    finally:
        if out:
            fh.close()
    return EXIT_SUCCESS


def build_parser() -> _Parser:
    parser = _Parser(prog="transversals", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a collection instance")
    p_gen.add_argument("--family", choices=["random", "bridge", "dirac-extremal"], required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--k", type=int, default=2)
    p_gen.add_argument("--m", type=int, default=None)
    p_gen.add_argument("--delta", type=float, default=0.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=cmd_gen)

    p_solve = sub.add_parser("solve", help="search for a transversal cycle")
    p_solve.add_argument("--in", required=True)
    p_solve.add_argument("--link", default="edge(2,1)")
    p_solve.add_argument("--engine", choices=["exact", "pipeline"], default="exact")
    p_solve.add_argument("--budget-nodes", type=int, default=10**7)
    p_solve.add_argument("--budget-secs", type=float, default=float("inf"))
    p_solve.add_argument("--trace", action="store_true")
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--out-cert", default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="check a certificate")
    p_verify.add_argument("--in", required=True)
    p_verify.add_argument("--cert", required=True)
    p_verify.add_argument("--link", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_scan = sub.add_parser("scan", help="success-rate scan over degree fractions")
    p_scan.add_argument("--n", type=int, required=True)
    p_scan.add_argument("--k", type=int, default=2)
    p_scan.add_argument("--m", type=int, default=None)
    p_scan.add_argument("--link", default="edge(2,1)")
    p_scan.add_argument("--delta-from", type=float, required=True)
    p_scan.add_argument("--delta-to", type=float, required=True)
    p_scan.add_argument("--delta-step", type=float, default=0.1)
    p_scan.add_argument("--trials", type=int, default=10)
    p_scan.add_argument("--engine", choices=["exact", "pipeline"], default="exact")
    p_scan.add_argument("--jobs", type=int, default=1)
    p_scan.add_argument("--seed", type=int, default=0)
    p_scan.add_argument("--budget-nodes", type=int, default=10**7)
    p_scan.add_argument("--budget-secs", type=float, default=float("inf"))
    p_scan.add_argument("--out", default=None)
    p_scan.set_defaults(func=cmd_scan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except TransversalsError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:  # a missing file, a directory, no permission
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
