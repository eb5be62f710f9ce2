"""Command-line surface.

Exit codes: 0 success, 1 invariant/conservation/replay failure, 2 usage,
parse or config errors, bad logs and files that cannot be read or written.
``main`` is the one place a command's OSError or SimError becomes exit 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import SimConfig, load_config
from .errors import ParseError, RejectedInput, ReplayError, SimError
from .fuzz import Fuzzer
from .ledger import SEEDS
from .risk import classify_payload
from .runner import genesis_config, read_events, replay_log, report_from_log, run_scenario, write_log
from .scenario import load_scenario
from .units import fmt_units


def run_seed(text: str) -> int:
    """A ``run --seed`` value; a bad one is a usage error (exit 2)."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if seed not in SEEDS:
        raise argparse.ArgumentTypeError(f"must be in [0, 2**64), got {seed}")
    return seed


def cmd_run(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    try:
        base = load_config(args.config) if args.config else SimConfig()
        sim, report = run_scenario(scenario, seed=args.seed, base_config=base)
    except RejectedInput as exc:  # a bad config value, from the file or a CONFIG line
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out) if args.out else Path(args.scenario).with_suffix(".log.jsonl")
    write_log(sim, out)
    print(report.to_text())
    print(f"log written: {out}")
    return 0 if report.ok else 1


def cmd_replay(args) -> int:
    outcome, _sim = replay_log(args.log)
    if outcome.passed:
        print("replay: pass")
        return 0
    print(f"replay: fail at seq {outcome.divergence_seq} (event diverges from deterministic re-execution)")
    return 1


def cmd_report(args) -> int:
    report = report_from_log(args.log)
    print(report.to_text())
    return 0 if report.ok else 1


def cmd_state(args) -> int:
    print(replay_log(args.log)[1].contract.state_line(args.token_id))
    return 0


def cmd_case(args) -> int:
    case = replay_log(args.log)[1].arbitration.case(args.case_id)
    print(f"case={case.case_id} token={case.token_id} status={case.status}"
          f" verdict={case.verdict or '-'}{' auto' if case.auto_opened else ''}")
    print(f"  reporter={case.reporter}")
    print(f"  respondent={case.respondent}")
    print(f"  deposit={fmt_units(case.deposit)}")
    for party, digest, time in case.evidence:
        print(f"  evidence t={time} {party} {digest}")
    for juror in case.jury:
        vote = case.tally.votes.get(juror, "-") if case.tally else "-"
        print(f"  juror {juror} vote={vote}")
    return 0


def cmd_explain(args) -> int:
    genesis = match = None
    with open(args.log, "rb") as file:  # every line is decoded: one the table refuses is an error
        for ev in read_events(file):
            if ev.kind == "Genesis":
                genesis = genesis or ev
            elif ev.kind == "RiskFulfilled" and ev.payload["request_id"] == args.request_id:
                match = match or ev
    if genesis is None or match is None:
        print(f"no fulfilled risk request {args.request_id} in {args.log}", file=sys.stderr)
        return 2
    config = genesis_config(genesis)
    try:
        lines, agrees = _explanation(match.payload, config)
    except ValueError as exc:  # a score or ratio string that does not parse
        raise ReplayError(f"seq {match.seq}: RiskFulfilled event: {exc}") from None
    print(f"request={args.request_id} " + "\n".join(lines))
    return 0 if agrees else 1


def _explanation(payload: dict, config: SimConfig) -> tuple[list[str], bool]:
    """The lines ``explain`` prints for one RiskFulfilled payload, and whether the offline recompute agrees."""
    features, hits = payload["features"], payload["hits"]
    status, rules = classify_payload(features, config)
    agrees = status == payload["status"] and rules == [hit["rule"] for hit in hits]
    lines = [f"status={payload['status']}", *(f"  {key}={value}" for key, value in features.items())]
    lines += [f"  hit {hit['rule']} ({hit['severity']}): {hit['detail']}" for hit in hits] or ["  hits: none"]
    lines.append(f"  offline recompute: {status} ({'agrees' if agrees else 'DIVERGES'})")
    return lines, agrees


def cmd_fuzz(args) -> int:
    result = Fuzzer(seed=args.seed, ops_per_run=args.ops_per_run).run(args.iters)
    print(f"fuzz: {result.ops} operations across {result.sequences} sequences")
    if result.ok:
        print("no invariant violations")
        return 0
    print(f"violation: {result.violation}")
    print("minimized reproducing scenario:")
    print(result.trace)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sim", description="guarded-token protocol simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario and write its event log")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=run_seed, default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--config", default=None, help="flat key=value config file")
    p_run.set_defaults(func=cmd_run)

    p_replay = sub.add_parser("replay", help="re-execute a log and verify it byte for byte")
    p_replay.add_argument("log")
    p_replay.set_defaults(func=cmd_replay)

    p_report = sub.add_parser("report", help="summarize a log; nonzero exit on conservation failure")
    p_report.add_argument("log")
    p_report.set_defaults(func=cmd_report)

    p_state = sub.add_parser("state", help="print one token's final state from a log")
    p_state.add_argument("log")
    p_state.add_argument("token_id", type=int)
    p_state.set_defaults(func=cmd_state)

    p_case = sub.add_parser("case", help="print one arbitration case record from a log")
    p_case.add_argument("log")
    p_case.add_argument("case_id", type=int)
    p_case.set_defaults(func=cmd_case)

    p_explain = sub.add_parser("explain", help="print the feature vector and hits behind a verdict")
    p_explain.add_argument("log")
    p_explain.add_argument("request_id", type=int)
    p_explain.set_defaults(func=cmd_explain)

    p_fuzz = sub.add_parser("fuzz", help="random command sequences hunting invariant violations")
    p_fuzz.add_argument("--iters", type=int, default=10000)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--ops-per-run", type=int, default=400)
    p_fuzz.set_defaults(func=cmd_fuzz)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, SimError) as exc:
        print(f"{args.command} error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
