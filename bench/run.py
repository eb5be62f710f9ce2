"""guardsim benchmark: one workload, one process, one thread, closed loop.

    python3 bench/run.py --workload market --seed 1 --seconds 30 --trace 0

Run from the root of a guardsim checkout; the program is imported from
``./src``. ``setup_s`` is the median of several set-ups, each in a fresh
interpreter (``fresh_setup.py``). Each round runs the workload's whole
pipeline once, every step waiting for the previous one, and checks every
output. Rounds repeat until ``--seconds`` have passed; each metric is the
median over rounds. Every other round passes an ``on_step`` callback that
times each ``TRANSFER``; the rest run without one, as ``sim run`` does, and
only they give ``run.steps_per_s`` on market and disputes.

Workloads (sizes in ``WORKLOADS``):

market    T=4000 tokens, every verdict safe: risk feature extraction scans
          all T token records three times per transfer.
disputes  T=100, a mix of safe, underpriced, stolen and reported sales with
          every case settled: arbitration and the event log dominate.
fuzz      ``Fuzzer(seed).run`` batches: many short fresh simulations, each
          command parsed on its own, rejected steps by design, an audit per
          sequence. Its read path replays and reports the logs of the first
          fuzz sequences, captured once before timing.

With ``--trace 0`` the last line holds the end-to-end metrics. ``run.steps_per_s``
is the ``sim run`` path (``run_scenario`` + ``write_log``) on market and
disputes and the ``sim fuzz`` path (``Fuzzer.run``, one op is one step) on fuzz.
With ``--trace 1``, the last line holds exact counts from one counting round
(``COUNTERS``), then per-layer calls and self times from traced rounds
(``SPANS``) that take turns with untraced rounds and latency rounds. Wall
times add up the timed stages only, without the benchmark's checks and
collections: ``trace.overhead_s`` is the difference of the traced and
untraced medians and ``other.self_s`` is traced wall time outside every span.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from fresh_setup import setup  # noqa: E402
from spans import Tracer  # noqa: E402
from workload import check_report  # noqa: E402

WORKLOADS = {
    "market": {"tokens": 4000, "rounds": 1000, "users": 50},
    "disputes": {"tokens": 100, "rounds": 750, "users": 50},
    "fuzz": {"ops": 20000, "corpus_sequences": 8},
}
SETUPS = 7  # setup_s is the median of this many set-ups, each in a fresh interpreter
SETUP_TIMEOUT_S = 120
MIN_ROUNDS = 3
THROUGHPUTS = (
    ("run.steps_per_s", "steps/s"),
    ("replay.events_per_s", "events/s"),
    ("report.events_per_s", "events/s"),
)
WORK_DIR = Path(".bench_work")  # log files, relative to the checkout root
# End-to-end figures use the process's CPU clock. guardsim is single-threaded and
# CPU-bound, so on an idle machine this equals wall time; on a shared host it
# leaves out the 3-10 % of wall time, varying from second to second, during
# which other tenants hold the CPU. That cut the spread of stage times within
# a run about threefold. The trace and the --seconds budget use wall time.
CLOCK = time.process_time_ns

# Functions traced as spans, as "<module>.<qualname>" under guardsim.
SPANS = [
    "risk.RiskEngine.evaluate",
    "risk.extract_features",
    "risk.collection_floor",
    "risk.credit_score",
    "risk.rule_hits",
    "risk.classify",
    "ledger.Ledger.append_event",
    "ledger.serialize_events",
    "ledger.digest_events",
    "runner.run_scenario",
    "runner.execute_step",
    "runner.build_report",
    "runner.write_log",
    "runner.read_log",
    "runner.scenario_from_events",
    "runner.replay_log",
    "runner.report_from_log",
    "scenario.parse_scenario",
    "sim.Simulation.__init__",
    "token.TokenContract.transfer_from",
    "token.TokenContract.mint",
    "oracle.OracleBridge.request_risk_check",
    "oracle.OracleBridge.privileged_dispatch",
    "access_control.AccessControl.unlock",
    "access_control.AccessControl.register_aux",
    "arbitration.ArbitrationSystem.file_report",
    "arbitration.ArbitrationSystem.empanel_jury",
    "arbitration.ArbitrationSystem.cast_vote",
    "arbitration.ArbitrationSystem.close_case",
    "arbitration.ArbitrationSystem.required_deposit",
    "audit.audit_events",
    "fuzz.Fuzzer.run",
]
LAYERS = sorted({target.split(".", 1)[0] for target in SPANS})
VERDICTS = ("safe", "may_lost", "hacked")


class CountingTable(dict):
    """A token table that counts each record read out of it by ``values()`` or ``items()``."""

    def __init__(self, counts, records):
        super().__init__(records)
        self._counts = counts

    def values(self):
        for record in super().values():
            self._counts["tokens_scanned"] += 1
            yield record

    def items(self):
        for item in super().items():
            self._counts["tokens_scanned"] += 1
            yield item


def _count_scans(counts, args, _result):
    contract = args[0]
    if type(contract.tokens) is dict:
        contract.tokens = CountingTable(counts, contract.tokens)


def _count_kind(counts, args, _result):
    counts[f"kind.{args[1]}"] += 1


def _count_verdict(counts, _args, result):
    counts[f"verdict.{result.status}"] += 1


def _count_call(key):
    def bump(counts, _args, _result):
        counts[key] += 1

    return bump


COUNTERS = {
    "token.TokenContract.__init__": _count_scans,
    "ledger.EventRecord.to_line": _count_call("to_line"),
    "ledger.Ledger.append_event": _count_kind,
    "oracle.OracleBridge.privileged_dispatch": _count_call("dispatch"),
    "risk.RiskEngine.evaluate": _count_verdict,
}


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def _median(values):
    return statistics.median(values) if values else 0.0


class Failures:
    """Counts output checks; each run, write, replay, report, fuzz batch and fresh set-up is one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"CHECK FAILED {what}: {'; '.join(problems[:3])}", file=sys.stderr)


class Bench:
    """Inputs and one-round pipeline of a workload."""

    def __init__(self, kind: str, seed: int, size: dict | None = None):
        self.kind = kind
        self.seed = seed
        self.size = size or WORKLOADS[kind]
        self.checks = Failures()
        self.digest: str | None = None
        self.fuzz_fingerprint = None
        self.corpus: list[dict] = []
        self.counts = None  # the tracer's counters during the counting round
        self.fuzz_sequences = 0
        self.fuzz_rejected_ratio = 0.0
        self.stage_wall_ns = 0  # wall time spent inside timed stages so far

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        """Import guardsim and build the inputs in this process."""
        inputs = setup(self.kind, self.seed, self.size)
        self.fuzz_mod = inputs["fuzz_mod"]
        self.runner = inputs["runner"]
        self.fuzzer = inputs.get("fuzzer")
        self.workload = inputs.get("workload")
        self.scenario = inputs.get("scenario")

    def fresh_setup_s(self) -> float:
        """CPU seconds from process start to inputs ready, in a fresh interpreter.

        Checks that the fresh set-up made what the in-process one did.
        """
        want = self.fuzzer.ops_per_run if self.kind == "fuzz" else len(self.scenario.steps)
        command = [sys.executable, str(HERE / "fresh_setup.py"), self.kind, str(self.seed)]
        command += [f"{key}={value}" for key, value in self.size.items()]
        try:
            done = subprocess.run(command, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.checks.check("fresh set-up", [f"timed out after {SETUP_TIMEOUT_S} s"])
            return 0.0
        fields = done.stdout.split()
        if done.returncode or len(fields) != 2:
            self.checks.check("fresh set-up", [f"exit {done.returncode}: {done.stderr.strip()[-300:]}"])
            return 0.0
        cpu_ns, made = map(int, fields)
        self.checks.check("fresh set-up", [] if made == want else [f"made {made}, expected {want}"])
        return cpu_ns / 1e9

    def _timed(self, fn, *args):
        """Collect garbage, then call ``fn``; returns its result and the CPU seconds it took.

        Starting every timed stage from a collected heap makes the cyclic
        collector's passes land alike in every round instead of in whichever stage
        crosses a threshold. The stage's wall time, without the collection, is
        added to ``stage_wall_ns``.
        """
        gc.collect()
        wall = time.perf_counter_ns()
        start = CLOCK()
        result = fn(*args)
        cpu_ns = CLOCK() - start
        self.stage_wall_ns += time.perf_counter_ns() - wall
        return result, cpu_ns / 1e9

    def capture_corpus(self) -> None:
        """Record the simulations of the first fuzz sequences as replayable logs."""
        sim_class = importlib.import_module("guardsim.sim").Simulation
        original = sim_class.__init__
        sims = []

        def recording_init(sim, *args, **kwargs):
            original(sim, *args, **kwargs)
            sims.append(sim)

        sim_class.__init__ = recording_init
        try:
            result = self.fuzz_mod.Fuzzer(self.seed).run(self.size["corpus_sequences"] * self.fuzzer.ops_per_run)
        finally:
            sim_class.__init__ = original
        self.checks.check("fuzz corpus", [] if result.ok else [result.violation])
        for index, sim in enumerate(sims):
            path = WORK_DIR / f"fuzz-{index}.jsonl"
            self.runner.write_log(sim, path)
            scenario, config = self.runner.scenario_from_events(self.runner.read_log(path))
            self.corpus.append(
                {"path": path, "scenario": scenario, "config": config, "digest": sim.ledger.log_digest().hex()}
            )

    # -- one round -----------------------------------------------------------

    def round(self, transfer_ns: list[int] | None = None) -> dict:
        """Run the pipeline once; returns per-round throughputs and event totals.

        With a ``transfer_ns`` list, ``run_scenario`` gets an ``on_step``
        callback that appends each TRANSFER step's CPU time to it, and the
        round gives no ``run.steps_per_s`` for market or disputes.
        """
        if self.kind == "fuzz":
            return self._fuzz_round(transfer_ns)
        path = WORK_DIR / f"{self.kind}.jsonl"
        logs = self._log_pipeline(
            self.scenario, None, None, path, transfer_ns, self.digest, lambda r: check_report(self.workload, r)
        )
        self.digest = self.digest or logs["digest"]
        figures = {
            "replay.events_per_s": logs["events"] / logs["replay_s"],
            "report.events_per_s": logs["events"] / logs["report_s"],
            "events": logs["events"],
        }
        if transfer_ns is None:
            figures["run.steps_per_s"] = logs["steps"] / logs["run_s"]
        return figures

    def _log_pipeline(self, scenario, seed, config, path, transfer_ns, want_digest, check=lambda _r: []) -> dict:
        """`sim run` + `sim replay` + `sim report` on one scenario, timed per stage.

        The run must reproduce ``want_digest`` unless it is None (first round).
        """
        runner = self.runner
        clock = CLOCK
        last = [0]

        def on_step(_ctx, step, _events):
            now = clock()
            if step.verb == "TRANSFER":
                transfer_ns.append(now - last[0])
            last[0] = now

        def run_and_write():
            last[0] = clock()
            sim, report = runner.run_scenario(
                scenario, seed=seed, base_config=config, on_step=None if transfer_ns is None else on_step
            )
            runner.write_log(sim, path)
            return sim, report

        (sim, report), run_s = self._timed(run_and_write)
        (outcome, replayed), replay_s = self._timed(runner.replay_log, path)
        del replayed
        rebuilt, report_s = self._timed(runner.report_from_log, path)

        digest = report.digest
        self.checks.check(
            "run",
            check(report)
            + report.violations
            + ([] if report.conservation_ok else ["conservation"])
            + ([] if want_digest in (None, digest) else [f"log digest {digest} != {want_digest} of the first run"]),
        )
        written = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        self.checks.check("write", [] if written == digest else [f"written log digest {written} != {digest}"])
        self.checks.check("replay", [] if outcome.passed else [f"diverges at seq {outcome.divergence_seq}"])
        self.checks.check(
            "report",
            check(rebuilt)
            + rebuilt.violations
            + ([] if rebuilt.conservation_ok else ["conservation"])
            + ([] if rebuilt.digest == digest else ["report digest differs from run digest"]),
        )
        return {
            "digest": digest,
            "steps": report.steps_total,
            "events": len(sim.ledger.events),
            "run_s": run_s,
            "replay_s": replay_s,
            "report_s": report_s,
        }

    def _fuzz_round(self, transfer_ns: list[int] | None) -> dict:
        ops = self.size["ops"]
        counts = self.counts if self.counts is not None else {}
        before = (counts.get("kind.StepRejected", 0), counts.get("kind.Step", 0))
        result, fuzz_s = self._timed(self.fuzzer.run, ops)
        self.fuzz_rejected_ratio = _ratio(
            counts.get("kind.StepRejected", 0) - before[0], counts.get("kind.Step", 0) - before[1]
        )
        fingerprint = (result.ops, result.sequences, result.transfers_checked)
        if self.fuzz_fingerprint is None:
            self.fuzz_fingerprint = fingerprint
        want_sequences = -(-ops // self.fuzzer.ops_per_run)
        problems = [] if result.ok else [result.violation]
        if (result.ops, result.sequences) != (ops, want_sequences):
            problems.append(f"{result.ops} ops in {result.sequences} sequences, expected {ops} in {want_sequences}")
        if fingerprint != self.fuzz_fingerprint:
            problems.append(f"batch {fingerprint} differs from the first batch {self.fuzz_fingerprint}")
        self.checks.check("fuzz batch", problems)
        self.fuzz_sequences = result.sequences

        events = replay_s = report_s = 0.0
        for item in self.corpus:
            scenario = item["scenario"]
            logs = self._log_pipeline(scenario, scenario.seed, item["config"], item["path"], transfer_ns, item["digest"])
            events += logs["events"]
            replay_s += logs["replay_s"]
            report_s += logs["report_s"]
        digest = hashlib.sha256(repr((fingerprint, [i["digest"] for i in self.corpus])).encode()).hexdigest()
        self.digest = self.digest or digest
        return {
            "run.steps_per_s": ops / fuzz_s,
            "replay.events_per_s": events / replay_s,
            "report.events_per_s": events / report_s,
            "events": events,
        }


# -- modes ------------------------------------------------------------------------


def measure(bench: Bench, seconds: float) -> dict:
    """Medians over the rounds timed in ``seconds``, after one warm-up round.

    Rounds without and with the transfer-latency callback alternate.
    """
    bench.round([])  # warm-up: caches and lazy set-up, checked but not timed
    samples: list[dict] = []
    transfer_ns: list[int] = []
    deadline = time.perf_counter() + seconds
    while len(samples) < MIN_ROUNDS or time.perf_counter() < deadline:
        round_ns = [] if len(samples) % 2 else None
        samples.append(bench.round(round_ns))
        figures = {name: samples[-1][name] for name, _unit in THROUGHPUTS if name in samples[-1]}
        if round_ns is not None:
            transfer_ns.extend(round_ns)
            figures["transfer.p50_us"] = _median(round_ns) / 1e3
        print("round", json.dumps(figures))
    metrics = {
        name: (_median([sample[name] for sample in samples if name in sample]), unit) for name, unit in THROUGHPUTS
    }
    metrics["transfer.p50_us"] = (_median(transfer_ns) / 1e3, "us")
    print(f"rounds: {len(samples)}, transfer samples: {len(transfer_ns)}")
    return metrics


def _stage_wall_ns(bench: Bench) -> tuple[int, dict]:
    """Run one round without the latency callback; returns the wall time of its
    timed stages and the round's figures."""
    before = bench.stage_wall_ns
    figures = bench.round()
    return bench.stage_wall_ns - before, figures


def trace(bench: Bench, seconds: float) -> dict:
    """Per-layer figures: exact counts from one counting round, then calls and
    self times from traced rounds, taking turns with untraced rounds and with
    rounds that time transfers for ``token.transfer.p99_us``.

    Counting and span recording run in separate rounds, so that the counters'
    cost does not land in any span's self time.
    """
    tracer = Tracer()
    transfer_ns: list[int] = []
    untraced: list[float] = []
    traced: list[dict] = []
    bench.round([])  # warm-up
    patches = tracer.install([], COUNTERS)
    bench.counts = tracer.counts
    try:
        events = bench.round()["events"]
    finally:
        patches.restore()
        bench.counts = None
    counts = _count_figures(bench, tracer.counts, events)
    missing = patches.missing

    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        bench.round(transfer_ns)
        untraced.append(_stage_wall_ns(bench)[0] / 1e9)

        tracer.reset()
        patches = tracer.install(SPANS, {})
        try:
            wall_ns, _figures = _stage_wall_ns(bench)
        finally:
            patches.restore()
        traced.append(_span_figures(tracer, wall_ns))
    missing += patches.missing
    if missing:
        print(f"trace targets not found (reported as 0): {', '.join(missing)}")

    calls = [name for name in traced[0] if name.endswith(".calls")]
    for figures in traced[1:]:
        differing = [name for name in calls if figures[name] != traced[0][name]]
        bench.checks.check("exact counts repeat", [f"{name} differs between traced rounds" for name in differing])
    metrics = {}
    for name in traced[0]:
        value = traced[0][name] if name in calls else _median([figures[name] for figures in traced])
        metrics[name] = (value, _unit(name))
    metrics.update((name, (value, _unit(name))) for name, value in counts.items())
    metrics["trace.untraced_wall_s"] = (_median(untraced), "s")
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"][0] - _median(untraced), "s")
    ordered = sorted(transfer_ns)
    p99 = ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))] / 1e3 if ordered else 0.0
    metrics["token.transfer.p99_us"] = (p99, "us")
    print(f"rounds: 1 counting, {len(untraced)} untraced, {len(traced)} traced")
    return metrics


def _unit(name: str) -> str:
    if name.endswith(".calls") or name.startswith("risk.verdict.") or name == "fuzz.sequences":
        return "count"
    return "s" if name.endswith("_s") else "ratio"


def _span_figures(tracer: Tracer, wall_ns: int) -> dict:
    stats = tracer.stats()
    figures: dict[str, float] = {}
    layer_ns = dict.fromkeys(LAYERS, 0)
    for target in SPANS:
        entry = stats.get(target)
        calls, self_ns = (entry.calls, entry.self_ns) if entry else (0, 0)
        figures[f"{target}.calls"] = calls
        figures[f"{target}.self_s"] = self_ns / 1e9
        layer_ns[target.split(".", 1)[0]] += self_ns
    for layer, ns in layer_ns.items():
        figures[f"{layer}.self_s"] = ns / 1e9
    figures["other.self_s"] = (wall_ns - sum(layer_ns.values())) / 1e9
    figures["trace.wall_s"] = wall_ns / 1e9
    return figures


def _count_figures(bench: Bench, counts, events: float) -> dict:
    steps = counts["kind.Step"]
    evaluations = sum(counts[f"verdict.{v}"] for v in VERDICTS)
    appended = sum(n for key, n in counts.items() if key.startswith("kind."))
    figures: dict[str, float] = {
        "risk.tokens_scanned_per_transfer": _ratio(counts["tokens_scanned"], evaluations),
        **{f"risk.verdict.{verdict}": counts[f"verdict.{verdict}"] for verdict in VERDICTS},
        "ledger.to_line_per_event": _ratio(counts["to_line"], int(events)),
        "ledger.events_per_step": _ratio(appended, steps),
        "runner.steps_rejected_ratio": _ratio(counts["kind.StepRejected"], steps),
        "oracle.dispatches_per_step": _ratio(counts["dispatch"], steps),
        "arbitration.cases_closed_ratio": _ratio(counts["kind.CaseClosed"], counts["kind.CaseOpened"]),
        "fuzz.sequences": bench.fuzz_sequences,
        "fuzz.steps_rejected_ratio": bench.fuzz_rejected_ratio,
    }
    return figures


def metadata() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="guardsim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "guardsim" / "__init__.py").is_file():
        print(f"no guardsim sources under {src}; run from the root of a guardsim checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    WORK_DIR.mkdir(exist_ok=True)
    print(json.dumps({"meta": metadata(), "workload": args.workload, "seed": args.seed, "size": WORKLOADS[args.workload]}))

    bench = Bench(args.workload, args.seed)
    bench.setup()
    if args.workload == "fuzz":
        bench.capture_corpus()
    if args.trace:
        metrics = trace(bench, args.seconds)
    else:
        setup_s = _median([bench.fresh_setup_s() for _ in range(SETUPS)])
        metrics = measure(bench, args.seconds)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    checks = bench.checks
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"digest {bench.digest}")
    print(f"ops_failed_ratio {_ratio(checks.failed, checks.attempted)} ratio ({checks.failed}/{checks.attempted})")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
