"""Benchmark for ecriesel: three seeded workloads driven through `cli.main`.

    python3 perfbench/run.py --workload mersenne --seed 1 --seconds 30 --trace 0

Run it from anywhere; it measures the ecriesel sources in the `src/` next
to this directory and fails (exit 2, no result line) when they are absent.
Every deciding call runs in this one process with `--workers 1`.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(spans from `tracing.py` around the program's public calls, and per-op
costs from `layers.py`).  Both check every verdict against Lucas-Lehmer or
12-base Miller-Rabin, replay every emitted record through `test --replay`,
and apply one seeded tamper that replay must reject.  The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  Any
failure exits 1 after printing it.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from functools import partial
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import layers
import refclock
import workloads
from tracing import DECISION, DECISION_CHILDREN, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"

MIN_PASSES = 3  # measured passes per run, whatever --seconds says
SETUP_PER_PASS = 5  # spread over the run, so one slow spell cannot own the median
LL_SHARE = 0.5  # Lucas-Lehmer time after each decide pass, as a share of it
SETUP_ARGV = ["-m", "ecriesel", "test", "7", "3", "--json"]
CERT_TYPES = ("sequence", "factor", "order", "vanished-multiple", "oracle",
              "gate-failure", "retries-exhausted", "scan-exhausted")
TAMPER_FIELDS = ("outcome", "residue", "divisor", "x0", "doubled_point")
OUTCOMES = ("final-zero", "final-nonzero", "gcd-hit", "early-infinity")


def load_program() -> SimpleNamespace:
    if not (SRC / "ecriesel" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no ecriesel sources in {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import ecriesel
    from ecriesel import cli, primality, sequence

    if Path(ecriesel.__file__).resolve().parent != (SRC / "ecriesel").resolve():
        sys.stderr.write(f"perfbench: imported ecriesel from {ecriesel.__file__}, not {SRC}\n")
        sys.exit(2)
    # The program must see only the generated inputs.
    os.environ.pop(cli.ORACLE_BOUND_ENV, None)
    return SimpleNamespace(api=ecriesel, cli=cli, primality=primality, sequence=sequence)


def tamper(record: dict, field: str) -> dict:
    """One mutation that a sound replay must reject."""
    bad = json.loads(json.dumps(record))
    cert = bad["certificate"]
    if field == "outcome":
        cert["outcome"] = next(o for o in OUTCOMES if o != cert["outcome"])
    elif field == "doubled_point":
        cert["doubled_point"][0] = str(int(cert["doubled_point"][0]) + 1)
    elif field == "divisor":
        cert["divisor"] = str(int(cert["divisor"]) + 1)  # even, so no divisor of odd p
    else:
        cert[field] = str(int(cert[field]) + 1)
    return bad


def sum_of_medians(passes: list[list[float]]) -> float:
    """Sum over units (calls, records) of each unit's median over passes.

    Other tenants slow a shared machine for seconds at a time; a unit's median
    drops the pass a slow spell hit, where the median of pass totals would
    need most passes to be clean.
    """
    return sum(statistics.median(unit) for unit in zip(*passes))


class Bench:
    def __init__(self, prog: SimpleNamespace, workload, seed: int):
        self.prog = prog
        self.w = workload
        self.seed = seed
        self.rng = random.Random(f"bench/{workload.name}/{seed}")
        self.failures: list[str] = []
        self.attempted = 0
        self.tracer: Tracer | None = None
        self.first_outputs: list[tuple] | None = None
        self.record_lines: list[str] = []
        self.records: list[dict] = []
        self.notes: list[str] = list(workload.notes)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    # -- calling the program ---------------------------------------------------

    def call(self, argv: list[str], stdin_text: str | None = None) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        saved_stdin = sys.stdin
        if stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        try:
            if self.tracer is not None:
                with self.tracer.span("cli.main"):
                    rc = self.prog.cli.main(argv, out=out, err=err)
            else:
                rc = self.prog.cli.main(argv, out=out, err=err)
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        finally:
            sys.stdin = saved_stdin
        return rc, out.getvalue(), err.getvalue()

    def decide(self) -> tuple[list[float], list[float]]:
        """One pass of the deciding calls: (reference, wall) seconds per call."""
        scaled, wall, outputs = refclock.run([partial(self.call, call.argv)
                                              for call in self.w.calls])
        self.attempted += len(self.w.candidates)
        if self.first_outputs is None:
            self.first_outputs = outputs
            self.check_decisions(outputs)
        elif outputs != self.first_outputs:
            self.fail("a repeated decide pass produced different output")
        return scaled, wall

    def replay(self) -> list[float]:
        """Replay every emitted record through the CLI; reference seconds per record."""
        scaled, _, results = refclock.run([partial(self.call, ["test", "--replay", "-"], line)
                                           for line in self.record_lines])
        for rc, out, err in results:
            if rc != 0 or not out.startswith("replay: valid"):
                self.fail(f"replay rejected a genuine record (rc={rc}): {out.strip()} {err[-300:]}")
        return scaled

    def lucas_lehmer(self, seconds: float) -> list[float]:
        """Lucas-Lehmer on each call's exponents; reference seconds per call.

        One Lucas-Lehmer pass takes milliseconds, so it is repeated for
        about `seconds` (at least 3 times); each call gets its median.
        """
        ll = self.prog.api.lucas_lehmer

        def one(call):
            for c in call.candidates:
                ll(c.k)

        start = perf_counter()
        for call in self.w.calls:
            one(call)
        reps = max(3, math.ceil(seconds / (perf_counter() - start)))
        scaled, _, _ = refclock.run([partial(one, call) for _ in range(reps) for call in self.w.calls])
        n = len(self.w.calls)
        return [statistics.median(scaled[i::n]) for i in range(n)]

    # -- correctness ----------------------------------------------------------------

    def check_decisions(self, outputs: list[tuple]) -> None:
        """Fail on a wrong verdict, not on an undecided one.

        A `prime` or `composite` that disagrees with the ground truth is a
        failure; `inconclusive` and `not-applicable` are not wrong and show
        in decided_frac instead.  Exit codes must match the verdict printed.
        """
        api = self.prog.api
        truth = {c.key: workloads.expected_prime(self.w, c, api.lucas_lehmer)
                 for c in self.w.candidates}
        verdicts: dict[str, str] = {}
        summaries = []
        for call, (rc, text, err) in zip(self.w.calls, outputs):
            argv = call.argv
            if rc is None:
                self.fail(f"uncaught exception in {argv[:2]}: {err[-500:]}")
                continue
            for line in text.splitlines():
                obj = json.loads(line)
                if "summary" in obj:
                    summaries.append(obj["summary"])
                    continue
                self.record_lines.append(line)
                self.records.append(obj)
                cand = obj["candidate"]
                verdicts[f"{cand['k']}/{cand['n']}"] = obj["verdict"]
            want_rc = 0
            if argv[0] == "test":
                want_rc = self.prog.cli.EXIT_BY_VERDICT.get(verdicts.get(call.candidates[0].key))
            if rc != want_rc:
                self.fail(f"exit code {rc}, expected {want_rc}, for {argv[:3]}")
        for c in self.w.candidates:
            want = api.PRIME if truth[c.key] else api.COMPOSITE
            got = verdicts.get(c.key)
            if got is None:
                self.fail(f"no verdict for k={c.k} n={c.n}")
            elif got in (api.PRIME, api.COMPOSITE) and got != want:
                self.fail(f"verdict {got} for k={c.k} n={c.n}, expected {want}")
        if summaries:
            tally = Counter(verdicts.values())
            if any(summary.get(v, 0) != tally.get(v, 0) for summary in summaries for v in summary):
                self.fail(f"search summary {summaries} disagrees with the records {dict(tally)}")

    def tamper_probe(self) -> str:
        fields = [f for f in TAMPER_FIELDS if any(f in r["certificate"] for r in self.records)]
        field = self.rng.choice(fields)
        record = self.rng.choice([r for r in self.records if field in r["certificate"]])
        bad = tamper(record, field)
        saved, self.tracer = self.tracer, None
        rc, out, _ = self.call(["test", "--replay", "-"],
                               json.dumps(bad, sort_keys=True, separators=(",", ":")))
        self.tracer = saved
        if rc != 1 or "INVALID" not in out:
            self.fail(f"tampered {field} of {record['candidate']['k']}/{record['candidate']['n']} "
                      f"was not rejected (rc={rc}): {out.strip()}")
        return f"{field} of candidate {record['candidate']['k']}/{record['candidate']['n']}"

    # -- fresh processes ------------------------------------------------------------

    def setup_samples(self, count: int) -> list[float]:
        """Reference seconds per fresh `python -m ecriesel` process."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        start = partial(subprocess.run, [sys.executable, *SETUP_ARGV], cwd=ROOT, env=env,
                        capture_output=True, text=True, timeout=60)
        scaled, _, procs = refclock.run([start] * count)
        for proc in procs:
            if proc.returncode != 0 or '"verdict":"prime"' not in proc.stdout:
                self.fail(f"setup call failed (rc={proc.returncode}): {proc.stderr[-300:]}")
        return scaled

    def peak_rss_mb(self) -> float:
        proc = subprocess.run([sys.executable, str(HERE / "rss_child.py"), str(SRC)],
                              input=json.dumps([call.argv for call in self.w.calls]), cwd=ROOT,
                              capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            self.fail(f"peak-RSS child failed (rc={proc.returncode}): {proc.stderr[-300:]}")
            return 0.0
        return float(proc.stdout.strip().splitlines()[-1])

    # -- the two kinds of run -------------------------------------------------------

    def passes(self, deadline: float, one_pass) -> None:
        """Run one_pass(i) at least MIN_PASSES times, then while another fits."""
        i = 0
        while True:
            start = perf_counter()
            one_pass(i)
            i += 1
            if i >= MIN_PASSES and perf_counter() + (perf_counter() - start) > deadline:
                return

    def end_to_end(self, seconds: float) -> dict[str, float]:
        deadline = perf_counter() + seconds
        self.setup_samples(1)  # warm-up: page cache, bytecode cache
        rss = self.peak_rss_mb()
        setup, decide, replay, ll = [], [], [], []

        def one_pass(i):
            setup.extend(self.setup_samples(SETUP_PER_PASS))
            for _ in range(self.w.decide_repeats):
                decide.append(self.decide()[0])
                ll.append(self.lucas_lehmer(LL_SHARE * sum(decide[-1])))
            replay.append(self.replay())
            if i == 0:
                self.notes.append(f"tamper probe: {self.tamper_probe()}")

        self.passes(deadline, one_pass)
        decide_s = sum_of_medians(decide)
        undecided = sum(r["verdict"] in ("inconclusive", "not-applicable") for r in self.records)
        self.notes.append(f"decide passes: {len(decide)}; replay passes: {len(replay)}; "
                          f"setup samples: {len(setup)}")
        self.notes.append(f"undecided_frac: {undecided / len(self.w.candidates)}")
        return {
            "setup_s": statistics.median(setup),
            "decide_s": decide_s,
            "throughput_cps": len(self.w.candidates) / decide_s,
            "replay_s": sum_of_medians(replay),
            "record_bytes": float(sum(len(out) for _, out, _ in self.first_outputs)),
            "peak_rss_mb": rss,
            "ll_ratio": decide_s / sum_of_medians(ll),
            "decided_frac": 1.0 - undecided / len(self.w.candidates),
        }

    def per_layer(self, seconds: float) -> dict[str, float]:
        deadline = perf_counter() + seconds
        self.decide()  # untimed: checks verdicts, collects the records
        metrics = layers.measure(self.w, self.seed, self.prog.api)
        tracer = Tracer()
        untraced, rounds, ll = [], [], []

        def one_pass(i):
            untraced.append(sum(self.decide()[0]))
            first, counts_before = len(tracer.spans), Counter(tracer.counts)
            with tracer.installed(self.prog):
                self.tracer = tracer
                try:
                    tracer.phase = "decide"
                    scaled, wall = self.decide()
                    tracer.phase = "replay"
                    self.replay()
                finally:
                    self.tracer = None
            if i == 0:
                self.notes.append(f"tamper probe: {self.tamper_probe()}")
            figures = self.round_figures(tracer, first, sum(wall), tracer.counts - counts_before)
            figures["_traced_decide"] = sum(scaled)
            rounds.append(figures)
            ll.append(self.lucas_lehmer(0.0))

        self.passes(deadline, one_pass)
        path = TRACE_DIR / f"trace-{self.w.name}-{self.seed}.jsonl"
        tracer.write(path)
        self.notes.append(f"rounds: {len(rounds)}; {len(tracer.spans)} spans written to "
                          f"{path.relative_to(ROOT)}")
        for name in rounds[0]:
            metrics[name] = statistics.median(r[name] for r in rounds)
        metrics["numtheory.lucas_lehmer.s"] = sum_of_medians(ll)
        metrics["trace.overhead"] = (statistics.median(r["_traced_decide"] for r in rounds)
                                     / statistics.median(untraced) - 1.0)
        del metrics["_traced_decide"]
        types = Counter(r["certificate"].get("type") for r in self.records)
        for t in CERT_TYPES:
            metrics[f"primality.cert.{t}"] = float(types.get(t, 0))
        metrics["cli.record_bytes.max"] = float(max(len(line) + 1 for line in self.record_lines))
        return metrics

    @staticmethod
    def round_figures(tracer: Tracer, first: int, traced_wall: float, counts: Counter) -> dict:
        """Per-layer figures of one traced round, from its spans (wall seconds)."""
        tot = tracer.totals(first)

        def both(name):
            return float(tot[("decide", name)] + tot[("replay", name)])

        decision = sum(tot[("decide", name)] for name in DECISION)
        return {
            "primality.auto_test.s": decision,
            "primality.self.s": decision - tracer.child_time(DECISION, DECISION_CHILDREN,
                                                             "decide", first),
            "primality.replay_verdict.s": tot[("replay", "primality.replay_verdict")],
            "cli.emit.s": both("cli.build_record") + both("cli.json.dumps"),
            "cli.parse.s": both("cli.json.loads") + both("cli.record_to_inputs"),
            "cli.main.self.s": tot[("decide", "cli.main")] - decision,
            "ecring.scalar_mul.s": both("ecring.scalar_mul"),
            "sequence.run_sequence.s": both("sequence.run_sequence"),
            "primality.construct_curve_point.s": both("primality.scan"),
            "ecring.scalar_mul.bits": float(counts["scalar_bits"]),
            "sequence.steps": float(counts["sequence_steps"]),
            "primality.scan_steps": float(counts["scan_steps"]),
            "primality.retries": float(counts["iterations"]),
            "trace.coverage": tracer.child_time(("cli.main",), None, "decide", first)
                              / traced_wall,
        }


def load_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, in BENCHMARK.json order, for this kind of run."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="ecriesel benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    prog = load_program()
    units = load_units(args.trace)
    workload = workloads.build(args.workload, args.seed)
    bench = Bench(prog, workload, args.seed)
    if args.trace:
        values = bench.per_layer(args.seconds)
    else:
        values = bench.end_to_end(args.seconds)

    failed = len(bench.failures)
    for message in bench.failures:
        print(f"FAILED: {message}")
    for note in bench.notes:
        print(f"note: {note}")
    print(f"note: failed_frac: {failed / bench.attempted}")
    if set(units) != set(values):
        raise KeyError(f"measured metrics and BENCHMARK.json differ: {set(units) ^ set(values)}")
    for name, unit in units.items():
        print(f"{name:40s} {values[name]:>16.6g} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": bench.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
