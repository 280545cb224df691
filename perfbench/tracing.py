"""Spans around the program's public calls, taken from outside the program.

The tracer swaps module attributes for timing wrappers for the duration of
a `with tracer.installed():` block.  Each call site is patched in the
module that looks the name up (cli imports auto_test by name, so
`cli.auto_test` is what `cli` calls), which is why one function can appear
under several (module, attribute) pairs.  Nothing inside the program is
edited; tracing inside the program is a later change.

A span is [name, start, end, parent index, candidate id, phase].  Spans
stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from types import SimpleNamespace

NAME, START, END, PARENT, CAND, PHASE = range(6)

# The decision entry points cli calls: `auto_test` for test/search,
# `test_mersenne` for the mersenne command.
DECISION = ("primality.auto_test", "primality.test_mersenne")
# Their traced children; the rest of a decision span is primality self time.
DECISION_CHILDREN = ("primality.scan", "ecring.scalar_mul", "sequence.run_sequence",
                     "numtheory.miller_rabin")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.phase = ""
        self.counts: Counter = Counter()

    # -- span recording ---------------------------------------------------

    def _open(self, name: str, cand: str | None) -> list:
        parent = self.stack[-1] if self.stack else -1
        if cand is None and parent >= 0:
            cand = self.spans[parent][CAND]
        span = [name, 0.0, 0.0, parent, cand, self.phase]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list, start: float) -> None:
        span[START], span[END] = start, perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str, cand: str | None = None):
        span = self._open(name, cand)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(span, start)

    def _in(self, name: str) -> bool:
        return bool(self.stack) and self.spans[self.stack[-1]][NAME] == name

    # -- wrappers ------------------------------------------------------------

    def wrap(self, name, fn, cand_of=None, before=None, after=None):
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            span = self._open(name, cand_of(args) if cand_of else None)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span, start)
            if after is not None:
                after(args, result)
            return result
        return traced

    def wrap_generator(self, name, fn):
        """Time each step of a generator; its consumer's time stays outside."""
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                span = self._open(name, None)
                start = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(span, start)
                yield item
        return traced

    def count_in(self, counter: str, inside: str, fn):
        """Count calls made while the innermost open span is `inside`."""
        def counted(*args, **kwargs):
            if self._in(inside):
                self.counts[counter] += 1
            return fn(*args, **kwargs)
        return counted

    # -- installation --------------------------------------------------------

    @contextmanager
    def installed(self, modules: SimpleNamespace):
        cli, primality, sequence = modules.cli, modules.primality, modules.sequence

        def cand_of_candidate(args):
            return f"{args[0].k}/{args[0].n}"

        def count_iterations(args, verdict):
            if self.phase == "decide":
                self.counts["iterations"] += verdict.iterations

        def count_bits(args):
            self.counts["scalar_bits"] += args[1].bit_length()

        def count_steps(args, result):
            self.counts["sequence_steps"] += len(result[1].s_values)

        json_proxy = SimpleNamespace(
            dumps=self.wrap("cli.json.dumps", cli.json.dumps),
            loads=self.wrap("cli.json.loads", cli.json.loads),
        )
        patches = [
            (cli, "auto_test", self.wrap("primality.auto_test", cli.auto_test,
                                         cand_of_candidate, after=count_iterations)),
            (cli, "test_mersenne", self.wrap("primality.test_mersenne", cli.test_mersenne,
                                             lambda a: f"{a[0]}/1", after=count_iterations)),
            (cli, "replay_verdict", self.wrap("primality.replay_verdict", cli.replay_verdict,
                                              cand_of_candidate)),
            (cli, "build_record", self.wrap("cli.build_record", cli.build_record)),
            (cli, "record_to_inputs", self.wrap("cli.record_to_inputs", cli.record_to_inputs)),
            (cli, "json", json_proxy),
            (primality, "_curve_point_candidates",
             self.wrap_generator("primality.scan", primality._curve_point_candidates)),
            (primality, "jacobi", self.count_in("scan_steps", "primality.scan", primality.jacobi)),
            (primality, "scalar_mul", self.wrap("ecring.scalar_mul", primality.scalar_mul,
                                                before=count_bits)),
            (primality, "run_sequence", self.wrap("sequence.run_sequence", primality.run_sequence,
                                                  after=count_steps)),
            (sequence, "run_sequence", self.wrap("sequence.run_sequence", sequence.run_sequence,
                                                 after=count_steps)),
            (primality, "miller_rabin", self.wrap("numtheory.miller_rabin", primality.miller_rabin)),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        try:
            for mod, attr, replacement in patches:
                setattr(mod, attr, replacement)
            yield self
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)

    # -- aggregation -----------------------------------------------------------

    def totals(self, first: int = 0) -> dict[tuple[str, str], float]:
        """Seconds per (phase, span name) over spans[first:]."""
        out: Counter = Counter()
        for s in self.spans[first:]:
            out[(s[PHASE], s[NAME])] += s[END] - s[START]
        return out

    def child_time(self, parents: tuple[str, ...], children: tuple[str, ...] | None,
                   phase: str, first: int = 0) -> float:
        """Seconds of direct children (all, or those named) of spans named `parents`."""
        total = 0.0
        for s in self.spans[first:]:
            if s[PHASE] != phase or s[PARENT] < 0:
                continue
            if self.spans[s[PARENT]][NAME] in parents and (children is None or s[NAME] in children):
                total += s[END] - s[START]
        return total

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")
