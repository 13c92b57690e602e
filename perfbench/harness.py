"""What one repetition of a workload records: timed operations, their
oracle verdicts, query latencies and work items.

An operation is one call into the library.  It fails if it raises or if
its oracle rejects the answer; it fails at most once.  Only the library
call is timed: oracle work runs outside the clocks.

Every time is also kept at reference speed.  The machine this benchmark
was built on shares its cores with other tenants, which slow everything in
it by up to 2.1 times, in spells from a fraction of a second to minutes;
run-to-run spreads of raw times reached 30 to 50 %.  A fixed
sub-millisecond probe loop is timed next to each operation (see ``Speed``),
and the operation's time is scaled by ``PROBE_REF_S / probe`` (the mean
reading): the time it would take when the probe runs at its reference
speed.  The probe and the library slow down together
(correlation 0.8-0.85), so the scaled times hold still while the raw ones
swing; a change to the library's own speed moves both alike.
"""

from __future__ import annotations

import signal
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"  # spans and CLI input files; inside the checkout

# (operation, input, exception) triples the library is known to fail today:
# relations_generate_kernel and torus_point_check take the prism past the
# default 8-edge guard of their inner equations() call, whatever guard the
# caller passed.  They count in ``failed`` but leave the run ``correct``.
EXPECTED_FAILURES = frozenset({
    ("toric.relations_generate_kernel", "prism", "GuardExceededError"),
    ("toric.torus_point_check", "prism", "GuardExceededError"),
})

FAILED = object()


def is_expected(failure: dict) -> bool:
    return (failure["op"], failure["input"], failure["reason"]) in EXPECTED_FAILURES


PROBE_REF_S = 0.00021  # the probe's fastest time on the machine above
PROBE_EVERY_S = 0.01


def probe() -> float:
    """Seconds for a fixed loop of interpreter work; the faster of two."""
    best = float("inf")
    for _ in range(2):
        start = perf_counter()
        acc = {}
        for i in range(2000):
            acc[i & 63] = acc.get(i & 63, 0) + i * i
        best = min(best, perf_counter() - start)
    return best


class Speed:
    """Probe readings next to timed code: the latest one (at most
    PROBE_EVERY_S old) before a block, one after a long block, and with
    ``during_blocks`` one every PROBE_EVERY_S inside it, taken by a SIGALRM
    handler whose own time is taken out of the block's."""

    def __init__(self, during_blocks: bool):
        probe()  # warm the loop's code before the first reading
        self._during = during_blocks
        self._at = perf_counter()
        self._last = probe()
        self._readings = []
        self._spent = 0.0
        if during_blocks:
            signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        start = perf_counter()
        self._readings.append(probe())
        self._spent += perf_counter() - start

    def _now(self) -> float:
        if perf_counter() - self._at >= PROBE_EVERY_S:
            self._last = probe()
            self._at = perf_counter()
        return self._last

    @contextmanager
    def clock(self):
        """Time the block; the yielded dict then holds its ``raw`` seconds
        and its ``scaled`` seconds at reference speed."""
        before = self._now()
        mark, spent = len(self._readings), self._spent
        times = {}
        if self._during:
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        start = perf_counter()
        try:
            yield times
        finally:
            elapsed = perf_counter() - start
            if self._during:
                signal.setitimer(signal.ITIMER_REAL, 0)
            raw = elapsed - (self._spent - spent)
            readings = [before, *self._readings[mark:], self._now() if elapsed >= PROBE_EVERY_S else before]
            times["raw"] = raw
            times["scaled"] = raw * PROBE_REF_S * len(readings) / sum(readings)


class Rep:
    def __init__(self, tracer, speed: Speed):
        self.tracer = tracer
        self.speed = speed
        self.attempted = 0
        self.items = 0
        self.raw_wall_s = 0.0
        self.wall_s = 0.0  # at reference speed, like every time below
        self.queries = []  # library time of each query
        self.failures = []
        self._query = None  # library time of the open query

    def op(self, name, subject, fn, *args, oracle=None, **kwargs):
        """Call ``fn`` as one operation; ``oracle(answer)`` returns a reason
        when the answer is wrong.  Returns the answer, or FAILED if it raised."""
        self.attempted += 1
        error = None
        mark = self.tracer.mark()
        with self.speed.clock() as times:
            try:
                answer = self.tracer.call(name, fn, *args, **kwargs)
            except Exception as exc:  # a library error is a failed operation, not a crash
                error = exc
        self.raw_wall_s += times["raw"]
        self.wall_s += times["scaled"]
        if times["raw"] > 0:
            self.tracer.scale_since(mark, times["scaled"] / times["raw"])
        if self._query is not None:
            self._query += times["scaled"]
        if error is not None:
            self._fail(name, subject, type(error).__name__, str(error))
            return FAILED
        if oracle is not None:
            try:
                wrong = oracle(answer)
            except Exception as exc:  # an answer the oracle cannot read is wrong
                wrong = f"unreadable answer: {type(exc).__name__}: {exc}"
            if wrong:
                self._fail(name, subject, "wrong answer", wrong)
        return answer

    def _fail(self, name, subject, reason, detail):
        self.failures.append({"op": name, "input": subject, "reason": reason, "detail": detail[:300]})

    @contextmanager
    def query(self):
        self._query = 0.0
        try:
            with self.tracer.span("bench.query"):
                yield
        finally:
            self.queries.append(self._query)
            self._query = None


def expect_true(answer):
    return None if answer is True else f"expected True, got {answer!r}"


def clear_library_caches():
    """Empty every module-level cache of the library (``functools`` caches
    expose ``cache_clear``), so the next call starts cold as in a fresh CLI
    process."""
    for name, module in list(sys.modules.items()):
        if name == "enrichfan" or name.startswith("enrichfan."):
            for value in vars(module).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()
