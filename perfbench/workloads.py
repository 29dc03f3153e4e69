"""The three workloads and how each is measured.

Load comes from one caller in a closed loop: the next event or table is sent
only after the previous one returned. Work comes in rounds. A round is one
generated input (a scenario, or a pass over every request table) played from
a fresh ingestion, so no program state or cache outlives it. The event
workloads cycle through several distinct seeded scenarios, so one run covers
more inputs and the figures depend less on any one of them.

Every operation (one event of one input, or one table) is timed each time
its input is replayed, in reference nanoseconds (see reference.py), and a
timing metric uses each operation's fastest time. Other tenants of a shared
host only ever add time to an operation, so the fastest of several replays
of identical work estimates the program's own cost more steadily than a
median over all replays.

Untraced run: rounds until ``seconds`` have passed (the round in progress is
abandoned, its timings kept), then round 0 again if it has not run twice,
because every replay of an input must give the same bytes. Traced run:
untraced and traced rounds of input 0 in alternation for half of ``seconds``
(at least one of each); per-layer counts are per traced round and times are
per call.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import gen
from drive import Round, conservation_errors
from reference import Reference
from spans import REJECT_REASONS, Tracer

from tnsc import cli
from tnsc import model
from tnsc import scenario as tsc
from tnsc.controller import EventKind

SETUP_REPEATS = 5
GRID_SCENARIOS = 4
STORM_SCENARIOS = 12
GRID_EVENTS = 100
STORM_SLICES = 200
STORM_FLAPS = 80
TABLES = 100
TABLE_ROWS = 200
_COMMANDS = (("evaluate", "json"), ("evaluate", "csv"), ("rank", "json"),
             ("rank", "csv"))


class Tally:
    """Operations and output checks attempted, and those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(problem)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


class Samples:
    """Timings of one phase, in reference nanoseconds. Each operation has a
    key that is the same on every replay of its input; the phase keeps, per
    key, its kind, the work units it completes, its fastest time and how
    often it was timed. Also the set-up (ingestion) times."""

    def __init__(self, reference: Reference):
        self.reference = reference
        self.best_ns: dict = {}
        self.kind: dict = {}
        self.units: dict = {}
        self.timed: Counter = Counter()
        self.setup_ns: list[float] = []

    def tick(self) -> None:
        """Call before timing an operation: keeps the machine's speed current."""
        self.reference.tick()

    def since(self, start: int) -> float:
        """Reference nanoseconds from ``start``, a perf_counter_ns reading."""
        return self.reference.normalize(perf_counter_ns() - start)

    def add(self, key, kind: str, elapsed: float, units: int = 1) -> None:
        """Record one timing of operation ``key``, in reference nanoseconds."""
        if key not in self.best_ns or elapsed < self.best_ns[key]:
            self.best_ns[key] = elapsed
        self.kind[key] = kind
        self.units[key] = units
        self.timed[key] += 1

    def best(self, kind: str) -> list[float]:
        """Fastest time of every operation of ``kind``."""
        return [ns for key, ns in self.best_ns.items() if self.kind[key] == kind]

    def throughput(self) -> float:
        """Work units per second over the fastest time of every operation."""
        return _ratio(sum(self.units.values()), sum(self.best_ns.values()) / 1e9)

    def replays(self, kind: str) -> int:
        """The fewest times any operation of ``kind`` was timed."""
        return min((n for key, n in self.timed.items() if self.kind[key] == kind),
                   default=0)

    def count(self, kind: str) -> str:
        """Sample count as printed: operations, each the best of how many."""
        return f"{len(self.best(kind))}x>={self.replays(kind)}"


def latency_ms(samples: list[int]) -> tuple[float, float]:
    """Median and 90th percentile in milliseconds."""
    if len(samples) < 2:
        return 0.0, 0.0
    p90 = statistics.quantiles(samples, n=10)[-1]
    return statistics.median(samples) / 1e6, p90 / 1e6


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class EventWorkload:
    """Scenarios replayed through the controller, one timed event at a time."""

    def __init__(self, raws: list[dict], headline: str):
        self.texts = [json.dumps(raw) for raw in raws]
        self.parts = len(self.texts)
        self.headline = headline

    def ingest(self, part: int = 0) -> Round:
        """What a caller pays before the first decision: generated JSON
        through the public ingestion functions, then a fresh controller."""
        return Round(tsc.parse_scenario(self.texts[part]))

    def play(self, part: int, samples: Samples, tally: Tally, deadline: int | None,
             tracer: Tracer | None = None) -> Round | None:
        """Run one round; None when the deadline or a failure cut it short."""
        samples.tick()
        start = perf_counter_ns()
        current = self.ingest(part)
        samples.setup_ns.append(samples.since(start))
        for event in current.events:
            if deadline is not None and perf_counter_ns() >= deadline:
                tally.check(not conservation_errors(current.controller),
                            "partial round: ledger not conserved")
                return None
            if not current.should_send(event):
                continue
            if tracer is not None:
                tracer.trace_id = event.seq
            tally.attempted += 1
            samples.tick()
            start = perf_counter_ns()
            try:
                hit = current.step(event)
            except Exception as err:  # counted as a failed operation
                tally.fail(f"event {event.seq}: {type(err).__name__}: {err}")
                return None
            elapsed = samples.since(start)
            if event.kind is EventKind.REQUEST_ARRIVAL:
                kind = "admit"
            elif event.kind is EventKind.LINK_DOWN and hit:
                kind = "failover"
            else:
                kind = "event"
            samples.add((part, event.seq), kind, elapsed)
        samples.tick()
        start = perf_counter_ns()
        current.report_json()
        samples.add((part, "report"), "report", samples.since(start), units=0)
        if tracer is not None:
            tracer.trace_id = 0
        problems = conservation_errors(current.controller)
        tally.check(not problems, f"ledger: {problems[:3]}")
        return current

    def digest(self, current: Round) -> str:
        return hashlib.sha256(current.text.encode("utf-8")).hexdigest()

    def named_metrics(self, samples: Samples, first: Round | None) -> dict:
        admit = latency_ms(samples.best("admit"))
        failover = latency_ms(samples.best("failover"))
        events = sum(samples.units.values())
        out = {
            "events_per_s": (samples.throughput(), "1/s",
                             f"{events}x>={samples.replays('event')}"),
            "admit_p50_ms": (admit[0], "ms", samples.count("admit")),
            "admit_p90_ms": (admit[1], "ms", samples.count("admit")),
            "failover_p50_ms": (failover[0], "ms", samples.count("failover")),
            "failover_p90_ms": (failover[1], "ms", samples.count("failover")),
        }
        if first is not None:  # decisions of input 0, the same on every run
            arrivals = [e for e in first.entries if e["action"] == "admit"]
            moved = [e for e in first.entries if e["action"] == "reconfigure"]
            blocked = sum(e["outcome"] == "rejected" for e in arrivals)
            readmitted = sum(e["outcome"] == "readmitted" for e in moved)
            out["blocking_ratio"] = (_ratio(blocked, len(arrivals)), "ratio",
                                     f"{blocked}/{len(arrivals)}")
            out["restored_ratio"] = (_ratio(readmitted, len(moved)), "ratio",
                                     f"{readmitted}/{len(moved)}")
        return out

    def close(self) -> None:
        pass


class TableWorkload:
    """Request tables scored through ``tnsc.cli.main`` in-process."""

    headline = "table"
    parts = 1

    def __init__(self, seed: int, workdir: Path):
        tables, self.out_of_range = gen.score_table(seed, TABLES, TABLE_ROWS)
        self.texts = [json.dumps(table) for table in tables]
        self.ids = [[row["id"] for row in table] for table in tables]
        self.bounds_text = json.dumps(gen.STATIC_BOUNDS)
        self.workdir = workdir
        workdir.mkdir(parents=True)
        self.bounds_path = workdir / "bounds.json"
        self.bounds_path.write_text(self.bounds_text, encoding="utf-8")
        self.paths = []
        for t, text in enumerate(self.texts):
            path = workdir / f"table-{t:02d}.json"
            path.write_text(text, encoding="utf-8")
            self.paths.append(path)
        self.checked: set[int] = set()

    def ingest(self, part: int = 0) -> None:
        """The whole request set through the public ingestion functions once."""
        model.bounds_from_dict(json.loads(self.bounds_text))
        for text in self.texts:
            for raw in json.loads(text):
                model.request_from_dict(raw)

    def run_op(self, t: int, samples: Samples, tally: Tally) -> list[bytes] | None:
        """evaluate and rank, JSON and CSV, on table ``t``: one operation."""
        outputs = []
        elapsed = 0.0
        for command, fmt in _COMMANDS:
            out = self.workdir / f"out-{command}.{fmt}"
            argv = [command, "--requests", str(self.paths[t]),
                    "--bounds", str(self.bounds_path), "--format", fmt,
                    "--out", str(out)]
            samples.tick()
            start = perf_counter_ns()
            code = cli.main(argv)
            elapsed += samples.since(start)
            if code != 0:
                tally.fail(f"table {t}: tnsc {command} --format {fmt} exited {code}")
                return None
            outputs.append(out.read_bytes())
        samples.add(t, "table", elapsed, units=TABLE_ROWS)
        return outputs

    def play(self, part: int, samples: Samples, tally: Tally, deadline: int | None,
             tracer: Tracer | None = None) -> list | None:
        """One pass over every table; None when the deadline or a failure
        cut it short."""
        samples.tick()
        start = perf_counter_ns()
        self.ingest()
        samples.setup_ns.append(samples.since(start))
        passed = []
        for t in range(len(self.paths)):
            if deadline is not None and perf_counter_ns() >= deadline:
                return None
            if tracer is not None:
                tracer.trace_id = t + 1
            tally.attempted += 1
            outputs = self.run_op(t, samples, tally)
            if tracer is not None:
                tracer.trace_id = 0
            if outputs is None:
                return None
            if t not in self.checked:
                self.checked.add(t)
                problems = self._table_problems(t, outputs)
                tally.check(not problems, f"table {t}: {problems[:3]}")
            passed.append(outputs)
        return passed

    def _table_problems(self, t: int, outputs: list[bytes]) -> list[str]:
        """Checks against what the generator knows about table ``t``."""
        evaluated = json.loads(outputs[0])
        ranked = json.loads(outputs[2])
        problems = []
        if [row["slice"] for row in evaluated] != self.ids[t]:
            problems.append("evaluate rows are not the table's rows in order")
        for row in evaluated:
            expected = "OUT_OF_RANGE" if row["slice"] in self.out_of_range else "ok"
            values = [row[dim]["value"] for dim in model.DIMENSIONS]
            if row["status"] != expected:
                problems.append(f"{row['slice']}: status {row['status']}")
            elif expected == "ok" and not min(values) <= row["index"] <= max(values):
                problems.append(f"{row['slice']}: index outside its trait values")
        order = sorted(evaluated, key=lambda row: (
            row["index"] is None, -(row["index"] or 0.0), row["slice"]))
        if ranked != order:
            problems.append("rank output is not evaluate output in index order")
        for blob in (outputs[1], outputs[3]):
            if blob.count(b"\n") != len(self.ids[t]) + 1:
                problems.append("CSV row count")
        return problems

    def digest(self, current: list[list[bytes]]) -> str:
        sha = hashlib.sha256()
        for outputs in current:
            for blob in outputs:
                sha.update(blob)
        return sha.hexdigest()

    def named_metrics(self, samples: Samples, first) -> dict:
        p50, p90 = latency_ms(samples.best("table"))
        rows = sum(samples.units.values())
        return {
            "rows_per_s": (samples.throughput(), "1/s",
                           f"{rows}x>={samples.replays('table')}"),
            "table_p50_ms": (p50, "ms", samples.count("table")),
            "table_p90_ms": (p90, "ms", samples.count("table")),
        }

    def close(self) -> None:
        for path in self.workdir.iterdir():
            path.unlink()
        self.workdir.rmdir()


def make_workload(name: str, seed: int, workdir: Path):
    if name == "grid-churn":
        return EventWorkload([gen.grid_churn(seed, part, GRID_EVENTS)
                              for part in range(GRID_SCENARIOS)], "admit")
    if name == "failover-storm":
        return EventWorkload([gen.failover_storm(seed, part, STORM_SLICES, STORM_FLAPS)
                              for part in range(STORM_SCENARIOS)], "failover")
    if name == "score-table":
        return TableWorkload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


class Runner:
    """Plays rounds and checks that every replay of an input gives the
    bytes its first complete round gave."""

    def __init__(self, workload, tally: Tally):
        self.workload = workload
        self.tally = tally
        self.first = None  # input 0's first complete round
        self.digests: dict[int, str] = {}
        self.completed: Counter = Counter()

    def round(self, part: int, samples: Samples, deadline: int | None = None,
              tracer: Tracer | None = None) -> bool:
        current = self.workload.play(part, samples, self.tally, deadline, tracer)
        if current is None:
            return False
        digest = self.workload.digest(current)
        if part in self.digests:
            self.tally.check(digest == self.digests[part],
                             f"input {part}: output bytes differ between replays")
        else:
            self.digests[part] = digest
            if part == 0:
                self.first = current
        self.completed[part] += 1
        return True


def _set_up(workload, samples: Samples) -> None:
    for _ in range(SETUP_REPEATS):
        samples.tick()
        start = perf_counter_ns()
        workload.ingest(0)
        samples.setup_ns.append(samples.since(start))


def measure(workload, seconds: float, tally: Tally) -> dict:
    """Untraced run: the end-to-end metrics."""
    reference = Reference()
    samples = Samples(reference)
    _set_up(workload, samples)
    runner = Runner(workload, tally)
    deadline = perf_counter_ns() + int(seconds * 1e9)
    played = 0
    while perf_counter_ns() < deadline:
        if not runner.round(played % workload.parts, samples, deadline):
            break
        played += 1
    while runner.completed[0] < 2:
        if not runner.round(0, Samples(reference)):
            break
    headline = samples.best(workload.headline)
    tally.check(len(headline) >= 20, f"only {len(headline)} {workload.headline} samples")
    # Set-up is timed before the first round and again as each round
    # ingests its input, so its median spans the run like the other figures.
    setup_s = statistics.median(samples.setup_ns) / 1e9
    named = {"setup_s": (setup_s, "s", len(samples.setup_ns))}
    named.update(workload.named_metrics(samples, runner.first))
    named["reference_ms"] = (statistics.median(reference.times_ns) / 1e6, "ms",
                             len(reference.times_ns))
    p50, p90 = latency_ms(headline)
    gated = {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (samples.throughput(), "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
    }
    return {"named": named, "gated": gated, "digest": runner.digests.get(0)}


def measure_traced(workload, seconds: float, tally: Tally) -> dict:
    """Traced run: per-layer metrics from traced rounds of input 0, and the
    tracing overhead against untraced rounds of the same input played in
    alternation with them, so that drift in machine speed hits both alike."""
    runner = Runner(workload, tally)
    reference = Reference()
    plain = Samples(reference)
    traced = Samples(reference)
    tracer = Tracer()
    deadline = perf_counter_ns() + int(seconds / 2 * 1e9)
    rounds = 0
    while rounds == 0 or perf_counter_ns() < deadline:
        runner.round(0, plain)
        tracer.install()
        try:
            if rounds == 0:
                _set_up(workload, traced)
            runner.round(0, traced, tracer=tracer)
        finally:
            tracer.uninstall()
        rounds += 1
    overhead = _ratio(traced.throughput(), plain.throughput())
    return {"layers": layer_metrics(tracer, rounds, overhead), "tracer": tracer,
            "digest": runner.digests.get(0)}


_CALL_LAYERS = ("pathfind.k_disjoint_paths", "pathfind.max_disjoint_count",
                "model.derive_bounds", "feasibility.build_vector",
                "feasibility.merge_index", "feasibility.normalize_falling",
                "controller.admit", "controller.reconfigure")
_INCLUSIVE_LAYERS = ("model.validate_topology", "scenario.scenario_from_dict",
                     "controller.snapshot", "scenario.report_to_json",
                     "scenario.rank_rows", "scenario.rows_to_json",
                     "scenario.rows_to_csv", "cli.main")
_SELF_LAYERS = ("controller.apply_event", "model.request_from_dict",
                "scenario.evaluate")


def layer_metrics(tracer: Tracer, rounds: int, overhead: float) -> dict:
    """Per-layer metrics of the traced rounds: ``calls`` and counts per round,
    ``ms`` and ``self_ms`` as mean milliseconds per call (0 when never
    called)."""
    totals = tracer.totals()
    counts = tracer.counts

    def per_call_ms(name: str, key: str) -> float:
        return _ratio(totals[name][key], totals[name]["calls"]) / 1e6

    out = {}
    for name in _CALL_LAYERS:
        out[f"{name}.calls"] = (totals[name]["round_calls"] / rounds, "count")
        out[f"{name}.self_ms"] = (per_call_ms(name, "self_ns"), "ms")
    for name in _SELF_LAYERS:
        out[f"{name}.self_ms"] = (per_call_ms(name, "self_ns"), "ms")
    for name in _INCLUSIVE_LAYERS:
        out[f"{name}.ms"] = (per_call_ms(name, "ns"), "ms")
    out["pathfind.k_disjoint_paths.found_ratio"] = (
        _ratio(counts["pathfind.k_disjoint_paths.found"],
               totals["pathfind.k_disjoint_paths"]["calls"]), "ratio")
    for reason in REJECT_REASONS:
        out[f"controller.admit.rejected.{reason}"] = (
            counts[f"controller.admit.rejected.{reason}"] / rounds, "count")
    out["controller.reconfigure.slices"] = (
        counts["controller.reconfigure.slices"] / rounds, "count")
    out["controller.reconfigure.readmitted_ratio"] = (
        _ratio(counts["controller.reconfigure.readmitted"],
               counts["controller.reconfigure.slices"]), "ratio")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out
