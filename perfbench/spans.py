"""Out-of-band span recorder wrapped around tnsc's public entry points.

The tracer replaces each entry point below, in every ``tnsc`` module that
holds a reference to it, with a wrapper that records one span: name, start,
end, parent span and trace id (the event seq or table operation number; 0
during set-up). Spans live in flat integer arrays while the run lasts and are
written out once at the end. Nothing the tracer records reaches the
program's outputs: the workloads compare the traced report bytes with the
untraced ones.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

from tnsc.model import AllocationState

#: Rejection reasons Controller.admit documents.
REJECT_REASONS = ("ControlExhausted", "InsufficientDiversity", "NoDevice",
                  "OutOfRange", "PortExhausted", "SlotExhausted")


def _count_found(counts: Counter, result, error) -> None:
    if error is None:
        counts["pathfind.k_disjoint_paths.found"] += 1


def _count_rejection(counts: Counter, record, error) -> None:
    if record is not None and record.state is AllocationState.REJECTED:
        counts[f"controller.admit.rejected.{record.rejection.reason}"] += 1


def _count_reconfig(counts: Counter, entries, error) -> None:
    for entry in entries or ():
        counts["controller.reconfigure.slices"] += 1
        counts["controller.reconfigure.readmitted"] += entry.outcome == "readmitted"


#: (module, attribute, boundary counter). A dotted attribute is a method
#: wrapped on its class. The span name is the module and the function name.
ENTRY_POINTS = (
    ("model", "validate_topology", None),
    ("model", "request_from_dict", None),
    ("model", "derive_bounds", None),
    ("pathfind", "k_disjoint_paths", _count_found),
    ("pathfind", "max_disjoint_count", None),
    ("feasibility", "build_vector", None),
    ("feasibility", "merge_index", None),
    ("feasibility", "normalize_falling", None),
    ("controller", "Controller.admit", _count_rejection),
    ("controller", "Controller.apply_event", None),
    ("controller", "Controller.reconfigure", _count_reconfig),
    ("controller", "Controller.snapshot", None),
    ("scenario", "scenario_from_dict", None),
    ("scenario", "report_to_json", None),
    ("scenario", "evaluate", None),
    ("scenario", "rank_rows", None),
    ("scenario", "rows_to_json", None),
    ("scenario", "rows_to_csv", None),
    ("cli", "main", None),
)


class Tracer:
    def __init__(self):
        self.names = [f"{module}.{attr.split('.')[-1]}"
                      for module, attr, _counter in ENTRY_POINTS]
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.trace = array("q")
        self.counts: Counter = Counter()
        self.trace_id = 0
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn, counter):
        def traced(*args, **kwargs):
            index = len(self.start)
            self.name.append(name_id)
            self.parent.append(self._open[-1] if self._open else -1)
            self.trace.append(self.trace_id)
            self.end.append(0)
            self.start.append(0)
            self._open.append(index)
            result = error = None
            self.start[index] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                error = err
                raise
            finally:
                self.end[index] = perf_counter_ns()
                self._open.pop()
                if counter is not None:
                    counter(self.counts, result, error)
        return traced

    def install(self) -> None:
        modules = [module for name, module in sys.modules.items()
                   if name == "tnsc" or name.startswith("tnsc.")]
        for name_id, (module_name, attr, counter) in enumerate(ENTRY_POINTS):
            module = sys.modules[f"tnsc.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = getattr(cls, method)
                self._undo.append((cls, method, original))
                setattr(cls, method, self._wrap(name_id, original, counter))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name_id, original, counter)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def totals(self) -> dict[str, dict]:
        """Per span name: calls in rounds (trace id > 0), all calls, and the
        summed inclusive and self nanoseconds. Self time is a span's duration
        minus the durations of its direct children."""
        child = [0] * len(self.start)
        for i in range(len(self.start)):
            parent = self.parent[i]
            if parent >= 0:
                child[parent] += self.end[i] - self.start[i]
        out = {name: {"round_calls": 0, "calls": 0, "ns": 0, "self_ns": 0}
               for name in self.names}
        for i in range(len(self.start)):
            row = out[self.names[self.name[i]]]
            duration = self.end[i] - self.start[i]
            row["calls"] += 1
            row["round_calls"] += self.trace[i] > 0
            row["ns"] += duration
            row["self_ns"] += duration - child[i]
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            for i in range(len(self.start)):
                handle.write(json.dumps({
                    "span": i, "name": self.names[self.name[i]],
                    "start_ns": self.start[i], "end_ns": self.end[i],
                    "parent": self.parent[i], "trace": self.trace[i],
                }) + "\n")
