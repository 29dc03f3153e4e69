"""The benchmark's tracer (``perfbench/spans.py``) wraps tnsc entry points by
module and name and counts rejections by reason name, so renaming or moving
either must fail here, not first in a traced benchmark run; a traced CLI
table must reach request parsing and the merge through the wrapped entry
points. Its event driver (``perfbench/drive.py``) builds report entries
with the scenario module's private entry builders, so it must reproduce
the golden reports here too, event by event against ``play_event``.
The package's modules must also import each other without a cycle at run
time, the README's library example must run, each differential module's
documented commands must be its streams and run through the one runner,
the code those commands run must import nothing outside the stdlib,
every public name must have a user, only the controller's booking rule
may write the ledger's residual maps and control contexts, only
``scenario.play_event`` may apply events to a controller or reconfigure it,
and only ``feasibility.assess`` may normalize and merge traits."""

from __future__ import annotations

import ast
import hashlib
import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from collections.abc import Iterator
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

from . import differential

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tnsc"
README = ROOT / "README.md"
DATA = ROOT / "tests" / "data"
GOLDENS = ("five_node_failure", "grid_node_disjoint", "grid_link_disjoint")
#: The modules with a full run: each ``tests/test_*_differential.py`` that
#: names its own ``python -m tests.<name>`` command.
DIFFERENTIALS = {path.stem: importlib.import_module(f"tests.{path.stem}")
                 for path in sorted((ROOT / "tests").glob("test_*_differential.py"))
                 if f"python -m tests.{path.stem} " in path.read_text()}
TINY_SIZES = {"--graphs": "2", "--cases": "50"}
#: Functions the paper defines, exported whether or not anything calls them.
PAPER_FUNCTIONS = ("compare_dimension", "group_by_boolean")


def _load_perfbench(name: str):
    """Load ``perfbench/<name>.py`` by path; perfbench is not a package."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_entry_points_resolve():
    spans = _load_perfbench("spans")
    assert spans.ENTRY_POINTS
    for module_name, attr, _counter in spans.ENTRY_POINTS:
        target = importlib.import_module(f"tnsc.{module_name}")
        for part in attr.split("."):
            assert hasattr(target, part), f"tnsc.{module_name}.{attr} is gone"
            target = getattr(target, part)
        assert callable(target), f"tnsc.{module_name}.{attr}"


def test_traced_table_layers_stay_live(tmp_path):
    """A traced ``evaluate`` and ``rank`` through the CLI reach request
    parsing and the harmonic merge, so the score-table rows that time them
    cannot read 0 on working code: parsing and merging must keep going
    through the entry points the tracer wraps."""
    from tnsc.cli import main

    spans = _load_perfbench("spans")
    inputs = json.loads((DATA / "table_inputs.json").read_text())
    flags = []
    for name in ("requests", "bounds"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(inputs[name]))
        flags += [f"--{name}", str(path)]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for command in ("evaluate", "rank"):
            assert main([command, *flags]) == 0
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    for name in ("model.request_from_dict", "feasibility.merge_index"):
        assert totals[name]["calls"] > 0, name


def test_reject_reasons_are_error_classes():
    """Each rejection counter the tracer names must be a reason the
    controller can record, that is, a TnscError subclass."""
    spans = _load_perfbench("spans")
    errors = importlib.import_module("tnsc.errors")
    assert spans.REJECT_REASONS
    for name in spans.REJECT_REASONS:
        cls = getattr(errors, name, None)
        assert isinstance(cls, type) and issubclass(cls, errors.TnscError), name


def test_benchmark_driver_reproduces_golden():
    """The benchmark checks this before it times anything; a reshaped entry
    builder must fail here first. ``check_golden`` covers one scenario, so
    every golden is also played here, each event sent to ``Round.step``:
    ``should_send`` would skip the grids' releases of rejected slices. Each
    event's entries must equal ``play_event``'s on a second controller, so
    a drift names the event where it starts."""
    from tnsc import Controller, load_scenario, play_event

    drive = _load_perfbench("drive")
    assert drive.check_golden(ROOT)
    for name in GOLDENS:
        scenario = load_scenario(str(DATA / f"{name}.json"))
        current = drive.Round(scenario)
        controller = Controller(scenario.topology, scenario.bounds, scenario.mode,
                                scenario.policy)
        for event in current.events:
            start = len(current.entries)
            current.step(event)
            assert current.entries[start:] == play_event(controller, event), \
                (name, event.seq)
        golden = (DATA / f"{name}.report.json").read_text(encoding="utf-8")
        assert current.report_json() == golden, name


def _runtime_imports(node: ast.AST) -> set[str]:
    """Modules named by relative imports at any depth, except those under
    ``if TYPE_CHECKING:``, which never run."""
    found: set[str] = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ImportFrom) and child.level:
            found.update([child.module.split(".")[0]] if child.module
                         else (alias.name for alias in child.names))
        if (isinstance(child, ast.If)
                and ast.unparse(child.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING")):
            found |= _runtime_imports(ast.Module(body=child.orelse, type_ignores=[]))
        else:
            found |= _runtime_imports(child)
    return found


def test_runtime_imports_are_acyclic():
    graph = {path.stem: _runtime_imports(ast.parse(path.read_text()))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert len(graph) > 1
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as err:
        raise AssertionError(f"import cycle: {' -> '.join(err.args[1])}") from None


def _imported(path: Path) -> Iterator[tuple[str, Path | None]]:
    """The top-level name of each module ``path`` imports, a relative import
    named from its package, and the file of each module of the tests."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module] if node.module else [alias.name for alias in node.names]
            if node.level:
                names = [f"{path.parent.name}.{name}" for name in names]
        else:
            continue
        for name in names:
            top, _, rest = name.partition(".")
            yield top, (ROOT / "tests" / f"{rest.split('.')[0]}.py"
                        if top == "tests" and rest else None)


def test_full_runs_need_only_the_stdlib():
    """The package, the runner, the oracles, each differential module and
    each test module they import import only the package, the tests and the
    standard library, so every documented full run runs without pytest."""
    todo = [*PACKAGE.glob("*.py"), ROOT / "tests" / "differential.py",
            ROOT / "tests" / "oracles.py",
            *(Path(module.__file__) for module in DIFFERENTIALS.values())]
    seen: set[Path] = set()
    outside = []
    while todo:
        path = todo.pop()
        if path in seen:
            continue
        seen.add(path)
        for top, module_file in _imported(path):
            if top not in ("tnsc", "tests") and top not in sys.stdlib_module_names:
                outside.append(f"{path.relative_to(ROOT)} imports {top}")
            if module_file is not None and module_file.exists():
                todo.append(module_file)
    assert len(seen) > len(DIFFERENTIALS) + 2
    assert not outside, outside


def test_readme_library_example_runs(monkeypatch):
    """The README's first Python block runs as written from the repo root."""
    block = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(ROOT)
    exec(compile(block, str(README), "exec"), {})


def _documented_commands():
    """Each ``PYTHONPATH=src python -m tests.<name> ...`` line in the
    differential modules' docstrings, as the argument list after
    ``python``."""
    for name, module in DIFFERENTIALS.items():
        for line in module.__doc__.splitlines():
            words = line.split()
            if words[:4] == ["PYTHONPATH=src", "python", "-m", f"tests.{name}"]:
                yield words[2:]


@pytest.mark.parametrize("command", list(_documented_commands()), ids=" ".join)
def test_documented_full_run_command(command):
    """The command runs on a tiny size and reports no mismatch."""
    command = [TINY_SIZES.get(before, word)
               for before, word in zip([None] + command, command)]
    env = dict(os.environ, PYTHONPATH="src")
    done = subprocess.run([sys.executable, *command], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "mismatches=0" in done.stdout.split()


@pytest.mark.parametrize("name", DIFFERENTIALS)
def test_documented_commands_are_the_streams(name):
    """The documented commands play each stream once, at the seed and full
    size it plays with no flags, and only through the runner; a module with
    no stream fails."""
    module = DIFFERENTIALS[name]
    assert hasattr(module, "STREAMS"), f"tests.{name} documents a full run but has no STREAMS"
    assert module.STREAMS, f"tests.{name} documents a full run but its STREAMS is empty"
    runs = []
    for command in _documented_commands():
        if command[1] == f"tests.{name}":
            sizes = [word for word in command if word in TINY_SIZES]
            assert len(sizes) == 1, f"{' '.join(command)} must give one of {list(TINY_SIZES)}"
            runs.append(differential.parse(module.STREAMS, sizes[0], command[2:]))
    assert sorted(runs) == sorted((stream, seed, full)
                                  for stream, (_cases, seed, full) in module.STREAMS.items())
    assert not re.search(r"^\s*(from|import) (argparse|hashlib)\b",
                         inspect.getsource(module), re.MULTILINE)


def test_runner_reports_and_fails_on_a_mismatch(capsys):
    cases = [("same", 1, 1, b"first"), ("differs", 2, 3, b"second")]
    assert differential.main({"stub": (lambda seed, size: cases[:size], 0, 2)}, argv=[]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "mismatch differs 2 3"
    words = set(out.split())
    assert {"mismatches=1", f"sha256={hashlib.sha256(b'firstsecond').hexdigest()}"} <= words
    with pytest.raises(AssertionError, match="differs"):
        list(differential.checked(cases))


def _reads_outside_own_definition(tree: ast.Module) -> set[str]:
    """Names and attributes a module reads, leaving out a top-level
    function's or class's reads of its own name."""
    found: set[str] = set()
    for top in tree.body:
        reads: set[str] = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            reads.discard(top.name)
        found |= reads
    return found


def test_every_export_has_a_user():
    """Each non-module name in ``tnsc.__all__`` is read by the library
    outside its own definition, or named by the benchmark, the README or
    the acceptance suite; only the paper's own functions are exempt."""
    import tnsc

    used: set[str] = set()
    for path in PACKAGE.glob("*.py"):
        used |= _reads_outside_own_definition(ast.parse(path.read_text()))
    texts = [README, ROOT / "tests" / "test_acceptance.py",
             *sorted((ROOT / "perfbench").glob("*.py")),
             *sorted((ROOT / "perfbench").glob("*.md"))]
    for path in texts:
        used.update(re.findall(r"\w+", path.read_text()))
    unused = [name for name in tnsc.__all__
              if not inspect.ismodule(getattr(tnsc, name))
              and name not in used and name not in PAPER_FUNCTIONS]
    assert unused == []


LEDGER_MAPS = {"residual_slots", "residual_ports", "control_contexts", "links_by_slots"}
MUTATORS = {"pop", "update", "setdefault", "clear", *set(dir(set)) - set(dir(frozenset))}


def _names_ledger_map(target: ast.AST, maps: set[str]) -> bool:
    """``<expr>.<map>``, an item of it, or an unpacking that holds one."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(_names_ledger_map(elt, maps) for elt in target.elts)
    while isinstance(target, (ast.Subscript, ast.Starred)):
        target = target.value
    return isinstance(target, ast.Attribute) and target.attr in maps


def _writes_ledger(node: ast.AST, maps: set[str] = LEDGER_MAPS) -> bool:
    """Assigns to, augments, deletes from or calls a mutating method on one
    of the ledger's ``maps``."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
          and node.func.attr in MUTATORS):
        targets = [node.func.value]
    else:
        targets = []
    return any(_names_ledger_map(target, maps) for target in targets)


def _calls_event_method(node: ast.AST) -> bool:
    """Calls ``.apply_event(...)`` or ``.reconfigure(...)`` on anything."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("apply_event", "reconfigure"))


def _functions_where(matches, tree: ast.AST, scope: str) -> set[str]:
    """Qualified names of the functions (or modules) whose own code holds a
    node that ``matches``."""
    found: set[str] = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found |= _functions_where(matches, node, f"{scope}.{node.name}")
            continue
        if matches(node):
            found.add(scope)
        found |= _functions_where(matches, node, scope)
    return found


def _package_functions_where(matches) -> set[str]:
    found: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= _functions_where(matches, ast.parse(path.read_text()), path.stem)
    return found


def test_ledger_has_one_writer():
    """Admission debits and release credits through ``Controller._book``
    alone, so a new ledger writer, or a cache kept beside the ledger, must
    hook in there."""
    assert _package_functions_where(_writes_ledger) == {"controller.Controller._book"}


def test_down_links_have_one_writer():
    """``Controller.apply_event`` alone marks links down and up, so the
    ledger's one link state cannot drift from the events."""
    assert (_package_functions_where(lambda node: _writes_ledger(node, {"down_links"}))
            == {"controller.Controller.apply_event"})


def _calls_scoring_step(node: ast.AST) -> bool:
    """Calls ``normalize_falling`` or ``merge_index``, bare or as an attribute."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name in ("normalize_falling", "merge_index")


def test_scoring_has_one_path():
    """``feasibility.assess`` alone normalizes traits and merges them, so the
    CLI table and the controller share one request-to-score path, and the
    traced ``normalize_falling`` and ``merge_index`` rows cannot read 0
    because a caller inlined them."""
    assert _package_functions_where(_calls_scoring_step) == {"feasibility.assess"}


def test_events_have_one_dispatcher():
    """``scenario.play_event`` alone turns an event into report entries, so
    a second event loop, or a trace line written beside it, must go
    through it."""
    assert _package_functions_where(_calls_event_method) == {"scenario.play_event"}
