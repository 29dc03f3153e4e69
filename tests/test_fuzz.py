"""Seeded mutation fuzzing of the inputs the CLI and the scenario runner read.

Each sample copies a valid input and applies one to three mutations: drop a
key or list item, swap in a value of another type, or inject a non-finite,
negative or huge number. Malformed input must fail with a stable TnscError
reason: the CLI exits 0 or 1, never 2, and a scenario either fails in
``scenario_from_dict`` or runs to its end.
"""

from __future__ import annotations

import json
import random

import tnsc.errors
from tnsc.cli import main
from tnsc.errors import TnscError
from tnsc.scenario import report_to_json, run_scenario, scenario_from_dict

from .oracles import mutate
from .test_cli import BOUNDS, REQUESTS, SCENARIO, TOPOLOGY

REASONS = {name for name, value in vars(tnsc.errors).items()
           if isinstance(value, type) and issubclass(value, TnscError)}

MODES = ("link-disjoint", "node-disjoint", "srlg-disjoint")


def test_mutated_scenarios_fail_in_parse_or_run_to_the_end():
    rng = random.Random(1105)
    ran = 0
    for _ in range(1500):
        raw = mutate(rng, SCENARIO)
        try:
            scenario = scenario_from_dict(raw)
        except TnscError:
            continue
        try:
            report_to_json(run_scenario(scenario))
        except Exception as err:
            raise AssertionError(f"scenario aborted mid-run on {raw!r}") from err
        ran += 1
    assert ran > 0


def assert_exit_zero_or_one(code: int, err: str, context: str) -> None:
    assert code in (0, 1), context
    if code == 1:
        prefix, reason = err.split(": ")[:2]
        assert prefix == "tnsc" and reason in REASONS, context


def test_mutated_cli_inputs_exit_zero_or_one(tmp_path, capsys):
    rng = random.Random(1106)
    base = {"topology": TOPOLOGY, "requests": REQUESTS, "bounds": BOUNDS,
            "weights": {"device": 5}, "derived": {"mode": "derived"}}
    files = {name: str(tmp_path / f"{name}.json") for name in base}
    for _ in range(300):
        target = rng.choice(("topology", "requests", "bounds", "weights"))
        payloads = dict(base, **{target: mutate(rng, base[target])})
        for name, payload in payloads.items():
            with open(files[name], "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
        argv = [rng.choice(("evaluate", "rank")), "--requests", files["requests"],
                "--format", rng.choice(("json", "csv")), "--mode", rng.choice(MODES)]
        if target == "topology" or (target == "requests" and rng.random() < 0.5):
            argv += ["--bounds", files["derived"], "--topology", files["topology"]]
        else:
            argv += ["--bounds", files["bounds"], "--weights", files["weights"]]
        code = main(argv)
        context = f"{argv[0]} with {target} = {payloads[target]!r}"
        assert_exit_zero_or_one(code, capsys.readouterr().err, context)


def test_mutated_paths_and_simulate_exit_zero_or_one(tmp_path, capsys):
    """``paths`` over a mutated or valid topology, with unknown and empty
    endpoints, out-of-range k and every mode; ``simulate`` over mutated
    scenario files."""
    rng = random.Random(1107)
    target = str(tmp_path / "input.json")
    for _ in range(300):
        if rng.random() < 0.5:
            payload = mutate(rng, TOPOLOGY) if rng.random() < 0.6 else TOPOLOGY
            argv = ["paths", "--topology", target,
                    "--src", rng.choice(("A", "B", "Z", "")),
                    "--dst", rng.choice(("C", "D", "A")),
                    "--k", str(rng.choice((-1, 0, 1, 2, 3, 10**6))),
                    "--mode", rng.choice(MODES)]
        else:
            payload = mutate(rng, SCENARIO)
            argv = ["simulate", "--scenario", target, "--out", str(tmp_path / "out")]
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        code = main(argv)
        context = f"{argv} with {payload!r}"
        assert_exit_zero_or_one(code, capsys.readouterr().err, context)
