"""Command-line interface.

Exit codes: 0 for success (including tables that contain per-row
diagnostics), 1 for parse or validation failures, 2 for internal errors.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import ParseError, TnscError, ValidationError
from .model import (
    bounds_from_dict,
    request_from_dict,
    validate_topology,
    weights_from_dict,
)
from .pathfind import DisjointnessMode, k_disjoint_paths
from .scenario import (
    evaluate,
    load_json,
    load_scenario,
    rank_rows,
    report_to_json,
    rows_to_csv,
    rows_to_json,
    run_scenario,
)

_MODE_FLAGS = {
    "link-disjoint": DisjointnessMode.LINK_DISJOINT,
    "node-disjoint": DisjointnessMode.NODE_DISJOINT,
    "srlg-disjoint": DisjointnessMode.SRLG_DISJOINT,
}


def _emit(text: str, out_path: str | None) -> None:
    """Write ``text`` to stdout or to ``out_path``; a path that cannot be
    written raises ValidationError, so it exits 1 like any bad argument."""
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as err:
        raise ValidationError("out", str(err)) from None


def _cmd_evaluate(args) -> int:
    raw_requests = load_json(args.requests)
    if not isinstance(raw_requests, list):
        raise ParseError(args.requests, "requests file must contain a list")
    requests = [request_from_dict(entry) for entry in raw_requests]
    bounds = bounds_from_dict(load_json(args.bounds))
    topology = weights = None
    if args.topology:
        topology = validate_topology(load_json(args.topology))
    if args.weights:
        weights = weights_from_dict(load_json(args.weights), args.weights)
    rows = evaluate(requests, bounds, weights=weights, topology=topology,
                    mode=_MODE_FLAGS[args.mode])
    if args.rank:
        rows = rank_rows(rows)
    text = rows_to_csv(rows) if args.format == "csv" else rows_to_json(rows)
    _emit(text, args.out)
    return 0


def _cmd_paths(args) -> int:
    topology = validate_topology(load_json(args.topology))
    paths = k_disjoint_paths(topology, args.src, args.dst, args.k,
                             _MODE_FLAGS[args.mode])
    _emit("".join(",".join(path.nodes) + "\n" for path in paths), args.out)
    return 0


def _cmd_simulate(args) -> int:
    report = run_scenario(load_scenario(args.scenario))
    _emit(report_to_json(report), args.out)
    return 0


def _add_table_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topology", help="topology JSON (needed for derived bounds)")
    parser.add_argument("--requests", required=True, help="requests JSON list")
    parser.add_argument("--bounds", required=True, help="bounds JSON")
    parser.add_argument("--weights", help="per-dimension weights JSON")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--mode", choices=sorted(_MODE_FLAGS),
                        default="link-disjoint")
    parser.add_argument("--out", help="write output here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tnsc",
        description="Transport-slice feasibility evaluation and admission simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="feasibility table for a request set")
    _add_table_flags(p_eval)
    p_eval.set_defaults(func=_cmd_evaluate, rank=False)

    p_rank = sub.add_parser("rank", help="same table, sorted by descending index")
    _add_table_flags(p_rank)
    p_rank.set_defaults(func=_cmd_evaluate, rank=True)

    p_paths = sub.add_parser("paths", help="disjoint paths between two nodes")
    p_paths.add_argument("--topology", required=True)
    p_paths.add_argument("--src", required=True)
    p_paths.add_argument("--dst", required=True)
    p_paths.add_argument("--k", type=int, default=2)
    p_paths.add_argument("--mode", choices=sorted(_MODE_FLAGS),
                         default="link-disjoint")
    p_paths.add_argument("--out")
    p_paths.set_defaults(func=_cmd_paths)

    p_sim = sub.add_parser("simulate", help="run a scenario file")
    p_sim.add_argument("--scenario", required=True)
    p_sim.add_argument("--out")
    p_sim.set_defaults(func=_cmd_simulate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses: built on first use, then reused."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except TnscError as err:
        print(f"tnsc: {err.reason}: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # pragma: no cover - defensive
        print(f"tnsc: internal error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
