"""Command-line front end: run strategy scripts, solve Catalan levels."""
from __future__ import annotations

import argparse
import sys

from gstrat import catalan
from gstrat.dsl import RunReport, ScriptError, load_script, run_script, write_atomic
from gstrat.graphs import serialize_graph
from gstrat.lex import ParseError
from gstrat.strategies import DEFAULT_REPEAT_CAP, EvalContext, StrategyError

EXIT_OK = 0
EXIT_SCRIPT_ERROR = 1
EXIT_IO_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gstrat",
        description="Strategy-driven double-pushout graph rewriting.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="evaluate a strategy script")
    run_p.add_argument("script", help="path to a .gs strategy script")
    run_p.add_argument("--dot", metavar="FILE",
                       help="write the derivation hypergraph as DOT")
    run_p.add_argument("--json", metavar="FILE",
                       help="write the derivation hypergraph as JSON")
    run_p.add_argument("--stats", action="store_true",
                       help="print detailed run statistics")
    run_p.add_argument("--max-repeat", type=int, metavar="N",
                       default=DEFAULT_REPEAT_CAP,
                       help="cap for unbounded repetition (default: 2^31-1)")

    cat_p = sub.add_parser("catalan", help="Catalan game commands")
    cat_sub = cat_p.add_subparsers(dest="subcommand", required=True)
    solve_p = cat_sub.add_parser("solve", help="solve a level file")
    solve_p.add_argument("levelfile", help="path to a .gl level file")
    solve_p.add_argument("--dot", metavar="FILE",
                         help="write the explored move space as DOT")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    if args.max_repeat < 0:
        raise ValueError(
            f"--max-repeat must not be negative, got {args.max_repeat}")
    ctx = EvalContext(max_repeat=args.max_repeat)
    report: RunReport = run_script(load_script(args.script), dot_path=args.dot,
                                   json_path=args.json, ctx=ctx)
    print(report.summary())
    if args.stats:
        print(f"  universe size: {report.universe_size}")
        print(f"  subset size:   {report.subset_size}")
        print(f"  wall time:     {report.seconds:.3f}s")
        print(f"  export time:   {report.export_seconds:.3f}s")
    return EXIT_OK


def _cmd_catalan_solve(args: argparse.Namespace) -> int:
    with open(args.levelfile, encoding="utf-8") as fh:
        level = catalan.parse_level(fh.read())
    ctx = EvalContext()
    solution = catalan.solve_level(level, ctx)
    if args.dot:
        write_atomic(args.dot, ctx.sink.to_dot(ctx.repo))
    if solution is None:
        print("no solution: the goal graph is not reachable")
        return EXIT_OK
    print(f"solved in {solution.moves} move(s)")
    for i, position in enumerate(solution.positions):
        header = "start" if i == 0 else f"after move {i}"
        print(f"# {header}")
        print(serialize_graph(position, f"position{i}"), end="")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "catalan":
            return _cmd_catalan_solve(args)
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO_ERROR
    except (ParseError, ScriptError, StrategyError, catalan.LevelError,
            ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SCRIPT_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
