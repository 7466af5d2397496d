"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .cognition import ReviewRejected, Solution, default_kit, kit_from_dict, load_kit, solve
from .errors import NeolafError, read_json
from .harness import (
    EvalConfig,
    compare,
    load_dataset,
    render_comparison,
    run_eval,
    save_report,
)
from .kstar import serialize_record
from .memory import EpisodicStore, render_plan
from .provider import provider_from_config
from .toolkit import default_registry

DEFAULT_STORE_DIR = "neolaf_store"


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="neolaf", description="Run the learning agent.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_provider_options(p):
        p.add_argument("--script", help="scripted provider: JSON fingerprint->text map")

    def count(text: str) -> int:
        if int(text) < 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, not {text}")
        return int(text)

    p_solve = sub.add_parser("solve", help="solve one problem")
    p_solve.add_argument("problem")
    p_solve.add_argument("--kit", help="starter kit JSON file")
    p_solve.add_argument("--system1-only", action="store_true",
                         help="accept every fast answer: the kit's route_threshold set to 0")
    p_solve.add_argument("--review", action="store_true",
                         help="print the plan and confirm before execution")
    p_solve.add_argument("--store", default=DEFAULT_STORE_DIR)
    add_provider_options(p_solve)

    p_eval = sub.add_parser("eval", help="evaluate over a dataset")
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--format", choices=("math_dir", "jsonl"), default="math_dir")
    p_eval.add_argument("--limit", type=count)
    p_eval.add_argument("--kit")
    p_eval.add_argument("--out", help="write the report JSON here")
    p_eval.add_argument("--fresh-store", action="store_true")
    p_eval.add_argument("--store", help="persistent store directory (default: temporary)")
    add_provider_options(p_eval)

    p_cmp = sub.add_parser("compare", help="run several configs over one dataset")
    p_cmp.add_argument("--configs", required=True,
                       help="comma-separated config JSON files")
    p_cmp.add_argument("--dataset", required=True)
    p_cmp.add_argument("--format", choices=("math_dir", "jsonl"), default="math_dir")
    p_cmp.add_argument("--limit", type=count)
    p_cmp.add_argument("--json", action="store_true", help="emit JSON instead of a table")

    p_mem = sub.add_parser("memory", help="inspect the episodic store")
    mem_sub = p_mem.add_subparsers(dest="memory_command", required=True, parser_class=_Parser)
    m_list = mem_sub.add_parser("list", help="list stored encounters")
    m_list.add_argument("--store", default=DEFAULT_STORE_DIR)
    m_show = mem_sub.add_parser("show", help="print one record as canonical JSON")
    m_show.add_argument("id", type=int)
    m_show.add_argument("--store", default=DEFAULT_STORE_DIR)
    m_search = mem_sub.add_parser("search", help="retrieve knowledge for a query")
    m_search.add_argument("query")
    m_search.add_argument("-k", type=count, default=5)
    m_search.add_argument("--store", default=DEFAULT_STORE_DIR)

    p_cons = sub.add_parser("consolidate", help="export tuning data from memory")
    p_cons.add_argument("--out", required=True)
    p_cons.add_argument("--store", default=DEFAULT_STORE_DIR)

    return parser


def _provider_config(args) -> dict:
    """The ``provider_from_config`` mapping the provider flags select."""
    if args.script:
        return {"type": "scripted", "script": args.script}
    return {"type": "remote"}


def _kit_from_args(args):
    return load_kit(args.kit) if getattr(args, "kit", None) else default_kit()


def _print_solution(solution: Solution) -> None:
    print(f"answer: {solution.answer}")
    print(f"route: {solution.route.value}")
    print(f"record: {solution.record_id}")
    print(f"elapsed_ms: {solution.elapsed_ms}  provider_calls: {solution.provider_calls}  "
          f"tool_calls: {solution.tool_calls}")
    if solution.explanation:
        print("explanation:")
        print(solution.explanation)


def _review_callback(steps) -> bool:
    print("proposed plan:")
    print(render_plan(steps))
    try:
        reply = input("execute this plan? [y/n] ")
    except EOFError:  # no answer at the end of input: the plan is not approved
        print()
        return False
    return reply.strip().lower().startswith("y")


def _cmd_solve(args) -> int:
    kit = _kit_from_args(args)
    if args.system1_only:
        kit = replace(kit, route_threshold=0.0)
    provider = provider_from_config(_provider_config(args))
    store = EpisodicStore.open(args.store)
    try:
        solution = solve(
            args.problem,
            kit,
            provider,
            default_registry(),
            store,
            plan_review=_review_callback if args.review else None,
        )
    except ReviewRejected:
        print("plan rejected; nothing executed")
        return 0
    _print_solution(solution)
    return 0


def _cmd_eval(args) -> int:
    kit = _kit_from_args(args)
    provider = provider_from_config(_provider_config(args))
    problems = load_dataset(args.dataset, args.format)
    config = EvalConfig(name="eval", kit=kit, provider=provider)
    report = run_eval(
        config,
        problems,
        limit=args.limit,
        fresh_store=args.fresh_store,
        store_dir=args.store,
    )
    agg = report.aggregate
    print(f"n={agg.n} correct={agg.n_correct} accuracy={agg.accuracy:.3f} "
          f"mean_ms={agg.mean_elapsed_ms:.1f} median_ms={agg.median_elapsed_ms:.1f}")
    if args.out:
        save_report(report, args.out)
        print(f"report written to {args.out}")
    return 0


def _load_eval_config(path) -> EvalConfig:
    def build(obj) -> EvalConfig:
        if not isinstance(obj, dict):
            raise ValueError("must hold a JSON object")
        if not isinstance(obj.get("provider"), dict):
            raise ValueError("needs an object in field 'provider'")
        name = obj.get("name", Path(path).stem)
        if not isinstance(name, str) or not isinstance(obj.get("kit_path", ""), str):
            raise ValueError("fields 'name' and 'kit_path' must be text")
        system1_only = obj.get("system1_only", False)
        if not isinstance(system1_only, bool):
            raise ValueError("field 'system1_only' must be true or false")
        kit = load_kit(obj["kit_path"]) if "kit_path" in obj else kit_from_dict(obj.get("kit", {}))
        provider = provider_from_config(obj["provider"])
        return EvalConfig(name=name, kit=kit, provider=provider, system1_only=system1_only)

    return read_json(path, build)


def _cmd_compare(args) -> int:
    paths = [p for p in args.configs.split(",") if p]
    configs = [_load_eval_config(p) for p in paths]
    problems = load_dataset(args.dataset, args.format)
    rows = compare(configs, problems, limit=args.limit)
    if args.json:
        print(json.dumps([asdict(row) for row in rows], ensure_ascii=False, indent=2))
    else:
        print(render_comparison(rows))
    return 0


def _existing_store(directory) -> EpisodicStore:
    """The store at ``directory``, which a command that only reads it must not create."""
    if not Path(directory).is_dir():
        raise NeolafError(f"no store at {directory}")
    return EpisodicStore.open(directory)


def _cmd_memory(args) -> int:
    store = _existing_store(args.store)
    if args.memory_command == "list":
        for record in store.iter_records():
            status = "ok" if record.outcome.success else "failed"
            print(f"{record.id}\t{record.timestamp.isoformat()}\t{status}\t{record.task.goal}")
        return 0
    if args.memory_command == "show":
        record = store.get_record(args.id)
        if record is None:
            raise NeolafError(f"no record with id {args.id}")
        print(serialize_record(record))
        return 0
    items = store.retrieve(args.query, args.k)
    for item in items:
        print(f"{item.id}\t{item.kind.value}\t{item.confidence:.2f}\t{item.statement}")
    return 0


def _cmd_consolidate(args) -> int:
    store = _existing_store(args.store)
    examples = store.consolidate(out_path=args.out)
    print(f"wrote {len(examples)} examples to {args.out}")
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "eval": _cmd_eval,
    "compare": _cmd_compare,
    "memory": _cmd_memory,
    "consolidate": _cmd_consolidate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage error (1) or --help (0)
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (NeolafError, OSError, ValueError) as exc:
        print(f"neolaf: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
