"""Command-line entry point.

Exit codes: 0 = ruled out / verified, 10 = decomposition found,
20 = undetermined (timeouts or errors), 1 = domain error, 2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .canonical import (
    canonicalize,
    check_canonical,
    dump_symmetric,
    load_symmetric,
    symmetric_to_json,
)
from .driver import ComboSpec, run_campaign, solve_combo, solver_argv
from .encoder import encode
from .symmetry import GroupId, is_group_symmetric, orbit_kinds, total_rank
from .tensor import json_typed, load_decomposition, verify

EXIT_OK = 0
EXIT_FOUND = 10
EXIT_UNDETERMINED = 20
EXIT_ERROR = 1
# The exit code of each combo state (solve-one) and campaign verdict (search).
_EXIT = {"sat": EXIT_FOUND, "unsat": EXIT_OK, "timeout": EXIT_UNDETERMINED, "error": EXIT_ERROR,
         "found": EXIT_FOUND, "ruled_out": EXIT_OK, "undetermined": EXIT_UNDETERMINED}


def _parse_combo(text: str, group: GroupId, n: int) -> dict[str, int]:
    """The combo text as counts per kind, of total rank at most n^3, the
    standard algorithm's rank, so that no larger combo builds its orbits."""
    tags = {k.tag for k in orbit_kinds(group)}
    combo: dict[str, int] = {}
    for part in text.split(","):
        if not part:
            continue
        tag, _, value = part.partition("=")
        # ASCII digits only: str.isdigit alone also takes "²", and int() reads "١" as 1.
        if tag not in tags or not (value.isascii() and value.isdigit()):
            raise ValueError(f"bad combo entry {part!r}; known kinds: {sorted(tags)}")
        if tag in combo:
            raise ValueError(f"combo entry {part!r} repeats kind {tag!r}")
        combo[tag] = int(value)
    rank = total_rank(group, combo)
    if rank > n ** 3:
        raise ValueError(f"combo of total rank {rank} exceeds n^3 = {n ** 3}, "
                         f"the rank of the standard algorithm")
    return combo


def _int_at_least(low: int):
    """An argparse type: an int of at least low."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def _positive_seconds(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:  # also rejects nan
        raise argparse.ArgumentTypeError(f"must be a positive number of seconds, got {text}")
    return value


def _config_solver(path: str) -> str | None:
    """The "solver" of a JSON config file, if it sets one."""
    with open(path) as fh:
        solver = json_typed(json.load(fh), dict, f"config file {path}").get("solver")
    if solver is not None and not isinstance(solver, str):
        raise ValueError(f"config file {path}: \"solver\" must be a string, "
                         f"not {type(solver).__name__}")
    return solver


def _resolve_solver(args) -> str:
    """Precedence: --solver flag, then config file, then MMTSAT_SOLVER.
    The command is checked for its {cnf} placeholder, and split as a
    shell command line, before any combo is encoded."""
    solver = (args.solver or (args.config and _config_solver(args.config))
              or os.environ.get("MMTSAT_SOLVER"))
    if not solver:
        raise ValueError("no solver configured: pass --solver, put \"solver\" in the "
                         "config file, or set MMTSAT_SOLVER")
    solver_argv(solver)
    return solver


def _emit(args, human: str, payload: dict) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    solving = argparse.ArgumentParser(add_help=False, parents=[common])
    solving.add_argument("--solver", help="command template with {cnf}")
    solving.add_argument("--config", help="JSON config file with a \"solver\" key")
    solving.add_argument("--timeout", type=_positive_seconds, help="per-combo timeout in seconds")

    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument("--group", required=True)
    problem.add_argument("--n", type=_int_at_least(1), required=True)

    parser = argparse.ArgumentParser(prog="mmtsat")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", parents=[common, problem],
                       help="write a DIMACS instance for one combo")
    p.add_argument("--combo", required=True, help="e.g. id=2,delta=1")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("solve-one", parents=[solving, problem],
                       help="encode and solve a single combo")
    p.add_argument("--combo", required=True)
    p.add_argument("--work-dir", default=".")
    p.set_defaults(func=_cmd_solve_one)

    p = sub.add_parser("search", parents=[solving, problem],
                       help="campaign over all combos up to a rank")
    p.add_argument("--max-rank", type=_int_at_least(0), required=True)
    p.add_argument("--workers", type=_int_at_least(1), default=1)
    p.add_argument("--checkpoint")
    p.add_argument("--work-dir")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("verify", parents=[common],
                       help="check a decomposition JSON file")
    p.add_argument("path")
    p.add_argument("--group", help="also check symmetry under this group")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("canonicalize", parents=[common],
                       help="normalize a symmetric decomposition")
    p.add_argument("path")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_canonicalize)

    p = sub.add_parser("brute", parents=[common],
                       help="exhaustive minimum-rank search")
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--k", type=_int_at_least(1), required=True)
    p.add_argument("--m", type=_int_at_least(1), required=True)
    p.add_argument("--max-rank", type=_int_at_least(0), required=True)
    p.add_argument("--nodes", type=_int_at_least(1), help="optional DFS node limit")
    p.set_defaults(func=_cmd_brute)

    return parser


def _cmd_encode(args) -> int:
    group = GroupId.from_name(args.group)
    combo = _parse_combo(args.combo, group, args.n)
    cnf, _ = encode(group, args.n, combo)
    cnf.write(args.out)
    _emit(args, f"wrote {args.out}: {cnf.num_vars} vars, {len(cnf.clauses)} clauses",
          {"out": args.out, "vars": cnf.num_vars, "clauses": len(cnf.clauses)})
    return EXIT_OK


def _cmd_solve_one(args) -> int:
    group = GroupId.from_name(args.group)
    combo = _parse_combo(args.combo, group, args.n)
    solver = _resolve_solver(args)
    kinds = orbit_kinds(group)
    spec = ComboSpec(group, tuple((k.tag, combo.get(k.tag, 0)) for k in kinds))
    status = solve_combo(group, args.n, spec, solver, args.timeout, args.work_dir)
    payload = {"state": status.state, "seconds": round(status.seconds, 3),
               "combo": spec.counts_dict(), "detail": status.detail}
    line = {"sat": f"SAT: decomposition written to {status.detail}",
            "unsat": f"UNSAT: {status.detail}" if status.detail else "UNSAT"}
    _emit(args, line.get(status.state, f"{status.state}: {status.detail}"), payload)
    return _EXIT[status.state]


def _cmd_search(args) -> int:
    group = GroupId.from_name(args.group)
    solver = _resolve_solver(args)
    report = run_campaign(group, args.n, args.max_rank, solver,
                          workers=args.workers, timeout=args.timeout,
                          checkpoint_path=args.checkpoint,
                          work_dir=args.work_dir)
    _emit(args, report.render_table(), report.to_json())
    return _EXIT[report.verdict()]


def _cmd_verify(args) -> int:
    group = GroupId.from_name(args.group) if args.group else None
    d = load_decomposition(args.path)
    ok = verify(d)
    dims = f"<{d.n},{d.k},{d.m}>"
    payload = {"valid": ok, "rank": d.rank, "n": d.n, "k": d.k, "m": d.m}
    if ok and group is not None:
        sym = is_group_symmetric(d, group)
        payload["symmetric"] = sym
        if not sym:
            _emit(args, f"valid rank-{d.rank} decomposition of {dims}, "
                        f"but NOT {group.value}-symmetric", payload)
            return EXIT_ERROR
    if ok:
        _emit(args, f"valid rank-{d.rank} decomposition of {dims}", payload)
        return EXIT_OK
    _emit(args, f"INVALID: does not evaluate to {dims}", payload)
    return EXIT_ERROR


def _cmd_canonicalize(args) -> int:
    sd = load_symmetric(args.path)
    out = canonicalize(sd)
    violations = check_canonical(out)
    if violations:
        raise AssertionError(f"canonicalize left violations: {violations}")
    if args.out:
        dump_symmetric(out, args.out)
        _emit(args, f"wrote {args.out} (rank {out.total_rank()})",
              {"out": args.out, "rank": out.total_rank()})
    else:
        print(json.dumps(symmetric_to_json(out), sort_keys=True))
    return EXIT_OK


def _cmd_brute(args) -> int:
    # Only this command uses the oracle: other commands skip loading it.
    from .oracle import BudgetExceeded, SearchBudget, brute_min_rank

    budget = SearchBudget(max_rank=args.max_rank, max_nodes=args.nodes)
    try:
        rank = brute_min_rank(args.n, args.k, args.m, budget)
    except BudgetExceeded as exc:
        _emit(args, f"budget exceeded: {exc}", {"state": "budget_exceeded"})
        return EXIT_UNDETERMINED
    dims = f"<{args.n},{args.k},{args.m}>"
    if rank is None:
        _emit(args, f"no decomposition of {dims} with rank <= {args.max_rank}",
              {"state": "ruled_out", "max_rank": args.max_rank})
        return EXIT_OK
    _emit(args, f"minimum rank of {dims} within budget: {rank}",
          {"state": "found", "rank": rank})
    return EXIT_FOUND


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
