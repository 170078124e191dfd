"""CNF size census of a fixed set of combos.

Encodes every combo of the census set (below), writes each combo's
variable count, clause count, DIMACS bytes, the SHA-256 of its DIMACS
text and the SHA-256 of its clause lines sorted (which clause order does
not change), plus per-group totals, to a JSON file, and prints the totals, and
on stderr the encode and DIMACS CPU times, the encode CPU time per
group and, per census entry, how many combos hold the empty clause (a
campaign records them unsat with no solver run), split by the rule of
`span.refute` that decides them.  With --against
OLD.json it also prints each group's variables and clauses as old ->
new with the change in percent, and how many combos' DIMACS text and
how many combos' clause sets differ from OLD.json, and exits 1 if any
combo has more variables or clauses than there, so an encoder change can
show that it adds neither (a rendering change that it alters no byte,
and a reordering that it alters no clause).
--census GROUP:N:MAX_RANK (repeatable) takes another set of combos; its
JSON is then written only where --out says.

    python3 tools/cnf_sizes.py [--out BENCH_cnf.json] [--against OLD.json]
    python3 tools/cnf_sizes.py --census cyc-sw:3:21 --census cyc-t:3:21
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mmtsat.driver import enumerate_combos  # noqa: E402
from mmtsat.encoder import encode  # noqa: E402
from mmtsat.span import refute  # noqa: E402
from mmtsat.symmetry import GroupId  # noqa: E402

# (group, n, max rank): 456 combos of total rank >= 1.  A span
# certificate decides 364 of them with the empty clause alone, and a
# count certificate 36 more; the n=3 cyc-t and cyc-sw ranks are high
# enough to hold combos with the kinds that span the target (id and t;
# id and sw or full), so 56 combos still compile their tensor equations.
CENSUS = [
    (GroupId.TRIVIAL, 2, 7), (GroupId.TRIVIAL, 3, 4),
    (GroupId.CYCLIC, 2, 7), (GroupId.CYCLIC, 3, 7),
    (GroupId.CYCLIC_TRANSPOSE, 2, 9), (GroupId.CYCLIC_TRANSPOSE, 3, 15),
    (GroupId.CYCLIC_SANDWICH, 3, 12),
]
SIZES = ("vars", "clauses", "bytes")


def census(entries=CENSUS) -> tuple[dict, dict[str, float], float, list[str]]:
    """The census of entries, the CPU seconds spent encoding per group,
    those spent rendering DIMACS, and per entry how many of its combos
    a span and a count certificate decide with the empty clause."""
    encode_cpu = {group.value: 0.0 for group, _, _ in entries}
    empty = []
    dimacs_cpu = 0.0
    combos = []
    totals: dict[str, dict[str, int]] = {}
    for group, n, max_rank in entries:
        by_rule = {"span": 0, "count": 0}
        encoded = 0
        for spec in enumerate_combos(group, max_rank):
            if spec.total_rank() < 1:
                continue
            start = time.process_time()
            cnf, _ = encode(group, n, spec.counts_dict())
            mid = time.process_time()
            text = cnf.to_dimacs().encode()
            encode_cpu[group.value] += mid - start
            dimacs_cpu += time.process_time() - mid
            refutation = refute(group, n, spec.counts_dict())  # cached by encode
            if refutation is not None:
                by_rule[refutation.rule] += 1
            encoded += 1
            row = {"group": group.value, "n": n, "combo": spec.label(),
                   "vars": cnf.num_vars, "clauses": len(cnf.clauses),
                   "bytes": len(text), "sha256": hashlib.sha256(text).hexdigest(),
                   "clause_set_sha256": clause_set_digest(text)}
            combos.append(row)
            total = totals.setdefault(group.value, dict.fromkeys(("combos",) + SIZES, 0))
            total["combos"] += 1
            for key in SIZES:
                total[key] += row[key]
        empty.append(f"{group.value} n={n} r<={max_rank} {sum(by_rule.values())} of {encoded} "
                     f"(span {by_rule['span']}, count {by_rule['count']})")
    return {"census": [[g.value, n, r] for g, n, r in entries],
            "totals": totals, "combos": combos}, encode_cpu, dimacs_cpu, empty


def clause_set_digest(text: bytes) -> str:
    """The SHA-256 of a DIMACS text's clause lines, sorted."""
    header = 0 if text.startswith(b"p cnf ") else text.index(b"\np cnf ") + 1
    body = text[text.index(b"\n", header) + 1:]
    return hashlib.sha256(b"".join(sorted(body.splitlines(keepends=True)))).hexdigest()


def _census_entry(text: str) -> tuple[GroupId, int, int]:
    group, n, max_rank = text.split(":")
    return GroupId.from_name(group), int(n), int(max_rank)


def _key(combo: dict) -> tuple:
    return combo["group"], combo["n"], combo["combo"]


def changed(new: dict, old: dict, digest: str) -> int:
    """How many combos of `new` have a `digest` other than in `old` (a
    combo missing there, or recorded without that digest, counts)."""
    before = {_key(c): c.get(digest) for c in old["combos"]}
    return sum(before.get(_key(c)) != c[digest] for c in new["combos"])


def total_changes(new: dict, old: dict) -> list[str]:
    """Per group of both censuses, vars and clauses as old -> new (%)."""
    lines = []
    for group, total in new["totals"].items():
        before = old["totals"].get(group)
        if before is not None:
            lines.append(f"{group:7s} " + " ".join(
                f"{k} {before[k]} -> {total[k]} ({(total[k] - before[k]) / before[k]:+.1%})"
                for k in ("vars", "clauses")))
    return lines


def gains(new: dict, old: dict) -> list[str]:
    """Combos of `new` with more variables or clauses than in `old`."""
    before = {_key(c): c for c in old["combos"]}
    out = []
    for c in new["combos"]:
        key = _key(c)
        if key not in before:
            out.append(f"{key}: not in the old census")
            continue
        out.extend(f"{key}: {k} {before[key][k]} -> {c[k]}"
                   for k in ("vars", "clauses") if c[k] > before[key][k])
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", help="census JSON to write (default: BENCH_cnf.json, "
                                 "and none with --census)")
    p.add_argument("--against", help="census JSON no combo may exceed")
    p.add_argument("--census", action="append", type=_census_entry,
                   metavar="GROUP:N:MAX_RANK", help="census entry replacing the default set")
    args = p.parse_args(argv)
    if args.out is None and not args.census:
        args.out = str(ROOT / "BENCH_cnf.json")
    old = None
    if args.against:  # read first: it may be the file --out replaces
        with open(args.against) as fh:
            old = json.load(fh)
    result, encode_cpu, dimacs_cpu, empty = census(args.census or CENSUS)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    for group, total in result["totals"].items():
        print(f"{group:7s} " + " ".join(f"{k}={v}" for k, v in total.items()))
    print(f"encode CPU: {sum(encode_cpu.values()):.2f} s, DIMACS CPU: {dimacs_cpu:.2f} s",
          file=sys.stderr)
    print("encode CPU per group: " + ", ".join(
        f"{group} {seconds:.2f} s" for group, seconds in encode_cpu.items()), file=sys.stderr)
    print("combos holding the empty clause: " + "; ".join(empty), file=sys.stderr)
    if old is not None:
        for line in total_changes(result, old):
            print(line)
        for what, digest in (("DIMACS text", "sha256"), ("clause sets", "clause_set_sha256")):
            print(f"{what} changed on {changed(result, old, digest)} of "
                  f"{len(result['combos'])} combos against {args.against}")
        bad = gains(result, old)
        for line in bad:
            print("gained:", line)
        if bad:
            return 1
        print(f"no combo gained a variable or a clause against {args.against}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
