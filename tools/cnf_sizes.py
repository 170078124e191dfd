"""CNF size census of a fixed set of combos.

Encodes every combo of the census set (below), writes each combo's
variable count, clause count and DIMACS bytes, plus per-group totals, to
a JSON file, and prints the totals.  With --against OLD.json it exits 1
if any combo has more variables or clauses than in OLD.json, so an
encoder change can show that it adds neither.

    python3 tools/cnf_sizes.py [--out BENCH_cnf.json] [--against OLD.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mmtsat.driver import enumerate_combos  # noqa: E402
from mmtsat.encoder import encode  # noqa: E402
from mmtsat.symmetry import GroupId  # noqa: E402

# (group, n, max rank): 144 combos of total rank >= 1.
CENSUS = [
    (GroupId.TRIVIAL, 2, 7), (GroupId.TRIVIAL, 3, 4),
    (GroupId.CYCLIC, 2, 7), (GroupId.CYCLIC, 3, 7),
    (GroupId.CYCLIC_TRANSPOSE, 2, 9), (GroupId.CYCLIC_TRANSPOSE, 3, 6),
    (GroupId.CYCLIC_SANDWICH, 3, 6),
]
SIZES = ("vars", "clauses", "bytes")


def census() -> dict:
    combos = []
    totals: dict[str, dict[str, int]] = {}
    for group, n, max_rank in CENSUS:
        for spec in enumerate_combos(group, max_rank):
            if spec.total_rank() < 1:
                continue
            cnf, _ = encode(group, n, spec.counts_dict())
            row = {"group": group.value, "n": n, "combo": spec.label(),
                   "vars": cnf.num_vars, "clauses": len(cnf.clauses),
                   "bytes": len(cnf.to_dimacs())}  # DIMACS is ASCII
            combos.append(row)
            total = totals.setdefault(group.value, dict.fromkeys(("combos",) + SIZES, 0))
            total["combos"] += 1
            for key in SIZES:
                total[key] += row[key]
    return {"census": [[g.value, n, r] for g, n, r in CENSUS],
            "totals": totals, "combos": combos}


def gains(new: dict, old: dict) -> list[str]:
    """Combos of `new` with more variables or clauses than in `old`."""
    before = {(c["group"], c["n"], c["combo"]): c for c in old["combos"]}
    out = []
    for c in new["combos"]:
        key = (c["group"], c["n"], c["combo"])
        if key not in before:
            out.append(f"{key}: not in the old census")
            continue
        out.extend(f"{key}: {k} {before[key][k]} -> {c[k]}"
                   for k in ("vars", "clauses") if c[k] > before[key][k])
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", default=str(ROOT / "BENCH_cnf.json"))
    p.add_argument("--against", help="census JSON no combo may exceed")
    args = p.parse_args(argv)
    old = None
    if args.against:  # read first: it may be the file --out replaces
        with open(args.against) as fh:
            old = json.load(fh)
    start = time.process_time()
    result = census()
    cpu = time.process_time() - start
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    for group, total in result["totals"].items():
        print(f"{group:7s} " + " ".join(f"{k}={v}" for k, v in total.items()))
    print(f"encode + DIMACS CPU: {cpu:.2f} s", file=sys.stderr)
    if old is not None:
        bad = gains(result, old)
        for line in bad:
            print("gained:", line)
        if bad:
            return 1
        print(f"no combo gained a variable or a clause against {args.against}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
