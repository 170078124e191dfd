import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_cnf_census_matches_the_committed_file(tmp_path):
    # The census tool, written to a scratch file (never its default
    # --out, the committed file), reproduces BENCH_cnf.json byte for byte,
    # the SHA-256 of every combo's DIMACS text and of its sorted clause
    # lines included, and finds no combo that gained a variable or a
    # clause; each group's totals are printed as old -> new.
    out = tmp_path / "census.json"
    committed = ROOT / "BENCH_cnf.json"
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "cnf_sizes.py"),
                           "--out", str(out), "--against", str(committed)],
                          capture_output=True, text=True, timeout=300, cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert out.read_bytes() == committed.read_bytes()
    assert "DIMACS text changed on 0 of 456 combos" in proc.stdout
    assert "clause sets changed on 0 of 456 combos" in proc.stdout
    none = json.loads(committed.read_text())["totals"]["none"]
    vars_, clauses = none["vars"], none["clauses"]
    assert (f"none    vars {vars_} -> {vars_} (+0.0%) "
            f"clauses {clauses} -> {clauses} (+0.0%)") in proc.stdout.splitlines()


def test_census_totals_print_the_change_in_percent():
    spec = importlib.util.spec_from_file_location("cnf_sizes", ROOT / "tools" / "cnf_sizes.py")
    cnf_sizes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cnf_sizes)
    old = {"totals": {"cyc": {"vars": 200, "clauses": 1000}, "none": {"vars": 8, "clauses": 9}}}
    new = {"totals": {"cyc": {"vars": 150, "clauses": 1001}, "cyc-t": {"vars": 1, "clauses": 1}}}
    assert cnf_sizes.total_changes(new, old) == [
        "cyc     vars 200 -> 150 (-25.0%) clauses 1000 -> 1001 (+0.1%)"]


def test_census_counts_combos_holding_the_empty_clause(tmp_path):
    # Another census set, on stderr per entry and per rule; without --out
    # no JSON is written, so the committed census is left alone.  A span
    # certificate refutes the cyc-t combos without a t orbit and the cyc
    # ones without an id orbit; a count certificate refutes 13 cyc-t
    # combos with one or two t orbits, and cyc id=1 and id=2 alone.
    committed = ROOT / "BENCH_cnf.json"
    before = committed.read_bytes()
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "cnf_sizes.py"),
                           "--census", "cyc-t:2:9", "--census", "cyc:2:7"],
                          capture_output=True, text=True, timeout=300, cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert ("combos holding the empty clause: cyc-t n=2 r<=9 48 of 59 (span 35, count 13); "
            "cyc n=2 r<=7 9 of 14 (span 7, count 2)") in proc.stderr.splitlines()
    assert list(tmp_path.iterdir()) == [] and committed.read_bytes() == before
