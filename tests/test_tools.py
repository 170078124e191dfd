import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_cnf_census_matches_the_committed_file(tmp_path):
    # The census tool, written to a scratch file (never its default
    # --out, the committed file), reproduces BENCH_cnf.json byte for byte,
    # the SHA-256 of every combo's DIMACS text included, and finds no
    # combo that gained a variable or a clause.
    out = tmp_path / "census.json"
    committed = ROOT / "BENCH_cnf.json"
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "cnf_sizes.py"),
                           "--out", str(out), "--against", str(committed)],
                          capture_output=True, text=True, timeout=300, cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert out.read_bytes() == committed.read_bytes()
    assert "DIMACS text changed on 0 of 144 combos" in proc.stdout
