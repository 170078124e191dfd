"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line with its measured runtime; solver
timeouts downgrade a criterion to skipped ("undetermined") instead of
failed, while a SAT answer on a ruled-out instance fails hard.
"""

import subprocess
import sys
import time

import pytest

from mmtsat.canonical import check_canonical
from mmtsat.driver import enumerate_combos, run_campaign, solve_combo
from mmtsat.oracle import brute_symmetric_feasible
from mmtsat.symmetry import GroupId, is_group_symmetric
from mmtsat.tensor import load_decomposition, verify

from conftest import SOLVER_CMD, STRASSEN_MOD2, requires_solver


def _report(number: int, message: str, started: float) -> None:
    print(f"\nACCEPTANCE {number}: PASS - {message} ({time.time() - started:.1f}s)")


def test_criterion_1_verification_oracle():
    started = time.time()
    assert STRASSEN_MOD2.rank == 7
    assert verify(STRASSEN_MOD2)
    elapsed = time.time() - started
    assert elapsed < 1.0
    _report(1, "rank-7 decomposition of <2,2,2> verifies", started)


@requires_solver
def test_criterion_2_encoder_soundness_end_to_end(tmp_path):
    started = time.time()
    report = run_campaign(GroupId.CYCLIC, 2, 7, SOLVER_CMD, workers=2,
                          timeout=290.0, work_dir=str(tmp_path))
    assert report.verdict() == "found"
    d = load_decomposition(report.decomposition_path)
    assert verify(d)
    assert is_group_symmetric(d, GroupId.CYCLIC)
    from mmtsat.canonical import load_symmetric
    sd = load_symmetric(report.decomposition_path + ".sym")
    assert check_canonical(sd) == []
    assert time.time() - started < 300
    _report(2, f"found rank-{d.rank} cyclic decomposition; verified, "
               "symmetric, canonical", started)


@requires_solver
def test_criterion_3_encoder_completeness_vs_oracle(tmp_path):
    started = time.time()
    specs = enumerate_combos(GroupId.CYCLIC, 7)
    assert len(specs) == 15
    mismatches = []
    for spec in specs:
        status = solve_combo(GroupId.CYCLIC, 2, spec, SOLVER_CMD,
                             timeout=1700.0, work_dir=str(tmp_path))
        assert status.state in ("sat", "unsat"), status.detail
        expected = brute_symmetric_feasible(GroupId.CYCLIC, 2,
                                            spec.counts_dict())
        if (status.state == "sat") != expected:
            mismatches.append((spec.label(), status.state, expected))
    assert mismatches == []
    assert time.time() - started < 1800
    _report(3, "all 15 cyclic dims-2 combos match the brute-force oracle",
            started)


@requires_solver
def test_criterion_4_plain_rank_6_is_unsat(tmp_path):
    started = time.time()
    from mmtsat.driver import ComboSpec
    spec = ComboSpec(GroupId.TRIVIAL, (("id", 6),))
    status = solve_combo(GroupId.TRIVIAL, 2, spec, SOLVER_CMD,
                         timeout=43200.0, work_dir=str(tmp_path))
    if status.state == "timeout":
        pytest.skip("undetermined: solver timed out on the rank-6 instance")
    assert status.state == "unsat", f"unexpected state {status.state}"
    _report(4, "no rank-6 decomposition of <2,2,2> exists", started)


@requires_solver
@pytest.mark.parametrize("group,max_rank", [
    (GroupId.CYCLIC, 7),
    (GroupId.CYCLIC_TRANSPOSE, 11),
    (GroupId.CYCLIC_SANDWICH, 14),
])
def test_criterion_5_ruled_out_rank_bounds_dims_3(group, max_rank, tmp_path):
    started = time.time()
    report = run_campaign(group, 3, max_rank, SOLVER_CMD, workers=4,
                          timeout=3600.0, work_dir=str(tmp_path))
    verdict = report.verdict()
    assert verdict != "found", (
        f"SAT on {group.value} rank <= {max_rank}: contradicts the known bound")
    if verdict == "undetermined":
        pytest.skip(f"undetermined: timeouts in the {group.value} campaign")
    assert verdict == "ruled_out"
    _report(5, f"{group.value}: all {len(report.statuses)} combos with rank "
               f"<= {max_rank} on <3,3,3> are UNSAT", started)


def test_criterion_6_invariant_suites():
    started = time.time()
    nodes = [
        "tests/test_boolexpr.py::test_lex_less_circuit_matches_comparison_exhaustively",
        "tests/test_symmetry.py::test_group_laws_on_random_triplets",
        "tests/test_symmetry.py::test_orbit_tensor_invariance",
        "tests/test_canonical.py::test_merge_identity_same_ab_key",
        "tests/test_canonical.py::test_canonicalize_properties_random",
        "tests/test_driver.py::test_checkpoint_round_trip_byte_identity",
        "tests/test_driver.py::test_campaign_verdict_is_order_independent",
    ]
    import os
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p",
                           "no:cacheprovider"] + nodes,
                          capture_output=True, text=True, timeout=600,
                          cwd=root)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert time.time() - started < 600
    _report(6, "lex-circuit, group-law, invariance, merge, canonicalize, "
               "checkpoint, and order-independence suites pass", started)


def test_criterion_7_encode_determinism(tmp_path):
    started = time.time()
    from mmtsat.cli import main
    blobs = []
    for tag in ("first", "second"):
        cnf = tmp_path / f"{tag}.cnf"
        assert main(["encode", "--group", "cyc-sw", "--n", "3", "--combo",
                     "id=1,sw=1,delta=1,full=1", "--out", str(cnf)]) == 0
        blobs.append(cnf.read_bytes())
    assert blobs[0] == blobs[1]
    _report(7, "repeated encode runs are byte-identical (CNF)",
            started)
