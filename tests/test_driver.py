import json
import os
import stat
import sys
import tempfile
import threading

import pytest

import mmtsat.driver as driver
from mmtsat.cli import EXIT_UNDETERMINED, main
from mmtsat.driver import (
    ComboSpec,
    ComboStatus,
    EncoderSoundnessError,
    checkpoint_to_json,
    enumerate_combos,
    load_checkpoint,
    parse_solver_output,
    run_campaign,
    run_solver,
    solve_combo,
    write_checkpoint,
)
from mmtsat.symmetry import GroupId

from conftest import SOLVER_CMD, requires_solver


def test_enumerate_combo_counts():
    assert len(enumerate_combos(GroupId.CYCLIC, 7)) == 15
    assert len(enumerate_combos(GroupId.CYCLIC_TRANSPOSE, 11)) == 99
    assert len(enumerate_combos(GroupId.CYCLIC, 0)) == 1
    assert len(enumerate_combos(GroupId.TRIVIAL, 6)) == 7


def test_enumerate_order_and_uniqueness():
    specs = enumerate_combos(GroupId.CYCLIC, 7)
    ranks = [s.total_rank() for s in specs]
    assert ranks == sorted(ranks, reverse=True)
    assert len({s.counts for s in specs}) == len(specs)
    for s in specs:
        assert s.total_rank() <= 7
    # Descending rank, then lexicographic on the count tuples.
    rank7 = [s.counts for s in specs if s.total_rank() == 7]
    assert rank7 == sorted(rank7)
    with pytest.raises(ValueError):
        enumerate_combos(GroupId.CYCLIC, -1)


def test_combo_spec_helpers():
    spec = ComboSpec(GroupId.CYCLIC, (("id", 2), ("delta", 1)))
    assert spec.counts_dict() == {"id": 2, "delta": 1}
    assert spec.total_rank() == 7
    assert spec.label() == "id=2,delta=1"


def test_parse_solver_output_cases():
    sat = "c comment\ns SATISFIABLE\nv 1 -2 3 0\n"
    state, model = parse_solver_output(sat)
    assert state == "sat"
    assert model == {1: True, 2: False, 3: True}
    # Values may span several v lines and carry ANSI color codes.
    colored = "\x1b[1;32ms SATISFIABLE\x1b[0m\nv 1 -2\nv 3 0\n"
    assert parse_solver_output(colored) == ("sat", {1: True, 2: False, 3: True})
    assert parse_solver_output("s UNSATISFIABLE\n") == ("unsat", None)
    state, diag = parse_solver_output("")
    assert state == "unknown" and "no status" in diag
    state, diag = parse_solver_output("s SATISFIABLE\ns UNSATISFIABLE\n")
    assert state == "unknown" and "contradictory" in diag
    state, diag = parse_solver_output("s SATISFIABLE\nv 1 x 0\n")
    assert state == "unknown" and "'x'" in diag


def test_run_solver_requires_placeholder(tmp_path):
    with pytest.raises(ValueError):
        run_solver("mysolver", str(tmp_path / "x.cnf"), None)


def test_checkpoint_round_trip_byte_identity(tmp_path):
    specs = enumerate_combos(GroupId.CYCLIC, 4)
    statuses = [ComboStatus(s) for s in specs]
    statuses[0].state = "unsat"
    statuses[0].seconds = 1.25
    path = tmp_path / "ckpt.json"
    write_checkpoint(path, GroupId.CYCLIC, 2, 4, statuses)
    first = path.read_bytes()
    loaded = load_checkpoint(path)
    assert loaded == checkpoint_to_json(GroupId.CYCLIC, 2, 4, statuses)
    write_checkpoint(path, GroupId.CYCLIC, 2, 4, statuses)
    assert path.read_bytes() == first
    # No stray temp files left behind by the atomic write.
    assert os.listdir(tmp_path) == ["ckpt.json"]


def _fake_solver(tmp_path, script_body):
    path = tmp_path / "fakesolver.sh"
    path.write_text("#!/bin/sh\n" + script_body)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return f"{path} {{cnf}}"


def test_solve_combo_rank_zero_short_circuits(tmp_path):
    spec = ComboSpec(GroupId.CYCLIC, (("id", 0), ("delta", 0)))
    solver = _fake_solver(tmp_path, "echo should-not-run; exit 1\n")
    status = solve_combo(GroupId.CYCLIC, 2, spec, solver, None, str(tmp_path))
    assert status.state == "unsat"
    assert "no solver run" in status.detail


def test_solve_combo_with_fake_unsat_solver(tmp_path):
    spec = ComboSpec(GroupId.CYCLIC, (("id", 0), ("delta", 1)))
    solver = _fake_solver(tmp_path, 'echo "s UNSATISFIABLE"\n')
    status = solve_combo(GroupId.CYCLIC, 2, spec, solver, None, str(tmp_path))
    assert status.state == "unsat"
    assert (tmp_path / "cyc-id=0,delta=1.cnf").exists()


def test_solve_combo_reports_unparsable_output(tmp_path):
    spec = ComboSpec(GroupId.CYCLIC, (("id", 0), ("delta", 1)))
    solver = _fake_solver(tmp_path, "echo nonsense\n")
    status = solve_combo(GroupId.CYCLIC, 2, spec, solver, None, str(tmp_path))
    assert status.state == "error"
    assert "unparsable" in status.detail


def test_solve_combo_missing_solver_is_an_error(tmp_path):
    spec = ComboSpec(GroupId.CYCLIC, (("id", 0), ("delta", 1)))
    status = solve_combo(GroupId.CYCLIC, 2, spec,
                         "/nonexistent/solver {cnf}", None, str(tmp_path))
    assert status.state == "error"
    assert "failed to run" in status.detail


def test_solve_combo_complete_wrong_model_raises(tmp_path):
    # All four delta entries false: a complete model of the zero matrix.
    spec = ComboSpec(GroupId.CYCLIC, (("id", 0), ("delta", 1)))
    solver = _fake_solver(tmp_path, r"printf 's SATISFIABLE\nv -1 -2 -3 -4 0\n'" "\n")
    with pytest.raises(EncoderSoundnessError):
        solve_combo(GroupId.CYCLIC, 2, spec, solver, None, str(tmp_path))


# One faulty reply for the cyc n=2 combo id=1,delta=1 of a max-rank-4
# campaign; every other combo is UNSAT.
_FAULTS = {
    "partial model": (r"printf 's SATISFIABLE\nv 1 -2 0\n'",
                      "incomplete model: model does not assign variable 3"),
    "bad v token": (r"printf 's SATISFIABLE\nv 1 x 0\n'",
                    "unparsable solver output: bad literal 'x' in a v line"),
    "non-UTF-8 output": (r"printf 's SATISFIABLE\nv 1 \377 0\n'",
                         "unparsable solver output: bad literal '\ufffd' in a v line"),
}


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_search_records_faulty_combo_and_finishes(fault, tmp_path, capsys):
    reply, reason = _FAULTS[fault]
    solver = _fake_solver(tmp_path, f"""case "$1" in
*/cyc-id=1,delta=1.cnf) {reply} ;;
*) echo "s UNSATISFIABLE" ;;
esac
""")
    rc = main(["search", "--group", "cyc", "--n", "2", "--max-rank", "4",
               "--solver", solver, "--workers", "2",
               "--work-dir", str(tmp_path / "work"), "--json"])
    assert rc == EXIT_UNDETERMINED
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "undetermined"
    states = {json.dumps(c["counts"], sort_keys=True): (c["state"], c["detail"])
              for c in report["combos"]}
    faulty = states.pop(json.dumps({"delta": 1, "id": 1}))
    assert faulty == ("error", reason)
    assert len(states) == len(enumerate_combos(GroupId.CYCLIC, 4)) - 1
    assert all(state == "unsat" for state, _ in states.values())


def test_campaign_resume_runs_nothing(tmp_path, monkeypatch):
    ckpt = tmp_path / "ckpt.json"
    unsat = _fake_solver(tmp_path, 'echo "s UNSATISFIABLE"\n')
    run_campaign(GroupId.CYCLIC, 2, 3, unsat, checkpoint_path=str(ckpt))

    def boom(*args, **kwargs):
        raise AssertionError("solve_combo should not run on resume")

    monkeypatch.setattr(driver, "solve_combo", boom)
    report = run_campaign(GroupId.CYCLIC, 2, 3, unsat, checkpoint_path=str(ckpt))
    assert report.verdict() == "ruled_out"
    # A checkpoint that already holds a sat runs nothing, even with
    # pending combos left.
    data = load_checkpoint(ckpt)
    data["combos"][0].update(state="sat", detail="found.json")
    data["combos"][1].update(state="pending")
    ckpt.write_text(json.dumps(data))
    report = run_campaign(GroupId.CYCLIC, 2, 3, unsat, checkpoint_path=str(ckpt))
    assert report.verdict() == "found"
    assert report.decomposition_path == "found.json"
    assert report.statuses[1].state == "pending"


def test_campaign_checkpoint_written_once_per_combo(tmp_path, monkeypatch):
    calls = []
    original = driver.write_checkpoint

    def counting(path, *args):
        calls.append(path)
        original(path, *args)

    monkeypatch.setattr(driver, "write_checkpoint", counting)
    unsat = _fake_solver(tmp_path, 'echo "s UNSATISFIABLE"\n')
    report = run_campaign(GroupId.CYCLIC, 2, 4, unsat, workers=2,
                          checkpoint_path=str(tmp_path / "ckpt.json"),
                          work_dir=str(tmp_path / "work"))
    assert report.verdict() == "ruled_out"
    # Once before any combo runs, once per completed combo, once at the end.
    assert len(calls) == 1 + len(report.statuses) + 1


def test_campaign_sat_short_circuit_with_two_workers(tmp_path, monkeypatch):
    specs = enumerate_combos(GroupId.CYCLIC, 7)
    first, winner = specs[0], specs[1]
    sat_recorded = threading.Event()
    original = driver.write_checkpoint

    def write(path, group, n, max_rank, statuses):
        original(path, group, n, max_rank, statuses)
        if any(st.state == "sat" for st in statuses):
            sat_recorded.set()

    def fake_solve(group, n, spec, solver_cmd, timeout, work_dir):
        if spec == winner:
            return ComboStatus(spec, "sat", 0.0, solver_cmd, "found.json")
        # Still running when the sat is recorded.
        assert sat_recorded.wait(10)
        return ComboStatus(spec, "unsat", 0.0, solver_cmd)

    monkeypatch.setattr(driver, "write_checkpoint", write)
    monkeypatch.setattr(driver, "solve_combo", fake_solve)
    ckpt = tmp_path / "ckpt.json"
    report = run_campaign(GroupId.CYCLIC, 2, 7, "unused {cnf}", workers=2,
                          checkpoint_path=str(ckpt),
                          work_dir=str(tmp_path / "work"))
    assert report.verdict() == "found"
    assert report.decomposition_path == "found.json"
    by_spec = {st.spec: st.state for st in report.statuses}
    assert by_spec[winner] == "sat"
    assert by_spec[first] == "unsat"  # finished after the sat, still recorded
    states = list(by_spec.values())
    assert set(states) == {"sat", "unsat", "pending"}
    assert states.count("pending") >= len(specs) - 4
    assert load_checkpoint(ckpt) == checkpoint_to_json(
        GroupId.CYCLIC, 2, 7, report.statuses)


@pytest.mark.parametrize("workers", [1, 4])
def test_campaign_stops_queued_combos_after_a_combo_raises(workers, tmp_path,
                                                           monkeypatch):
    calls = []

    def fake_solve(group, n, spec, solver_cmd, timeout, work_dir):
        calls.append(spec)
        raise EncoderSoundnessError(f"combo {spec.label()}: wrong model")

    monkeypatch.setattr(driver, "solve_combo", fake_solve)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with pytest.raises(EncoderSoundnessError):
            run_campaign(GroupId.CYCLIC, 2, 7, "unused {cnf}", workers=workers,
                         checkpoint_path=str(tmp_path / "ckpt.json"),
                         work_dir=str(tmp_path / "work"))
    finally:
        sys.setswitchinterval(interval)
    # Only combos already running when the first one raised were called.
    assert 1 <= len(calls) <= workers
    assert set(calls) == set(enumerate_combos(GroupId.CYCLIC, 7)[:len(calls)])
    states = {c["state"] for c in load_checkpoint(tmp_path / "ckpt.json")["combos"]}
    assert states == {"pending"}


def test_campaign_own_work_dir_keeps_only_the_found_pair(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    specs = enumerate_combos(GroupId.CYCLIC, 4)
    winner = None
    work_dirs = []

    def fake_solve(group, n, spec, solver_cmd, timeout, work_dir):
        work_dirs.append(work_dir)
        stem = os.path.join(work_dir, spec.label())
        open(stem + ".cnf", "w").close()
        if spec != winner:
            return ComboStatus(spec, "unsat", 0.0, solver_cmd)
        open(stem + ".json", "w").close()
        open(stem + ".json.sym", "w").close()
        return ComboStatus(spec, "sat", 0.0, solver_cmd, stem + ".json")

    monkeypatch.setattr(driver, "solve_combo", fake_solve)
    report = run_campaign(GroupId.CYCLIC, 2, 4, "unused {cnf}")
    assert report.verdict() == "ruled_out"
    assert len(set(work_dirs)) == 1 and not os.path.exists(work_dirs[0])

    winner = specs[-2]  # the last combo with rank > 0, so every combo runs
    work_dirs.clear()
    report = run_campaign(GroupId.CYCLIC, 2, 4, "unused {cnf}")
    assert report.verdict() == "found"
    found = os.path.join(work_dirs[0], winner.label() + ".json")
    assert report.decomposition_path == found
    assert sorted(os.listdir(work_dirs[0])) == [os.path.basename(found),
                                                os.path.basename(found) + ".sym"]


@requires_solver
def test_campaign_rules_out_low_ranks_and_checkpoints(tmp_path):
    ckpt = tmp_path / "ckpt.json"
    report = run_campaign(GroupId.CYCLIC, 2, 4, SOLVER_CMD,
                          checkpoint_path=str(ckpt),
                          work_dir=str(tmp_path / "work"))
    assert report.verdict() == "ruled_out"
    assert all(st.state == "unsat" for st in report.statuses)
    data = load_checkpoint(ckpt)
    assert data["group"] == "cyc" and data["max_rank"] == 4
    assert all(c["state"] == "unsat" for c in data["combos"])
    assert "no decompositions" in report.render_table()


@requires_solver
def test_campaign_resume_skips_finished_combos(tmp_path, monkeypatch):
    ckpt = tmp_path / "ckpt.json"
    run_campaign(GroupId.CYCLIC, 2, 3, SOLVER_CMD, checkpoint_path=str(ckpt))
    # A resumed campaign with everything terminal never encodes again.
    def boom(*args, **kwargs):
        raise AssertionError("solve_combo should not run on resume")

    monkeypatch.setattr(driver, "solve_combo", boom)
    report = run_campaign(GroupId.CYCLIC, 2, 3, SOLVER_CMD,
                          checkpoint_path=str(ckpt))
    assert report.verdict() == "ruled_out"


def test_campaign_rejects_mismatched_checkpoint(tmp_path):
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(json.dumps({"group": "cyc-t", "dims": 3, "max_rank": 9,
                                "combos": []}))
    with pytest.raises(ValueError):
        run_campaign(GroupId.CYCLIC, 2, 3, "true {cnf}",
                     checkpoint_path=str(ckpt))


@requires_solver
def test_campaign_short_circuits_on_sat(tmp_path):
    report = run_campaign(GroupId.CYCLIC, 2, 7, SOLVER_CMD, workers=2,
                          work_dir=str(tmp_path / "work"))
    assert report.verdict() == "found"
    assert report.decomposition_path
    assert os.path.exists(report.decomposition_path)
    # The found combo is recorded sat; nothing is marked error.
    states = {st.state for st in report.statuses}
    assert "sat" in states and "error" not in states


@requires_solver
def test_campaign_verdict_is_order_independent(tmp_path, monkeypatch):
    baseline = run_campaign(GroupId.CYCLIC, 2, 4, SOLVER_CMD)
    original = driver.enumerate_combos

    def reversed_order(group, max_rank):
        return list(reversed(original(group, max_rank)))

    monkeypatch.setattr(driver, "enumerate_combos", reversed_order)
    shuffled = run_campaign(GroupId.CYCLIC, 2, 4, SOLVER_CMD)
    assert shuffled.verdict() == baseline.verdict() == "ruled_out"
    assert {s.spec.counts for s in shuffled.statuses} == \
        {s.spec.counts for s in baseline.statuses}
