import json
import os
import signal
import stat
import subprocess
import sys
import tempfile
import threading
import time

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
from mmtsat.encoder import build_symbolic_orbits
from mmtsat.span import certificate
from mmtsat.symmetry import GroupId, orbit_kinds

from conftest import (
    SOLVER_CMD,
    certificate_comment,
    present_kinds,
    refutation_comment,
    requires_solver,
)


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
    state, diag = parse_solver_output("c gave up\ns UNKNOWN\n")
    assert state == "unknown" and diag == "solver answered UNKNOWN"


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


def test_checkpoint_is_the_canonical_json_after_every_change(tmp_path):
    # Records are rendered once per status: a status changed in place,
    # or replaced, between two writes is written as it is now.
    statuses = [ComboStatus(s) for s in enumerate_combos(GroupId.CYCLIC_TRANSPOSE, 5)]
    path = tmp_path / "ckpt.json"
    changes = [("state", "unsat"), ("seconds", 0.0004), ("seconds", 2.5),
               ("solver", "x {cnf}"), ("detail", 'a "quoted" \u00e9 path'), ("state", "error")]
    for i, (field, value) in enumerate([("state", "pending")] + changes):
        setattr(statuses[i], field, value)
        statuses[-1] = ComboStatus(statuses[-1].spec, "timeout", float(i))
        write_checkpoint(path, GroupId.CYCLIC_TRANSPOSE, 3, 5, statuses)
        want = json.dumps(checkpoint_to_json(GroupId.CYCLIC_TRANSPOSE, 3, 5, statuses),
                          sort_keys=True, separators=(",", ":")) + "\n"
        assert path.read_text() == want, (field, value)


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


@pytest.mark.parametrize("group,n,message", [
    (GroupId.CYCLIC, 5, "n = 5 out of range 1..4"),
    (GroupId.CYCLIC_SANDWICH, 2, "group cyc-sw is only defined for n = 3"),
], ids=["out of range", "not defined"])
def test_solve_combo_rejects_an_n_before_the_rank_zero_shortcut(group, n, message, tmp_path):
    spec = ComboSpec(group, tuple((k.tag, 0) for k in orbit_kinds(group)))
    with pytest.raises(ValueError, match=message):
        solve_combo(group, n, spec, "true {cnf}", None, str(tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_combo_with_the_empty_clause_runs_no_solver(tmp_path):
    # cyc-t n=2 id=1 has a kept entry with target 1 where no product
    # survives, so a span certificate of that one entry refutes it: its
    # CNF holds the empty clause, so it is recorded unsat with no solver
    # run, fresh and resumed, its detail names that entry, and its CNF is
    # still written.
    label = "id=1,t=0,delta=0,full=0"
    ran = tmp_path / "ran"
    solver = _fake_solver(tmp_path, f"""case "$1" in
*/cyc-t-{label}.cnf) touch {ran}; exit 1 ;;
*) echo "s UNSATISFIABLE" ;;
esac
""")
    ckpt, work = tmp_path / "ckpt.json", tmp_path / "work"
    cnf = work / f"cyc-t-{label}.cnf"

    def run():
        report = run_campaign(GroupId.CYCLIC_TRANSPOSE, 2, 6, solver,
                              checkpoint_path=str(ckpt), work_dir=str(work))
        assert report.verdict() == "ruled_out"
        (status,) = [st for st in report.statuses if st.spec.label() == label]
        assert (status.state, status.detail) == (
            "unsat", certificate_comment([((0, 0), (0, 0), (0, 0))]) + ", no solver run")
        assert cnf.exists() and not ran.exists()

    run()
    data = load_checkpoint(ckpt)
    for rec in data["combos"]:
        if rec["counts"] == {"id": 1, "t": 0, "delta": 0, "full": 0}:
            rec.update(state="pending", seconds=0, detail="")
    ckpt.write_text(json.dumps(data))
    cnf.unlink()
    run()


def test_combos_decided_by_span_certificates_are_one_empty_clause_and_run_no_solver(
        tmp_path):
    # cyc-sw n=3 up to rank 7: 31 of the 32 combos of positive rank lack
    # the id kind, or have it with neither sw nor full, so their orbit
    # tensors cannot span the target.  Each is recorded unsat with the
    # CNF's comment naming the certificate's entries as its detail, its
    # CNF file is the empty clause over its primaries, and the solver,
    # which logs every file it is given, runs only on id=1,full=1.
    log = tmp_path / "solver.log"
    solver = _fake_solver(tmp_path, f'echo "$1" >> {log}; echo "s UNSATISFIABLE"\n')
    work = tmp_path / "work"
    report = run_campaign(GroupId.CYCLIC_SANDWICH, 3, 7, solver, workers=2,
                          work_dir=str(work))
    assert report.verdict() == "ruled_out"
    solved = log.read_text().splitlines()
    decided = 0
    for st in report.statuses:
        if st.spec.total_rank() == 0:
            continue
        cnf = work / f"cyc-sw-{st.spec.label()}.cnf"
        _, varmap = build_symbolic_orbits(GroupId.CYCLIC_SANDWICH, 3, st.spec.counts_dict())
        text = cnf.read_text()
        assert st.state == "unsat"
        if st.detail.startswith("empty clause: "):
            decided += 1
            assert text.endswith(f"c {st.detail.removesuffix(', no solver run')}\n"
                                 f"p cnf {len(varmap.primary)} 1\n 0\n")
            assert str(cnf) not in solved
        else:
            assert st.detail == "" and str(cnf) in solved
    assert decided == 31 and solved == [str(work / "cyc-sw-id=1,sw=0,delta=0,full=1.cnf")]


def test_span_refuted_combos_name_their_certificate_in_the_records(tmp_path, capsys):
    # A whole cyc-t n=2 campaign through the CLI: the --json report and
    # the checkpoint agree, each of the 35 combos without the t kind has
    # the span certificate's entries as its detail, each of the 13 with
    # too few t orbits to reach the target modulo the other kinds' spans
    # has the count certificate's kind, count, modulus kinds and number of
    # images as its detail, and the solver, which leaves a marker file
    # beside each CNF it is given, ran on none of them and on each of the
    # other 11.
    solver = _fake_solver(tmp_path, 'touch "$1.ran"; echo "s UNSATISFIABLE"\n')
    ckpt, work = tmp_path / "ckpt.json", tmp_path / "work"
    group = GroupId.CYCLIC_TRANSPOSE
    assert main(["search", "--group", "cyc-t", "--n", "2", "--max-rank", "9",
                 "--solver", solver, "--checkpoint", str(ckpt), "--work-dir", str(work),
                 "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert load_checkpoint(ckpt)["combos"] == report["combos"]
    refuted = counted = solved = 0
    for rec in report["combos"]:
        counts = rec["counts"]
        if not any(counts.values()):
            continue
        label = ",".join(f"{kind.tag}={counts[kind.tag]}" for kind in orbit_kinds(group))
        marker = work / f"cyc-t-{label}.cnf.ran"
        phi = certificate(group, 2, present_kinds(group, counts))
        comment = refutation_comment(group, 2, counts)
        assert rec["state"] == "unsat"
        if comment is None:
            assert rec["detail"] == "" and marker.exists()
            solved += 1
            continue
        assert rec["detail"] == comment + ", no solver run"
        assert not marker.exists()
        if phi is None:
            assert counts["t"] in (1, 2)
            assert f"no {counts['t']} of the " in rec["detail"]
            assert "images of t orbit tensors" in rec["detail"]
            counted += 1
        else:
            assert rec["detail"] == certificate_comment(phi) + ", no solver run"
            assert all(str(entry) in rec["detail"] for entry in phi)
            assert counts["t"] == 0
            refuted += 1
    assert (refuted, counted, solved) == (35, 13, 11)


def test_solve_combo_with_fake_unsat_solver(tmp_path):
    spec = ComboSpec(GroupId.CYCLIC, (("id", 1), ("delta", 1)))
    solver = _fake_solver(tmp_path, 'echo "s UNSATISFIABLE"\n')
    status = solve_combo(GroupId.CYCLIC, 2, spec, solver, None, str(tmp_path))
    assert (status.state, status.detail) == ("unsat", "")
    assert (tmp_path / "cyc-id=1,delta=1.cnf").exists()


# The fake-solver tests use cyc n=2 id=1,delta=1, which no span or count
# certificate refutes, so its CNF reaches the solver (a count certificate
# refutes id=1 alone).
def test_solve_combo_reports_unparsable_output(tmp_path):
    spec = ComboSpec(GroupId.CYCLIC, (("id", 1), ("delta", 1)))
    solver = _fake_solver(tmp_path, "echo nonsense\n")
    status = solve_combo(GroupId.CYCLIC, 2, spec, solver, None, str(tmp_path))
    assert status.state == "error"
    assert "unparsable" in status.detail


def test_solve_combo_missing_solver_is_an_error(tmp_path):
    spec = ComboSpec(GroupId.CYCLIC, (("id", 1), ("delta", 1)))
    status = solve_combo(GroupId.CYCLIC, 2, spec,
                         "/nonexistent/solver {cnf}", None, str(tmp_path))
    assert status.state == "error"
    assert "failed to run" in status.detail


def test_solve_combo_complete_wrong_model_raises(tmp_path):
    # All twelve id and four delta entries false: a complete model of
    # the zero matrices.
    spec = ComboSpec(GroupId.CYCLIC, (("id", 1), ("delta", 1)))
    model = " ".join(f"-{v}" for v in range(1, 17))
    solver = _fake_solver(tmp_path, f"printf 's SATISFIABLE\\nv {model} 0\\n'\n")
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
    "UNKNOWN answer": (r"printf 's UNKNOWN\n'",
                       "solver answered UNKNOWN"),
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


def test_campaign_checkpoint_holds_every_recorded_combo(tmp_path, monkeypatch):
    # There are at least two writes, one before any combo runs and one at
    # the end, and at most one more per combo.  Every write holds exactly
    # the statuses the campaign has recorded: the combos it shows finished
    # are ones the solver returned, and a later write keeps every one an
    # earlier write showed.
    finished = {}
    lock = threading.Lock()
    original_solve = driver.solve_combo

    def solve(group, n, spec, *args):
        status = original_solve(group, n, spec, *args)
        with lock:
            finished[json.dumps(spec.counts_dict(), sort_keys=True)] = status.state
        return status

    written = []
    original_write = driver.write_checkpoint

    def write(path, *args):
        original_write(path, *args)
        assert load_checkpoint(path) == checkpoint_to_json(*args)
        with lock:
            done = dict(finished)
        shown = {json.dumps(c["counts"], sort_keys=True): c["state"]
                 for c in load_checkpoint(path)["combos"] if c["state"] != "pending"}
        assert shown.items() <= done.items()
        assert not written or written[-1].items() <= shown.items()
        written.append(shown)

    monkeypatch.setattr(driver, "solve_combo", solve)
    monkeypatch.setattr(driver, "write_checkpoint", write)
    unsat = _fake_solver(tmp_path, 'echo "s UNSATISFIABLE"\n')
    report = run_campaign(GroupId.CYCLIC, 2, 4, unsat, workers=2,
                          checkpoint_path=str(tmp_path / "ckpt.json"),
                          work_dir=str(tmp_path / "work"))
    assert report.verdict() == "ruled_out"
    assert 2 <= len(written) <= 1 + len(report.statuses) + 1
    assert written[0] == {} and written[-1] == finished
    assert len(finished) == len(report.statuses)


class _FakeClock:
    """driver.monotonic for campaigns of one worker whose solves each
    advance it by their combo's step.  A solve starts only once the
    campaign's thread has read the clock since the previous solve ended,
    so every completion is handled alone, in order, at the time its
    solve ended."""

    def __init__(self):
        self.now = 0.0
        self._read = threading.Event()

    def __call__(self):
        if threading.current_thread() is threading.main_thread():
            self._read.set()
        return self.now

    def solver(self, steps, sat=None):
        def solve(group, n, spec, solver_cmd, *args):
            assert self._read.wait(10)
            self._read.clear()
            self.now += steps[spec]
            return ComboStatus(spec, "sat" if spec == sat else "unsat", steps[spec],
                               solver_cmd)
        return solve


def test_campaign_checkpoint_writes_follow_the_clock(tmp_path, monkeypatch):
    # The checkpoint is written when the campaign starts, at once on a
    # sat, after another completion only if CHECKPOINT_INTERVAL_S has
    # passed since the last write, and at the end only if a status
    # changed since then.
    assert driver.CHECKPOINT_INTERVAL_S == 1.0
    specs = enumerate_combos(GroupId.CYCLIC, 4)
    assert len(specs) == 7
    clock = _FakeClock()
    writes = []
    original_write = driver.write_checkpoint

    def write(path, *args):
        original_write(path, *args)
        writes.append("".join(c["state"][0] for c in load_checkpoint(path)["combos"]))

    monkeypatch.setattr(driver, "monotonic", clock)
    monkeypatch.setattr(driver, "write_checkpoint", write)

    def campaign(steps, ckpt, sat=None):
        writes.clear()
        monkeypatch.setattr(driver, "solve_combo",
                            clock.solver(dict(zip(specs, steps)), sat))
        return run_campaign(GroupId.CYCLIC, 2, 4, "unused {cnf}", workers=1,
                            checkpoint_path=str(tmp_path / ckpt),
                            work_dir=str(tmp_path / "work"))

    # All seven finish within 1 s of the first write: written at the end.
    assert campaign([0.1] * 7, "a.json").verdict() == "ruled_out"
    assert writes == ["ppppppp", "uuuuuuu"]
    # The second finishes 1 s after the first write and is written at once
    # with the first; the other five follow within 1 s of it.
    assert campaign([0.5, 0.5] + [0.1] * 5, "b.json").verdict() == "ruled_out"
    assert writes == ["ppppppp", "uuppppp", "uuuuuuu"]
    # A sat is written at once (with a combo still running after it, see
    # test_campaign_sat_short_circuit_with_two_workers); nothing changes
    # after it, so the end writes nothing, and neither does a resume of
    # the finished campaign.
    assert campaign([0.1] * 7, "c.json", sat=specs[2]).verdict() == "found"
    assert writes == ["ppppppp", "uuspppp"]
    assert campaign([0.1] * 7, "c.json").verdict() == "found"
    assert writes == ["uuspppp"]


def _alive(pid: int) -> bool:
    """Whether a process with this pid exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs POSIX process groups and /proc")
def test_killed_campaign_resumes_exactly_its_unfinished_combos(tmp_path, monkeypatch):
    # A campaign killed with its process group between two checkpoint
    # writes leaves no solver running.  Its resume runs exactly the combos
    # that the last checkpoint does not show finished, keeps the others'
    # records, and reaches the verdict of a campaign never killed.  Up
    # to rank 9, 10 combos reach the solver, 2 s of slow solver runs, so
    # a checkpoint is written while some are still pending.
    (tmp_path / "slow").mkdir()
    (tmp_path / "fast").mkdir()
    pids, calls = tmp_path / "pids", tmp_path / "calls"
    slow = _fake_solver(tmp_path / "slow", f"""echo $$ >> {pids}
sleep 0.2 &
echo $! >> {pids}
wait $!
echo "s UNSATISFIABLE"
""")
    fast = _fake_solver(tmp_path / "fast", f'echo "$1" >> {calls}; echo "s UNSATISFIABLE"\n')
    ckpt, work = tmp_path / "ckpt.json", tmp_path / "work"
    src = os.path.dirname(os.path.dirname(driver.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "mmtsat.cli", "search", "--group", "cyc", "--n", "2",
         "--max-rank", "9", "--solver", slow, "--checkpoint", str(ckpt),
         "--work-dir", str(work)],
        env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    def shown_finished() -> bool:
        try:
            return any(c["state"] != "pending" for c in load_checkpoint(ckpt)["combos"])
        except (FileNotFoundError, ValueError):
            return False

    try:
        deadline = time.monotonic() + 60
        while not shown_finished():
            assert proc.poll() is None, "the campaign ended before it was killed"
            assert time.monotonic() < deadline
            time.sleep(0.01)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(10)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(10)
    deadline = time.monotonic() + 10
    started = [int(p) for p in pids.read_text().split()]
    while any(map(_alive, started)) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert started and not any(map(_alive, started))

    killed = {json.dumps(c["counts"], sort_keys=True): c
              for c in load_checkpoint(ckpt)["combos"]}
    unfinished = {k for k, c in killed.items() if c["state"] == "pending"}
    assert unfinished and len(unfinished) < len(killed)
    ran = []
    original_solve = driver.solve_combo

    def solve(group, n, spec, *args):
        ran.append(json.dumps(spec.counts_dict(), sort_keys=True))
        return original_solve(group, n, spec, *args)

    monkeypatch.setattr(driver, "solve_combo", solve)
    resumed = run_campaign(GroupId.CYCLIC, 2, 9, fast, checkpoint_path=str(ckpt),
                           work_dir=str(work))
    assert sorted(ran) == sorted(unfinished)
    # Neither rank 0 nor a combo that a span certificate (id=0) or a count
    # certificate (id=1 or id=2 alone) refutes runs a solver.
    assert len(calls.read_text().splitlines()) == sum(
        1 for k in unfinished if any(json.loads(k).values())
        and refutation_comment(GroupId.CYCLIC, 2, json.loads(k)) is None)
    for st in resumed.statuses:
        key = json.dumps(st.spec.counts_dict(), sort_keys=True)
        if key not in unfinished:
            assert driver._combo_record(st) == killed[key]
    whole = run_campaign(GroupId.CYCLIC, 2, 9, fast, work_dir=str(tmp_path / "whole"))
    assert resumed.verdict() == whole.verdict() == "ruled_out"
    assert [st.state for st in resumed.statuses] == [st.state for st in whole.statuses]
    assert load_checkpoint(ckpt) == checkpoint_to_json(GroupId.CYCLIC, 2, 9, resumed.statuses)


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


def test_campaign_removes_its_work_dir_when_the_first_checkpoint_write_fails(
        tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with pytest.raises(FileNotFoundError):
        run_campaign(GroupId.CYCLIC, 2, 2, "true {cnf}",
                     checkpoint_path=str(tmp_path / "missing" / "c.json"))
    assert not list(tmp_path.glob("mmtsat-*"))


def test_campaign_removes_its_work_dir_when_the_last_checkpoint_write_fails(
        tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(driver, "CHECKPOINT_INTERVAL_S", float("inf"))
    writes = []

    def fake_solve(group, n, spec, solver_cmd, timeout, work_dir):
        open(os.path.join(work_dir, spec.label() + ".cnf"), "w").close()
        return ComboStatus(spec, "unsat", 0.0, solver_cmd)

    def failing_write(path, *args):
        writes.append(path)
        if len(writes) > 1:  # the first write, before any combo, succeeds
            raise OSError("disk full")
        write_checkpoint(path, *args)

    monkeypatch.setattr(driver, "solve_combo", fake_solve)
    monkeypatch.setattr(driver, "write_checkpoint", failing_write)
    with pytest.raises(OSError, match="disk full"):
        run_campaign(GroupId.CYCLIC, 2, 2, "unused {cnf}",
                     checkpoint_path=str(tmp_path / "c.json"))
    assert len(writes) == 2
    assert not list(tmp_path.glob("mmtsat-*"))


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
