import dataclasses
import errno
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import suppress

import pytest

import mmtsat.driver as driver
from mmtsat.canonical import dump_symmetric, load_symmetric
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
from mmtsat.gf2 import Gf2Matrix
from mmtsat.span import certificate, refute
from mmtsat.symmetry import GroupId, orbit_kinds
from mmtsat.tensor import dump_decomposition, load_decomposition

from conftest import (
    SOLVER_CMD,
    fake_solver,
    present_kinds,
    requires_solver,
    strassen_literals,
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
    for text in ("s SATISFIABLE\ns UNSATISFIABLE\n", "s UNSATISFIABLE\ns SATISFIABLE\n"):
        assert parse_solver_output(text) == (
            "unknown", "unparsable solver output: contradictory status lines")
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
    # No stray temp files left behind by the atomic write, nor by one that
    # fails: the rename over a directory fails after <path>.tmp is written.
    assert os.listdir(tmp_path) == ["ckpt.json"]
    path = tmp_path / "dir"
    path.mkdir()
    with pytest.raises(IsADirectoryError):
        write_checkpoint(path, GroupId.CYCLIC, 2, 4, statuses)
    assert sorted(os.listdir(tmp_path)) == ["ckpt.json", "dir"] and os.listdir(path) == []


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


def test_solve_combo_rank_zero_short_circuits(tmp_path):
    spec = ComboSpec(GroupId.CYCLIC, (("id", 0), ("delta", 0)))
    solver = fake_solver(tmp_path, "echo should-not-run; exit 1\n")
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
    solver = fake_solver(tmp_path, f"""case "$1" in
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
            "unsat", "empty clause: the tensor equations at entries ((0, 0), (0, 0), (0, 0)) "
            "XOR to 0 = 1: every orbit tensor of the present kinds has even parity there, "
            "the target odd, no solver run")
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
    # CNF file is four lines (the header, that comment, and the empty
    # clause over no variable), and the solver, which logs every file it
    # is given, runs only on id=1,full=1.
    log = tmp_path / "solver.log"
    solver = fake_solver(tmp_path, f'echo "$1" >> {log}; echo "s UNSATISFIABLE"\n')
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
        counts = ",".join(f"{k}={v}" for k, v in sorted(st.spec.counts))
        text = cnf.read_text()
        assert st.state == "unsat"
        if st.detail.startswith("empty clause: "):
            decided += 1
            assert text == (f"c mmtsat group=cyc-sw n=3 combo={counts} "
                            f"rank={st.spec.total_rank()}\n"
                            f"c {st.detail.removesuffix(', no solver run')}\n"
                            "p cnf 0 1\n0\n")
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
    solver = fake_solver(tmp_path, 'touch "$1.ran"; echo "s UNSATISFIABLE"\n')
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
        refutation = refute(group, 2, counts)
        assert rec["state"] == "unsat"
        if refutation is None:
            assert rec["detail"] == "" and marker.exists()
            solved += 1
            continue
        assert rec["detail"] == f"empty clause: {refutation.detail}, no solver run"
        assert not marker.exists()
        if refutation.rule == "count":
            assert counts["t"] in (1, 2)
            assert f"no {counts['t']} of the " in rec["detail"]
            assert "images of t orbit tensors" in rec["detail"]
            counted += 1
        else:
            phi = certificate(group, 2, present_kinds(group, counts))
            assert all(str(entry) in rec["detail"] for entry in phi)
            assert counts["t"] == 0
            refuted += 1
    assert (refuted, counted, solved) == (35, 13, 11)


def test_solve_combo_with_fake_unsat_solver(tmp_path):
    spec = ComboSpec(GroupId.CYCLIC, (("id", 1), ("delta", 1)))
    solver = fake_solver(tmp_path, 'echo "s UNSATISFIABLE"\n')
    status = solve_combo(GroupId.CYCLIC, 2, spec, solver, None, str(tmp_path))
    assert (status.state, status.detail) == ("unsat", "")
    assert (tmp_path / "cyc-id=1,delta=1.cnf").exists()


# The fake-solver tests use cyc n=2 id=1,delta=1, which no span or count
# certificate refutes, so its CNF reaches the solver (a count certificate
# refutes id=1 alone).
def test_solve_combo_reports_unparsable_output(tmp_path):
    spec = ComboSpec(GroupId.CYCLIC, (("id", 1), ("delta", 1)))
    solver = fake_solver(tmp_path, "echo nonsense\n")
    status = solve_combo(GroupId.CYCLIC, 2, spec, solver, None, str(tmp_path))
    assert status.state == "error"
    assert "unparsable" in status.detail


def test_solve_combo_missing_solver_is_an_error(tmp_path):
    spec = ComboSpec(GroupId.CYCLIC, (("id", 1), ("delta", 1)))
    status = solve_combo(GroupId.CYCLIC, 2, spec,
                         "/nonexistent/solver {cnf}", None, str(tmp_path))
    assert status.state == "error"
    assert "failed to run" in status.detail


def _dimacs_clauses(path) -> list[list[int]]:
    """The clauses of a DIMACS file, one per line after the p line."""
    lines = path.read_text().splitlines()
    body = lines[[line.startswith("p ") for line in lines].index(True) + 1:]
    return [[int(tok) for tok in line.split()[:-1]] for line in body]


def test_solve_combo_complete_wrong_model_raises(tmp_path, monkeypatch):
    # All twelve id and four delta entries false assign every primary, to
    # the zero matrices, so the model decodes; but it falsifies a clause
    # of the CNF (a representative is nonzero), so the solver is at fault
    # and the combo is an `error` naming the first clause the model leaves
    # without a true literal.  Only a model of the CNF that then fails a
    # check raises: here Strassen's model of id=2,delta=1, with verify
    # made to reject it.
    spec = ComboSpec(GroupId.CYCLIC, (("id", 1), ("delta", 1)))
    model = " ".join(f"-{v}" for v in range(1, 17))
    solver = fake_solver(tmp_path, f"printf 's SATISFIABLE\\nv {model} 0\\n'\n")
    status = solve_combo(GroupId.CYCLIC, 2, spec, solver, None, str(tmp_path))
    false = {-v for v in range(1, 17)}
    clauses = _dimacs_clauses(tmp_path / "cyc-id=1,delta=1.cnf")
    i = next(i for i, clause in enumerate(clauses, 1) if false.isdisjoint(clause))
    assert (status.state, status.detail) == (
        "error", f"model falsifies CNF clause {i}: {' '.join(map(str, clauses[i - 1]))} 0")
    assert not (tmp_path / "cyc-id=1,delta=1.json").exists()

    model = tmp_path / "model.txt"
    model.write_text(f"s SATISFIABLE\nv {' '.join(map(str, strassen_literals()))} 0\n")
    solver = fake_solver(tmp_path, f"cat {model}\n")
    spec = ComboSpec(GroupId.CYCLIC, (("id", 2), ("delta", 1)))
    for check, problem in (("verify", "does not evaluate to the target"),
                           ("is_group_symmetric", "is not group symmetric")):
        with monkeypatch.context() as patch:
            patch.setattr(driver, check, lambda *args: False)
            with pytest.raises(EncoderSoundnessError,
                               match=f"^combo id=2,delta=1: decoded decomposition {problem}$"):
                solve_combo(GroupId.CYCLIC, 2, spec, solver, None, str(tmp_path))


# One reply for the cyc n=2 combo id=1,delta=4, the first combo of a
# max-rank-7 campaign to reach the solver, and the state and detail it
# ends in; the four other combos that reach the solver are UNSAT.  Only
# the hanging reply runs under a 0.5 s timeout; the others have 60 s, so
# a campaign that missed a solver's exit ends in a timeout, not a hang.
_FAULTS = {
    "partial model": (r"printf 's SATISFIABLE\nv 1 -2 0\n'", "error",
                      "incomplete model: model does not assign variable 3"),
    "bad v token": (r"printf 's SATISFIABLE\nv 1 x 0\n'", "error",
                    "unparsable solver output: bad literal 'x' in a v line"),
    "non-UTF-8 output": (r"printf 's SATISFIABLE\nv 1 \377 0\n'", "error",
                         "unparsable solver output: bad literal '\ufffd' in a v line"),
    "UNKNOWN answer": (r"printf 's UNKNOWN\n'", "error", "solver answered UNKNOWN"),
    "hang": ("exec sleep 30", "timeout", "timeout after 0.5s"),
    "non-zero exit without a status line": ("echo crashed; exit 3", "error",
                                            "unparsable solver output: no status line found"),
    "contradictory status lines": (r"printf 's SATISFIABLE\ns UNSATISFIABLE\n'", "error",
                                   "unparsable solver output: contradictory status lines"),
    "over 1 MB of comments": ("yes 'c 0123456789012345678901234567890123456789' "
                              "| head -n 25000; echo 's UNSATISFIABLE'", "unsat", ""),
    "complete non-model": ("echo 's SATISFIABLE'; echo \"v $(seq -s ' ' -400 -1) 0\"",
                           "error", "model falsifies CNF clause 425: 13 17 21 25 29 0"),
}


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_search_records_faulty_combo_and_finishes(fault, tmp_path, capsys):
    reply, state, detail = _FAULTS[fault]
    solver = fake_solver(tmp_path, f"""case "$1" in
*/cyc-id=1,delta=4.cnf) {reply} ;;
*) echo "s UNSATISFIABLE" ;;
esac
""")
    rc = main(["search", "--group", "cyc", "--n", "2", "--max-rank", "7",
               "--solver", solver, "--workers", "2",
               "--timeout", "0.5" if state == "timeout" else "60",
               "--work-dir", str(tmp_path / "work"), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert (rc, report["verdict"]) == ((0, "ruled_out") if state == "unsat"
                                       else (EXIT_UNDETERMINED, "undetermined"))
    states = {json.dumps(c["counts"], sort_keys=True): (c["state"], c["detail"])
              for c in report["combos"]}
    faulty = states.pop(json.dumps({"delta": 4, "id": 1}))
    assert faulty == (state, detail)
    assert report["wall_seconds"] < 10  # a hanging solver is killed at its timeout
    assert len(states) == len(enumerate_combos(GroupId.CYCLIC, 7)) - 1
    assert all(state == "unsat" for state, _ in states.values())
    assert list(states.values()).count(("unsat", "")) == 4  # the solver ran on these


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_solve_combo_records_what_a_campaign_records_for_a_faulty_combo(fault, tmp_path):
    reply, state, detail = _FAULTS[fault]
    solver = fake_solver(tmp_path, reply + "\n")
    spec = ComboSpec(GroupId.CYCLIC, (("id", 1), ("delta", 4)))
    started = time.monotonic()
    status = solve_combo(GroupId.CYCLIC, 2, spec, solver, 0.5 if state == "timeout" else 60,
                         str(tmp_path / "work"))
    assert (status.state, status.detail) == (state, detail)
    assert time.monotonic() - started < 10  # a hanging solver is killed at its timeout


def test_campaign_with_a_missing_solver_records_an_error_on_every_solver_combo(tmp_path):
    report = run_campaign(GroupId.CYCLIC, 2, 7, "/nonexistent/solver {cnf}", workers=2,
                          work_dir=str(tmp_path / "work"))
    assert report.verdict() == "undetermined"
    errors = 0
    for st in report.statuses:
        if st.spec.total_rank() and \
                refute(GroupId.CYCLIC, 2, st.spec.counts_dict()) is None:
            assert st.state == "error" and st.detail.startswith("solver failed to run: ")
            errors += 1
        else:
            assert st.state == "unsat" and st.detail.endswith("no solver run")
    assert errors == 5


def test_campaign_resume_runs_nothing(tmp_path, monkeypatch):
    ckpt = tmp_path / "ckpt.json"
    unsat = fake_solver(tmp_path, 'echo "s UNSATISFIABLE"\n')
    run_campaign(GroupId.CYCLIC, 2, 3, unsat, checkpoint_path=str(ckpt))

    def boom(*args, **kwargs):
        raise AssertionError("no combo should be encoded on resume")

    # A checkpoint that already holds a sat runs nothing, even with
    # pending combos left.
    found = _found_checkpoint(tmp_path)
    monkeypatch.setattr(driver, "_prepare", boom)
    report = run_campaign(GroupId.CYCLIC, 2, 3, unsat, checkpoint_path=str(ckpt))
    assert report.verdict() == "ruled_out"
    report = run_campaign(GroupId.CYCLIC, 2, 7, unsat, checkpoint_path=str(found))
    assert report.verdict() == "found"
    assert report.decomposition_path == str(tmp_path / "work" / "cyc-id=2,delta=1.json")
    assert "pending" in {st.state for st in report.statuses}


def _strassen_solver(tmp_path) -> str:
    """A solver that answers the cyc n=2 combo id=2,delta=1 with
    Strassen's model and every other combo UNSAT."""
    model = tmp_path / "model.txt"
    model.write_text(f"s SATISFIABLE\nv {' '.join(map(str, strassen_literals()))} 0\n")
    return fake_solver(tmp_path, f"""case "$1" in
*/cyc-id=2,delta=1.cnf) cat {model} ;;
*) echo "s UNSATISFIABLE" ;;
esac
""")


def _found_checkpoint(tmp_path):
    """The checkpoint of a cyc n=2 campaign up to rank 7 with one worker
    and _strassen_solver: it stops at that sat with combos left pending."""
    ckpt = tmp_path / "found-ckpt.json"
    report = run_campaign(GroupId.CYCLIC, 2, 7, _strassen_solver(tmp_path),
                          checkpoint_path=str(ckpt), work_dir=str(tmp_path / "work"))
    assert report.verdict() == "found" and "pending" in {st.state for st in report.statuses}
    return ckpt


def _forge(ckpt, counts: dict, **fields) -> None:
    data = load_checkpoint(ckpt)
    (rec,) = [rec for rec in data["combos"] if rec["counts"] == counts]
    rec.update(fields)
    ckpt.write_text(json.dumps(data))


def test_resume_rejects_a_sat_record_without_its_files(tmp_path, capsys):
    # A forged sat whose decomposition file does not exist: the resume
    # names the combo and exits 1 instead of reporting a decomposition.
    ckpt = _found_checkpoint(tmp_path)
    _forge(ckpt, {"id": 1, "delta": 4}, state="sat", detail="/nonexistent.json")
    rc = main(["search", "--group", "cyc", "--n", "2", "--max-rank", "7",
               "--solver", "true {cnf}", "--checkpoint", str(ckpt)])
    out, err = capsys.readouterr()
    assert rc == 1 and "decomposition found" not in out
    assert err.startswith("error: checkpoint combo id=1,delta=4: sat record: "
                          "cannot load its decomposition: ")
    assert "/nonexistent.json" in err


def test_a_found_campaign_resumes_from_another_directory(tmp_path, monkeypatch, capsys):
    # A campaign run with relative paths records its found pair by an
    # absolute path, so a resume from a sibling directory, naming the same
    # checkpoint and work dir by other relative paths, finds it again.
    args = ["search", "--group", "cyc", "--n", "2", "--max-rank", "7",
            "--solver", _strassen_solver(tmp_path), "--json"]
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
    monkeypatch.chdir(tmp_path / "a")
    assert main([*args, "--checkpoint", "ck.json", "--work-dir", "out"]) == 10
    first = json.loads(capsys.readouterr().out)
    monkeypatch.chdir(tmp_path / "b")
    monkeypatch.setattr(driver, "_prepare", lambda *args: pytest.fail("a combo was encoded"))
    assert main([*args, "--checkpoint", "../a/ck.json", "--work-dir", "../a/out"]) == 10
    resumed = json.loads(capsys.readouterr().out)
    assert resumed["decomposition"] == first["decomposition"] == \
        str(tmp_path / "a" / "out" / "cyc-id=2,delta=1.json")
    assert resumed["combos"] == first["combos"]


def _forged_pair(tmp_path, found: str, name: str, tag: str, reps) -> str:
    """Strassen's found pair with its `tag` representatives replaced by
    reps, written as <name>.json, the expansion of its <name>.json.sym."""
    sd = load_symmetric(found + ".sym")
    sd = dataclasses.replace(sd, orbits={**sd.orbits, tag: reps})
    path = str(tmp_path / f"{name}.json")
    dump_decomposition(sd.expand(), path)
    dump_symmetric(sd, path + ".sym")
    return path


@pytest.mark.parametrize("case", ["another combo's file", "fails verify", "differs from .sym",
                                  "not canonical", "forged rule detail", "altered rule detail"])
def test_resume_rejects_a_record_that_does_not_hold(case, tmp_path, monkeypatch):
    # Each forged record of a found campaign's checkpoint is rejected
    # before anything runs, as a ValueError naming its combo and reason.
    ckpt = _found_checkpoint(tmp_path)
    found = str(tmp_path / "work" / "cyc-id=2,delta=1.json")
    data = {json.dumps(rec["counts"], sort_keys=True): rec
            for rec in load_checkpoint(ckpt)["combos"]}
    decided = data[json.dumps({"delta": 7, "id": 0})]["detail"]
    # The same counts and symmetric, but not a decomposition of <2,2,2>.
    wrong = _forged_pair(tmp_path, found, "wrong", "delta", ((Gf2Matrix.parse("11;01"),),))
    # The same triplets, its id representatives out of their order.
    swapped = _forged_pair(tmp_path, found, "swapped", "id",
                           load_symmetric(found + ".sym").orbits["id"][::-1])
    label, forged, reason = {
        "another combo's file": ("id=1,delta=4", {"state": "sat", "detail": found},
                                 "sat record: its decomposition is of another combo"),
        "fails verify": ("id=2,delta=1", {"detail": wrong},
                         "sat record: decoded decomposition does not evaluate to the target"),
        "differs from .sym": ("id=2,delta=1", None,
                              "sat record: its decomposition and its .sym file differ"),
        "not canonical": ("id=2,delta=1", {"detail": swapped},
                          "sat record: canonical-form violations: "
                          "['id[0]: AB key not strictly lex increasing']"),
        "forged rule detail": ("id=1,delta=4", {"detail": decided},
                               "unsat record: this combo is not decided without a solver "
                               "as its detail says"),
        "altered rule detail": ("id=0,delta=7", {"detail": decided.replace("(0, 1)", "(1, 1)")},
                                "unsat record: this combo is not decided without a solver "
                                "as its detail says"),
    }[case]
    if forged is None:  # the .json of another decomposition, its .sym kept
        dump_decomposition(load_decomposition(wrong), found)
    else:
        counts = {k: int(v) for k, v in (item.split("=") for item in label.split(","))}
        assert forged["detail"] != data[json.dumps(counts, sort_keys=True)]["detail"]
        _forge(ckpt, counts, **forged)
    monkeypatch.setattr(driver, "_prepare", lambda *args: pytest.fail("a combo was encoded"))
    with pytest.raises(ValueError, match=f"^{re.escape(f'checkpoint combo {label}: {reason}')}$"):
        run_campaign(GroupId.CYCLIC, 2, 7, "true {cnf}", checkpoint_path=str(ckpt))


def test_campaign_checkpoint_holds_every_recorded_combo(tmp_path, monkeypatch):
    # There are at least two writes, one before any combo runs and one at
    # the end, and at most one more per combo.  Every write holds exactly
    # the statuses the campaign has recorded: the combos it shows finished
    # are ones that _prepare decided or _finish answered, and a later
    # write keeps every one an earlier write showed.
    finished = {}
    original_prepare, original_finish = driver._prepare, driver._finish

    def prepare(group, n, run):
        original_prepare(group, n, run)
        if run.answer is not None:
            finished[json.dumps(run.spec.counts_dict(), sort_keys=True)] = "unsat"

    def finish(group, n, run):
        state, detail = original_finish(group, n, run)
        finished[json.dumps(run.spec.counts_dict(), sort_keys=True)] = state
        return state, detail

    written = []
    original_write = driver.write_checkpoint

    def write(path, *args):
        original_write(path, *args)
        assert load_checkpoint(path) == checkpoint_to_json(*args)
        done = dict(finished)
        shown = {json.dumps(c["counts"], sort_keys=True): c["state"]
                 for c in load_checkpoint(path)["combos"] if c["state"] != "pending"}
        assert shown.items() <= done.items()
        assert not written or written[-1].items() <= shown.items()
        written.append(shown)

    monkeypatch.setattr(driver, "_prepare", prepare)
    monkeypatch.setattr(driver, "_finish", finish)
    monkeypatch.setattr(driver, "write_checkpoint", write)
    unsat = fake_solver(tmp_path, 'echo "s UNSATISFIABLE"\n')
    report = run_campaign(GroupId.CYCLIC, 2, 4, unsat, workers=2,
                          checkpoint_path=str(tmp_path / "ckpt.json"),
                          work_dir=str(tmp_path / "work"))
    assert report.verdict() == "ruled_out"
    assert 2 <= len(written) <= 1 + len(report.statuses) + 1
    assert written[0] == {} and written[-1] == finished
    assert len(finished) == len(report.statuses)


class _FakeClock:
    """driver.monotonic for campaigns of one worker in which encoding a
    combo advances it by that combo's step, every combo reaches its
    solver, and the loop sees a solver end only when it waits for one,
    which advances it by `solve`.  With one worker, the next combo is
    encoded while a combo's solver runs, and then waits for its slot: so
    every completion is handled alone, in order, once the next combo's
    encode has ended and `solve` has passed, and the last one once the
    loop ends."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def install(self, monkeypatch, steps, sat=None, solve=0.0):
        def prepare(group, n, run):
            self.now += steps[run.spec]

        def ended(sel, timeout, block):
            if not block:
                return []
            self.now += solve
            return original_ended(sel, timeout, block)

        def finish(group, n, run):
            assert run.answer == ("unsat", None)
            return ("sat", run.stem + ".json") if run.spec == sat else ("unsat", "")

        original_ended = driver._ended
        monkeypatch.setattr(driver, "_prepare", prepare)
        monkeypatch.setattr(driver, "_finish", finish)
        monkeypatch.setattr(driver, "_ended", ended)


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
    unsat = fake_solver(tmp_path, 'echo "s UNSATISFIABLE"\n')
    original_ended = driver._ended

    def campaign(steps, ckpt, sat=None):
        writes.clear()
        monkeypatch.setattr(driver, "_ended", original_ended)
        clock.install(monkeypatch, dict(zip(specs, steps)), sat)
        return run_campaign(GroupId.CYCLIC, 2, 4, unsat, workers=1,
                            checkpoint_path=str(tmp_path / ckpt),
                            work_dir=str(tmp_path / "work"))

    # All seven finish within 1 s of the first write: written at the end.
    assert campaign([0.1] * 7, "a.json").verdict() == "ruled_out"
    assert writes == ["ppppppp", "uuuuuuu"]
    # The second finishes 1 s after the first write, once the third is
    # encoded, and is written at once with the first; the other five
    # follow within 1 s of it.
    assert campaign([0.5, 0.25, 0.25] + [0.125] * 4, "b.json").verdict() == "ruled_out"
    assert writes == ["ppppppp", "uuppppp", "uuuuuuu"]
    # A sat is written at once.  It stops the solvers still running, whose
    # combos stay pending (see test_campaign_sat_short_circuit_with_two_workers),
    # so nothing changes after it: the end writes nothing, and neither
    # does a resume of the finished campaign.
    assert campaign([0.1] * 7, "c.json", sat=specs[2]).verdict() == "found"
    assert writes == ["ppppppp", "uuspppp"]
    # (This sat has no decomposition files for the resume to re-check.)
    monkeypatch.setattr(driver, "_recheck", lambda *args: None)
    assert campaign([0.1] * 7, "c.json").verdict() == "found"
    assert writes == ["uuspppp"]


def test_a_combo_records_its_encode_and_solver_time_without_its_wait(tmp_path, monkeypatch):
    # One worker, each solver 0.5 s: a combo is encoded while the one
    # before it solves, and then waits 0.5 s for the slot.  Its seconds
    # are its encode and its own solver run (through the next combo's
    # encode and 0.5 s more), never that wait.
    specs = enumerate_combos(GroupId.CYCLIC, 4)
    steps = [0.125 * (i + 1) for i in range(len(specs))]
    clock = _FakeClock()
    monkeypatch.setattr(driver, "monotonic", clock)
    clock.install(monkeypatch, dict(zip(specs, steps)), solve=0.5)
    report = run_campaign(GroupId.CYCLIC, 2, 4, fake_solver(tmp_path, 'echo "s UNSATISFIABLE"\n'),
                          workers=1, work_dir=str(tmp_path / "work"))
    assert report.verdict() == "ruled_out"
    assert [st.seconds for st in report.statuses] == \
        [step + after + 0.5 for step, after in zip(steps, steps[1:] + [0.0])]


def test_a_combo_is_encoded_before_it_waits_for_a_slot(tmp_path, monkeypatch):
    # cyc n=2 up to rank 6 with one worker: id=1,delta=3 is the first
    # combo to reach the solver, then the decided id=2,delta=0 and
    # id=0,delta=5, then id=1,delta=2.  The first solver exits only once
    # id=1,delta=2's CNF exists, copying the checkpoint (written after
    # every record here) as it does: both decided combos are recorded by
    # then, and the second solver combo's CNF is written while the first
    # solver runs.
    monkeypatch.setattr(driver, "CHECKPOINT_INTERVAL_S", 0.0)
    ckpt, work, snap = tmp_path / "ckpt.json", tmp_path / "work", tmp_path / "snap.json"
    solver = fake_solver(tmp_path, f"""case "$1" in
*/cyc-id=1,delta=3.cnf)
  i=0
  while [ ! -e {work}/cyc-id=1,delta=2.cnf ] && [ $i -lt 1000 ]; do sleep 0.01; i=$((i + 1)); done
  cp {ckpt} {snap} ;;
esac
echo "s UNSATISFIABLE"
""")
    report = run_campaign(GroupId.CYCLIC, 2, 6, solver, workers=1,
                          checkpoint_path=str(ckpt), work_dir=str(work))
    assert report.verdict() == "ruled_out"
    states = {json.dumps(c["counts"], sort_keys=True): (c["state"], c["detail"])
              for c in load_checkpoint(snap)["combos"]}
    assert states[json.dumps({"delta": 3, "id": 1})] == ("pending", "")
    for counts in ({"delta": 0, "id": 2}, {"delta": 5, "id": 0}):
        state, detail = states[json.dumps(counts, sort_keys=True)]
        assert (state, detail.endswith("no solver run")) == ("unsat", True)
    assert states[json.dumps({"delta": 2, "id": 1})] == ("pending", "")
    # The first solver did not wait out its 10 s for that CNF.
    assert report.statuses[1].seconds < 5


def _alive(pid: int) -> bool:
    """Whether a process with this pid exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _assert_gone(pids) -> None:
    """Within 10 s, no process whose pid the file pids lists is alive."""
    started = [int(p) for p in pids.read_text().split()]
    deadline = time.monotonic() + 10
    while any(map(_alive, started)) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert started and not any(map(_alive, started))


def _spawn_search(*args: str) -> subprocess.Popen:
    """`mmtsat search` with these arguments, in a process group of its own."""
    src = os.path.dirname(os.path.dirname(driver.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.Popen(
        [sys.executable, "-m", "mmtsat.cli", "search", *args],
        env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def _assert_only_finished_combos_keep_a_cnf(work, group: GroupId, combos) -> None:
    """Each checkpoint record of a finished combo with nonzero counts has
    exactly one CNF file in work, and a pending one has none."""
    names = []
    for c in combos:
        if c["state"] != "pending" and any(c["counts"].values()):
            label = ",".join(f"{k.tag}={c['counts'][k.tag]}" for k in orbit_kinds(group))
            names.append(f"{group.value}-{label}.cnf")
    assert sorted(p.name for p in work.glob("*.cnf")) == sorted(names)


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs POSIX process groups and /proc")
def test_killed_campaign_resumes_exactly_its_unfinished_combos(tmp_path, monkeypatch):
    # A campaign killed with its process group between two checkpoint
    # writes leaves no solver running, though the one it runs then, and
    # that solver's background child, would sleep 30 s.  Its resume runs
    # exactly the combos that the last checkpoint does not show finished,
    # keeps the others' records, and reaches the verdict of a campaign
    # never killed.  Up to rank 9, 10 combos reach the solver, 2 s of
    # slow solver runs, so a checkpoint is written while some are still
    # pending.
    (tmp_path / "slow").mkdir()
    (tmp_path / "fast").mkdir()
    pids, calls = tmp_path / "pids", tmp_path / "calls"
    hang, hung = tmp_path / "hang", tmp_path / "hung"
    slow = fake_solver(tmp_path / "slow", f"""echo $$ >> {pids}
if [ -e {hang} ]; then
  sleep 30 &
  echo $! >> {pids}
  : > {hung}
  wait
fi
sleep 0.2
echo "s UNSATISFIABLE"
""")
    fast = fake_solver(tmp_path / "fast", f'echo "$1" >> {calls}; echo "s UNSATISFIABLE"\n')
    ckpt, work = tmp_path / "ckpt.json", tmp_path / "work"
    proc = _spawn_search("--group", "cyc", "--n", "2", "--max-rank", "9", "--solver", slow,
                         "--checkpoint", str(ckpt), "--work-dir", str(work))

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
        hang.touch()
        while not hung.exists():
            assert proc.poll() is None, "the campaign ended before it was killed"
            assert time.monotonic() < deadline
            time.sleep(0.01)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(10)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(10)
    _assert_gone(pids)

    killed = {json.dumps(c["counts"], sort_keys=True): c
              for c in load_checkpoint(ckpt)["combos"]}
    unfinished = {k for k, c in killed.items() if c["state"] == "pending"}
    assert unfinished and len(unfinished) < len(killed)
    ran = []
    original_prepare = driver._prepare

    def prepare(group, n, run):
        ran.append(json.dumps(run.spec.counts_dict(), sort_keys=True))
        original_prepare(group, n, run)

    monkeypatch.setattr(driver, "_prepare", prepare)
    resumed = run_campaign(GroupId.CYCLIC, 2, 9, fast, checkpoint_path=str(ckpt),
                           work_dir=str(work))
    assert sorted(ran) == sorted(unfinished)
    # Neither rank 0 nor a combo that a span certificate (id=0) or a count
    # certificate (id=1 or id=2 alone) refutes runs a solver.
    assert len(calls.read_text().splitlines()) == sum(
        1 for k in unfinished if any(json.loads(k).values())
        and refute(GroupId.CYCLIC, 2, json.loads(k)) is None)
    for st in resumed.statuses:
        key = json.dumps(st.spec.counts_dict(), sort_keys=True)
        if key not in unfinished:
            assert driver._combo_record(st) == killed[key]
    whole = run_campaign(GroupId.CYCLIC, 2, 9, fast, work_dir=str(tmp_path / "whole"))
    assert resumed.verdict() == whole.verdict() == "ruled_out"
    assert [st.state for st in resumed.statuses] == [st.state for st in whole.statuses]
    assert load_checkpoint(ckpt) == checkpoint_to_json(GroupId.CYCLIC, 2, 9, resumed.statuses)


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs POSIX process groups and /proc")
def test_interrupted_campaign_stops_its_solvers_at_once(tmp_path):
    # A SIGINT to the campaign's process alone, while its two workers each
    # run a solver that waits for a background sleep of 30 s: the campaign
    # kills both solvers' process groups, so the sleeps too, and exits
    # within 3 s.  Its checkpoint shows only the combos that finished,
    # both killed combos among the pending ones, and no pending combo
    # keeps a CNF.
    pids = tmp_path / "pids"
    solver = fake_solver(tmp_path, f"echo $$ >> {pids}\nsleep 30 &\necho $! >> {pids}\nwait\n")
    ckpt, work = tmp_path / "ckpt.json", tmp_path / "work"
    proc = _spawn_search("--group", "cyc", "--n", "2", "--max-rank", "7", "--solver", solver,
                         "--workers", "2", "--checkpoint", str(ckpt), "--work-dir", str(work))
    try:
        deadline = time.monotonic() + 60
        started = []
        while len(started) < 4:
            assert proc.poll() is None, "the campaign ended before it was interrupted"
            assert time.monotonic() < deadline
            time.sleep(0.01)
            started = [int(p) for p in pids.read_text().split()] if pids.exists() else []
        os.kill(proc.pid, signal.SIGINT)
        sent = time.monotonic()
        proc.wait(10)
        assert time.monotonic() - sent < 3
        _assert_gone(pids)
    finally:
        with suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(10)
    assert proc.returncode != 0
    combos = load_checkpoint(ckpt)["combos"]
    finished = [c for c in combos if c["state"] != "pending"]
    assert finished and all(c["state"] == "unsat" and c["detail"].endswith("no solver run")
                            for c in finished)
    pending = {json.dumps(c["counts"], sort_keys=True) for c in combos
               if c["state"] == "pending"}
    assert {json.dumps({"delta": 4, "id": 1}), json.dumps({"delta": 1, "id": 2})} <= pending
    _assert_only_finished_combos_keep_a_cnf(work, GroupId.CYCLIC, combos)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_an_interrupted_campaign_stops_its_solvers_itself(tmp_path, monkeypatch):
    # The same interrupt in this process, which lives on, so `_guard`
    # never acts: the campaign's first solver combo, id=1,delta=4, waits
    # for a background sleep of 30 s, and a KeyboardInterrupt comes once
    # the second, id=2,delta=1, has written its CNF and the first has
    # recorded both pids.  The campaign itself kills the solver's group,
    # both combos stay pending without a CNF, and no fd stays open.
    pids = tmp_path / "pids"
    solver = fake_solver(tmp_path, f"echo $$ >> {pids}\nsleep 30 &\necho $! >> {pids}\nwait\n")
    original_prepare = driver._prepare

    def prepare(group, n, run):
        original_prepare(group, n, run)
        if run.spec.counts_dict() == {"id": 2, "delta": 1}:
            deadline = time.monotonic() + 10
            while not (pids.exists() and len(pids.read_text().split()) == 2):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            raise KeyboardInterrupt

    monkeypatch.setattr(driver, "_prepare", prepare)
    ckpt, work = tmp_path / "ckpt.json", tmp_path / "work"
    driver._guard()  # its pipe is opened once per process
    before = len(os.listdir("/proc/self/fd"))
    with pytest.raises(KeyboardInterrupt):
        run_campaign(GroupId.CYCLIC, 2, 7, solver, workers=2,
                     checkpoint_path=str(ckpt), work_dir=str(work))
    _assert_gone(pids)
    assert len(os.listdir("/proc/self/fd")) == before
    combos = load_checkpoint(ckpt)["combos"]
    states = {json.dumps(c["counts"], sort_keys=True): c["state"] for c in combos}
    assert states[json.dumps({"delta": 4, "id": 1})] == "pending"
    assert states[json.dumps({"delta": 1, "id": 2})] == "pending"
    _assert_only_finished_combos_keep_a_cnf(work, GroupId.CYCLIC, combos)


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs POSIX process groups and /proc")
def test_run_solver_timeout_leaves_no_process_behind(tmp_path):
    # The wrapper waits for its background sleep, so the solver times out
    # and that is its answer; its whole process group is killed, the sleep
    # with it.
    pids = tmp_path / "pids"
    solver = fake_solver(tmp_path, f"sleep 30 & echo $! >> {pids}; wait\n")
    assert run_solver(solver, str(tmp_path / "x.cnf"), 0.5) == ("timeout", "timeout after 0.5s")
    _assert_gone(pids)


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs POSIX process groups and /proc")
def test_a_timed_out_solver_leaves_no_process_behind(tmp_path):
    # A wrapper solver that starts a background sleep, writes the sleep's
    # pid to a file of its own and hangs on one combo: when that combo
    # times out, the campaign kills the wrapper's whole process group, so
    # the sleep is not left running.
    pids = tmp_path / "pids"
    solver = fake_solver(tmp_path, f"""case "$1" in
*/cyc-id=1,delta=4.cnf) sleep 30 & echo $! >> {pids}; wait ;;
*) echo "s UNSATISFIABLE" ;;
esac
""")
    proc = _spawn_search("--group", "cyc", "--n", "2", "--max-rank", "7", "--solver", solver,
                         "--workers", "2", "--timeout", "0.5", "--work-dir", str(tmp_path / "work"))
    try:
        proc.wait(60)
        _assert_gone(pids)  # before the campaign's own group is killed below
    finally:
        with suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(10)
    assert proc.returncode == EXIT_UNDETERMINED


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs POSIX process groups and /proc")
def test_a_run_ends_when_its_solver_exits(tmp_path):
    # The wrapper answers and exits, leaving a background sleep that holds
    # its stdout.  The run ends at the wrapper's exit, not at its deadline,
    # and the sleep is killed with the wrapper's process group.
    pids = tmp_path / "pids"
    solver = fake_solver(tmp_path, f'sleep 30 & echo $! >> {pids}; echo "s UNSATISFIABLE"\n')
    assert run_solver(solver, str(tmp_path / "x.cnf"), 5) == ("unsat", None)
    _assert_gone(pids)
    pids.unlink()
    started = time.monotonic()
    report = run_campaign(GroupId.CYCLIC, 2, 7, solver, workers=2, timeout=5,
                          work_dir=str(tmp_path / "work"))
    assert time.monotonic() - started < 3
    assert {st.state for st in report.statuses} == {"unsat"}
    assert len(pids.read_text().split()) == 5  # one per solver combo
    _assert_gone(pids)


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs POSIX process groups and /proc")
def test_a_solver_that_cannot_be_watched_is_stopped_and_recorded(tmp_path, monkeypatch):
    # pidfd_open fails once the solver has started: the solver is killed
    # and reaped before its combo, the one of cyc n=2 up to rank 4 that
    # reaches a solver, is recorded `error`.
    pids = tmp_path / "pids"

    def pidfd_open(pid, *args):
        with open(pids, "a") as fh:
            fh.write(f"{pid}\n")
        raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

    monkeypatch.setattr(os, "pidfd_open", pidfd_open)
    solver = fake_solver(tmp_path, "exec sleep 30\n")
    report = run_campaign(GroupId.CYCLIC, 2, 4, solver, timeout=10,
                          work_dir=str(tmp_path / "work"))
    _assert_gone(pids)
    errors = [st for st in report.statuses if st.state == "error"]
    assert [st.detail for st in errors] == [
        f"solver failed to run: [Errno {errno.EMFILE}] {os.strerror(errno.EMFILE)}"]
    assert {st.state for st in report.statuses if st not in errors} == {"unsat"}


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
@pytest.mark.parametrize("ending", ["unsat", "timeout", "sat", "soundness error"])
def test_a_campaign_leaves_no_fd_open(ending, tmp_path, monkeypatch):
    # A pidfd left open raises no ResourceWarning, so this counts this
    # process's fds around an in-process cyc n=2 campaign up to rank 7
    # with 2 workers.  Its first solver combo, id=1,delta=4, hangs but
    # under "unsat".  Its second, id=2,delta=1, gets Strassen's model
    # under "sat" and "soundness error"; under the latter, verify rejects
    # it.  Other solvers answer UNSAT.
    if ending == "soundness error":
        monkeypatch.setattr(driver, "verify", lambda d: False)
    model = tmp_path / "model.txt"
    model.write_text(f"s SATISFIABLE\nv {' '.join(map(str, strassen_literals()))} 0\n")
    cases = "*/cyc-id=1,delta=4.cnf) exec sleep 30 ;;\n" if ending != "unsat" else ""
    if ending in ("sat", "soundness error"):
        cases += f"*/cyc-id=2,delta=1.cnf) cat {model} ;;\n"
    solver = fake_solver(tmp_path, f'case "$1" in\n{cases}*) echo "s UNSATISFIABLE" ;;\nesac\n')
    driver._guard()  # its pipe is opened once per process
    before = len(os.listdir("/proc/self/fd"))
    try:
        report = run_campaign(GroupId.CYCLIC, 2, 7, solver, workers=2,
                              timeout=0.5 if ending == "timeout" else None,
                              work_dir=str(tmp_path / "work"))
    except EncoderSoundnessError:
        assert ending == "soundness error"
    else:
        assert report.verdict() == {"unsat": "ruled_out", "timeout": "undetermined",
                                    "sat": "found"}[ending]
    assert len(os.listdir("/proc/self/fd")) == before


@pytest.mark.parametrize("ending", ["sat", "soundness error"])
def test_only_finished_combos_keep_their_cnf(ending, tmp_path, monkeypatch):
    # A cyc n=2 campaign up to rank 7 with 2 workers.  Its second solver
    # combo, id=2,delta=1, gets Strassen's model, which under "soundness
    # error" verify rejects; the first, id=1,delta=4, answers UNSAT after
    # 1 s, so it is still running then.  After a sat or the raise, it is
    # killed and stays pending, and only finished combos keep their CNF.
    if ending != "sat":
        monkeypatch.setattr(driver, "verify", lambda d: False)
    model = tmp_path / "model.txt"
    model.write_text(f"s SATISFIABLE\nv {' '.join(map(str, strassen_literals()))} 0\n")
    solver = fake_solver(tmp_path, f"""case "$1" in
*/cyc-id=2,delta=1.cnf) cat {model} ;;
*/cyc-id=1,delta=4.cnf) sleep 1; echo "s UNSATISFIABLE" ;;
*) echo "s UNSATISFIABLE" ;;
esac
""")
    ckpt, work = tmp_path / "ckpt.json", tmp_path / "work"

    def campaign():
        return run_campaign(GroupId.CYCLIC, 2, 7, solver, workers=2,
                            checkpoint_path=str(ckpt), work_dir=str(work))

    if ending == "sat":
        report = campaign()
        assert report.verdict() == "found"
        assert report.decomposition_path == str(work / "cyc-id=2,delta=1.json")
    else:
        with pytest.raises(EncoderSoundnessError, match="id=2,delta=1"):
            campaign()
    combos = load_checkpoint(ckpt)["combos"]
    states = {json.dumps(c["counts"], sort_keys=True): c["state"] for c in combos}
    assert states[json.dumps({"delta": 4, "id": 1})] == "pending"
    _assert_only_finished_combos_keep_a_cnf(work, GroupId.CYCLIC, combos)


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs POSIX process groups and /proc")
def test_campaign_sat_short_circuit_with_two_workers(tmp_path, monkeypatch):
    # Every combo reaches the solver.  On the first combo it waits for a
    # background sleep of 30 s, recording both pids; on every other combo
    # it answers SAT once the first has started.  The sat stops the first
    # solver and its process group at once: its combo stays pending
    # without a CNF.
    specs = enumerate_combos(GroupId.CYCLIC, 7)
    first, winner = specs[0], specs[1]
    pids, running = tmp_path / "pids", tmp_path / "running"

    def prepare(group, n, run):
        open(run.stem + ".cnf", "w").close()

    def finish(group, n, run):
        return ("sat", "found.json") if run.answer[0] == "sat" else ("unsat", "")

    monkeypatch.setattr(driver, "_prepare", prepare)
    monkeypatch.setattr(driver, "_finish", finish)
    solver = fake_solver(tmp_path, f"""case "$1" in
*/cyc-{first.label()}.cnf)
  echo $$ >> {pids}
  sleep 30 &
  echo $! >> {pids}
  : > {running}
  wait ;;
*)
  i=0
  while [ ! -e {running} ] && [ $i -lt 1000 ]; do sleep 0.01; i=$((i + 1)); done
  echo "s SATISFIABLE" ;;
esac
""")
    ckpt, work = tmp_path / "ckpt.json", tmp_path / "work"
    started = time.monotonic()
    report = run_campaign(GroupId.CYCLIC, 2, 7, solver, workers=2,
                          checkpoint_path=str(ckpt), work_dir=str(work))
    assert time.monotonic() - started < 5
    _assert_gone(pids)
    assert report.verdict() == "found"
    assert report.decomposition_path == "found.json"
    assert {st.spec: st.state for st in report.statuses} == {
        **{spec: "pending" for spec in specs}, winner: "sat"}
    data = load_checkpoint(ckpt)
    assert data == checkpoint_to_json(GroupId.CYCLIC, 2, 7, report.statuses)
    _assert_only_finished_combos_keep_a_cnf(work, GroupId.CYCLIC, data["combos"])


@pytest.mark.parametrize("workers", [1, 4])
def test_campaign_stops_queued_combos_after_a_combo_raises(workers, tmp_path,
                                                           monkeypatch):
    # Every combo reaches the solver, and every model fails verification.
    calls = []

    def prepare(group, n, run):
        calls.append(run.spec)

    def finish(group, n, run):
        raise EncoderSoundnessError(f"combo {run.spec.label()}: wrong model")

    monkeypatch.setattr(driver, "_prepare", prepare)
    monkeypatch.setattr(driver, "_finish", finish)
    solver = fake_solver(tmp_path, 'echo "s SATISFIABLE"\n')
    with pytest.raises(EncoderSoundnessError):
        run_campaign(GroupId.CYCLIC, 2, 7, solver, workers=workers,
                     checkpoint_path=str(tmp_path / "ckpt.json"),
                     work_dir=str(tmp_path / "work"))
    # Only combos already running when the first one raised were encoded,
    # and the one encoded while they ran, which waited for a slot.
    assert 1 <= len(calls) <= workers + 1
    assert set(calls) == set(enumerate_combos(GroupId.CYCLIC, 7)[:len(calls)])
    states = {c["state"] for c in load_checkpoint(tmp_path / "ckpt.json")["combos"]}
    assert states == {"pending"}


def test_campaign_own_work_dir_keeps_only_the_found_pair(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    specs = enumerate_combos(GroupId.CYCLIC, 4)
    winner = None
    work_dirs = []

    def prepare(group, n, run):
        work_dirs.append(os.path.dirname(run.stem))
        open(run.stem + ".cnf", "w").close()

    def finish(group, n, run):
        if run.spec != winner:
            return "unsat", ""
        open(run.stem + ".json", "w").close()
        open(run.stem + ".json.sym", "w").close()
        return "sat", run.stem + ".json"

    monkeypatch.setattr(driver, "_prepare", prepare)
    monkeypatch.setattr(driver, "_finish", finish)
    solver = fake_solver(tmp_path, 'echo "s UNSATISFIABLE"\n')
    report = run_campaign(GroupId.CYCLIC, 2, 4, solver)
    assert report.verdict() == "ruled_out"
    assert len(set(work_dirs)) == 1 and not os.path.exists(work_dirs[0])

    winner = specs[-2]  # the last combo with rank > 0, so every combo runs
    work_dirs.clear()
    report = run_campaign(GroupId.CYCLIC, 2, 4, solver)
    assert report.verdict() == "found"
    found = os.path.join(work_dirs[0], f"cyc-{winner.label()}.json")
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

    def prepare(group, n, run):
        open(run.stem + ".cnf", "w").close()
        run.answer = ("unsat", "decided")

    def failing_write(path, *args):
        writes.append(path)
        if len(writes) > 1:  # the first write, before any combo, succeeds
            raise OSError("disk full")
        write_checkpoint(path, *args)

    monkeypatch.setattr(driver, "_prepare", prepare)
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
        raise AssertionError("no combo should be encoded on resume")

    monkeypatch.setattr(driver, "_prepare", boom)
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
