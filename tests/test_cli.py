import json

import pytest

from mmtsat.cli import main
from mmtsat.driver import ComboStatus, checkpoint_to_json, enumerate_combos
from mmtsat.span import refute
from mmtsat.symmetry import GroupId
from mmtsat.tensor import Decomposition, dump_decomposition, load_decomposition, verify

from conftest import SOLVER_CMD, fake_solver, requires_solver, strassen_literals


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["encode", "--group", "cyc"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_search_rejects_fewer_than_one_worker(tmp_path, capsys):
    ckpt = tmp_path / "ckpt.json"
    for workers in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--group", "cyc", "--n", "2", "--max-rank", "1",
                  "--solver", "true {cnf}", "--workers", workers,
                  "--checkpoint", str(ckpt), "--work-dir", str(tmp_path / "w")])
        assert exc.value.code == 2
        assert "--workers: must be at least 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [
    ["search", "--max-rank", "2"],
    ["solve-one", "--combo", "id=1"],
], ids=["search", "solve-one"])
def test_solving_commands_reject_a_timeout_that_is_not_positive(command, tmp_path, capsys):
    for timeout in ("0", "-1", "nan"):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--group", "none", "--n", "2", "--solver", "true {cnf}",
                            "--timeout", timeout, "--work-dir", str(tmp_path / "w")])
        assert exc.value.code == 2
        assert "--timeout: must be a positive number of seconds" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _first_record(data, **fields):
    # The checkpoint with its first record changed by fields (None drops one).
    rec = {k: v for k, v in {**data["combos"][0], **fields}.items() if v is not None}
    return {**data, "combos": [rec]}


@pytest.mark.parametrize("spoil,message", [
    (lambda data: [1, 2], "checkpoint: expected a JSON object, not list"),
    (lambda data: {**data, "combos": "x"}, "checkpoint combos: expected a JSON array, not str"),
    (lambda data: _first_record(data, seconds=None), "checkpoint combo 0: missing 'seconds'"),
    (lambda data: _first_record(data, state="bogus"), "checkpoint combo 0: unknown state 'bogus'"),
    (lambda data: _first_record(data, seconds=True),
     "checkpoint combo 0: seconds True is not a number"),
    (lambda data: _first_record(data, solver=1),
     "checkpoint combo 0: solver and detail must be strings"),
    (lambda data: _first_record(data, detail=["x.json"]),
     "checkpoint combo 0: solver and detail must be strings"),
], ids=["array", "combos string", "no seconds", "bogus state", "bool seconds",
        "int solver", "list detail"])
def test_search_rejects_a_malformed_checkpoint(spoil, message, tmp_path, capsys):
    specs = enumerate_combos(GroupId.CYCLIC, 2)
    statuses = [ComboStatus(spec, "unsat", 0.5, "true {cnf}") for spec in specs]
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(json.dumps(spoil(checkpoint_to_json(GroupId.CYCLIC, 2, 2, statuses))))
    before = ckpt.read_bytes()
    assert main(["search", "--group", "cyc", "--n", "2", "--max-rank", "2",
                 "--solver", "true {cnf}", "--checkpoint", str(ckpt),
                 "--work-dir", str(tmp_path / "w")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert ckpt.read_bytes() == before


def test_domain_errors_exit_1(tmp_path, capsys):
    assert main(["encode", "--group", "octahedral", "--n", "2",
                 "--combo", "id=1", "--out", "/dev/null"]) == 1
    assert main(["encode", "--group", "cyc", "--n", "2",
                 "--combo", "t=1", "--out", "/dev/null"]) == 1
    assert main(["verify", "/nonexistent/file.json"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    # A kind given twice is not silently the last count.
    out = tmp_path / "twice.cnf"
    assert main(["encode", "--group", "cyc", "--n", "2",
                 "--combo", "id=1,id=2", "--out", str(out)]) == 1
    assert "repeats kind 'id'" in capsys.readouterr().err
    # A count is ASCII digits: a superscript two is not one, nor is an
    # Arabic-Indic one read as 1.
    for combo in ("id=²", "id=١"):
        assert main(["encode", "--group", "cyc", "--n", "2",
                     "--combo", combo, "--out", str(out)]) == 1
        assert f"error: bad combo entry {combo!r}; known kinds: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["encode", "--out"],
    ["solve-one", "--solver", "true {cnf}", "--work-dir"],
], ids=["encode", "solve-one"])
def test_combo_above_the_standard_rank_is_rejected_before_any_orbit_is_built(
        command, tmp_path, capsys, monkeypatch):
    # A total rank above n^3 is never needed, and a huge count would
    # build orbits until memory runs out: it is an error before any
    # orbit is built, and nothing is written.
    from mmtsat import encoder

    def build(*args):
        raise AssertionError("an orbit was built")

    monkeypatch.setattr(encoder, "build_symbolic_orbits", build)
    out = tmp_path / "x"
    assert main([*command, str(out), "--group", "cyc", "--n", "2",
                 "--combo", "id=3,delta=100000"]) == 1
    assert capsys.readouterr().err == ("error: combo of total rank 100009 exceeds "
                                       "n^3 = 8, the rank of the standard algorithm\n")
    assert list(tmp_path.iterdir()) == []


def test_combo_of_the_standard_rank_is_encoded(tmp_path):
    out = tmp_path / "x.cnf"
    assert main(["encode", "--group", "cyc", "--n", "2", "--combo", "id=2,delta=2",
                 "--out", str(out)]) == 0
    assert "combo=delta=2,id=2 rank=8\n" in out.read_text()


@pytest.mark.parametrize("command", [
    ["encode", "--combo", "id=1", "--out"],
    ["solve-one", "--solver", "true {cnf}", "--combo", "id=1", "--work-dir"],
    ["search", "--solver", "true {cnf}", "--max-rank", "1", "--work-dir"],
], ids=["encode", "solve-one", "search"])
def test_commands_reject_nonsense_bounds(command, tmp_path, capsys):
    # A dimension below 1 or a negative rank bound is a usage error; a
    # dimension past the encoder's range stays a domain error.
    cases = [("--n", "0", "must be at least 1"), ("--n", "-1", "must be at least 1")]
    if command[0] == "search":
        cases.append(("--max-rank", "-1", "must be at least 0"))
    for option, value, message in cases:
        args = [*command, str(tmp_path / "w"), "--group", "cyc", "--n", "2", option, value]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert f"{option}: {message}, got {value}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert main([*command, str(tmp_path / "w"), "--group", "cyc", "--n", "5"]) == 1
    assert "error:" in capsys.readouterr().err


def test_encode_rejects_an_n_the_group_is_not_defined_at(capsys):
    assert main(["encode", "--group", "cyc-sw", "--n", "2",
                 "--combo", "id=1", "--out", "/dev/null"]) == 1
    assert "only defined for n = 3" in capsys.readouterr().err


@pytest.mark.parametrize("command,message", [
    (["search", "--group", "cyc", "--n", "5", "--max-rank", "0"], "n = 5 out of range 1..4"),
    (["search", "--group", "cyc-sw", "--n", "2", "--max-rank", "3"],
     "group cyc-sw is only defined for n = 3"),
    (["solve-one", "--group", "cyc-sw", "--n", "2", "--combo", "delta=0"],
     "group cyc-sw is only defined for n = 3"),
], ids=["search out of range", "search not defined", "solve-one not defined"])
def test_solving_commands_reject_an_n_the_group_is_not_defined_at(command, message,
                                                                  tmp_path, capsys):
    # Before the rank-0 shortcut, and before a checkpoint or a work dir
    # is written: a later valid campaign at the same checkpoint path runs.
    if command[0] == "search":
        command = [*command, "--checkpoint", str(tmp_path / "ckpt.json")]
    assert main([*command, "--solver", "true {cnf}", "--work-dir", str(tmp_path / "w")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_encode_writes_dimacs_with_its_legend(tmp_path, capsys):
    out = tmp_path / "inst.cnf"
    rc = main(["encode", "--group", "cyc", "--n", "2", "--combo",
               "id=2,delta=1", "--out", str(out), "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["vars"] > 0 and payload["clauses"] > 0
    text = out.read_text()
    assert text.startswith("c mmtsat group=cyc")
    assert "p cnf" in text
    assert "c aux vars start at 29\n" in text  # 2*12 id vars + 4 delta vars, then aux


def test_encode_byte_identical_across_runs(tmp_path, capsys):
    # An empty combo entry, as after a trailing comma, is skipped.
    paths = []
    for tag, combo in (("a", "t=1,full=1"), ("b", "t=1,full=1"), ("c", "t=1,full=1,")):
        out = tmp_path / f"{tag}.cnf"
        assert main(["encode", "--group", "cyc-t", "--n", "3", "--combo",
                     combo, "--out", str(out)]) == 0
        paths.append(out.read_bytes())
    assert paths[0] == paths[1] == paths[2]
    capsys.readouterr()


def test_verify_command(strassen, tmp_path, capsys):
    path = tmp_path / "strassen.json"
    dump_decomposition(strassen, path)
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "valid rank-7 decomposition of <2,2,2>" in out
    assert main(["verify", str(path), "--group", "cyc", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"valid": True, "rank": 7, "n": 2, "k": 2, "m": 2,
                       "symmetric": True}
    # One triplet listed twice cancels, so the rank-9 list is valid, but
    # the cyc rotation does not keep its multiset.
    path = tmp_path / "nine.json"
    dump_decomposition(Decomposition(2, 2, 2, strassen.triplets + strassen.triplets[1:2] * 2),
                       path)
    assert main(["verify", str(path), "--group", "cyc"]) == 1
    assert capsys.readouterr().out == ("valid rank-9 decomposition of <2,2,2>, "
                                       "but NOT cyc-symmetric\n")
    assert main(["verify", str(path), "--group", "cyc", "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {"valid": True, "rank": 9, "n": 2, "k": 2,
                                                   "m": 2, "symmetric": False}


def test_verify_rejects_broken_file(strassen, tmp_path, capsys):
    from mmtsat.tensor import Decomposition
    broken = Decomposition(2, 2, 2, strassen.triplets[:6])
    path = tmp_path / "broken.json"
    dump_decomposition(broken, path)
    assert main(["verify", str(path)]) == 1
    assert "INVALID" in capsys.readouterr().out
    # An unknown --group is named even though the file is invalid.
    assert main(["verify", str(path), "--group", "cyc-x"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unknown group 'cyc-x'; expected one of ")


_ROWS = [[1, 0], [0, 1]]
_TRIPLET = {"A": _ROWS, "B": _ROWS, "C": _ROWS}


@pytest.mark.parametrize("command,obj", [
    ("verify", {"n": 2, "k": 2, "m": 2,
                "triplets": [dict(_TRIPLET, A=[[1.0, 0], [0, 1]])]}),
    ("verify", {"n": 2, "k": 2, "m": 2,
                "triplets": [dict(_TRIPLET, A=[[True, 0], [0, 1]])]}),
    ("verify", [_TRIPLET]),
    ("verify", {"n": 2, "k": 2, "m": 2}),
    ("verify", {"n": 2.0, "k": 2, "m": 2, "triplets": [_TRIPLET]}),
    ("verify", {"n": 2, "k": 2, "m": 2, "triplets": 5}),
    ("verify", {"n": 2, "k": 2, "m": 2, "triplets": [[_ROWS, _ROWS, _ROWS]]}),
    ("verify", {"n": 2, "k": 2, "m": 2, "triplets": [{"A": _ROWS}]}),
    ("canonicalize", [["10;01"]]),
    ("canonicalize", {"group": "cyc", "n": 2}),
    ("canonicalize", {"group": "cyc", "n": 2, "orbits": []}),
    ("canonicalize", {"group": "cyc", "n": 2, "orbits": {"delta": ["10;01"]}}),
    ("canonicalize", {"group": "cyc", "n": 2, "orbits": {"delta": [[5]]}}),
    ("canonicalize", {"group": "cyc", "n": 5,
                      "orbits": {"delta": [["10000;01000;00100;00010;00001"]]}}),
    ("canonicalize", {"group": "cyc-sw", "n": -4, "orbits": {}}),
    ("canonicalize", {"group": "cyc-sw", "n": 2, "orbits": {}}),
    ("verify", {"n": 2, "k": 2, "m": 2, "triplets": [dict(_TRIPLET, A=[])]}),
])
def test_malformed_json_is_an_error_not_a_crash(command, obj, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_canonicalize_command(tmp_path, capsys):
    src = tmp_path / "sd.json"
    src.write_text(json.dumps({
        "group": "cyc", "n": 2,
        "orbits": {"id": [["10;00", "01;00", "00;10"],
                          ["10;00", "01;00", "00;10"]],
                   "delta": [["10;01"]]},
    }))
    out = tmp_path / "canon.json"
    assert main(["canonicalize", str(src), "--out", str(out)]) == 0
    capsys.readouterr()
    canon = json.loads(out.read_text())
    # The duplicated id orbits cancel; only the delta orbit remains.
    assert canon["orbits"]["id"] == []
    assert canon["orbits"]["delta"] == [["10;01"]]
    # Without --out the canonical form is printed, its keys sorted.
    assert main(["canonicalize", str(src)]) == 0
    assert capsys.readouterr().out == json.dumps(canon, sort_keys=True) + "\n"


def test_brute_command(capsys):
    assert main(["brute", "--n", "2", "--k", "1", "--m", "2",
                 "--max-rank", "4", "--json"]) == 10
    assert json.loads(capsys.readouterr().out) == {"state": "found", "rank": 4}
    assert main(["brute", "--n", "2", "--k", "1", "--m", "2",
                 "--max-rank", "3"]) == 0
    assert "no decomposition" in capsys.readouterr().out
    assert main(["brute", "--n", "2", "--k", "2", "--m", "2",
                 "--max-rank", "7", "--nodes", "10"]) == 20
    capsys.readouterr()


@pytest.mark.parametrize("option,value,message", [
    ("--nodes", "0", "must be at least 1"),
    ("--nodes", "-5", "must be at least 1"),
    ("--max-rank", "-1", "must be at least 0"),
    ("--n", "-1", "must be at least 1"),
    ("--k", "0", "must be at least 1"),
    ("--m", "-2", "must be at least 1"),
])
def test_brute_rejects_nonsense_bounds(option, value, message, capsys):
    # A node limit below 1 cannot bound a search, a negative rank bound
    # admits nothing and a dimension below 1 has no matrices: usage
    # errors, not a "budget exceeded", a "ruled out" or an oracle error.
    args = {"--n": "2", "--k": "2", "--m": "2", "--max-rank": "3", "--nodes": "100",
            option: value}
    with pytest.raises(SystemExit) as exc:
        main(["brute", *(x for kv in args.items() for x in kv)])
    assert exc.value.code == 2
    assert f"{option}: {message}, got {value}" in capsys.readouterr().err


def test_solver_resolution_precedence(tmp_path, capsys, monkeypatch):
    # No flag, config, or environment: domain error.
    monkeypatch.delenv("MMTSAT_SOLVER", raising=False)
    assert main(["solve-one", "--group", "cyc", "--n", "2",
                 "--combo", "id=1,delta=1", "--work-dir", str(tmp_path)]) == 1
    assert "no solver configured" in capsys.readouterr().err
    # Config file beats the environment; a bogus env solver must not run.
    # cyc n=2 id=1,delta=1 reaches a solver: no span or count certificate
    # refutes it (a count certificate refutes id=1 alone).
    monkeypatch.setenv("MMTSAT_SOLVER", "/nonexistent/env-solver {cnf}")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solver": "/nonexistent/config-solver {cnf}"}))
    assert main(["solve-one", "--group", "cyc", "--n", "2",
                 "--combo", "id=1,delta=1", "--work-dir", str(tmp_path),
                 "--config", str(cfg), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert "config-solver" in payload["detail"]
    # The flag beats both.
    assert main(["solve-one", "--group", "cyc", "--n", "2",
                 "--combo", "id=1,delta=1", "--work-dir", str(tmp_path),
                 "--solver", "/nonexistent/flag-solver {cnf}", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert "flag-solver" in payload["detail"]


@pytest.mark.parametrize("config,message", [
    ("[1]", "expected a JSON object, not list"),
    ('{"solver": 5}', '"solver" must be a string, not int'),
    ('{"solver": "minisat"}', "must contain the {cnf} placeholder"),
], ids=["not an object", "solver not a string", "no placeholder"])
@pytest.mark.parametrize("command", [
    ["search", "--max-rank", "2"],
    ["solve-one", "--combo", "id=1"],
], ids=["search", "solve-one"])
def test_bad_config_file_exits_1_before_any_encoding(config, message, command,
                                                      tmp_path, capsys, monkeypatch):
    from mmtsat import driver

    def encode(*args):
        raise AssertionError("a combo was encoded")

    monkeypatch.setattr(driver, "encode", encode)
    monkeypatch.delenv("MMTSAT_SOLVER", raising=False)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    assert main([*command, "--group", "cyc", "--n", "2", "--config", str(cfg),
                 "--work-dir", str(tmp_path / "w")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize("command", [
    ["search", "--max-rank", "3"],
    ["solve-one", "--combo", "id=1"],
], ids=["search", "solve-one"])
def test_unparsable_solver_exits_1_before_any_encoding(command, tmp_path, capsys,
                                                      monkeypatch):
    from mmtsat import driver

    def encode(*args):
        raise AssertionError("a combo was encoded")

    monkeypatch.setattr(driver, "encode", encode)
    work = tmp_path / "w"
    assert main([*command, "--group", "cyc", "--n", "2",
                 "--solver", "sh -c 'echo {cnf}", "--work-dir", str(work)]) == 1
    err = capsys.readouterr().err
    assert err == "error: solver command \"sh -c 'echo {cnf}\": No closing quotation\n"
    assert not work.exists()


@pytest.mark.parametrize("combo,detail", [
    ("id=0,delta=6", "empty clause: " + refute(GroupId.CYCLIC, 2, {"delta": 6}).detail
     + ", no solver run"),
    ("id=0,delta=0", "rank 0: empty decomposition, no solver run"),
    ("id=1,delta=1", ""),
], ids=["refuted", "rank 0", "solved"])
def test_solve_one_says_why_a_combo_decided_without_a_solver_is_unsat(combo, detail, tmp_path,
                                                                       capsys):
    # cyc n=2 id=0,delta=6 lacks the id kind, so the span rule refutes it;
    # a combo decided without a solver prints its detail after UNSAT, and
    # one the solver decides a bare UNSAT.  --json is unchanged.
    args = ["solve-one", "--group", "cyc", "--n", "2", "--combo", combo,
            "--solver", "echo s UNSATISFIABLE {cnf}", "--work-dir", str(tmp_path)]
    assert main(args) == 0
    assert capsys.readouterr().out == (f"UNSAT: {detail}\n" if detail else "UNSAT\n")
    assert main(args + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["state"], payload["detail"]) == ("unsat", detail)


@requires_solver
def test_solve_one_exit_codes(tmp_path, capsys):
    rc = main(["solve-one", "--group", "cyc", "--n", "2", "--combo",
               "id=0,delta=6", "--solver", SOLVER_CMD,
               "--work-dir", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().out.startswith("UNSAT: empty clause: ")
    rc = main(["solve-one", "--group", "cyc", "--n", "2", "--combo",
               "id=2,delta=1", "--solver", SOLVER_CMD,
               "--work-dir", str(tmp_path), "--json"])
    assert rc == 10
    payload = json.loads(capsys.readouterr().out)
    assert payload["state"] == "sat"
    d = load_decomposition(payload["detail"])
    assert verify(d) and d.rank == 7


@requires_solver
def test_search_exit_codes_and_json_parity(tmp_path, capsys):
    args = ["search", "--group", "cyc", "--n", "2", "--max-rank", "4",
            "--solver", SOLVER_CMD, "--work-dir", str(tmp_path / "w1")]
    assert main(args) == 0
    human = capsys.readouterr().out
    assert "no decompositions" in human
    assert main(args + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "ruled_out"
    rc = main(["search", "--group", "cyc", "--n", "2", "--max-rank", "7",
               "--solver", SOLVER_CMD, "--work-dir", str(tmp_path / "w2"),
               "--json"])
    assert rc == 10
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "found"
    assert verify(load_decomposition(payload["decomposition"]))


def _strassen_solver(tmp_path, hang: bool) -> str:
    """A solver that answers UNSAT but on cyc n=2 id=2,delta=1, where it
    hangs, or answers Strassen's model."""
    model = tmp_path / "model.txt"
    model.write_text(f"s SATISFIABLE\nv {' '.join(map(str, strassen_literals()))} 0\n")
    reply = "exec sleep 30" if hang else f"cat {model}"
    return fake_solver(tmp_path, f'case "$1" in\n*/cyc-id=2,delta=1.cnf) {reply} ;;\n'
                                 '*) echo "s UNSATISFIABLE" ;;\nesac\n')


@pytest.mark.parametrize("case", ["sat", "timeout", "error"])
def test_solve_one_exit_codes_without_a_solver_on_path(case, tmp_path, capsys):
    # Each state the exit table maps for solve-one, on cyc n=2
    # id=2,delta=1, with the line it prints and the same state and detail
    # under --json: Strassen's model replayed (10), a hang under --timeout
    # 0.5 (20) and a missing binary (1).
    solver = ("/nonexistent/solver {cnf}" if case == "error"
              else _strassen_solver(tmp_path, hang=case == "timeout"))
    work = tmp_path / "work"
    args = ["solve-one", "--group", "cyc", "--n", "2", "--combo", "id=2,delta=1",
            "--solver", solver, "--timeout", "0.5", "--work-dir", str(work)]
    rc = {"sat": 10, "timeout": 20, "error": 1}[case]
    assert main(args) == rc
    line = capsys.readouterr().out
    assert main(args + ["--json"]) == rc
    payload = json.loads(capsys.readouterr().out)
    assert payload["state"] == case
    if case == "sat":
        assert payload["detail"] == str(work / "cyc-id=2,delta=1.json")
        assert line == f"SAT: decomposition written to {payload['detail']}\n"
        d = load_decomposition(payload["detail"])
        assert verify(d) and d.rank == 7
    elif case == "timeout":
        assert payload["detail"] == "timeout after 0.5s"
        assert line == "timeout: timeout after 0.5s\n"
    else:
        assert payload["detail"].startswith("solver failed to run: ")
        assert "/nonexistent/solver" in payload["detail"]
        assert line == f"error: {payload['detail']}\n"


@pytest.mark.parametrize("verdict", ["found", "ruled_out", "undetermined"])
def test_search_exit_codes_without_a_solver_on_path(verdict, tmp_path, capsys):
    # Each verdict the exit table maps for search, on cyc n=2: up to rank
    # 7 Strassen's model is found (10), up to rank 6 every combo is UNSAT
    # (0), and up to rank 7 with id=2,delta=1 hanging under --timeout 0.5
    # the campaign is undetermined (20).  --json gives the same exit code
    # and verdict as the table.
    solver = _strassen_solver(tmp_path, hang=verdict == "undetermined")
    claims = {"found": "decomposition found: ", "ruled_out": "no decompositions of <2,2,2>",
              "undetermined": "undetermined (timeouts or errors remain)"}
    rc = {"found": 10, "ruled_out": 0, "undetermined": 20}[verdict]
    for i, json_flag in enumerate([[], ["--json"]]):
        args = ["search", "--group", "cyc", "--n", "2",
                "--max-rank", "6" if verdict == "ruled_out" else "7", "--solver", solver,
                "--timeout", "0.5", "--work-dir", str(tmp_path / f"w{i}"), *json_flag]
        assert main(args) == rc
        out = capsys.readouterr().out
        if json_flag:
            payload = json.loads(out)
            assert payload["verdict"] == verdict
        else:
            assert claims[verdict] in out.splitlines()[1]
    if verdict == "found":
        assert payload["decomposition"] == str(tmp_path / "w1" / "cyc-id=2,delta=1.json")
        assert verify(load_decomposition(payload["decomposition"]))
