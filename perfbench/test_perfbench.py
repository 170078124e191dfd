"""Self-tests of the benchmark: stubs, model check, tracing and smoke runs.

    python3 -m pytest -q perfbench
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from mmtsat.boolexpr import CnfInstance  # noqa: E402
from mmtsat.driver import parse_solver_output, run_solver  # noqa: E402
from mmtsat.encoder import decode, encode  # noqa: E402
from mmtsat.tensor import verify  # noqa: E402

import modelcheck  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


@pytest.fixture(params=[0, 1, 2])
def seed(request):
    return request.param


def _run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_unsat_stub_parses_unsat(tmp_path):
    solver, sd = worker.write_stubs(str(tmp_path), 0, replay=False)
    assert sd is None
    cnf = tmp_path / "x.cnf"
    cnf.write_text("p cnf 1 1\n1 0\n")
    assert run_solver(solver, str(cnf), 10) == ("unsat", None)


def test_replay_stub_answers_sat_on_exactly_its_combo(tmp_path, seed):
    solver, sd = worker.write_stubs(str(tmp_path), seed, replay=True)
    cnf, varmap = encode(worker.REPLAY_GROUP, worker.REPLAY_N, worker.REPLAY_COMBO)
    path = tmp_path / "sat.cnf"
    cnf.write(path)
    state, model = run_solver(solver, str(path), 10)
    assert state == "sat"
    assert len(model) == cnf.num_vars
    got, d = decode(model, varmap, worker.REPLAY_GROUP, worker.REPLAY_N)
    assert verify(d) and got == sd

    other = dict(worker.REPLAY_COMBO, t=1, full=4)
    cnf2, _ = encode(worker.REPLAY_GROUP, worker.REPLAY_N, other)
    cnf2.write(path)
    assert run_solver(solver, str(path), 10) == ("unsat", None)
    with open(tmp_path / "model.txt") as fh:
        assert parse_solver_output(fh.read())[0] == "sat"


@pytest.mark.parametrize("group,n,base", [k for k in modelcheck.KNOWN if k[1] == 2],
                         ids=lambda v: getattr(v, "value", None))
def test_model_check_accepts_known_n2(group, n, base, seed):
    rng = random.Random(seed)
    modelcheck.check_known(modelcheck.known_symmetric(group, n, base, rng), rng)


def test_conjugators_keep_symmetry_for_every_group():
    for group, n, base in modelcheck.KNOWN:
        qs = modelcheck.conjugators(group, n)
        assert qs
        sd = modelcheck.to_symmetric(modelcheck.conjugate_decomposition(base, qs[-1]),
                                     group)
        assert sd.total_rank() == base.rank


def _known_n2(group_value):
    group, n, base = next(k for k in modelcheck.KNOWN
                          if k[0].value == group_value and k[1] == 2)
    return modelcheck.known_symmetric(group, n, base, random.Random(0))


@pytest.mark.parametrize("group_value", ["none", "cyc", "cyc-t"])
def test_model_check_rejects_cnf_without_tensor_equations(group_value):
    sd = _known_n2(group_value)
    cnf, varmap = encode(sd.group, sd.n, sd.counts())
    # The tensor equations come first; the first clause after them is the
    # non-zero clause over the first representative's primaries.
    first = min(varmap.primary, key=lambda e: e.var)
    nonzero = [e.var for e in varmap.primary
               if (e.orbit, e.index) == (first.orbit, first.index)]
    cut = cnf.clauses.index(tuple(nonzero))
    assert cut > 0
    doctored = CnfInstance(cnf.num_vars, cnf.clauses[cut:], cnf.comments)
    with pytest.raises(modelcheck.ModelCheckError):
        modelcheck.check_known(sd, random.Random(0), doctored, varmap)


@pytest.mark.parametrize("group_value", ["none", "cyc", "cyc-t"])
def test_model_check_rejects_flipped_model(group_value):
    sd = _known_n2(group_value)
    cnf, varmap = encode(sd.group, sd.n, sd.counts())
    prop = modelcheck.Propagator(cnf.num_vars, cnf.clauses)
    fixed = modelcheck.fixed_primaries(sd, varmap)
    model = modelcheck.full_model(prop, fixed)
    modelcheck.check_model(cnf.clauses, model)
    var = varmap.primary[0].var
    with pytest.raises(modelcheck.ModelCheckError):
        modelcheck.full_model(prop, {**fixed, var: not fixed[var]})
    flipped = [-lit if abs(lit) == var else lit for lit in model]
    with pytest.raises(modelcheck.ModelCheckError):
        modelcheck.check_model(cnf.clauses, flipped)


def test_propagator_finds_units_and_conflicts():
    prop = modelcheck.Propagator(3, [(1, 2), (-2, 3), (-1, -1), (3, -3)])
    val, conflict = prop.run({})
    assert conflict is None and val[1:] == [-1, 1, 1]
    assert prop.run({3: False})[1] is not None
    assert modelcheck.Propagator(1, [()]).run({})[1] == "empty clause"


def test_tracer_self_time_and_coverage():
    tr = tracing.Tracer()
    S = tracing.Span
    tr.spans = [
        S(1, tracing.COMBO, "id=1", None, 1, 0.0, 10.0, 10.0, "unsat"),
        S(2, "encoder.encode", "id=1", 1, 1, 1.0, 5.0, 3.0),
        S(3, "encoder.orbits", "id=1", 2, 1, 1.0, 2.0, 1.0),
        S(4, "driver.checkpoint", "campaign", None, 2, 4.0, 7.0, 1.0),
        S(5, tracing.COMBO, "id=2", None, 1, 10.0, 11.0, 1.0, "sat"),
        S(6, tracing.COMBO, "id=3", None, 2, 7.0, 12.0, 1.0, "unsat"),
    ]
    out = tr.summary(0.0, 20.0)
    assert out["encoder.encode.wall_s"] == 3.0
    assert out["encoder.encode.cpu_s"] == 2.0
    assert out["encoder.encode.wait_s"] == 1.0
    assert out["encoder.orbits.calls"] == 1
    assert out["driver.self_s"] == 20.0 - 6.0  # layers cover [1, 7]
    assert out["driver.combos_run"] == 3
    assert out["driver.combos_after_sat"] == 1


def test_tracer_restores_wrapped_functions():
    from mmtsat import driver

    original = driver.encode
    tr = tracing.Tracer()
    tr.install()
    assert driver.encode is not original
    tr.uninstall()
    assert driver.encode is original


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.PER_LAYER
    assert max(m["bound"] for m in bench["end_to_end"]) == next(
        m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_runs_every_workload(trace):
    proc = _run_bench("--smoke", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    units = run.END_TO_END if trace == "0" else tracing.PER_LAYER
    for name in run.WORKLOADS:
        assert f"# {name}: ok;" in proc.stdout
        for metric, unit in units.items():
            assert any(line.startswith(f"{name} {metric} ") and line.endswith(f" {unit}")
                       for line in lines), (name, metric)


def test_single_workload_prints_contract_json():
    proc = _run_bench("--workload", "t2-found", "--seed", "4", "--seconds", "1",
                      "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run_bench("--workload", "sw3-unsat", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
