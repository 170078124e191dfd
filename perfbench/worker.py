"""One fresh benchmark process: set up, then run campaigns in a closed loop.

Invoked by run.py as `python3 worker.py '<json spec>'`.  Set-up imports
mmtsat, writes the stub solvers and, for a replay workload, builds the
replay model; the process then prints "ready".  With a positive
`seconds` in the spec it runs one `mmtsat search` campaign after another
through mmtsat.cli.main until that much time has passed, checks every
campaign's outputs outside the timed region, and prints one JSON result
line.  With `trace` set, untraced and traced campaigns alternate.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import shlex
import shutil
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))

from mmtsat import cli  # noqa: E402
from mmtsat.canonical import check_canonical, load_symmetric, symmetric_to_json  # noqa: E402
from mmtsat.driver import enumerate_combos  # noqa: E402
from mmtsat.encoder import encode  # noqa: E402
from mmtsat.symmetry import GroupId, is_group_symmetric  # noqa: E402
from mmtsat.tensor import load_decomposition, verify  # noqa: E402

import modelcheck  # noqa: E402
import tracing  # noqa: E402
from calibrate import reference_work  # noqa: E402

# The one combo the replay stub answers SAT on, and the known
# decomposition it replays (Strassen mod 2 lands in exactly this combo).
REPLAY_GROUP = GroupId.CYCLIC_TRANSPOSE
REPLAY_N = 2
REPLAY_COMBO = {"id": 0, "t": 2, "delta": 0, "full": 1}


class CheckFailed(AssertionError):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# -- set-up ------------------------------------------------------------------


def replay_decomposition(seed: int):
    """The seed-chosen canonical Strassen conjugate the replay stub answers."""
    sd = modelcheck.known_symmetric(REPLAY_GROUP, REPLAY_N, modelcheck.STRASSEN_MOD2,
                                    random.Random(f"{seed}-replay"))
    _require(sd.counts() == REPLAY_COMBO,
             f"replayed decomposition lands in {sd.counts()}, not {REPLAY_COMBO}")
    return sd


def write_stubs(stub_dir: str, seed: int, replay: bool):
    """Write the stub solver for this workload.

    Returns its {cnf} command template and, for the replay stub, the
    decomposition it replays (None for the instant-UNSAT stub).
    """
    os.makedirs(stub_dir, exist_ok=True)
    path = os.path.join(stub_dir, "replay.sh" if replay else "unsat.sh")
    sd = None
    if replay:
        sd = replay_decomposition(seed)
        cnf, varmap = encode(REPLAY_GROUP, REPLAY_N, sd.counts())
        prop = modelcheck.Propagator(cnf.num_vars, cnf.clauses)
        model = modelcheck.full_model(prop, modelcheck.fixed_primaries(sd, varmap))
        model_path = os.path.join(stub_dir, "model.txt")
        with open(model_path, "w") as fh:
            fh.write("s SATISFIABLE\n")
            for i in range(0, len(model), 20):
                fh.write("v " + " ".join(map(str, model[i:i + 20])) + "\n")
            fh.write("v 0\n")
        header = "c " + cnf.comments[0]
        script = ("#!/bin/sh\n"
                  'IFS= read -r header < "$1"\n'
                  f'if [ "$header" = {shlex.quote(header)} ]; then\n'
                  f"  cat {shlex.quote(model_path)}\n"
                  "else\n"
                  "  echo 's UNSATISFIABLE'\n"
                  "fi\n")
    else:
        script = "#!/bin/sh\necho 's UNSATISFIABLE'\n"
    with open(path, "w") as fh:
        fh.write(script)
    os.chmod(path, 0o755)
    return f"{shlex.quote(path)} {{cnf}}", sd


# -- one campaign ------------------------------------------------------------


def _dimacs_header(path: str) -> tuple[int, int]:
    with open(path) as fh:
        for line in fh:
            if line.startswith("p cnf "):
                _, _, nvars, nclauses = line.split()
                return int(nvars), int(nclauses)
    raise CheckFailed(f"{path}: no DIMACS problem line")


def run_one_campaign(spec: dict, solver: str, run_dir: str, replay_sd,
                     seen_cnf: dict, tracer: tracing.Tracer | None) -> dict:
    """Run and check one campaign; returns its sample."""
    group = GroupId.from_name(spec["group"])
    work = os.path.join(run_dir, "work")
    ckpt = os.path.join(run_dir, "checkpoint.json")
    shutil.rmtree(work, ignore_errors=True)
    if os.path.exists(ckpt):
        os.unlink(ckpt)
    argv = ["search", "--group", spec["group"], "--n", str(spec["n"]),
            "--max-rank", str(spec["max_rank"]), "--solver", solver,
            "--workers", str(spec["workers"]), "--checkpoint", ckpt,
            "--work-dir", work, "--json"]
    out = io.StringIO()
    if tracer:
        tracer.install()
    try:
        with contextlib.redirect_stdout(out):
            started = time.perf_counter()
            code = cli.main(argv)
            ended = time.perf_counter()
    finally:
        if tracer:
            tracer.uninstall()
    sample = {"campaign_s": ended - started}
    if tracer:
        sample["layers"] = tracer.summary(started, ended)

    # Outputs, checked outside the timed region.
    report = json.loads(out.getvalue())
    combos = report["combos"]
    states = [c["state"] for c in combos]
    _require(len(combos) == len(enumerate_combos(group, spec["max_rank"])),
             "combo count differs from enumerate_combos")
    with open(ckpt) as fh:
        saved = json.load(fh)
    _require(saved == {"group": report["group"], "dims": report["dims"],
                       "max_rank": report["max_rank"], "combos": combos},
             "checkpoint disagrees with the --json report")
    if replay_sd is None:
        _require(code == cli.EXIT_OK and report["verdict"] == "ruled_out"
                 and all(s == "unsat" for s in states),
                 f"expected ruled_out with every combo unsat, got {report['verdict']}")
    else:
        _require(code == cli.EXIT_FOUND and report["verdict"] == "found",
                 f"expected found, got {report['verdict']}")
        sat = [c for c in combos if c["state"] == "sat"]
        _require(len(sat) == 1 and sat[0]["counts"] == REPLAY_COMBO,
                 "SAT on a combo the replay stub never answers SAT")
        _require(set(states) <= {"sat", "unsat", "pending"},
                 f"unexpected combo states {sorted(set(states))}")
        path = report["decomposition"]
        d = load_decomposition(path)
        sd = load_symmetric(path + ".sym")
        _require(verify(d), "found decomposition does not verify")
        _require(is_group_symmetric(d, group), "found decomposition is not symmetric")
        _require(check_canonical(sd) == [], "found decomposition is not canonical")
        _require(symmetric_to_json(sd) == symmetric_to_json(replay_sd),
                 "found decomposition differs from the replayed one")
        _require(sorted(t.flat_bits() for t in sd.expand().triplets)
                 == sorted(t.flat_bits() for t in d.triplets),
                 "decomposition file disagrees with its .sym file")

    clauses = nbytes = 0
    cnfs = sorted(f for f in os.listdir(work) if f.endswith(".cnf"))
    encoded = [c for c in combos if c["state"] != "pending" and any(c["counts"].values())]
    _require(len(cnfs) == len(encoded), "CNF files do not match the encoded combos")
    for name in cnfs:
        path = os.path.join(work, name)
        header = _dimacs_header(path) + (os.path.getsize(path),)
        _require(seen_cnf.setdefault(name, header) == header,
                 f"{name}: CNF size differs between campaigns of one run")
        clauses += header[1]
        nbytes += header[2]
    sample.update(cnf_clauses=clauses, cnf_bytes=nbytes,
                  attempted=sum(1 for s in states if s != "pending"),
                  failed=sum(1 for s in states if s in ("error", "timeout")),
                  cancelled=states.count("pending"))
    return sample


def main() -> int:
    spec = json.loads(sys.argv[1])
    run_dir = spec["run_dir"]
    solver, replay_sd = write_stubs(os.path.join(run_dir, "stubs"), spec["seed"],
                                    spec["stub"] == "replay")
    print("ready", flush=True)
    if spec["seconds"] <= 0:
        return 0

    seen_cnf: dict = {}
    samples: list[dict] = []
    spans: list[dict] = []
    refs = [reference_work()]  # samples[i] ran between refs[i] and refs[i + 1]
    error = ""
    loop_start = time.monotonic()

    def more() -> bool:
        elapsed = time.monotonic() - loop_start
        untraced = sum(1 for s in samples if "layers" not in s)
        return (elapsed < spec["seconds"]
                or (untraced < spec["min_samples"] and elapsed < 1.25 * spec["seconds"])
                or untraced == 0 or (spec["trace"] and untraced == len(samples)))

    try:
        while more():
            # Traced runs alternate: untraced, traced, untraced, ...
            tracer = tracing.Tracer() if spec["trace"] and len(samples) % 2 else None
            samples.append(run_one_campaign(spec, solver, run_dir, replay_sd, seen_cnf,
                                            tracer))
            refs.append(reference_work())
            if tracer:
                spans.extend(tracer.dump())
    except CheckFailed as exc:
        error = str(exc)
    shutil.rmtree(os.path.join(run_dir, "work"), ignore_errors=True)
    if spans:
        with open(spec["trace_out"], "w") as fh:
            json.dump(spans, fh)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({"samples": samples, "refs": refs, "error": error,
                      "peak_rss_kb": own + kids}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
