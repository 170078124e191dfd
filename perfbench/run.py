"""Solver-free campaign benchmark for mmtsat.

Runs whole `mmtsat search` campaigns against stub solvers that answer at
once, so what it times is mmtsat's own overhead on the way to a verdict:
enumerate, encode, DIMACS write, solver subprocess, parse, decode/verify/
canonical check, checkpoint.  Every verdict and output file is checked,
and the CNF semantics are model-checked against known decompositions
without a solver.  See README.md beside this file.

    python3 perfbench/run.py --workload sw3-unsat --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                 # every workload, human-readable
    python3 perfbench/run.py --smoke         # every workload at toy size

The last stdout line of a single-workload run is one JSON object with the
keys correct, attempted, failed and metrics.  Exit status is non-zero if
any verdict check, file check or model check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

from calibrate import calibrate, reference_work

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, SRC)

# Each workload is one `mmtsat search` command line, run in a closed loop
# (one campaign at a time from one process).  smoke_rank is the toy size.
WORKLOADS = {
    "sw3-unsat": dict(group="cyc-sw", n=3, max_rank=4, workers=2, stub="unsat",
                      smoke_rank=3),
    "none3-unsat": dict(group="none", n=3, max_rank=7, workers=1, stub="unsat",
                        smoke_rank=3),
    "t2-found": dict(group="cyc-t", n=2, max_rank=9, workers=2, stub="replay",
                     smoke_rank=7),
}

END_TO_END = {
    "campaign_s": "s",
    "campaign_p75_s": "s",
    "setup_s": "s",
    "cnf_clauses": "count",
    "cnf_mbytes": "MB",
    "peak_rss_mb": "MB",
}

SETUP_SAMPLES = 9
# An untraced run keeps going past --seconds until it has this many
# campaigns, so its 75th percentile has at least ten samples beyond it.
MIN_SAMPLES = 40
CHILD_GRACE_S = 60  # a worker that outlives its time by this much is killed


def _p75(xs):
    return statistics.quantiles(xs, n=4)[2] if len(xs) > 1 else xs[0]


def _spawn(spec: dict) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, text=True, start_new_session=True)


def _kill(proc: subprocess.Popen) -> None:
    """Kill a worker with every process it started, and reap it."""
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    """Wait for a worker; kill its whole process group if it overruns."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill(proc)
        raise RuntimeError("benchmark worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark worker exited with {proc.returncode}")
    return out


def _ready(proc: subprocess.Popen, started: float) -> float:
    line = proc.stdout.readline()
    if line.strip() != "ready":
        _finish(proc, CHILD_GRACE_S)
        raise RuntimeError("benchmark worker failed during set-up")
    return time.perf_counter() - started


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    """Set up and run one workload; returns the contract's result object."""
    wl = WORKLOADS[name]
    run_dir = os.path.join(STATE, f"{name}-{os.getpid()}")
    os.makedirs(os.path.join(STATE, "traces"), exist_ok=True)
    spec = {"group": wl["group"], "n": wl["n"], "workers": wl["workers"],
            "stub": wl["stub"], "seed": seed, "trace": trace, "run_dir": run_dir,
            "max_rank": wl["smoke_rank"] if smoke else wl["max_rank"],
            "min_samples": 1 if smoke or trace else MIN_SAMPLES,
            "trace_out": os.path.join(STATE, "traces", f"{name}-seed{seed}.json")}
    proc = None
    try:
        # Set-up time: fresh process start to ready, several times.
        setups, refs = [], [reference_work()]
        for _ in range(1 if smoke else SETUP_SAMPLES):
            started = time.perf_counter()
            proc = _spawn(dict(spec, seconds=0))
            setups.append(_ready(proc, started))
            _finish(proc, CHILD_GRACE_S)
            refs.append(reference_work())
        proc = _spawn(dict(spec, seconds=seconds))
        _ready(proc, time.perf_counter())
        result = json.loads(
            _finish(proc, 1.25 * seconds + CHILD_GRACE_S).splitlines()[-1])
    finally:
        if proc is not None:
            _kill(proc)
        shutil.rmtree(run_dir, ignore_errors=True)

    samples = result["samples"]
    for sample, cal in zip(samples, calibrate([s["campaign_s"] for s in samples],
                                              result["refs"])):
        sample["calibrated_s"] = cal
    untraced = [s for s in samples if "layers" not in s]
    traced = [s for s in samples if "layers" in s]
    out = {"correct": not result["error"],
           "attempted": sum(s["attempted"] for s in samples),
           "failed": sum(s["failed"] for s in samples),
           "error": result["error"],
           "samples": len(untraced),
           "metrics": {}}
    if result["error"]:
        return out
    out["raw_campaign_s"] = statistics.median(s["campaign_s"] for s in untraced)
    times = [s["calibrated_s"] for s in untraced]
    if trace:
        from tracing import PER_LAYER

        layers = {key: statistics.median(s["layers"][key] for s in traced)
                  for key in traced[0]["layers"]}
        layers["driver.combos_cancelled"] = statistics.median(
            s["cancelled"] for s in traced)
        layers["trace.overhead_s"] = (
            statistics.median(s["calibrated_s"] for s in traced) - statistics.median(times))
        out["metrics"] = {key: layers[key] for key in PER_LAYER}
    else:
        out["metrics"] = {
            "campaign_s": statistics.median(times),
            "campaign_p75_s": _p75(times),
            "setup_s": statistics.median(calibrate(setups, refs)),
            # Means: on t2-found the combos encoded before the SAT
            # short-circuit vary by one or two from campaign to campaign.
            "cnf_clauses": statistics.fmean(s["cnf_clauses"] for s in untraced),
            "cnf_mbytes": statistics.fmean(s["cnf_bytes"] for s in untraced) / 1e6,
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
        }
    return out


def model_check(seed: int, smoke: bool) -> list[dict]:
    """Check every known decomposition against its CNF (smoke: n=2 only)."""
    import modelcheck

    rng = random.Random(f"{seed}-modelcheck")
    return [modelcheck.check_known(modelcheck.known_symmetric(g, n, base, rng), rng)
            for g, n, base in modelcheck.KNOWN if not (smoke and n > 2)]


def _units(trace: bool) -> dict:
    if not trace:
        return END_TO_END
    from tracing import PER_LAYER

    return PER_LAYER


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   help="run one workload (default: every workload)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="toy sizes, one second per workload, n=2 model checks")
    args = p.parse_args(argv)
    # Turn SIGTERM into an exit so that workers are killed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "mmtsat", "__init__.py")):
        print(f"error: no mmtsat sources under {SRC}", file=sys.stderr)
        return 2
    seconds = 1.0 if args.smoke else args.seconds
    trace = bool(args.trace)

    try:
        checked = model_check(args.seed, args.smoke)
    except AssertionError as exc:
        print(f"MODEL CHECK FAILED: {exc}", file=sys.stderr)
        return 1
    print(f"model check passed: {len(checked)} known decompositions, "
          f"{sum(c['clauses'] for c in checked)} clauses (seed {args.seed})",
          file=sys.stderr)

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        res = run_workload(name, args.seed, seconds, trace, args.smoke)
        results[name] = res
        units = _units(trace)
        status = (f"ok; {res['samples']} untraced campaigns (uncalibrated median "
                  f"{res['raw_campaign_s']:.4f} s)" if res["correct"]
                  else f"FAILED: {res['error']}")
        print(f"# {name}: {status}; {res['attempted']} combos attempted, "
              f"{res['failed']} failed, seed {args.seed}",
              file=sys.stderr if args.workload else sys.stdout)
        if not args.workload:
            for key, value in res["metrics"].items():
                print(f"{name} {key} {value:.6g} {units[key]}")
    ok = all(r["correct"] for r in results.values())
    if args.workload:
        res = results[args.workload]
        units = _units(trace)
        print(json.dumps({
            "correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in res["metrics"].items()}}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
