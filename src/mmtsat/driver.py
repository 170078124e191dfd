"""Campaign orchestration over an external DIMACS solver.

Enumerates every orbit-count combination up to a rank bound, runs the
configured solver subprocess on each instance (hardest first, across a
worker pool), verifies every SAT answer independently, and checkpoints
after each combo so a killed campaign resumes where it stopped.
"""

from __future__ import annotations

import json
import os
import re
import shlex
import subprocess
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field

from .canonical import check_canonical, dump_symmetric
from .encoder import decode, encode
from .symmetry import GroupId, is_group_symmetric, orbit_kinds, total_rank
from .tensor import dump_decomposition, verify


class EncoderSoundnessError(AssertionError):
    """A solver model failed independent verification; the encoding is wrong."""


@dataclass(frozen=True)
class ComboSpec:
    group: GroupId
    counts: tuple[tuple[str, int], ...]  # (tag, count) in kind order

    def counts_dict(self) -> dict[str, int]:
        return dict(self.counts)

    def total_rank(self) -> int:
        return total_rank(self.group, self.counts_dict())

    def label(self) -> str:
        return ",".join(f"{tag}={c}" for tag, c in self.counts)


@dataclass
class ComboStatus:
    spec: ComboSpec
    state: str = "pending"  # pending | sat | unsat | timeout | error
    seconds: float = 0.0
    solver: str = ""
    detail: str = ""  # decomposition path for sat, message for error

    def is_terminal(self) -> bool:
        return self.state in ("sat", "unsat", "timeout", "error")


def enumerate_combos(group: GroupId, max_rank: int) -> list[ComboSpec]:
    """Every orbit-count tuple with total rank <= max_rank, exactly once,
    in deterministic order: descending total rank, then lexicographic."""
    if max_rank < 0:
        raise ValueError("max_rank must be nonnegative")
    kinds = orbit_kinds(group)
    combos: list[tuple[int, ...]] = []

    def rec(pos: int, acc: tuple[int, ...], used: int) -> None:
        if pos == len(kinds):
            combos.append(acc)
            return
        w = kinds[pos].weight
        for c in range((max_rank - used) // w + 1):
            rec(pos + 1, acc + (c,), used + w * c)

    rec(0, (), 0)
    specs = [ComboSpec(group, tuple(zip((k.tag for k in kinds), counts)))
             for counts in combos]
    specs.sort(key=lambda s: (-s.total_rank(), tuple(c for _, c in s.counts)))
    return specs


# -- solver subprocess --------------------------------------------------------

_ANSI_RE = re.compile(r"\x1b\[[0-9;]*[a-zA-Z]")


def parse_solver_output(text: str):
    """('sat', assignment) | ('unsat', None) | ('unknown', diagnostic)."""
    status = None
    assignment: dict[int, bool] = {}
    for raw in text.splitlines():
        line = _ANSI_RE.sub("", raw).strip()
        if line.startswith("s SATISFIABLE"):
            if status == "unsat":
                return ("unknown", "contradictory status lines")
            status = "sat"
        elif line.startswith("s UNSATISFIABLE"):
            if status == "sat":
                return ("unknown", "contradictory status lines")
            status = "unsat"
        elif line.startswith("v ") or line == "v":
            for tok in line[1:].split():
                lit = int(tok)
                if lit == 0:
                    continue
                assignment[abs(lit)] = lit > 0
    if status == "sat":
        return ("sat", assignment)
    if status == "unsat":
        return ("unsat", None)
    return ("unknown", "no status line found")


def run_solver(solver_cmd: str, cnf_path: str, timeout: float | None):
    """Run the solver command template on a CNF file; returns the parse."""
    if "{cnf}" not in solver_cmd:
        raise ValueError("solver command must contain the {cnf} placeholder")
    argv = [arg.replace("{cnf}", str(cnf_path)) for arg in shlex.split(solver_cmd)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout)
    return parse_solver_output(proc.stdout)


# -- checkpointing ------------------------------------------------------------


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def checkpoint_to_json(group: GroupId, n: int, max_rank: int,
                       statuses: list[ComboStatus]) -> dict:
    return {
        "group": group.value,
        "dims": n,
        "max_rank": max_rank,
        "combos": [
            {"counts": st.spec.counts_dict(), "state": st.state,
             "seconds": round(st.seconds, 3), "solver": st.solver,
             "detail": st.detail}
            for st in statuses
        ],
    }


def write_checkpoint(path, group: GroupId, n: int, max_rank: int,
                     statuses: list[ComboStatus]) -> None:
    """Atomic write: temp file in the same directory, then rename."""
    data = _canonical_json(checkpoint_to_json(group, n, max_rank, statuses))
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ckpt-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# -- campaign -----------------------------------------------------------------


@dataclass
class CampaignReport:
    group: GroupId
    n: int
    max_rank: int
    statuses: list[ComboStatus]
    wall_seconds: float = 0.0
    solver: str = ""
    decomposition_path: str = ""

    def verdict(self) -> str:
        """'ruled_out' | 'found' | 'undetermined', recounted from records."""
        states = [st.state for st in self.statuses]
        if any(s == "sat" for s in states):
            return "found"
        if states and all(s == "unsat" for s in states):
            return "ruled_out"
        return "undetermined"

    def render_table(self) -> str:
        verdict = self.verdict()
        if verdict == "ruled_out":
            claim = f"no decompositions of <{self.n},{self.n},{self.n}> with rank <= {self.max_rank}"
        elif verdict == "found":
            claim = f"decomposition found: {self.decomposition_path}"
        else:
            claim = "undetermined (timeouts or errors remain)"
        lines = [
            "symmetry group | result | time (sec)",
            f"{self.group.value} | {claim} | {self.wall_seconds:.1f}",
        ]
        counts: dict[str, int] = {}
        for st in self.statuses:
            counts[st.state] = counts.get(st.state, 0) + 1
        lines.append("combos: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "group": self.group.value, "dims": self.n, "max_rank": self.max_rank,
            "verdict": self.verdict(), "wall_seconds": round(self.wall_seconds, 3),
            "solver": self.solver, "decomposition": self.decomposition_path,
            "combos": checkpoint_to_json(self.group, self.n, self.max_rank,
                                         self.statuses)["combos"],
        }


def solve_combo(group: GroupId, n: int, spec: ComboSpec, solver_cmd: str,
                timeout: float | None, work_dir: str) -> ComboStatus:
    """Encode one combo, run the solver, and verify any model."""
    status = ComboStatus(spec, solver=solver_cmd)
    started = time.monotonic()
    counts = spec.counts_dict()
    if spec.total_rank() == 0:
        # The empty decomposition cannot equal a nonzero tensor.
        status.state = "unsat"
        status.detail = "rank 0: empty decomposition, no solver run"
        status.seconds = time.monotonic() - started
        return status
    cnf, varmap = encode(group, n, counts)
    cnf_path = os.path.join(work_dir, f"{group.value}-{spec.label()}.cnf")
    cnf.write(cnf_path)
    try:
        result, payload = run_solver(solver_cmd, cnf_path, timeout)
    except subprocess.TimeoutExpired:
        status.state = "timeout"
        status.detail = f"timeout after {timeout}s"
        status.seconds = time.monotonic() - started
        return status
    except OSError as exc:
        status.state = "error"
        status.detail = f"solver failed to run: {exc}"
        status.seconds = time.monotonic() - started
        return status
    status.seconds = time.monotonic() - started
    if result == "unsat":
        status.state = "unsat"
    elif result == "sat":
        sd, d = decode(payload, varmap, group, n)
        problems = []
        if not verify(d):
            problems.append("decoded decomposition does not evaluate to the target")
        if not is_group_symmetric(d, group):
            problems.append("decoded decomposition is not group symmetric")
        violations = check_canonical(sd)
        if violations:
            problems.append(f"canonical-form violations: {violations}")
        if problems:
            raise EncoderSoundnessError(
                f"combo {spec.label()}: " + "; ".join(problems))
        dec_path = os.path.join(work_dir, f"{group.value}-{spec.label()}.json")
        dump_decomposition(d, dec_path)
        dump_symmetric(sd, dec_path + ".sym")
        status.state = "sat"
        status.detail = dec_path
    else:
        status.state = "error"
        status.detail = f"unparsable solver output: {payload}"
    return status


def run_campaign(group: GroupId, n: int, max_rank: int, solver_cmd: str,
                 workers: int = 1, timeout: float | None = None,
                 checkpoint_path: str | None = None,
                 work_dir: str | None = None) -> CampaignReport:
    started = time.monotonic()
    specs = enumerate_combos(group, max_rank)
    statuses = {spec: ComboStatus(spec, solver=solver_cmd) for spec in specs}

    if checkpoint_path and os.path.exists(checkpoint_path):
        prior = load_checkpoint(checkpoint_path)
        if (prior.get("group"), prior.get("dims"), prior.get("max_rank")) != \
                (group.value, n, max_rank):
            raise ValueError("checkpoint does not match this campaign")
        by_counts = {json.dumps(c["counts"], sort_keys=True): c
                     for c in prior.get("combos", [])}
        for spec in specs:
            rec = by_counts.get(json.dumps(spec.counts_dict(), sort_keys=True))
            if rec and rec["state"] != "pending":
                st = statuses[spec]
                st.state = rec["state"]
                st.seconds = rec["seconds"]
                st.solver = rec.get("solver", "")
                st.detail = rec.get("detail", "")

    own_work_dir = None
    if work_dir is None:
        own_work_dir = tempfile.TemporaryDirectory(prefix="mmtsat-")
        work_dir = own_work_dir.name
    else:
        os.makedirs(work_dir, exist_ok=True)

    def _save() -> None:
        if checkpoint_path:
            write_checkpoint(checkpoint_path, group, n, max_rank,
                             [statuses[s] for s in specs])

    pending = [spec for spec in specs if not statuses[spec].is_terminal()]
    _save()
    try:
        sat_seen = any(st.state == "sat" for st in statuses.values())
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {}
            for spec in pending:
                if sat_seen:
                    break
                futures[pool.submit(solve_combo, group, n, spec, solver_cmd,
                                    timeout, work_dir)] = spec
            not_done = set(futures)
            while not_done:
                done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                for fut in done:
                    if fut.cancelled():
                        continue
                    spec = futures[fut]
                    statuses[spec] = fut.result()  # EncoderSoundnessError propagates
                    _save()
                    if statuses[spec].state == "sat":
                        # Short-circuit: drop every queued combo.
                        for other in list(not_done):
                            if other.cancel():
                                not_done.discard(other)
    finally:
        _save()
        if own_work_dir is not None:
            sat_status = next((st for st in statuses.values()
                               if st.state == "sat" and st.detail), None)
            if sat_status is not None and os.path.exists(sat_status.detail):
                keep = tempfile.mkdtemp(prefix="mmtsat-found-")
                moved = os.path.join(keep, os.path.basename(sat_status.detail))
                os.replace(sat_status.detail, moved)
                if os.path.exists(sat_status.detail + ".sym"):
                    os.replace(sat_status.detail + ".sym", moved + ".sym")
                sat_status.detail = moved
            own_work_dir.cleanup()
        if checkpoint_path:
            write_checkpoint(checkpoint_path, group, n, max_rank,
                             [statuses[s] for s in specs])

    report = CampaignReport(group, n, max_rank, [statuses[s] for s in specs],
                            wall_seconds=time.monotonic() - started,
                            solver=solver_cmd)
    for st in report.statuses:
        if st.state == "sat":
            report.decomposition_path = st.detail
            break
    return report
