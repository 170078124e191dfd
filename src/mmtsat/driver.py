"""Campaign orchestration over an external DIMACS solver.

Enumerates every orbit-count combination up to a rank bound and runs the
configured solver subprocess on each instance (hardest first, across a
worker pool).  The checkpoint is written when the campaign starts, at
once when a combo is `sat`, after any other completion only if
CHECKPOINT_INTERVAL_S has passed since the last write, and at the end
if a status changed since then; so a killed campaign resumes where it
stopped, re-running at most the combos of the last interval.  A combo
of rank 0, or whose CNF holds the empty clause, is recorded `unsat`
without a solver run.  The encoder gives that clause alone to a combo
whose orbit kinds cannot span the target (see `span.certificate`), or
whose count of 1 or 2 orbits of a kind cannot reach it modulo the other
kinds' spans (see `span.count_certificate`); its CNF is still written,
and its `detail` is the encoder's comment saying why: the tensor
entries where the combo's equations XOR to 0 = 1, or the kind, its
count, the other kinds and the number of distinct images.
`solve_combo` maps every end of one run to a recorded state: a timeout,
a solver that fails to start, an UNKNOWN answer, unparsable output or a
model that does not decode (unassigned primaries) is recorded as
`timeout`/`error` with its reason, and the campaign goes on.  A decoded model is verified
independently; one that fails verification raises EncoderSoundnessError,
because then the encoding itself is wrong.  The first `sat`, and the
first combo that raises, stop the combos still queued from running;
those already running are recorded as they finish after a `sat`, and
stay `pending` after a raise.
"""

from __future__ import annotations

import json
import os
import re
import shlex
import subprocess
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from functools import lru_cache
from time import monotonic

from .boolexpr import write_bytes
from .canonical import check_canonical, dump_symmetric
from .encoder import DecodeError, decode, encode
from .symmetry import GroupId, check_n, is_group_symmetric, orbit_kinds, total_rank
from .tensor import dump_decomposition, json_fields, json_typed, verify


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


STATES = ("pending", "sat", "unsat", "timeout", "error")


@dataclass
class ComboStatus:
    spec: ComboSpec
    state: str = "pending"  # one of STATES
    seconds: float = 0.0
    solver: str = ""
    detail: str = ""  # decomposition path for sat, message for error


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
_UNPARSABLE = "unparsable solver output: "


def parse_solver_output(text: str):
    """('sat', assignment) | ('unsat', None) | ('unknown', diagnostic);
    every diagnostic but "solver answered UNKNOWN" starts with _UNPARSABLE."""
    status = None
    assignment: dict[int, bool] = {}
    for raw in text.splitlines():
        line = _ANSI_RE.sub("", raw).strip()
        if line.startswith("s SATISFIABLE"):
            if status == "unsat":
                return ("unknown", _UNPARSABLE + "contradictory status lines")
            status = "sat"
        elif line.startswith("s UNSATISFIABLE"):
            if status == "sat":
                return ("unknown", _UNPARSABLE + "contradictory status lines")
            status = "unsat"
        elif line.startswith("s UNKNOWN"):
            return ("unknown", "solver answered UNKNOWN")
        elif line.startswith("v ") or line == "v":
            for tok in line[1:].split():
                try:
                    lit = int(tok)
                except ValueError:
                    return ("unknown", _UNPARSABLE + f"bad literal {tok!r} in a v line")
                if lit == 0:
                    continue
                assignment[abs(lit)] = lit > 0
    if status == "sat":
        return ("sat", assignment)
    if status == "unsat":
        return ("unsat", None)
    return ("unknown", _UNPARSABLE + "no status line found")


@lru_cache(maxsize=16)
def solver_argv(solver_cmd: str) -> tuple[str, ...]:
    """The words of a solver command template; ValueError if it has no
    {cnf} placeholder or does not split as a shell command line."""
    if "{cnf}" not in solver_cmd:
        raise ValueError(f"solver command {solver_cmd!r} must contain the {{cnf}} placeholder")
    try:
        return tuple(shlex.split(solver_cmd))
    except ValueError as exc:
        raise ValueError(f"solver command {solver_cmd!r}: {exc}") from None


def run_solver(solver_cmd: str, cnf_path: str, timeout: float | None):
    """Run the solver command template on a CNF file; returns the parse."""
    argv = [arg.replace("{cnf}", str(cnf_path)) for arg in solver_argv(solver_cmd)]
    proc = subprocess.run(argv, capture_output=True, errors="replace",
                          timeout=timeout)
    return parse_solver_output(proc.stdout)


# -- checkpointing ------------------------------------------------------------

# A campaign writes its checkpoint after a completion other than a sat
# only if this many seconds have passed since its last write.
CHECKPOINT_INTERVAL_S = 1.0


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _combo_record(st: ComboStatus) -> dict:
    return {"counts": st.spec.counts_dict(), "state": st.state,
            "seconds": round(st.seconds, 3), "solver": st.solver,
            "detail": st.detail}


def checkpoint_to_json(group: GroupId, n: int, max_rank: int,
                       statuses: list[ComboStatus]) -> dict:
    return {"group": group.value, "dims": n, "max_rank": max_rank,
            "combos": [_combo_record(st) for st in statuses]}


def write_checkpoint(path, group: GroupId, n: int, max_rank: int,
                     statuses: list[ComboStatus]) -> None:
    """Atomic write: the bytes go to <path>.tmp, which is then renamed
    over path.  One campaign writes its checkpoint from one thread, so
    the temp name needs no uniqueness of its own."""
    data = _canonical_json(checkpoint_to_json(group, n, max_rank, statuses)).encode()
    tmp = f"{path}.tmp"
    try:
        write_bytes(tmp, data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> dict:
    """A checkpoint as write_checkpoint writes it; ValueError if a field
    is missing or has the wrong type, or a combo has an unknown state."""
    with open(path) as fh:
        data = json.load(fh)
    *_, combos = json_fields(data, "checkpoint", "group", "dims", "max_rank", "combos")
    for i, rec in enumerate(json_typed(combos, list, "checkpoint combos")):
        what = f"checkpoint combo {i}"
        counts, state, seconds, solver, detail = json_fields(
            rec, what, "counts", "state", "seconds", "solver", "detail")
        json_typed(counts, dict, f"{what} counts")
        if state not in STATES:
            raise ValueError(f"{what}: unknown state {state!r}")
        if type(seconds) not in (int, float):  # not a bool
            raise ValueError(f"{what}: seconds {seconds!r} is not a number")
        if not (isinstance(solver, str) and isinstance(detail, str)):
            raise ValueError(f"{what}: solver and detail must be strings")
    return data


# -- campaign -----------------------------------------------------------------


@dataclass
class CampaignReport:
    group: GroupId
    n: int
    max_rank: int
    statuses: list[ComboStatus]
    wall_seconds: float = 0.0
    solver: str = ""

    @property
    def decomposition_path(self) -> str:
        return next((st.detail for st in self.statuses if st.state == "sat"), "")

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
            "combos": [_combo_record(st) for st in self.statuses],
        }


def solve_combo(group: GroupId, n: int, spec: ComboSpec, solver_cmd: str,
                timeout: float | None, work_dir: str) -> ComboStatus:
    """Encode one combo, run the solver, and verify any model."""
    started = monotonic()
    state, detail = _run_combo(group, n, spec, solver_cmd, timeout, work_dir)
    return ComboStatus(spec, state, monotonic() - started, solver_cmd, detail)


def _run_combo(group: GroupId, n: int, spec: ComboSpec, solver_cmd: str,
               timeout: float | None, work_dir: str) -> tuple[str, str]:
    """(state, detail) for every way one combo's run can end."""
    check_n(group, n)
    if spec.total_rank() == 0:
        # The empty decomposition cannot equal a nonzero tensor.
        return "unsat", "rank 0: empty decomposition, no solver run"
    cnf, varmap = encode(group, n, spec.counts_dict())
    stem = os.path.join(work_dir, f"{group.value}-{spec.label()}")
    cnf.write(stem + ".cnf")
    if cnf.has_empty_clause:
        # The encoder's last comment says why when a span or a count
        # certificate refutes the combo.
        reason = cnf.comments[-1] if cnf.comments[-1].startswith("empty clause: ") \
            else "the CNF holds the empty clause"
        return "unsat", f"{reason}, no solver run"
    try:
        result, payload = run_solver(solver_cmd, stem + ".cnf", timeout)
    except subprocess.TimeoutExpired:
        return "timeout", f"timeout after {timeout}s"
    except OSError as exc:
        return "error", f"solver failed to run: {exc}"
    if result == "unsat":
        return "unsat", ""
    if result != "sat":
        return "error", payload
    try:
        sd, d = decode(payload, varmap, group, n)
    except DecodeError as exc:
        return "error", str(exc)
    problems = []
    if not verify(d):
        problems.append("decoded decomposition does not evaluate to the target")
    if not is_group_symmetric(d, group):
        problems.append("decoded decomposition is not group symmetric")
    violations = check_canonical(sd)
    if violations:
        problems.append(f"canonical-form violations: {violations}")
    if problems:
        raise EncoderSoundnessError(f"combo {spec.label()}: " + "; ".join(problems))
    dump_decomposition(d, stem + ".json")
    dump_symmetric(sd, stem + ".json.sym")
    return "sat", stem + ".json"


def run_campaign(group: GroupId, n: int, max_rank: int, solver_cmd: str,
                 workers: int = 1, timeout: float | None = None,
                 checkpoint_path: str | None = None,
                 work_dir: str | None = None) -> CampaignReport:
    """Solve every combo up to max_rank until the first sat.  Without a
    work_dir, a fresh temp dir is used; its CNF files are deleted at the
    end and any found pair stays in it.  Combos are recorded one at a
    time as they finish, so when one raises EncoderSoundnessError, the
    combos that finished with it but were not yet recorded stay
    `pending` and run again on resume."""
    started = monotonic()
    check_n(group, n)  # before the checkpoint or the work dir is touched
    specs = enumerate_combos(group, max_rank)
    statuses = {spec: ComboStatus(spec, solver=solver_cmd) for spec in specs}

    if checkpoint_path and os.path.exists(checkpoint_path):
        prior = load_checkpoint(checkpoint_path)
        if (prior["group"], prior["dims"], prior["max_rank"]) != (group.value, n, max_rank):
            raise ValueError("checkpoint does not match this campaign")
        by_counts = {json.dumps(c["counts"], sort_keys=True): c for c in prior["combos"]}
        for spec in specs:
            rec = by_counts.get(json.dumps(spec.counts_dict(), sort_keys=True))
            if rec and rec["state"] != "pending":
                statuses[spec] = ComboStatus(spec, rec["state"], rec["seconds"],
                                             rec["solver"], rec["detail"])

    own_work_dir = work_dir is None
    if own_work_dir:
        work_dir = tempfile.mkdtemp(prefix="mmtsat-")
    else:
        os.makedirs(work_dir, exist_ok=True)

    changed = True  # a status differs from the checkpoint file
    written_at = 0.0

    def _save(now: bool) -> None:
        # Writes if a status changed, and now or CHECKPOINT_INTERVAL_S
        # after the last write; reads the clock once.
        nonlocal changed, written_at
        at = monotonic()
        if checkpoint_path and changed and (now or at - written_at >= CHECKPOINT_INTERVAL_S):
            write_checkpoint(checkpoint_path, group, n, max_rank,
                             [statuses[s] for s in specs])
            changed, written_at = False, at

    found = any(st.state == "sat" for st in statuses.values())
    pending = [] if found else [s for s in specs if statuses[s].state == "pending"]
    stop = threading.Event()

    def _solve(spec: ComboSpec) -> ComboStatus | None:
        # The worker that finds a model or raises sets `stop` itself, so
        # no queued combo starts in the time the main thread takes to see it.
        if stop.is_set():
            return None
        try:
            status = solve_combo(group, n, spec, solver_cmd, timeout, work_dir)
        except BaseException:
            stop.set()
            raise
        if status.state == "sat":
            stop.set()
        return status

    try:
        _save(now=True)
        try:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = {pool.submit(_solve, spec): spec for spec in pending}
                try:
                    for fut in as_completed(futures):
                        status = fut.result()  # EncoderSoundnessError propagates
                        if status is not None:
                            statuses[futures[fut]] = status
                            changed = True
                            _save(now=status.state == "sat")
                finally:
                    stop.set()  # also on an interrupt of the main thread
        finally:
            _save(now=True)
    finally:  # even when a checkpoint write raises
        if own_work_dir:
            for name in os.listdir(work_dir):
                if name.endswith(".cnf"):
                    os.unlink(os.path.join(work_dir, name))
            if not os.listdir(work_dir):
                os.rmdir(work_dir)

    return CampaignReport(group, n, max_rank, [statuses[s] for s in specs],
                          wall_seconds=monotonic() - started,
                          solver=solver_cmd)
