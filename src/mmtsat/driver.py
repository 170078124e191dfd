"""Campaign orchestration over an external DIMACS solver.

Enumerates every orbit-count combination up to a rank bound and takes
them in that order (hardest first) on one thread: each combo is encoded
and its CNF written there before the loop waits for anything.  A combo
decided without a solver is recorded at once; one that needs a solver
waits for a slot, so when a slot frees, the next combo's CNF is already
written, and its solver then starts as a subprocess while up to
`workers` solvers run.  A combo's `seconds` are its encode and its
solver run, without its wait for a slot.  One selector watches the
solvers' pidfds and enforces each one's timeout.
The checkpoint is written when the campaign starts, at once when a
combo is `sat`, after any other completion only if
CHECKPOINT_INTERVAL_S has passed since the last write, and at the end
if a status changed since then; so a killed campaign resumes where it
stopped, re-running at most the combos of the last interval.  A combo
of rank 0, or one that `span.refute` rules out, is recorded `unsat`
without a solver run.  The encoder gives a refuted combo a four-line
CNF, the empty clause over no variable; it is still written, and the
combo's `detail` is the encoder's comment saying why.
A resumed campaign re-checks what its checkpoint claims before it runs
anything: a `sat` record's decomposition and .sym files must load, be
of this combo, verify, and be group-symmetric and canonical, and an
`unsat` record decided without a solver must be decided so again, with
the same detail; a record that fails is a ValueError naming the combo,
like a checkpoint of another campaign.  A solver's `unsat`, `timeout`
and `error` records are trusted as they stand.
A solver run ends when the solver exits (watched through a pidfd, so
Linux >= 5.3), at its deadline, or when it is stopped; `_stop` then
kills its process group, so nothing it started outlives it, reaps it
and reads its output from an unlinked file.
Every end of a combo is one answer, a (result, payload) pair on its
`_Run`: `_prepare` gives a combo it decides ("unsat", detail), `_launch`
gives a solver that fails to start ("error", reason), `_ended` gives a
solver past its deadline ("timeout", ...) and the parse of the output
of one that exited.  `_finish` alone maps an answer to a recorded state,
in a campaign and in `solve_combo` alike: a timeout, a solver that
fails to start, an UNKNOWN answer, unparsable output, a model that does
not decode (unassigned primaries) or one that falsifies a clause of the
combo's CNF is recorded as `timeout`/`error` with its reason, and the
campaign goes on.  A model of the CNF is then verified independently;
one that fails verification, the symmetry check or the canonical check
raises EncoderSoundnessError, because then the encoding itself is
wrong.  After the first `sat`, a raise or an interrupt, no
combo is encoded, and each running solver is stopped and its combo
left `pending`, as is an encoded combo still waiting for a slot, before
the last checkpoint write.  Should the campaign
die first, even by SIGKILL, `_guard` kills the solvers' process groups.
One rule, applied as a campaign ends however it ends, decides which
CNF files stay: a `pending` combo keeps none, and in a work dir the
campaign made itself no combo keeps one.
The two entry points, `run_campaign` and `solve_combo`, each check n
and make the work dir before any combo is encoded; then both take a
combo through `_prepare`, its solver and `_finish`.
"""

from __future__ import annotations

import json
import os
import re
import selectors
import shlex
import signal
import subprocess
import tempfile
from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache
from math import inf
from time import monotonic
from typing import IO

from .boolexpr import Clauses, write_bytes
from .canonical import check_canonical, dump_symmetric, load_symmetric
from .encoder import DecodeError, decode, empty_clause_comment, encode
from .span import refute
from .symmetry import GroupId, check_n, is_group_symmetric, orbit_kinds, total_rank
from .tensor import dump_decomposition, json_fields, json_typed, load_decomposition, verify


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
    combos: list[tuple[int, tuple[int, ...]]] = []  # (-rank, counts)

    def rec(pos: int, acc: tuple[int, ...], used: int) -> None:
        if pos == len(kinds):
            combos.append((-used, acc))
            return
        w = kinds[pos].weight
        for c in range((max_rank - used) // w + 1):
            rec(pos + 1, acc + (c,), used + w * c)

    rec(0, (), 0)
    combos.sort()
    tags = [k.tag for k in kinds]
    return [ComboSpec(group, tuple(zip(tags, counts))) for _, counts in combos]


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


@lru_cache(maxsize=1)
def _guard() -> int:
    """The write end of a pipe to a shell in a session of its own.  It
    keeps the process group ids written to it ("+ id" as a solver starts,
    "- id" as it is stopped) and kills the groups it still keeps once the
    pipe closes, that is once this process ends, even by SIGKILL."""
    read, write = os.pipe()
    os.posix_spawnp("sh", ["sh", "-c", 'exec >/dev/null 2>&1; while read -r op g; do '
                    'if [ "$op" = + ]; then live="$live $g"; else kept=; for k in $live; do '
                    '[ "$k" = "$g" ] || kept="$kept $k"; done; live=$kept; fi; done; '
                    'for g in $live; do kill -s KILL -- "-$g"; done'],
                    os.environ, file_actions=[(os.POSIX_SPAWN_DUP2, read, 0)], setsid=True)
    os.close(read)
    return write


def _tell_guard(op: str, pid: int) -> None:
    with suppress(BrokenPipeError):  # the guard is gone, and with it this protection
        os.write(_guard(), f"{op} {pid}\n".encode())


def _launch(run: _Run, sel: selectors.BaseSelector, solver_cmd: str, cnf_path: str,
            timeout: float | None) -> None:
    """Start run's solver, the command template on a CNF file, in a new
    session and so a process group of its own, which _guard kills if this
    process dies first.  Its stdout goes to an unlinked temporary file,
    its stderr is discarded, and a pidfd that is ready once it exits is
    registered with sel.  If it cannot start or be watched, a solver that
    started is stopped and run is answered ("error", reason)."""
    argv = [arg.replace("{cnf}", cnf_path) for arg in solver_argv(solver_cmd)]
    _guard()  # started before the solver, so that telling it cannot fail after
    run.stdout = tempfile.TemporaryFile()
    try:
        run.proc = subprocess.Popen(argv, stdout=run.stdout, stderr=subprocess.DEVNULL,
                                    start_new_session=True)
        _tell_guard("+", run.proc.pid)
        run.pidfd = os.pidfd_open(run.proc.pid)
        sel.register(run.pidfd, selectors.EVENT_READ, run)
    except OSError as exc:
        _stop(run)
        run.answer = ("error", f"solver failed to run: {exc}")
    except BaseException:  # an interrupt
        _stop(run)
        raise
    if timeout is not None:
        run.deadline = monotonic() + timeout


def _stop(run: _Run) -> str:
    """End run's solver, the one way a run ends: kill its process group,
    so anything it left running, reap the solver, close its pidfd and
    return what it wrote to stdout.  The group is killed while the
    solver is still unreaped, since its id may be reused after that."""
    if run.proc is not None:
        with suppress(ProcessLookupError):
            os.killpg(run.proc.pid, signal.SIGKILL)
        _tell_guard("-", run.proc.pid)
        run.proc.wait()
    if run.pidfd is not None:
        os.close(run.pidfd)
    with run.stdout:
        run.stdout.seek(0)
        return run.stdout.read().decode(errors="replace")


def run_solver(solver_cmd: str, cnf_path: str, timeout: float | None):
    """Run the solver command template on a CNF file as a campaign runs
    it, and return its answer: the parse of its output once it exits,
    ("timeout", "timeout after <t>s") if it has not exited within
    timeout, or ("error", "solver failed to run: ...") if it could not
    start.  ValueError if the template has no {cnf} placeholder."""
    run = _Run(None, "", 0.0)
    with selectors.DefaultSelector() as sel:
        _launch(run, sel, solver_cmd, str(cnf_path), timeout)
        try:
            while sel.get_map():
                _ended(sel, timeout, block=True)
        finally:  # after an interrupt too
            if sel.get_map():
                _stop(run)
    return run.answer


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
        """The checkpoint JSON of these statuses, plus the verdict and run facts."""
        return {**checkpoint_to_json(self.group, self.n, self.max_rank, self.statuses),
                "verdict": self.verdict(), "wall_seconds": round(self.wall_seconds, 3),
                "solver": self.solver, "decomposition": self.decomposition_path}


def _stem(group: GroupId, spec: ComboSpec, work_dir: str) -> str:
    return os.path.join(work_dir, f"{group.value}-{spec.label()}")


def _decided(group: GroupId, n: int, spec: ComboSpec) -> str | None:
    """The detail of a combo decided `unsat` without a solver, or None."""
    if spec.total_rank() == 0:
        # The empty decomposition cannot equal a nonzero tensor.
        return "rank 0: empty decomposition, no solver run"
    refutation = refute(group, n, spec.counts_dict())  # cached: encode asks it too
    return None if refutation is None else empty_clause_comment(refutation) + ", no solver run"


def _prepare(group: GroupId, n: int, run: _Run) -> None:
    """Encode run's combo and write its CNF to run.stem + ".cnf", keeping
    its literals and varmap on run for _finish (rank 0 has no CNF); a
    combo decided `unsat` here is answered ("unsat", detail) and needs no
    solver."""
    detail = _decided(group, n, run.spec)
    if run.spec.total_rank():
        cnf, run.varmap = encode(group, n, run.spec.counts_dict())
        cnf.write(run.stem + ".cnf")
        run.lits = cnf.lits
    if detail is not None:
        run.answer = ("unsat", detail)


def _problems(group: GroupId, d, sd) -> list[str]:
    """What is wrong with a found decomposition d, whose symmetric form
    is sd: every check it fails, in order."""
    problems = []
    if not verify(d):
        problems.append("decoded decomposition does not evaluate to the target")
    if not is_group_symmetric(d, group):
        problems.append("decoded decomposition is not group symmetric")
    violations = check_canonical(sd)
    if violations:
        problems.append(f"canonical-form violations: {violations}")
    return problems


def _recheck(group: GroupId, n: int, spec: ComboSpec, rec: dict) -> None:
    """ValueError naming spec's combo unless its resumed record holds: a
    `sat` record's files load, are this combo's and pass every check of
    a found decomposition, and an `unsat` record decided without a
    solver (a non-empty detail) is decided so again, with that detail."""
    state, detail = rec["state"], rec["detail"]
    problem = ""
    if state == "unsat" and detail and detail != _decided(group, n, spec):
        problem = "this combo is not decided without a solver as its detail says"
    elif state == "sat":
        try:
            d, sd = load_decomposition(detail), load_symmetric(detail + ".sym")
        except (OSError, ValueError) as exc:
            problem = f"cannot load its decomposition: {exc}"
        else:
            if (sd.group, sd.n, sd.counts()) != (group, n, spec.counts_dict()):
                problem = "its decomposition is of another combo"
            elif d != sd.expand():
                problem = "its decomposition and its .sym file differ"
            else:
                problem = "; ".join(_problems(group, d, sd))
    if problem:
        raise ValueError(f"checkpoint combo {spec.label()}: {state} record: {problem}")


def _finish(group: GroupId, n: int, run: _Run) -> tuple[str, str]:
    """(state, detail) for every end of a combo, read from run.answer: an
    UNKNOWN or unparsable answer is an `error`, and every other result but
    `sat` is its own state.  A model is decoded, checked against the
    combo's CNF, verified, checked symmetric and canonical, and dumped
    beside the CNF; a model of the CNF that fails a check after that
    raises EncoderSoundnessError."""
    result, payload = run.answer
    if result != "sat":
        return ("error" if result == "unknown" else result), payload or ""
    try:
        sd, d = decode(payload, run.varmap, group, n)
    except DecodeError as exc:
        return "error", str(exc)
    true = {v if value else -v for v, value in payload.items()}
    for i, clause in enumerate(Clauses(run.lits), 1):
        if true.isdisjoint(clause):
            return "error", f"model falsifies CNF clause {i}: {' '.join(map(str, clause))} 0"
    problems = _problems(group, d, sd)
    if problems:
        raise EncoderSoundnessError(f"combo {run.spec.label()}: " + "; ".join(problems))
    dump_decomposition(d, run.stem + ".json")
    dump_symmetric(sd, run.stem + ".json.sym")
    return "sat", run.stem + ".json"


def solve_combo(group: GroupId, n: int, spec: ComboSpec, solver_cmd: str,
                timeout: float | None, work_dir: str) -> ComboStatus:
    """Check n, make work_dir if it is missing, and take one combo through
    a campaign's steps: _prepare, the solver unless that decided it, and
    _finish."""
    run = _Run(spec, _stem(group, spec, work_dir), monotonic())
    check_n(group, n)  # before the work dir is made
    os.makedirs(work_dir, exist_ok=True)
    _prepare(group, n, run)
    if run.answer is None:
        run.answer = run_solver(solver_cmd, run.stem + ".cnf", timeout)
    state, detail = _finish(group, n, run)
    return ComboStatus(spec, state, monotonic() - run.started, solver_cmd, detail)


@dataclass(eq=False)
class _Run:
    """One combo, from the start of its encode until it is recorded, or
    the one solver of run_solver.  `started` moves on by the combo's
    wait for a slot, so a record's seconds leave the wait out."""
    spec: ComboSpec
    stem: str
    started: float
    varmap: object = None
    lits: list[int] | None = None  # the CNF's clauses, each ended by a 0
    proc: subprocess.Popen | None = None
    stdout: IO[bytes] | None = None  # the solver's, an unlinked file
    pidfd: int | None = None  # ready once the solver exits
    deadline: float = inf
    answer: tuple | None = None  # (result, payload) for _finish, once the combo has ended


def _ended(sel: selectors.BaseSelector, timeout: float | None,
           block: bool) -> list[_Run]:
    """The runs registered with sel whose solver has exited or whose
    deadline has passed, each unregistered, stopped and given its answer.
    With block, first waits until a solver exits or the first deadline
    passes."""
    runs = [key.data for key in sel.get_map().values()]
    wait = 0.0
    if block:
        wait = min(run.deadline for run in runs) - monotonic()
        wait = None if wait == inf else max(wait, 0.0)
    exited = {key.data for key, _ in sel.select(wait)}
    now = monotonic()
    ended = [run for run in runs if run in exited or run.deadline <= now]
    for run in ended:
        sel.unregister(run.pidfd)
        output = _stop(run)
        run.answer = (parse_solver_output(output) if run in exited
                      else ("timeout", f"timeout after {timeout}s"))
    return ended


def run_campaign(group: GroupId, n: int, max_rank: int, solver_cmd: str,
                 workers: int = 1, timeout: float | None = None,
                 checkpoint_path: str | None = None,
                 work_dir: str | None = None) -> CampaignReport:
    """Solve every combo up to max_rank until the first sat, with at
    most `workers` solvers running at once.  Without a work_dir, a fresh
    temp dir is used; every combo's CNF in it is deleted at the end, and
    so is the dir unless a found pair stays in it.  Combos are recorded
    one at a time as they finish, so when one raises
    EncoderSoundnessError, the combos that finished with it but were not
    yet recorded stay `pending` and run again on resume."""
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
                _recheck(group, n, spec, rec)
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
    sel = selectors.DefaultSelector()  # the running solvers' pidfds

    def _record(run: _Run) -> None:
        nonlocal changed, found
        state, detail = _finish(group, n, run)
        statuses[run.spec] = ComboStatus(run.spec, state, monotonic() - run.started,
                                         solver_cmd, detail)
        changed = True
        found = found or state == "sat"
        _save(now=state == "sat")

    def _settle(block: bool) -> None:
        for run in _ended(sel, timeout, block):
            _record(run)

    try:
        _save(now=True)
        try:
            for spec in pending:
                if found:
                    break
                run = _Run(spec, _stem(group, spec, work_dir), monotonic())
                _prepare(group, n, run)
                if run.answer is None:  # it needs a solver: wait for a slot
                    ready = monotonic()
                    while len(sel.get_map()) >= workers and not found:
                        _settle(block=True)
                    if found:  # it stays pending, and so keeps no CNF
                        break
                    run.started += monotonic() - ready
                    _launch(run, sel, solver_cmd, run.stem + ".cnf", timeout)
                if run.answer is not None:  # decided, or its solver failed to run
                    _record(run)
                # A sat that ended while this combo was encoded stops the next one.
                _settle(block=False)
            while sel.get_map() and not found:
                _settle(block=True)
        finally:
            # After a sat, a raise or an interrupt: each combo not recorded
            # stays pending, so its solver is stopped.
            for key in list(sel.get_map().values()):
                _stop(key.data)
            sel.close()
            _save(now=True)
    finally:  # even when a checkpoint write raises
        # The one CNF rule: a pending combo keeps no CNF, nor does any
        # combo in a work dir the campaign made itself.
        for spec in specs:
            if own_work_dir or statuses[spec].state == "pending":
                with suppress(FileNotFoundError):
                    os.unlink(_stem(group, spec, work_dir) + ".cnf")
        if own_work_dir and not os.listdir(work_dir):
            os.rmdir(work_dir)

    return CampaignReport(group, n, max_rank, [statuses[s] for s in specs],
                          wall_seconds=monotonic() - started,
                          solver=solver_cmd)
