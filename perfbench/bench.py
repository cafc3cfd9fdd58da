"""The biolock benchmark: workloads, metrics, correctness checks and digests.

One process, one closed-loop client: each operation starts when the previous
one has returned.  A run builds the gallery ``SETUP_REPEATS`` times (the median is
``setup_s``) and times opens of it (``open_db_ms``), spread over the run, and
runs operations of one workload until ``seconds`` have passed and at least
``min_ops`` operations are done.  Inputs for an operation are made before its
timer starts; checks run after it stops.  Every timed interval is bracketed by
the reference bursts of ``speed.py`` and reported at reference speed; the wall
times are printed too.

Workloads (why each exists is in ``WHY``):

- ``door``: one ``biolock access`` call per operation through ``cli.main``;
  opens the database, decodes two PGM files, scores one claim, appends one
  audit line.  Extraction-bound, touches one gallery record.
- ``search``: one ``registry.identify(top_k=len(db))`` per operation against
  the gallery opened once.  Gallery matching dominates.
- ``enroll``: one ``registry.enroll`` of a degraded 512x512 print and an eye
  per operation.  Filter-bound, and rewrites the whole manifest each time.

A traced run (``trace=True``) wraps the layers' public functions from outside
(see ``tracer.py``) for all but every ``UNTRACED_EVERY``-th operation, so the
same run also times untraced operations, interleaved with the traced ones,
and can state the tracing overhead.
Digests cover the first ``min_ops`` operations, which every run performs, so
a traced run prints the digests of the untraced run with the same seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import platform
import resource
import shutil
import stat
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import gen
from biolock import cli, registry
from biolock.fingerprint import encode_template
from biolock.imaging import encode_pgm
from biolock.iris import build_codes, encode_code
from speed import Speed
from tracer import TARGETS, Tracer, span_cost_ns

WORKLOADS = ("door", "search", "enroll")
WHY = {
    "door": "one audited access call per door event: database open, two PGM "
            "decodes, extraction twice, one record scored; gallery-free",
    "search": "1:N identification over the 500-subject gallery opened once; "
              "minutiae, Hamming and fusion scoring dominate",
    "enroll": "enrollment of degraded 512x512 prints: false-minutiae filtering "
              "dominates and each write rewrites a ~500-entry manifest",
}
# Operations every run performs however slow the machine is; the digests
# cover exactly these.
MIN_OPS = {"door": 20, "search": 5, "enroll": 5}
SETUP_REPEATS = 3
OPEN_DB_REPEATS = 5
OPEN_DB_INTERVAL_S = 1.0
UNTRACED_EVERY = 3
# Accuracy floors.  On these synthetic captures a correct program makes a few
# percent of biometric errors: impostor pairs that score above the default
# 0.5 operating point, and genuine prints whose registration fails under one
# of the transforms.  A broken matcher scores near chance (about half the
# decisions wrong, rank-1 near 1/N, EER near 0.5), so these floors separate
# the two without failing a correct program on an unlucky seed.
DOOR_MAX_DECISION_ERROR = 0.1
SEARCH_MIN_RANK1 = 0.8
SEARCH_MAX_EER = 0.1
# Stop starting operations after this long, so a run ends well within 180 s
# on a slow machine; a run cut short of ``min_ops`` is reported incorrect.
HARD_LIMIT_S = 110.0


@dataclass
class Result:
    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(self.checks.values())

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def _ms(ns: int) -> float:
    return ns / 1e6


def _sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def _gallery_digest(db_path: Path) -> str:
    files = sorted(p for p in db_path.iterdir() if p.suffix in (".fpt", ".irc"))
    return _sha(part for p in files for part in (p.name, p.read_bytes()))


def _snapshot(root: Path) -> dict:
    """(inode, size, mtime) of every regular file under ``root``."""
    out = {}
    for p in root.rglob("*"):
        try:
            st = p.stat()
        except FileNotFoundError:  # a temp file renamed away meanwhile
            continue
        if stat.S_ISREG(st.st_mode):
            out[p] = (st.st_ino, st.st_size, st.st_mtime_ns)
    return out


def _bytes_written(before: dict, after: dict) -> int:
    """Bytes of files created or replaced, plus growth of appended files."""
    total = 0
    for path, (ino, size, mtime) in after.items():
        old = before.get(path)
        if old is None or old[0] != ino:
            total += size
        elif old[2] != mtime:
            total += max(size - old[1], 0)
    return total


# ---------------------------------------------------------------------------
# Set-up


def build_gallery(db_path: Path, subjects: list, background: list, step):
    """Enroll the real subjects, add the background records, open the result.
    Each step is one call of ``step``, so a caller can time the steps."""
    db = step(lambda: registry.load_db(db_path))
    for s in subjects:
        step(lambda s=s: registry.enroll(db, s.subject_id, [s.finger], [s.eye]))
    step(lambda: gen.write_background(db_path, background))
    return step(lambda: registry.load_db(db_path))


# ---------------------------------------------------------------------------
# Workloads: ``prepare(i)`` makes operation i's inputs and returns a callable
# that performs it; ``record(i, outcome)`` keeps what the checks need.


class Door:
    def __init__(self, ctx):
        self.ctx = ctx
        self.audit = ctx.work / "door.log"
        self.finger = ctx.work / "probe_finger.pgm"
        self.eye = ctx.work / "probe_eye.pgm"
        self.claims = {}
        self.outcomes = {}

    def prepare(self, i):
        claim = gen.door_claim(self.ctx.subjects, self.ctx.seed, i)
        self.claims[i] = (claim.claimed_id, claim.genuine)
        self.finger.write_bytes(encode_pgm(claim.probe.finger))
        self.eye.write_bytes(encode_pgm(claim.probe.eye))
        argv = ["access", "--db", str(self.ctx.gallery), "--claim", claim.claimed_id,
                "--finger", str(self.finger), "--iris", str(self.eye),
                "--audit", str(self.audit)]

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            if code not in (0, 1):
                raise RuntimeError(f"access exited {code}: {err.getvalue().strip()}")
            return code, out.getvalue().strip()
        return call

    def record(self, i, outcome):
        self.outcomes[i] = outcome

    def finish(self, res: Result, prefix: int) -> None:
        events = registry.read_audit_log(self.audit)
        ops = sorted(self.outcomes)
        res.checks["door.one_audit_event_per_call"] = len(events) == res.attempted
        consistent, wrong = True, 0
        for i, event in zip(ops, events):
            (_, genuine), (code, line) = self.claims[i], self.outcomes[i]
            label = "UNLOCK" if code == 0 else "ALARM"
            kind = registry.EVENT_ACCESS_GRANTED if code == 0 else registry.EVENT_ALARM
            consistent &= line.endswith(label) and event.kind == kind
            wrong += (code == 0) != genuine
        rate = wrong / max(len(ops), 1)
        res.checks["door.exit_code_matches_label_and_audit"] = consistent
        res.checks["door.decision_error_rate_within_floor"] = rate <= DOOR_MAX_DECISION_ERROR
        res.notes.append(f"decision_error_rate {rate} ratio")
        res.digests["door"] = _sha(
            [self.ctx.gallery_digest]
            + [f"{i} {self.claims[i][0]} {self.outcomes[i][0]} "
               f"{self.outcomes[i][1]} {events[n].kind} {events[n].ms_final!r}"
               for n, i in enumerate(ops[:prefix]) if n < len(events)])


class Search:
    def __init__(self, ctx):
        self.ctx = ctx
        self.truth = {}
        self.matches = {}

    def prepare(self, i):
        probe = gen.search_probe(self.ctx.subjects, self.ctx.seed, i)
        self.truth[i] = probe.true_id
        db = self.ctx.db
        return lambda: registry.identify(db, probe.finger, probe.eye, top_k=len(db))

    def record(self, i, outcome):
        self.matches[i] = outcome

    @staticmethod
    def _split(pairs):
        genuine, impostor = [], []
        for true_id, matches in pairs:
            for m in matches:
                (genuine if m.subject_id == true_id else impostor).append(m.ms_final)
        return genuine, impostor

    def finish(self, res: Result, prefix: int) -> None:
        ops = sorted(self.matches)
        pairs = [(self.truth[i], self.matches[i]) for i in ops]
        rank1 = sum(m[0].subject_id == t for t, m in pairs) / max(len(pairs), 1)
        report = cli.sweep_rates(*self._split(pairs))
        _, far, frr = report.eer_row()
        eer = (far + frr) / 2.0
        res.checks["search.full_ranking"] = all(len(m) == len(self.ctx.db) for _, m in pairs)
        res.checks["search.rank1_within_floor"] = rank1 >= SEARCH_MIN_RANK1
        res.checks["search.eer_within_floor"] = eer <= SEARCH_MAX_EER
        res.notes += [f"rank1_rate {rank1} ratio", f"eer {eer} ratio"]
        head = pairs[:prefix]
        roc = cli.sweep_rates(*self._split(head)).rows
        res.digests["search"] = _sha(
            [self.ctx.gallery_digest]
            + [f"{t} {m.subject_id} {m.ms_final!r} {m.per_trait!r}"
               for t, matches in head for m in matches]
            + [repr(row) for row in roc])


class Enroll:
    def __init__(self, ctx):
        self.ctx = ctx
        self.path = ctx.work / "enroll_db"
        shutil.copytree(ctx.gallery, self.path)
        self.db = registry.load_db(self.path)
        self.records = {}

    def prepare(self, i):
        subject_id, finger, eye = gen.enroll_capture(self.ctx.seed, i)
        return lambda: registry.enroll(self.db, subject_id, [finger], [eye])

    def record(self, i, outcome):
        self.records[i] = outcome

    def finish(self, res: Result, prefix: int) -> None:
        reopened = registry.load_db(self.path)
        res.checks["enroll.all_subjects_persisted"] = (
            len(reopened) == gen.N_REAL + len(self.ctx.background) + len(self.records))
        exact = True
        parts = [self.ctx.gallery_digest]
        for n, i in enumerate(sorted(self.records)):
            rec = self.records[i]
            again = reopened.records.get(rec.subject_id)
            produced = [encode_template(rec.fingerprints[0]),
                        encode_code(rec.iris_codes[0].haar),
                        encode_code(rec.iris_codes[0].mellin)]
            names = [f"{rec.subject_id}_finger_0.fpt", f"{rec.subject_id}_iris_0_haar.irc",
                     f"{rec.subject_id}_iris_0_mellin.irc"]
            on_disk = [(self.path / name).read_bytes() for name in names]
            reencoded = [] if again is None else [
                encode_template(again.fingerprints[0]),
                encode_code(again.iris_codes[0].haar),
                encode_code(again.iris_codes[0].mellin)]
            exact &= produced == on_disk == reencoded
            if n < prefix:
                parts += [rec.subject_id, *names, *produced]
        res.checks["enroll.reopened_records_reencode_exactly"] = exact
        res.digests["enroll"] = _sha(parts)


RUNNERS = {"door": Door, "search": Search, "enroll": Enroll}


# ---------------------------------------------------------------------------
# The run


@dataclass
class Context:
    seed: int
    work: Path
    subjects: list = field(default_factory=list)
    background: list = field(default_factory=list)
    gallery: Path = None
    db: object = None
    gallery_digest: str = ""


def _per_layer(res: Result, tracer: Tracer, traced: list, written: int,
               times: dict, scaled: dict) -> None:
    """Per-layer figures per traced operation; spans and counts exist only
    for traced operations.  ``times`` are wall times, ``scaled`` the same at
    reference speed."""
    n = max(len(traced), 1)
    totals = tracer.self_times()
    for name, _, _, suffix in TARGETS:
        ns, calls = totals.get(name, (0, 0))
        res.metric(f"{name}.{suffix}", _ms(ns) / n, "ms")
        res.metric(f"{name}.calls", calls / n, "count")
    raw, kept = tracer.counts["minutiae_raw"], tracer.counts["minutiae_kept"]
    res.metric("fingerprint.minutiae_raw", raw / n, "count")
    res.metric("fingerprint.minutiae_kept", kept / n, "count")
    res.metric("fingerprint.kept_ratio", kept / raw if raw else 0.0, "ratio")
    res.metric("registry.bytes_written", written / n, "B")
    covered = tracer.covered_ns()
    coverage = [_ms(covered[op]) / times[op] for op in traced if op in times]
    res.metric("trace.coverage_min", min(coverage) if coverage else 0.0, "ratio")
    res.metric("trace.spans_per_op", len(tracer.spans) / n, "count")
    on = [scaled[i] for i in traced if i in scaled]
    off = [t for i, t in scaled.items() if i not in set(traced)]
    res.metric("trace.op_p50_ms", statistics.median(on) if on else 0.0, "ms")
    overhead = 100.0 * (statistics.median(on) / statistics.median(off) - 1.0) if on and off else 0.0
    res.metric("trace.overhead_pct", overhead, "%")
    # The A/B above carries the machine's noise; this estimate does not.
    per_op_ms = _ms(span_cost_ns() * len(tracer.spans)) / n
    res.metric("trace.overhead_est_pct",
               100.0 * per_op_ms / statistics.median(on) if on else 0.0, "%")
    res.metric("trace.traced_ops", len(traced), "count")


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path,
        min_ops: int = None, n_background: int = gen.N_BACKGROUND) -> Result:
    """Run one workload and return its metrics, checks and digests."""
    if workload not in RUNNERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    min_ops = MIN_OPS[workload] if min_ops is None else min_ops
    res = Result(workload, seed)
    work_parent = root / ".perfbench_work"
    work_parent.mkdir(parents=True, exist_ok=True)
    ctx = Context(seed, work_parent / f"{workload}-{seed}-{os.getpid()}")
    ctx.work.mkdir()
    try:
        _run(ctx, res, workload, seconds, trace, root, min_ops, n_background)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    return res


def _attempt(call):
    try:
        return call()
    except Exception as exc:  # an operation that raises counts as failed
        return exc


def _run(ctx, res, workload, seconds, trace, root, min_ops, n_background):
    ctx.subjects = gen.real_subjects(ctx.seed)
    masks = [(codes[2].mask, codes[3].mask)
             for codes in (build_codes(s.eye) for s in ctx.subjects)]
    ctx.background = gen.background_records(ctx.seed, masks, n_background)

    # Sampling inside operations is off in a traced run: its bursts would
    # land in the spans.
    speed = Speed(ctx.work / "speedref", sample=not trace)
    # Set-up is timed once before the operations, once halfway through the
    # minimum and once after them, so its median is not one moment's speed.
    # Each of its steps is scaled on its own: set-up lasts seconds.
    setup_times, setup_wall = [], []

    def time_setup(path):
        wall = scaled = 0.0

        def step(fn):
            nonlocal wall, scaled
            result, step_wall, step_scaled = speed.timed(fn)
            wall += step_wall
            scaled += step_scaled
            return result

        db = build_gallery(path, ctx.subjects, ctx.background, step)
        setup_wall.append(wall)
        setup_times.append(scaled)
        return db

    def extra_setup():
        time_setup(ctx.work / "setup")
        shutil.rmtree(ctx.work / "setup")

    ctx.gallery = ctx.work / "gallery"
    ctx.db = time_setup(ctx.gallery)
    ctx.gallery_digest = _gallery_digest(ctx.gallery)
    # Opens are timed in a batch now and then once per OPEN_DB_INTERVAL_S
    # between operations, so the median spans the whole run.
    open_times, open_wall = [], []

    def time_open():
        _, wall, scaled = speed.timed(lambda: registry.load_db(ctx.gallery))
        open_wall.append(wall * 1e3)
        open_times.append(scaled * 1e3)

    for _ in range(OPEN_DB_REPEATS):
        time_open()

    runner = RUNNERS[workload](ctx)
    tracer = Tracer() if trace else None
    times, scaled, traced, errors = {}, {}, [], []
    written = 0
    start = last_open = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - start < seconds:
        if time.perf_counter() - start > HARD_LIMIT_S:
            break
        call = runner.prepare(i)
        on = tracer is not None and i % UNTRACED_EVERY != UNTRACED_EVERY - 1
        if on:
            files_before = _snapshot(ctx.work)
            tracer.op = i
            tracer.install()
        outcome, wall, at_ref = speed.timed(lambda: _attempt(call))
        if on:
            tracer.uninstall()
            tracer.op = -1
            written += _bytes_written(files_before, _snapshot(ctx.work))
            traced.append(i)
        res.attempted += 1
        if isinstance(outcome, Exception):
            res.failed += 1
            errors.append(f"op {i}: {type(outcome).__name__}: {outcome}")
        else:
            runner.record(i, outcome)
            times[i] = wall * 1e3
            scaled[i] = at_ref * 1e3
        i += 1
        if i == max(min_ops // 2, 1):
            extra_setup()
        if time.perf_counter() - last_open >= OPEN_DB_INTERVAL_S:
            time_open()
            last_open = time.perf_counter()
    while len(setup_times) < SETUP_REPEATS:
        extra_setup()

    res.checks["ran_min_ops"] = res.attempted >= min_ops
    res.checks["no_failed_ops"] = res.failed == 0
    res.notes.append(f"error_rate {res.failed / max(res.attempted, 1)} ratio")
    res.notes += errors[:5]
    runner.finish(res, min_ops)

    if tracer is None:
        lat = list(scaled.values()) or [0.0]
        # The mean is gated, not the median: an enroll's cost follows its
        # print design, so a run's enroll times fall into a few clusters, and
        # the median of a dozen jumps between them as the count changes.
        res.metric("op_mean_ms", statistics.fmean(lat), "ms")
        res.metric("open_db_ms", statistics.median(open_times), "ms")
        res.metric("setup_s", statistics.median(setup_times), "s")
        res.metric("peak_rss_mb",
                   resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        # Too few samples lie above the p90 in most runs to gate it; it is
        # printed with its sample count.
        res.notes.append(f"op_p50_ms {statistics.median(lat)} ms")
        res.notes.append(f"op_p90_ms {float(np.percentile(lat, 90))} ms")
        res.notes.append(f"samples op={len(lat)} open_db={len(open_times)} "
                         f"setup={len(setup_times)}")
        wall = list(times.values()) or [0.0]
        res.notes += [f"wall.op_mean_ms {statistics.fmean(wall)} ms",
                      f"wall.op_p50_ms {statistics.median(wall)} ms",
                      f"wall.open_db_ms {statistics.median(open_wall)} ms",
                      f"wall.setup_s {statistics.median(setup_wall)} s",
                      f"slowdown_p50 {statistics.median(speed.slowdowns)} ratio"]
    else:
        _per_layer(res, tracer, traced, written, times, scaled)
        out = root / ".perfbench_out" / f"spans-{workload}-seed{ctx.seed}.jsonl"
        tracer.write(out)
        res.notes.append(f"spans written to {out.relative_to(root)}")
