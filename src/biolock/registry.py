"""Template database: enrollment, verification, identification, audit log.

A database is a directory holding one binary file per template or code plus a
``manifest.json`` that names them.  Every :class:`TemplateDB` reads and checks
the whole manifest when it is opened; :func:`load_db` then reads every
subject's files through one directory descriptor and decodes them in one batch,
while ``verify`` and ``access`` decode only the named subject's, ``enroll`` none.
:func:`enroll` runs the feature pipelines and persists new records atomically
(each file under its own name, then the manifest, whose rename commits them);
:func:`verify`, :func:`identify`, and :func:`access` score probes against the
stored records in one scoring core and one array-valued fusion pass (verify is
a gallery of one).  :func:`access` is :func:`verify` plus the door's audit
event: it returns the :class:`FusedScore` it decided on, and the door unlocks
exactly when that score's decision is genuine.  Access decisions and
enrollments append JSON-line events to an audit log whose timestamps strictly
increase in file order, across processes and threads, under an exclusive
``flock``; :func:`access` opens the log before it scores, and reading or
appending refuses anything but a regular file.

Multi-template rule: a subject may hold several fingerprint templates and iris
code pairs; the per-trait score against that subject is the maximum over the
subject's templates.  For the iris trait the unit of aggregation is the
enrolled pair — each pair's haar/mellin distances are fused first and the best
pair wins — so one eye's observation is never mixed with another's.

The scoring core runs on the calling thread: a probe's finger half first,
then its iris half, so a finger error is raised before the iris half starts.
"""

from __future__ import annotations

import fcntl
import json
import math
import os
import re
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timedelta, timezone
from itertools import cycle, islice
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    BiolockError,
    CorruptManifest,
    DuplicateSubject,
    EmptyDatabase,
    EmptyEnrollment,
    MissingTemplateFile,
    NoProbe,
    NotRegularFile,
    PipelineFailure,
    TruncatedData,
    UnknownSubject,
    failed_stage,
)
from .fingerprint import (
    TEMPLATE_MAX_BYTES,
    FingerprintTemplate,
    build_template,
    decode_template,
    decode_templates,
    encode_template,
    match_minutiae_many,
)
from .fusion import (
    CLASSIFIER_HAAR,
    CLASSIFIER_MELLIN,
    CLASSIFIER_MINUTIAE,
    GENUINE,
    FusedScore,
    FusionConfig,
    fuse_arrays,
    fuse_pipeline,
)
from .imaging import GrayImage, _unchecked, open_regular, read_regular_file
from .iris import (
    CODE_MAX_BYTES,
    IrisCode,
    SCHEME_HAAR,
    SCHEME_MELLIN,
    build_codes,
    decode_codes,
    encode_code,
    hamming_distances,
)

SUBJECT_ID_PATTERN = re.compile(r"(?!-\Z)[A-Za-z0-9_-]{1,64}")  # fullmatch; "-" marks a bad claim

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1
MAX_MANIFEST_BYTES = 64 * 1024 * 1024  # a 10 000-subject manifest is about 2 MB
# enroll's writes: no wait on a FIFO, no symlink followed, and no O_TRUNC, so a
# file with another hard link is refused before a byte of it changes
WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_NONBLOCK | os.O_NOFOLLOW
AUDIT_LOG_NAME = "audit.log"
MAX_AUDIT_LOG_BYTES = 64 * 1024 * 1024  # about 400 000 events of 160 bytes
AUDIT_TAIL_BYTES = 64 * 1024  # the end of the log read back for its last stamp

EVENT_ACCESS_GRANTED = "access_granted"
EVENT_ALARM = "alarm"
EVENT_ENROLL = "enroll"
EVENT_ERROR = "error"
EVENT_KINDS = (EVENT_ACCESS_GRANTED, EVENT_ALARM, EVENT_ENROLL, EVENT_ERROR)


def _validate_subject_id(subject_id: str) -> str:
    if not isinstance(subject_id, str) or not SUBJECT_ID_PATTERN.fullmatch(subject_id):
        raise ValueError(
            f"subject id must match [A-Za-z0-9_-]{{1,64}} and not be '-', got {subject_id!r}"
        )
    return subject_id


@dataclass(frozen=True)
class IrisPair:
    """One eye's enrollment: a haar code and a mellin code of the same strip."""

    haar: IrisCode
    mellin: IrisCode

    def __post_init__(self) -> None:
        if not isinstance(self.haar, IrisCode) or self.haar.scheme != SCHEME_HAAR:
            raise ValueError("haar slot must hold a haar-scheme IrisCode")
        if not isinstance(self.mellin, IrisCode) or self.mellin.scheme != SCHEME_MELLIN:
            raise ValueError("mellin slot must hold a mellin-scheme IrisCode")


@dataclass(frozen=True)
class PersonRecord:
    """One enrolled subject: identifier, templates, and enrollment time."""

    subject_id: str
    fingerprints: tuple
    iris_codes: tuple
    enrolled_at: str

    def __post_init__(self) -> None:
        _validate_subject_id(self.subject_id)
        fingers = tuple(self.fingerprints)
        pairs = tuple(self.iris_codes)
        for template in fingers:
            if not isinstance(template, FingerprintTemplate):
                raise TypeError("fingerprints must hold FingerprintTemplate values")
        for pair in pairs:
            if not isinstance(pair, IrisPair):
                raise TypeError("iris_codes must hold IrisPair values")
        if not fingers and not pairs:
            raise ValueError("a record needs at least one fingerprint or iris pair")
        if not isinstance(self.enrolled_at, str) or not self.enrolled_at:
            raise ValueError("enrolled_at must be a non-empty timestamp string")
        object.__setattr__(self, "fingerprints", fingers)
        object.__setattr__(self, "iris_codes", pairs)


@dataclass(frozen=True)
class RankedMatch:
    """One identification hit: subject, final score, per-trait scores
    (``None`` for a trait the subject and probe do not share)."""

    subject_id: str
    ms_final: float
    per_trait: tuple


@dataclass(frozen=True)
class AuditEvent:
    """One audit-log line: ISO 8601 timestamp with a UTC offset, event kind,
    claim (a subject id, or ``-`` for an invalid one), score, free text."""

    ts: str
    kind: str
    claimed_id: str
    ms_final: float
    detail: str

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"kind must be one of {EVENT_KINDS}, got {self.kind!r}")
        if not all(isinstance(getattr(self, f), str) for f in ("ts", "claimed_id", "detail")):
            raise ValueError(f"ts, claimed_id and detail must be strings: {self!r}")
        if datetime.fromisoformat(self.ts).utcoffset() is None:
            raise ValueError(f"ts must carry a UTC offset, got {self.ts!r}")
        if self.claimed_id != "-" and not SUBJECT_ID_PATTERN.fullmatch(self.claimed_id):
            raise ValueError(
                f"claimed_id must be a subject id or '-', got {self.claimed_id!r}")
        object.__setattr__(self, "ms_final", float(self.ms_final))
        if not math.isfinite(self.ms_final):
            raise ValueError(f"ms_final must be finite, got {self.ms_final}")


class TemplateDB:
    """In-memory view of a database directory.

    Opening one reads and checks ``manifest.json``: ``_entries`` holds every
    manifest entry (file names per subject) in enrollment order, so enrollment
    checks ids against the whole database and re-writes the manifest without
    renaming existing files.  ``records``, empty at first, maps the subjects read
    in one batch, through one directory descriptor, to :class:`PersonRecord`.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.records: dict = {}
        self._entries: dict = _parse_manifest(self.path / MANIFEST_NAME)

    def __len__(self) -> int:
        return len(self.records)


# ---------------------------------------------------------------------------
# Audit log

class AuditLog:
    """Append-only JSON-lines event log with timestamps strictly increasing in
    file order, across processes and threads, under an exclusive ``flock``:
    each is 1 us past the last whole line's ``ts`` unless the clock is later.
    No floor comes from a missing, foreign, offset-less, unparsable or maximal
    stamp, nor from a torn last line (no final newline), which is ended first."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    def _open(self):
        """The log, created with its directory if missing, opened to append
        and to read back; anything but a regular file raises NotRegularFile."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        return open(self.path, "ab+", opener=lambda path, flags: open_regular(path, flags)[0])

    def append(self, kind: str, claimed_id: str, ms_final: float, detail: str) -> AuditEvent:
        valid_id = isinstance(claimed_id, str) and SUBJECT_ID_PATTERN.fullmatch(claimed_id)
        recorded_id = claimed_id if valid_id else "-"
        with self._open() as fh:  # closing flushes the line, then drops the lock
            fcntl.flock(fh, fcntl.LOCK_EX)
            start = max(0, fh.seek(0, os.SEEK_END) - AUDIT_TAIL_BYTES)
            tail = os.pread(fh.fileno(), AUDIT_TAIL_BYTES, start)
            lines = tail.rsplit(b"\n", 2)[bool(start):]  # drop a first piece the read cut
            now = datetime.now(timezone.utc)
            try:
                last = datetime.fromisoformat(json.loads(lines[-2])["ts"])
                if last.utcoffset() is not None and now <= last:
                    now = (last + timedelta(microseconds=1)).astimezone(timezone.utc)
            except (IndexError, KeyError, TypeError, ValueError, RecursionError, OverflowError):
                pass  # no floor
            event = AuditEvent(now.isoformat(timespec="microseconds"), kind, recorded_id,
                               float(ms_final), str(detail))
            line = json.dumps(asdict(event)).encode("utf-8") + b"\n"
            fh.write(line if tail.endswith(b"\n") or not tail else b"\n" + line)  # end a torn line
        return event


def read_audit_log(path: Union[str, Path]) -> list:
    """Parse an audit log, read with :func:`read_regular_file` under
    ``MAX_AUDIT_LOG_BYTES``, into events; a missing file reads as empty."""
    try:
        text = read_regular_file(path, MAX_AUDIT_LOG_BYTES).decode("utf-8")
    except FileNotFoundError:
        return []
    events = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
            events.append(AuditEvent(**{f.name: data[f.name] for f in fields(AuditEvent)}))
        # RecursionError: JSON nested too deep; OverflowError: an int ms_final past float's range
        except (ValueError, KeyError, TypeError, RecursionError, OverflowError) as exc:
            raise ValueError(f"{path}: line {lineno}: bad audit record: {exc}") from exc
    return events


# ---------------------------------------------------------------------------
# Persistence

def _manifest_check(condition: bool, where: Path, message: str, *args) -> None:
    if not condition:  # the message is formatted only when it is raised
        raise CorruptManifest(f"{where}: {message % args}")


def _load_file(prefix: str, name: str, cap: int, dir_fd: int) -> bytes:
    """``read_regular_file(name, cap, dir_fd)``, naming the file ``prefix + name`` in errors."""
    try:
        return read_regular_file(name, cap, dir_fd)
    except FileNotFoundError as exc:
        raise MissingTemplateFile(prefix + name) from exc
    except NotRegularFile as exc:  # the reader names ``name``
        raise MissingTemplateFile(prefix + str(exc)) from exc
    except TruncatedData as exc:
        raise TruncatedData(prefix + str(exc)) from exc


def _parse_manifest(manifest_path: Path) -> dict:
    """Check the whole manifest, reading no template file, and return its
    entries by subject id in enrollment order; no manifest means no entries,
    and one that is not a regular file, or is past its cap, is corrupt."""
    try:
        blob = read_regular_file(manifest_path, MAX_MANIFEST_BYTES)
    except FileNotFoundError:
        return {}
    except (NotRegularFile, TruncatedData) as exc:
        raise CorruptManifest(str(exc)) from exc
    try:
        data = json.loads(blob.decode("utf-8"))
    # RecursionError: JSON nested past the parser's recursion limit
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise CorruptManifest(f"{manifest_path}: {exc}") from exc
    _manifest_check(isinstance(data, dict), manifest_path, "top level must be an object")
    version = data.get("version")  # True == 1.0 == 1: only the int counts
    _manifest_check(type(version) is int and version == MANIFEST_VERSION, manifest_path,
                    "unsupported version %r", version)
    subjects = data.get("subjects")
    _manifest_check(isinstance(subjects, list), manifest_path, "subjects must be a list")
    entries = {}
    for entry in subjects:
        _manifest_check(isinstance(entry, dict), manifest_path, "subject entry must be an object")
        subject_id = entry.get("id")
        try:
            _validate_subject_id(subject_id)
        except ValueError as exc:
            raise CorruptManifest(f"{manifest_path}: {exc}") from exc
        _manifest_check(subject_id not in entries, manifest_path, "duplicate subject %r",
                        subject_id)
        enrolled_at = entry.get("enrolled_at")
        _manifest_check(isinstance(enrolled_at, str) and bool(enrolled_at), manifest_path,
                        "subject %r: bad enrolled_at", subject_id)
        fingers_entry = entry.get("fingers", [])
        iris_entry = entry.get("iris", [])
        for key, value in (("fingers", fingers_entry), ("iris", iris_entry)):
            _manifest_check(isinstance(value, list), manifest_path,
                            "subject %r: %s must be a list", subject_id, key)
        names = list(fingers_entry)
        for item in iris_entry:
            _manifest_check(isinstance(item, dict) and "haar" in item and "mellin" in item,
                            manifest_path, "subject %r: iris entry needs haar and mellin files",
                            subject_id)
            names += [item["haar"], item["mellin"]]
        for name in names:  # a plain name in the database directory
            _manifest_check(isinstance(name, str) and name not in ("", ".", "..") and "/" not in name
                            and os.sep not in name and "\0" not in name,
                            manifest_path, "bad file reference %r", name)
        _manifest_check(bool(names), manifest_path, "subject %r: a record needs at least "
                        "one fingerprint or iris pair", subject_id)
        entries[subject_id] = {"id": subject_id, "enrolled_at": enrolled_at,
                               "fingers": fingers_entry, "iris": iris_entry}
    return entries


def _decode_records(directory: str, entries: list) -> dict:
    """Records by subject id of ``entries`` from :func:`_parse_manifest`: all files are read
    first, in manifest order through one directory descriptor, then decoded in one call per
    format; built unchecked, as the manifest parse, decoders and slot check checked them."""
    fingers, codes = [], []  # (name, bytes)
    prefix = os.path.join(directory, "")  # + name is os.path.join for a plain name
    dir_fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
    try:
        for entry in entries:
            fingers += [(name, _load_file(prefix, name, TEMPLATE_MAX_BYTES, dir_fd))
                        for name in entry["fingers"]]
            codes += [(item[key], _load_file(prefix, item[key], CODE_MAX_BYTES, dir_fd))
                      for item in entry["iris"] for key in ("haar", "mellin")]
    finally:
        os.close(dir_fd)
    templates = iter(decode_templates([blob for _, blob in fingers],
                                      [prefix + name for name, _ in fingers]))
    decoded = decode_codes([blob for _, blob in codes], [prefix + name for name, _ in codes])
    for (name, _), code, scheme in zip(codes, decoded, cycle((SCHEME_HAAR, SCHEME_MELLIN))):
        if code.scheme != scheme:
            raise CorruptManifest(f"{os.path.join(directory, MANIFEST_NAME)}: {name}: "
                                  f"manifest lists a {scheme} code but the file holds {code.scheme}")
    pairs = (_unchecked(IrisPair, haar=h, mellin=m) for h, m in zip(decoded[::2], decoded[1::2]))
    return {entry["id"]: _unchecked(
        PersonRecord, subject_id=entry["id"], enrolled_at=entry["enrolled_at"],
        fingerprints=tuple(islice(templates, len(entry["fingers"]))),
        iris_codes=tuple(islice(pairs, len(entry["iris"])))) for entry in entries}


def load_db(path: Union[str, Path]) -> TemplateDB:
    """Open a database, decoding every record in one batch; no manifest is an empty DB."""
    db = TemplateDB(path)
    if db._entries:  # an empty database opens no directory descriptor
        db.records = _decode_records(os.fspath(db.path), list(db._entries.values()))
    return db


def _load_record(path: Union[str, Path], subject_id: str) -> TemplateDB:
    """:func:`load_db` decoding only ``subject_id``'s files, a batch of one: a view
    holding at most that record, and every manifest entry to enroll against."""
    db = TemplateDB(path)
    if subject_id in db._entries:
        db.records = _decode_records(os.fspath(db.path), [db._entries[subject_id]])
    return db


def _persist_record(db: TemplateDB, entry: dict, files: dict) -> None:
    """Write each ``{name: bytes}`` of ``files`` under that name, then the manifest with
    ``entry`` appended to ``manifest.json.tmp``, renamed over ``manifest.json``: the one
    commit point, as no manifest lists a file before it.  Each is opened once by
    :func:`open_regular` with ``WRITE_FLAGS``, so anything but a regular file at a name, or
    one with another hard link, fails at once and stays as it was; on any failure the files
    this call opened for writing are removed."""
    # one subject per line, each on json's C encoder (indent= takes the Python one)
    subjects = ",\n".join(map(json.dumps, [*db._entries.values(), entry]))
    text = f'{{"version": {MANIFEST_VERSION}, "subjects": [\n{subjects}\n]}}\n'
    tmp, opened = MANIFEST_NAME + ".tmp", []
    try:
        for name, blob in {**files, tmp: text.encode("utf-8")}.items():
            fd, info = open_regular(db.path / name, WRITE_FLAGS)
            try:
                if info.st_nlink > 1:  # writing would write the other names' file too
                    raise NotRegularFile(f"{db.path / name}: has another hard link")
                opened.append(name)
                if info.st_size:
                    os.ftruncate(fd, 0)
                while blob:  # a filling disk writes short, then raises
                    blob = blob[os.write(fd, blob):]
            finally:
                os.close(fd)
        os.replace(db.path / tmp, db.path / MANIFEST_NAME)
    except BaseException:
        for name in opened:
            try:
                (db.path / name).unlink()
            except OSError:
                pass
        raise
    db._entries[entry["id"]] = entry


# ---------------------------------------------------------------------------
# Enrollment

def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="microseconds")


def enroll(
    db: TemplateDB,
    subject_id: str,
    finger_images: Sequence[GrayImage] = (),
    iris_images: Sequence[GrayImage] = (),
) -> PersonRecord:
    """Extract features from every image, persist them, log an enroll event.

    All feature extraction happens, and the audit log is opened, before the
    first write, so a pipeline failure on any image or a log that cannot be
    opened leaves the database exactly as it was.  Each template and code is
    encoded once; the record holds what its files hold.
    """
    _validate_subject_id(subject_id)
    if subject_id in db._entries:
        raise DuplicateSubject(f"duplicate subject: {subject_id!r} is already enrolled")
    finger_images = list(finger_images)
    iris_images = list(iris_images)
    if not finger_images and not iris_images:
        raise EmptyEnrollment("enrollment needs at least one finger or iris image")
    files, templates, pairs, iris_items = {}, [], [], []
    for i, img in enumerate(finger_images):
        try:
            blob = encode_template(build_template(img))
        except BiolockError as exc:
            raise PipelineFailure("finger", i, "feature-extraction", exc) from exc
        files[f"{subject_id}_finger_{i}.fpt"] = blob
        templates.append(decode_template(blob))  # FPT1 stores float32 fields
    finger_names = list(files)
    for i, img in enumerate(iris_images):
        try:
            _, _, haar, mellin = build_codes(img)
        except BiolockError as exc:
            raise PipelineFailure("iris", i, failed_stage(exc), exc) from exc
        pairs.append(IrisPair(haar, mellin))
        item = {key: f"{subject_id}_iris_{i}_{key}.irc" for key in ("haar", "mellin")}
        files[item["haar"]], files[item["mellin"]] = encode_code(haar), encode_code(mellin)
        iris_items.append(item)
    log = AuditLog(db.path / AUDIT_LOG_NAME)
    log._open().close()
    record = PersonRecord(subject_id, tuple(templates), tuple(pairs), _utc_now())
    _persist_record(db, {"id": subject_id, "enrolled_at": record.enrolled_at,
                         "fingers": finger_names, "iris": iris_items}, files)
    db.records[subject_id] = record
    log.append(EVENT_ENROLL, subject_id, -1.0, f"{len(templates)} finger, {len(pairs)} iris")
    return record


# ---------------------------------------------------------------------------
# Matching

def _best_per_record(counts: list, key: np.ndarray, *values: np.ndarray) -> list:
    """Per record owning ``counts[i]`` consecutive entries: each of ``values``
    at the record's first maximum of ``key``, NaN for a record owning none."""
    counts = np.array(counts, dtype=np.int64)
    has = counts > 0
    starts = (np.cumsum(counts) - counts)[has]
    top = np.repeat(np.maximum.reduceat(key, starts), counts[has])
    best = np.minimum.reduceat(np.where(key == top, np.arange(len(key)), len(key)), starts)
    out = [np.full(len(counts), np.nan) for _ in values]
    for array, value in zip(out, values):
        array[has] = value[best]
    return out


def _score_records(records: Sequence[PersonRecord], probe_finger, probe_iris,
                   cfg: FusionConfig) -> dict:
    """The scoring core of verify and identify: the probe against many records.

    Returns raw scores for :func:`fuse_arrays`, one entry per record, NaN where
    record or probe lacks the trait.  All templates are scored in one batched
    minutiae call and a record keeps its best; then all iris codes in one
    batched Hamming call per scheme, and a record keeps the pair with the best
    fused iris score, the first one on ties.
    """
    raw = {}
    if probe_finger is not None:
        scores = np.array(match_minutiae_many(
            [t for record in records for t in record.fingerprints], build_template(probe_finger)))
        (raw[CLASSIFIER_MINUTIAE],) = _best_per_record(
            [len(record.fingerprints) for record in records], scores, scores)
    if probe_iris is not None:
        _, _, haar, mellin = build_codes(probe_iris)
        pairs = [pair for record in records for pair in record.iris_codes]
        d_haar = hamming_distances([pair.haar for pair in pairs], haar)
        d_mellin = hamming_distances([pair.mellin for pair in pairs], mellin)
        _, ms_iris, _ = fuse_arrays({CLASSIFIER_HAAR: d_haar, CLASSIFIER_MELLIN: d_mellin}, cfg)
        raw[CLASSIFIER_HAAR], raw[CLASSIFIER_MELLIN] = _best_per_record(
            [len(record.iris_codes) for record in records], ms_iris, d_haar, d_mellin)
    return raw


def verify(
    db: TemplateDB,
    claimed_id: str,
    probe_finger: Optional[GrayImage] = None,
    probe_iris: Optional[GrayImage] = None,
    cfg: Optional[FusionConfig] = None,
) -> FusedScore:
    """Score a probe against one claimed subject (1:1), a gallery of one."""
    if claimed_id not in db.records:
        raise UnknownSubject(f"subject {claimed_id!r} is not enrolled")
    if probe_finger is None and probe_iris is None:
        raise NoProbe("verification needs at least one probe image")
    cfg = cfg if cfg is not None else FusionConfig()
    raw = _score_records([db.records[claimed_id]], probe_finger, probe_iris, cfg)
    return fuse_pipeline(raw, cfg)


def identify(
    db: TemplateDB,
    probe_finger: Optional[GrayImage] = None,
    probe_iris: Optional[GrayImage] = None,
    cfg: Optional[FusionConfig] = None,
    top_k: int = 5,
) -> list:
    """Score a probe against every subject (1:N) and rank the top_k.

    All subjects are scored and fused in one array pass.  Subjects sharing no
    trait with the probe are skipped; ties in ms_final rank by subject id.
    """
    if not db.records:
        raise EmptyDatabase("no subjects enrolled")
    if probe_finger is None and probe_iris is None:
        raise NoProbe("identification needs at least one probe image")
    top_k = int(top_k)
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    cfg = cfg if cfg is not None else FusionConfig()
    raw = _score_records(list(db.records.values()), probe_finger, probe_iris, cfg)
    ms_finger, ms_iris, ms_final = fuse_arrays(raw, cfg)
    subject_ids = list(db.records)
    rows = np.flatnonzero(~np.isnan(ms_final))
    top = rows[np.lexsort((np.array(subject_ids)[rows], -ms_final[rows]))[:top_k]]
    fingers, irises = ([None if math.isnan(s) else s for s in ms[top].tolist()]
                       for ms in (ms_finger, ms_iris))
    return [RankedMatch(subject_ids[i], final, per_trait) for i, final, per_trait
            in zip(top.tolist(), ms_final[top].tolist(), zip(fingers, irises))]


def access(
    db: TemplateDB,
    claimed_id: str,
    probe_finger: Optional[GrayImage] = None,
    probe_iris: Optional[GrayImage] = None,
    cfg: Optional[FusionConfig] = None,
    audit_log=None,
) -> FusedScore:
    """Verify a claim and gate the door, always logged: the door unlocks when
    the returned score's decision is genuine and raises the alarm otherwise.

    The log is opened before the probe is scored, and the event appended
    before the result is returned; errors append an ``error`` event and
    re-raise.  ``audit_log`` is a path, or ``None`` for the database's own log.
    """
    log = AuditLog(db.path / AUDIT_LOG_NAME if audit_log is None else audit_log)
    log._open().close()
    try:
        fused = verify(db, claimed_id, probe_finger, probe_iris, cfg)
    except Exception as exc:
        log.append(EVENT_ERROR, claimed_id, -1.0, str(exc))
        raise
    detail = "ms_finger={} ms_iris={}".format(
        "-" if fused.ms_finger is None else f"{fused.ms_finger:.6f}",
        "-" if fused.ms_iris is None else f"{fused.ms_iris:.6f}",
    )
    log.append(EVENT_ACCESS_GRANTED if fused.decision == GENUINE else EVENT_ALARM,
               claimed_id, fused.ms_final, detail)
    return fused
