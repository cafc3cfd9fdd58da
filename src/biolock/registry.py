"""Template database: enrollment, verification, identification, audit log.

A database is a directory holding one binary file per template or code plus a
``manifest.json`` that names them.  Every :class:`TemplateDB` reads and checks
the whole manifest when it is opened; :func:`load_db` then decodes every
subject's files, while the ``enroll``, ``verify`` and ``access`` commands decode
only the named subject's.
:func:`enroll` runs the feature pipelines and persists new records atomically
(every file, and finally the manifest, is written to a temp name and renamed);
:func:`verify`, :func:`identify`, and :func:`access` score probes against the
stored records in one scoring core and one array-valued fusion pass (verify is
a gallery of one).  :func:`access` is :func:`verify` plus the door's audit
event: it returns the :class:`FusedScore` it decided on, and the door unlocks
exactly when that score's decision is genuine.  Access decisions and
enrollments append JSON-line events to an audit log whose timestamps are
strictly increasing within the process.

Multi-template rule: a subject may hold several fingerprint templates and iris
code pairs; the per-trait score against that subject is the maximum over the
subject's templates.  For the iris trait the unit of aggregation is the
enrolled pair — each pair's haar/mellin distances are fused first and the best
pair wins — so one eye's observation is never mixed with another's.
"""

from __future__ import annotations

import json
import math
import os
import re
import stat
import threading
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    BadMagic,
    BiolockError,
    CorruptManifest,
    DuplicateSubject,
    EmptyDatabase,
    EmptyEnrollment,
    MissingTemplateFile,
    NoProbe,
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
from .imaging import GrayImage
from .iris import (
    CODE_MAX_BYTES,
    IrisCode,
    SCHEME_HAAR,
    SCHEME_MELLIN,
    build_codes,
    decode_code,
    encode_code,
    hamming_distances,
)

SUBJECT_ID_PATTERN = re.compile(r"[A-Za-z0-9_-]{1,64}")  # match whole ids: fullmatch

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1
AUDIT_LOG_NAME = "audit.log"

EVENT_ACCESS_GRANTED = "access_granted"
EVENT_ALARM = "alarm"
EVENT_ENROLL = "enroll"
EVENT_ERROR = "error"
EVENT_KINDS = (EVENT_ACCESS_GRANTED, EVENT_ALARM, EVENT_ENROLL, EVENT_ERROR)


def _validate_subject_id(subject_id: str) -> str:
    if not isinstance(subject_id, str) or not SUBJECT_ID_PATTERN.fullmatch(subject_id):
        raise ValueError(
            f"subject id must match [A-Za-z0-9_-]{{1,64}}, got {subject_id!r}"
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

    def __post_init__(self) -> None:
        _validate_subject_id(self.subject_id)
        object.__setattr__(self, "ms_final", float(self.ms_final))
        per_trait = tuple(None if s is None else float(s) for s in self.per_trait)
        if len(per_trait) != 2 or not all(s is None or math.isfinite(s) for s in per_trait):
            raise ValueError(f"per_trait must be a finite (ms_finger, ms_iris) pair, "
                             f"got {per_trait!r}")
        object.__setattr__(self, "per_trait", per_trait)


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
    renaming existing files.  ``records`` maps the subjects whose files were
    decoded to :class:`PersonRecord`; it starts empty.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.records: dict = {}
        self._entries: dict = _parse_manifest(self.path / MANIFEST_NAME)

    def __len__(self) -> int:
        return len(self.records)


# ---------------------------------------------------------------------------
# Audit log

_TS_LOCK = threading.Lock()
_LAST_TS: dict = {}


class AuditLog:
    """Append-only JSON-lines event log with strictly increasing timestamps."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    def append(self, kind: str, claimed_id: str, ms_final: float, detail: str) -> AuditEvent:
        if isinstance(claimed_id, str) and SUBJECT_ID_PATTERN.fullmatch(claimed_id):
            recorded_id = claimed_id
        else:
            recorded_id = "-"
        key = os.path.abspath(str(self.path))
        with _TS_LOCK:
            now = datetime.now(timezone.utc)
            last = _LAST_TS.get(key)
            if last is not None and now <= last:
                now = last + timedelta(microseconds=1)
            _LAST_TS[key] = now
        event = AuditEvent(now.isoformat(timespec="microseconds"), kind, recorded_id,
                           float(ms_final), str(detail))
        line = json.dumps(asdict(event))
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        return event


def read_audit_log(path: Union[str, Path]) -> list:
    """Parse an audit log into events; a missing file reads as empty."""
    path = Path(path)
    if not path.exists():
        return []
    events = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
            events.append(AuditEvent(**{f.name: data[f.name] for f in fields(AuditEvent)}))
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{path}: line {lineno}: bad audit record: {exc}") from exc
    return events


# ---------------------------------------------------------------------------
# Persistence

def _manifest_check(condition: bool, where: Path, message: str) -> None:
    if not condition:
        raise CorruptManifest(f"{where}: {message}")


def _load_file(directory: str, name: str, decode, cap: int):
    """Read and decode one file the manifest names; errors name it.  Only a
    regular file is read, without blocking, and at most ``cap`` bytes of it."""
    full = os.path.join(directory, name)
    try:
        fd = os.open(full, os.O_RDONLY | os.O_NONBLOCK)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        raise MissingTemplateFile(full) from exc
    try:
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            raise MissingTemplateFile(f"{full}: not a regular file")
        blob = os.read(fd, cap + 1)
    finally:
        os.close(fd)
    try:
        if len(blob) > cap:
            raise TruncatedData(f"longer than the format's {cap} bytes")
        return decode(blob)
    except (BadMagic, TruncatedData) as exc:
        raise type(exc)(f"{full}: {exc}") from exc


def _parse_manifest(manifest_path: Path) -> dict:
    """Check the whole manifest, reading no template file, and return its
    entries by subject id in enrollment order; no manifest means no entries."""
    if not manifest_path.is_file():
        return {}
    try:
        data = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptManifest(f"{manifest_path}: {exc}") from exc
    _manifest_check(isinstance(data, dict), manifest_path, "top level must be an object")
    _manifest_check(data.get("version") == MANIFEST_VERSION, manifest_path,
                    f"unsupported version {data.get('version')!r}")
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
        _manifest_check(subject_id not in entries, manifest_path,
                        f"duplicate subject {subject_id!r}")
        enrolled_at = entry.get("enrolled_at")
        _manifest_check(isinstance(enrolled_at, str) and bool(enrolled_at), manifest_path,
                        f"subject {subject_id!r}: bad enrolled_at")
        fingers_entry = entry.get("fingers", [])
        iris_entry = entry.get("iris", [])
        for key, value in (("fingers", fingers_entry), ("iris", iris_entry)):
            _manifest_check(isinstance(value, list), manifest_path,
                            f"subject {subject_id!r}: {key} must be a list")
        names = list(fingers_entry)
        for item in iris_entry:
            _manifest_check(isinstance(item, dict) and "haar" in item and "mellin" in item,
                            manifest_path,
                            f"subject {subject_id!r}: iris entry needs haar and mellin files")
            names += [item["haar"], item["mellin"]]
        for name in names:  # a plain name in the database directory
            _manifest_check(isinstance(name, str) and name not in ("", ".", "..") and "/" not in name
                            and os.sep not in name and "\0" not in name,
                            manifest_path, f"bad file reference {name!r}")
        _manifest_check(bool(names), manifest_path, f"subject {subject_id!r}: a record "
                        "needs at least one fingerprint or iris pair")
        entries[subject_id] = {"id": subject_id, "enrolled_at": enrolled_at,
                               "fingers": list(fingers_entry),
                               "iris": [dict(item) for item in iris_entry]}
    return entries


def _decode_record(directory: str, entry: dict) -> PersonRecord:
    """Decode the files of one entry that :func:`_parse_manifest` returned."""
    templates = [_load_file(directory, name, decode_template, TEMPLATE_MAX_BYTES)
                 for name in entry["fingers"]]
    pairs = []
    for item in entry["iris"]:
        codes = []
        for scheme, key in ((SCHEME_HAAR, "haar"), (SCHEME_MELLIN, "mellin")):
            codes.append(_load_file(directory, item[key], decode_code, CODE_MAX_BYTES))
            if codes[-1].scheme != scheme:
                raise CorruptManifest(f"{os.path.join(directory, MANIFEST_NAME)}: {item[key]}: "
                                      f"manifest lists a {scheme} code but the file holds {codes[-1].scheme}")
        pairs.append(IrisPair(*codes))
    return PersonRecord(entry["id"], tuple(templates), tuple(pairs), entry["enrolled_at"])


def load_db(path: Union[str, Path]) -> TemplateDB:
    """Read a database directory; a missing manifest means an empty DB."""
    db = TemplateDB(path)
    directory = os.fspath(db.path)
    db.records = {sid: _decode_record(directory, e) for sid, e in db._entries.items()}
    return db


def _load_record(path: Union[str, Path], subject_id: str) -> TemplateDB:
    """:func:`load_db` decoding only ``subject_id``'s files: a view holding at
    most that record, and every manifest entry to enroll against."""
    db = TemplateDB(path)
    if subject_id in db._entries:
        db.records[subject_id] = _decode_record(os.fspath(db.path), db._entries[subject_id])
    return db


def _write_atomic(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _persist_record(db: TemplateDB, record: PersonRecord) -> None:
    db.path.mkdir(parents=True, exist_ok=True)
    written = []
    try:
        finger_names = []
        for i, template in enumerate(record.fingerprints):
            name = f"{record.subject_id}_finger_{i}.fpt"
            _write_atomic(db.path / name, encode_template(template))
            written.append(name)
            finger_names.append(name)
        iris_items = []
        for i, pair in enumerate(record.iris_codes):
            haar_name = f"{record.subject_id}_iris_{i}_haar.irc"
            mellin_name = f"{record.subject_id}_iris_{i}_mellin.irc"
            _write_atomic(db.path / haar_name, encode_code(pair.haar))
            written.append(haar_name)
            _write_atomic(db.path / mellin_name, encode_code(pair.mellin))
            written.append(mellin_name)
            iris_items.append({"haar": haar_name, "mellin": mellin_name})
        entry = {
            "id": record.subject_id,
            "enrolled_at": record.enrolled_at,
            "fingers": finger_names,
            "iris": iris_items,
        }
        # one subject per line, each on json's C encoder (indent= takes the Python one)
        subjects = ",\n".join(map(json.dumps, [*db._entries.values(), entry]))
        text = f'{{"version": {MANIFEST_VERSION}, "subjects": [\n{subjects}\n]}}\n'
        _write_atomic(db.path / MANIFEST_NAME, text.encode("utf-8"))
        db._entries[record.subject_id] = entry
    except BaseException:
        for name in written:
            try:
                (db.path / name).unlink()
            except OSError:
                pass
        raise


# ---------------------------------------------------------------------------
# Enrollment

def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="microseconds")


def enroll(
    db: TemplateDB,
    subject_id: str,
    finger_images: Sequence[GrayImage] = (),
    iris_images: Sequence[GrayImage] = (),
    audit_log=None,
) -> PersonRecord:
    """Extract features from every image, persist them, log an enroll event.

    All feature extraction happens before anything is written, so a pipeline
    failure on any image leaves the database exactly as it was.
    """
    _validate_subject_id(subject_id)
    if subject_id in db._entries:
        raise DuplicateSubject(f"duplicate subject: {subject_id!r} is already enrolled")
    finger_images = list(finger_images)
    iris_images = list(iris_images)
    if not finger_images and not iris_images:
        raise EmptyEnrollment("enrollment needs at least one finger or iris image")
    templates = []
    for i, img in enumerate(finger_images):
        try:  # keep what the file will hold: FPT1 stores float32 fields
            templates.append(decode_template(encode_template(build_template(img))))
        except BiolockError as exc:
            raise PipelineFailure("finger", i, "feature-extraction", exc) from exc
    pairs = []
    for i, img in enumerate(iris_images):
        try:
            _, _, haar, mellin = build_codes(img)
        except BiolockError as exc:
            raise PipelineFailure("iris", i, failed_stage(exc), exc) from exc
        pairs.append(IrisPair(decode_code(encode_code(haar)), decode_code(encode_code(mellin))))
    record = PersonRecord(subject_id, tuple(templates), tuple(pairs), _utc_now())
    _persist_record(db, record)
    db.records[subject_id] = record
    AuditLog(db.path / AUDIT_LOG_NAME if audit_log is None else audit_log).append(
        EVENT_ENROLL, subject_id, -1.0, f"{len(templates)} finger, {len(pairs)} iris")
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
    minutiae call and a record keeps its best; all iris codes in one batched
    Hamming call per scheme, and a record keeps the pair with the best fused
    iris score, the first one on ties.
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
    order = np.lexsort((np.array(subject_ids)[rows], -ms_final[rows]))
    return [RankedMatch(subject_ids[i], ms_final[i],
                        tuple(None if math.isnan(s) else s for s in (ms_finger[i], ms_iris[i])))
            for i in rows[order[:top_k]].tolist()]


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

    The audit event is appended before the result is returned; errors append
    an ``error`` event and re-raise.  ``audit_log`` is a path, or ``None`` for
    the database's own log.
    """
    log = AuditLog(db.path / AUDIT_LOG_NAME if audit_log is None else audit_log)
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
