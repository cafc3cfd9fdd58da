"""Tests for the template database: enrollment, matching, audit, persistence."""

import dataclasses
import json
import math
import re
import shutil
import struct

import numpy as np
import pytest

import synthgen
from test_fusion import oracle_pipeline
from test_iris import hamming_oracle
from biolock import fingerprint, fusion, registry
from biolock.errors import (
    BadMagic,
    CorruptManifest,
    DuplicateSubject,
    EmptyDatabase,
    EmptyEnrollment,
    MissingTemplateFile,
    NoProbe,
    NoScores,
    PipelineFailure,
    TruncatedData,
    UnknownSubject,
)
from biolock.fingerprint import build_template, encode_template, match_minutiae
from biolock.fusion import (
    CLASSIFIER_HAAR,
    CLASSIFIER_MELLIN,
    CLASSIFIER_MINUTIAE,
    GENUINE,
    IMPOSTOR,
    FusionConfig,
)
from biolock.imaging import GrayImage
from biolock.iris import SCHEME_HAAR, SCHEME_MELLIN, build_codes, encode_code
from biolock.registry import (
    AuditEvent,
    AuditLog,
    IrisPair,
    PersonRecord,
    RankedMatch,
    TemplateDB,
    _load_record,
    access,
    enroll,
    identify,
    load_db,
    read_audit_log,
    verify,
)

CFG = FusionConfig()

# Subjects use the rich matching-suite prints and the calibrated eye textures;
# the probe transforms below are pinned to values the Hough registration
# resolves cleanly (vote bins are 8 px / 10 degrees).
SUBJECTS = (
    ("alice", 0, 511, 10.0, (8.0, 8.0), 0.3),
    ("bob", 1, 519, 1.5, (-8.0, -8.0), 0.9),
    ("carol", 2, 521, 10.0, (16.0, -16.0), -0.6),
)


def make_finger(idx):
    return synthgen.matching_print_state(idx)


@pytest.fixture(scope="module")
def corpus():
    """Enrollment images plus re-rendered genuine probes for three subjects."""
    data = {}
    for sid, idx, eye_seed, dtheta_deg, shift, rot_deg in SUBJECTS:
        finger_img, _, state = make_finger(idx)
        eye_img = synthgen.render_eye(eye_seed)
        probe_finger, _ = synthgen.rerender_print(
            state, math.radians(dtheta_deg), shift
        )
        probe_eye = synthgen.render_eye(
            eye_seed, rotation=math.radians(rot_deg), noise=0.02,
            noise_seed=9000 + eye_seed,
        )
        data[sid] = {
            "finger": finger_img,
            "eye": eye_img,
            "probe_finger": probe_finger,
            "probe_eye": probe_eye,
        }
    return data


@pytest.fixture(scope="module")
def enrolled(tmp_path_factory, corpus):
    """A three-subject database; tests must not mutate it."""
    db = load_db(tmp_path_factory.mktemp("registry") / "db")
    for sid in ("alice", "bob", "carol"):
        enroll(db, sid, [corpus[sid]["finger"]], [corpus[sid]["eye"]])
    return db


# ---------------------------------------------------------------------------
# enrollment


def test_enroll_creates_record_and_files(enrolled):
    assert len(enrolled) == 3
    record = enrolled.records["alice"]
    assert record.subject_id == "alice"
    assert len(record.fingerprints) == 1
    assert len(record.iris_codes) == 1
    assert record.enrolled_at
    manifest = json.loads((enrolled.path / "manifest.json").read_text())
    assert manifest["version"] == 1
    assert [s["id"] for s in manifest["subjects"]] == ["alice", "bob", "carol"]
    entry = manifest["subjects"][0]
    for name in entry["fingers"]:
        assert (enrolled.path / name).is_file()
    for item in entry["iris"]:
        assert (enrolled.path / item["haar"]).is_file()
        assert (enrolled.path / item["mellin"]).is_file()
    events = read_audit_log(enrolled.path / "audit.log")
    enroll_events = [e for e in events if e.kind == "enroll"]
    assert len(enroll_events) >= 3
    assert enroll_events[0].claimed_id == "alice"
    assert enroll_events[0].ms_final == -1.0
    assert "1 finger, 1 iris" in enroll_events[0].detail


def test_enroll_duplicate_rejected(enrolled, corpus):
    manifest_before = (enrolled.path / "manifest.json").read_bytes()
    with pytest.raises(DuplicateSubject):
        enroll(enrolled, "alice", [corpus["alice"]["finger"]], [])
    assert len(enrolled) == 3
    assert (enrolled.path / "manifest.json").read_bytes() == manifest_before


def test_enroll_validates_inputs(tmp_path, corpus):
    db = load_db(tmp_path / "db")
    with pytest.raises(ValueError):
        enroll(db, "bad id!", [corpus["alice"]["finger"]], [])
    with pytest.raises(ValueError):
        enroll(db, "", [corpus["alice"]["finger"]], [])
    with pytest.raises(EmptyEnrollment):
        enroll(db, "empty", [], [])


def test_subject_ids_with_a_trailing_newline_are_refused():
    # "$" also matches before a final newline; ids must match whole
    for bad in ("bob\n", "bob\n\n", "\nbob"):
        with pytest.raises(ValueError):
            registry._validate_subject_id(bad)
    assert registry._validate_subject_id("bob") == "bob"


def test_audit_log_records_an_id_with_a_trailing_newline_as_dash(tmp_path):
    log = AuditLog(tmp_path / "audit.log")
    assert log.append("alarm", "bob\n", 0.5, "").claimed_id == "-"
    assert [e.claimed_id for e in read_audit_log(tmp_path / "audit.log")] == ["-"]
    with pytest.raises(ValueError):
        AuditEvent("2026-01-01T00:00:00+00:00", "alarm", "bob\n", 0.5, "")


def test_manifest_entry_with_a_trailing_newline_id_is_corrupt(tmp_path):
    root = tmp_path / "db"
    root.mkdir()
    (root / "manifest.json").write_text(json.dumps({"version": 1, "subjects": [
        {"id": "bob\n", "enrolled_at": "t", "fingers": ["f"], "iris": []}]}))
    with pytest.raises(CorruptManifest):
        load_db(root)
    with pytest.raises(CorruptManifest):
        _load_record(root, "bob")


def test_enroll_refuses_a_trailing_newline_id_before_extraction(tmp_path, corpus, monkeypatch):
    def fail(*_):
        raise AssertionError("extraction ran")

    monkeypatch.setattr(registry, "build_template", fail)
    monkeypatch.setattr(registry, "build_codes", fail)
    db = load_db(tmp_path / "db")
    with pytest.raises(ValueError):
        enroll(db, "bob\n", [corpus["alice"]["finger"]], [corpus["alice"]["eye"]])
    assert len(db) == 0 and not (tmp_path / "db").exists()


def test_manifest_holds_one_subject_per_line(enrolled):
    text = (enrolled.path / "manifest.json").read_text()
    lines = text.splitlines()
    assert text.endswith("\n") and len(lines) == 2 + len(enrolled)
    assert lines[0] == '{"version": 1, "subjects": [' and lines[-1] == "]}"
    entries = [json.loads(line.rstrip(",")) for line in lines[1:-1]]
    assert [e["id"] for e in entries] == list(enrolled.records)
    assert json.loads(text) == {"version": 1, "subjects": entries}


def test_enroll_pipeline_failure_is_atomic(enrolled, corpus):
    files_before = sorted(p.name for p in enrolled.path.iterdir())
    blank = GrayImage(np.full((64, 64), 0.9))
    with pytest.raises(PipelineFailure) as err:
        enroll(enrolled, "dave", [], [corpus["alice"]["eye"], blank])
    assert err.value.modality == "iris"
    assert err.value.index == 1
    assert "iris image 1" in str(err.value)
    assert "dave" not in enrolled.records and "dave" not in enrolled._entries
    assert sorted(p.name for p in enrolled.path.iterdir()) == files_before


def test_enroll_keeps_the_record_its_files_hold(tmp_path, corpus):
    finger, eye = corpus["bob"]["finger"], corpus["bob"]["eye"]
    built = build_template(finger).rows
    assert not np.array_equal(built, built.astype(np.float32))  # FPT1 rounds this print
    db = load_db(tmp_path / "db")
    record = enroll(db, "bob", [finger], [eye])
    probes = [(corpus["bob"]["probe_finger"], None), (corpus["bob"]["probe_finger"], eye)]
    right_after = [verify(db, "bob", *probe, CFG) for probe in probes]
    reopened = load_db(tmp_path / "db")
    assert db.records["bob"] is record
    assert reopened.records["bob"].fingerprints == record.fingerprints
    for kept, read in zip(record.iris_codes, reopened.records["bob"].iris_codes):
        for scheme in ("haar", "mellin"):
            assert np.array_equal(getattr(kept, scheme).bits, getattr(read, scheme).bits)
            assert np.array_equal(getattr(kept, scheme).mask, getattr(read, scheme).mask)
    assert right_after == [verify(reopened, "bob", *probe, CFG) for probe in probes]


def test_enroll_is_deterministic(tmp_path, corpus):
    db1 = load_db(tmp_path / "one")
    db2 = load_db(tmp_path / "two")
    for db in (db1, db2):
        enroll(db, "alice", [corpus["alice"]["finger"]], [corpus["alice"]["eye"]])
    for name in ("alice_finger_0.fpt", "alice_iris_0_haar.irc", "alice_iris_0_mellin.irc"):
        assert (db1.path / name).read_bytes() == (db2.path / name).read_bytes()


# ---------------------------------------------------------------------------
# verification


def test_verify_self_match_is_exact(enrolled, corpus):
    fused = verify(enrolled, "alice", corpus["alice"]["finger"],
                   corpus["alice"]["eye"], CFG)
    assert fused.ms_finger == 1.0
    assert fused.ms_iris == 1.0
    assert fused.ms_final == 1.0
    assert fused.decision == GENUINE


def test_verify_rerendered_probe_is_genuine(enrolled, corpus):
    fused = verify(enrolled, "bob", corpus["bob"]["probe_finger"],
                   corpus["bob"]["probe_eye"], CFG)
    assert fused.decision == GENUINE
    assert fused.ms_final > 0.8


def test_verify_impostor_probe_is_rejected(enrolled, corpus):
    fused = verify(enrolled, "alice", corpus["bob"]["finger"],
                   corpus["bob"]["eye"], CFG)
    assert fused.decision == IMPOSTOR
    assert fused.ms_final < 0.5


def test_verify_single_modality_passes_through(enrolled, corpus):
    iris_only = verify(enrolled, "alice", probe_iris=corpus["alice"]["eye"], cfg=CFG)
    assert iris_only.ms_finger is None
    assert iris_only.ms_final == iris_only.ms_iris == 1.0
    finger_only = verify(enrolled, "alice", probe_finger=corpus["alice"]["finger"], cfg=CFG)
    assert finger_only.ms_iris is None
    assert finger_only.ms_final == finger_only.ms_finger == 1.0


def test_verify_errors(enrolled, corpus):
    with pytest.raises(UnknownSubject):
        verify(enrolled, "mallory", corpus["alice"]["finger"], None, CFG)
    with pytest.raises(NoProbe):
        verify(enrolled, "alice", None, None, CFG)


def test_verify_multi_template_rule_is_max(tmp_path, corpus):
    # Subject enrolled with two different fingers; a probe near the first one
    # must score the maximum over templates, not an average.
    img3, _, state3 = make_finger(3)
    img4, _, _ = make_finger(4)
    db = load_db(tmp_path / "db")
    enroll(db, "twofinger", [img3, img4], [])
    probe_img, _ = synthgen.rerender_print(state3, math.radians(10.0), (8.0, 8.0))
    fused = verify(db, "twofinger", probe_finger=probe_img, cfg=CFG)
    probe_template = build_template(probe_img)
    per_template = [
        match_minutiae(t, probe_template)
        for t in db.records["twofinger"].fingerprints
    ]
    # Default thresholds make the rescale an identity, so the fused
    # finger score must equal the raw maximum exactly.
    assert fused.ms_finger == max(per_template)
    assert min(per_template) < 0.5 < max(per_template)


def test_verify_multi_iris_rule_is_best_pair(tmp_path, corpus):
    db = load_db(tmp_path / "db")
    enroll(db, "twoeye", [], [corpus["alice"]["eye"], corpus["bob"]["eye"]])
    probe = corpus["bob"]["probe_eye"]
    fused = verify(db, "twoeye", probe_iris=probe, cfg=CFG)
    _, _, probe_haar, probe_mellin = build_codes(probe)
    pair_scores = []
    for pair in db.records["twoeye"].iris_codes:
        d_haar = hamming_oracle(pair.haar, probe_haar)
        d_mellin = hamming_oracle(pair.mellin, probe_mellin)
        pair_scores.append((1.0 - d_haar) / 2.0 + (1.0 - d_mellin) / 2.0)
    assert fused.ms_iris == max(pair_scores)
    assert min(pair_scores) < 0.7 < max(pair_scores)


def test_verify_no_common_trait_raises(tmp_path, corpus):
    db = load_db(tmp_path / "db")
    enroll(db, "eyes-only", [], [corpus["alice"]["eye"]])
    with pytest.raises(NoScores):
        verify(db, "eyes-only", probe_finger=corpus["alice"]["finger"], cfg=CFG)


# ---------------------------------------------------------------------------
# identification


def test_identify_ranks_rerendered_probe_first(enrolled, corpus):
    matches = identify(enrolled, corpus["bob"]["probe_finger"],
                       corpus["bob"]["probe_eye"], CFG, top_k=5)
    assert len(matches) == 3
    assert matches[0].subject_id == "bob"
    finals = [m.ms_final for m in matches]
    assert finals == sorted(finals, reverse=True)
    assert matches[0].ms_final > matches[1].ms_final + 0.2
    assert all(isinstance(m, RankedMatch) for m in matches)


def test_identify_truncates_to_top_k(enrolled, corpus):
    matches = identify(enrolled, probe_iris=corpus["alice"]["eye"], cfg=CFG, top_k=1)
    assert len(matches) == 1
    assert matches[0].subject_id == "alice"


def test_identify_tie_breaks_by_subject_id(tmp_path, corpus):
    db = load_db(tmp_path / "db")
    # Enroll out of lexicographic order to prove the sort is not insertion order.
    enroll(db, "zeta", [], [corpus["alice"]["eye"]])
    enroll(db, "abel", [], [corpus["alice"]["eye"]])
    matches = identify(db, probe_iris=corpus["alice"]["eye"], cfg=CFG, top_k=5)
    assert [m.ms_final for m in matches] == [1.0, 1.0]
    assert [m.subject_id for m in matches] == ["abel", "zeta"]


def test_identify_skips_subjects_with_no_common_trait(tmp_path, corpus):
    db = load_db(tmp_path / "db")
    enroll(db, "eyes-only", [], [corpus["alice"]["eye"]])
    enroll(db, "finger-only", [corpus["alice"]["finger"]], [])
    matches = identify(db, probe_iris=corpus["alice"]["eye"], cfg=CFG, top_k=5)
    assert [m.subject_id for m in matches] == ["eyes-only"]


def test_identify_errors(enrolled, tmp_path, corpus):
    with pytest.raises(EmptyDatabase):
        identify(load_db(tmp_path / "empty"), probe_iris=corpus["alice"]["eye"], cfg=CFG)
    with pytest.raises(NoProbe):
        identify(enrolled, cfg=CFG)
    with pytest.raises(ValueError):
        identify(enrolled, probe_iris=corpus["alice"]["eye"], cfg=CFG, top_k=0)


# ---------------------------------------------------------------------------
# the shared scoring core against the per-record scorer it replaced


def reference_score_record(record, probe_template, probe_pair, cfg):
    """One record at a time, one pairwise Hamming call per code, through the
    scalar fusion chain, as before."""
    raw = {}
    if probe_template is not None and record.fingerprints:
        raw[CLASSIFIER_MINUTIAE] = max(match_minutiae(t, probe_template)
                                       for t in record.fingerprints)
    if probe_pair is not None and record.iris_codes:
        best_pair, best_value = None, None
        for pair in record.iris_codes:
            d_haar = hamming_oracle(pair.haar, probe_pair[0])
            d_mellin = hamming_oracle(pair.mellin, probe_pair[1])
            value = oracle_pipeline({CLASSIFIER_HAAR: d_haar, CLASSIFIER_MELLIN: d_mellin},
                                    cfg).ms_iris
            if best_value is None or value > best_value:
                best_pair, best_value = (d_haar, d_mellin), value
        raw[CLASSIFIER_HAAR], raw[CLASSIFIER_MELLIN] = best_pair
    return oracle_pipeline(raw, cfg)


@pytest.fixture(scope="module")
def mixed_db(tmp_path_factory, corpus):
    """Both traits, two eyes, finger only, and iris only, in one gallery."""
    db = load_db(tmp_path_factory.mktemp("mixed") / "db")
    for sid in ("alice", "bob", "carol"):
        enroll(db, sid, [corpus[sid]["finger"]], [corpus[sid]["eye"]])
    enroll(db, "twoeye", [corpus["carol"]["finger"]],
           [corpus["alice"]["eye"], corpus["bob"]["eye"]])
    enroll(db, "finger-only", [corpus["bob"]["finger"]], [])
    enroll(db, "eyes-only", [], [corpus["carol"]["eye"]])
    return db


SCORING_CONFIGS = (
    CFG,
    FusionConfig(alpha=2.0, beta=0.5, a=0.7, b=1.3, common_threshold=0.45,
                 classifier_thresholds={"minutiae": 0.3, "haar": 0.62, "mellin": 0.58}),
)


@pytest.mark.parametrize("probe_traits", [("finger", "eye"), ("eye",), ("finger",)])
@pytest.mark.parametrize("cfg", SCORING_CONFIGS)
def test_scoring_core_matches_per_record_reference(mixed_db, corpus, probe_traits, cfg):
    images = {trait: corpus["bob"]["probe_" + trait] for trait in probe_traits}
    probe_finger, probe_eye = images.get("finger"), images.get("eye")
    probe_template = build_template(probe_finger) if probe_finger is not None else None
    probe_pair = build_codes(probe_eye)[2:] if probe_eye is not None else None

    expected = []
    for sid, record in mixed_db.records.items():
        try:
            ref = reference_score_record(record, probe_template, probe_pair, cfg)
        except NoScores:
            with pytest.raises(NoScores):
                verify(mixed_db, sid, probe_finger, probe_eye, cfg)
            continue
        fused = verify(mixed_db, sid, probe_finger, probe_eye, cfg)
        assert fused == ref
        expected.append((sid, ref.ms_final, (ref.ms_finger, ref.ms_iris)))
    expected.sort(key=lambda m: (-m[1], m[0]))

    matches = identify(mixed_db, probe_finger, probe_eye, cfg, top_k=len(mixed_db))
    assert [(m.subject_id, m.ms_final, m.per_trait) for m in matches] == expected
    skipped = set()
    if probe_eye is None:
        skipped.add("eyes-only")
    if probe_finger is None:
        skipped.add("finger-only")
    assert {m.subject_id for m in matches} == set(mixed_db.records) - skipped


def test_scoring_core_picks_the_better_second_pair(mixed_db, corpus):
    probe_pair = build_codes(corpus["bob"]["probe_eye"])[2:]
    record = mixed_db.records["twoeye"]
    per_pair = [reference_score_record(
        PersonRecord("one", (), (pair,), record.enrolled_at), None, probe_pair, CFG).ms_iris
        for pair in record.iris_codes]
    assert per_pair[1] > per_pair[0]
    fused = verify(mixed_db, "twoeye", probe_iris=corpus["bob"]["probe_eye"], cfg=CFG)
    assert fused.ms_iris == per_pair[1]


def test_scoring_core_takes_the_best_of_several_finger_templates(tmp_path, corpus):
    db = load_db(tmp_path / "db")
    enroll(db, "threefinger", [corpus[sid]["finger"] for sid in ("alice", "carol", "bob")],
           [corpus["carol"]["eye"]])
    enroll(db, "alice", [corpus["alice"]["finger"]], [corpus["alice"]["eye"]])
    probe_finger, probe_eye = corpus["bob"]["probe_finger"], corpus["bob"]["probe_eye"]
    probe_template = build_template(probe_finger)
    per_template = [match_minutiae(t, probe_template)
                    for t in db.records["threefinger"].fingerprints]
    assert per_template.index(max(per_template)) == 2
    probe_pair = build_codes(probe_eye)[2:]
    for cfg in SCORING_CONFIGS:
        refs = {sid: reference_score_record(record, probe_template, probe_pair, cfg)
                for sid, record in db.records.items()}
        assert refs["threefinger"].ms_finger == max(per_template)
        for sid, ref in refs.items():
            assert verify(db, sid, probe_finger, probe_eye, cfg) == ref
        matches = identify(db, probe_finger, probe_eye, cfg, top_k=len(db))
        assert {m.subject_id: (m.ms_final, m.per_trait) for m in matches} == {
            sid: (ref.ms_final, (ref.ms_finger, ref.ms_iris)) for sid, ref in refs.items()}


def test_identify_makes_no_pairwise_registration_calls(mixed_db, corpus, monkeypatch):
    calls = []
    for name in ("register_minutiae", "match_minutiae"):
        original = getattr(fingerprint, name)
        monkeypatch.setattr(fingerprint, name,
                            lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k))
    matches = identify(mixed_db, corpus["bob"]["probe_finger"], corpus["bob"]["probe_eye"],
                       CFG, top_k=len(mixed_db))
    verify(mixed_db, "bob", corpus["bob"]["probe_finger"], None, CFG)
    assert len(matches) == len(mixed_db)
    assert calls == []


def test_verify_and_access_call_fuse_pipeline_once_and_identify_never(
        mixed_db, corpus, monkeypatch):
    calls = []
    pipeline = fusion.fuse_pipeline
    monkeypatch.setattr(registry, "fuse_pipeline",
                        lambda *a, **k: calls.append("fuse_pipeline") or pipeline(*a, **k))
    probe_finger, probe_eye = corpus["bob"]["probe_finger"], corpus["bob"]["probe_eye"]
    matches = identify(mixed_db, probe_finger, probe_eye, CFG, top_k=len(mixed_db))
    assert len(matches) == len(mixed_db)
    assert calls == []
    verify(mixed_db, "twoeye", probe_finger, probe_eye, CFG)
    assert calls == ["fuse_pipeline"]
    calls.clear()
    access(mixed_db, "bob", probe_finger, probe_eye, CFG,
           audit_log=mixed_db.path.parent / "audit.log")
    assert calls == ["fuse_pipeline"]


def test_identify_per_trait_scores_are_plain_floats(mixed_db, corpus):
    matches = identify(mixed_db, corpus["bob"]["probe_finger"], None, CFG,
                       top_k=len(mixed_db))
    assert {m.per_trait[1] for m in matches} == {None}
    for match in matches:
        assert type(match.ms_final) is float
        assert type(match.per_trait[0]) is float
        assert "np." not in repr(match)


# ---------------------------------------------------------------------------
# access decisions and the audit log


def test_access_unlock_and_alarm(tmp_path, enrolled, corpus):
    log_path = tmp_path / "door.log"
    results = []
    for probe in ((corpus["bob"]["probe_finger"], corpus["bob"]["probe_eye"]),
                  (corpus["carol"]["finger"], corpus["carol"]["eye"])):
        result = access(enrolled, "bob", *probe, CFG, audit_log=log_path)
        assert result == verify(enrolled, "bob", *probe, CFG)
        results.append(result)
    assert [r.decision for r in results] == [GENUINE, IMPOSTOR]
    events = read_audit_log(log_path)
    assert [e.kind for e in events] == ["access_granted", "alarm"]
    assert [e.ms_final for e in events] == [r.ms_final for r in results]
    assert events[0].claimed_id == "bob"
    assert events[0].ms_final > 0.8
    assert events[1].ms_final < 0.5
    assert "ms_finger" in events[0].detail


def test_access_logs_errors_and_reraises(tmp_path, enrolled, corpus):
    log_path = tmp_path / "door.log"
    with pytest.raises(UnknownSubject):
        access(enrolled, "mallory", corpus["alice"]["finger"], None, CFG,
               audit_log=log_path)
    with pytest.raises(NoProbe):
        access(enrolled, "alice", None, None, CFG, audit_log=log_path)
    events = read_audit_log(log_path)
    assert [e.kind for e in events] == ["error", "error"]
    assert events[0].claimed_id == "mallory"
    assert events[0].ms_final == -1.0
    assert "mallory" in events[0].detail


def test_access_records_invalid_claim_as_dash(tmp_path, enrolled, corpus):
    log_path = tmp_path / "door.log"
    with pytest.raises(UnknownSubject):
        access(enrolled, "not a token!", corpus["alice"]["finger"], None, CFG,
               audit_log=log_path)
    events = read_audit_log(log_path)
    assert events[0].claimed_id == "-"


def test_audit_log_timestamps_strictly_increase(tmp_path):
    log = AuditLog(tmp_path / "audit.log")
    for i in range(200):
        log.append("enroll", f"s{i}", -1.0, "burst")
    events = read_audit_log(tmp_path / "audit.log")
    assert len(events) == 200
    stamps = [e.ts for e in events]
    assert all(a < b for a, b in zip(stamps, stamps[1:]))


def test_audit_log_is_append_only(tmp_path):
    log = AuditLog(tmp_path / "audit.log")
    log.append("enroll", "alice", -1.0, "first")
    first = (tmp_path / "audit.log").read_bytes()
    log.append("alarm", "bob", 0.2, "second")
    combined = (tmp_path / "audit.log").read_bytes()
    assert combined.startswith(first)
    lines = combined.decode().splitlines()
    assert len(lines) == 2
    record = json.loads(lines[1])
    assert (list(record) == [f.name for f in dataclasses.fields(AuditEvent)]
            == ["ts", "kind", "claimed_id", "ms_final", "detail"])


def test_read_audit_log_errors(tmp_path):
    assert read_audit_log(tmp_path / "absent.log") == []
    bad = tmp_path / "bad.log"
    bad.write_text("not json\n")
    with pytest.raises(ValueError):
        read_audit_log(bad)
    missing_key = tmp_path / "short.log"
    missing_key.write_text('{"ts": "2026-01-01T00:00:00+00:00", "kind": "alarm"}\n')
    with pytest.raises(ValueError):
        read_audit_log(missing_key)


@pytest.mark.parametrize("field, value", [
    ("kind", "opened"), ("ms_final", "x"), ("ts", 5), ("claimed_id", ["x"]), ("detail", None),
    ("ms_final", math.inf), ("ms_final", -math.inf), ("ms_final", math.nan),
    ("claimed_id", "bad id!"), ("claimed_id", ""), ("ts", "t"),
    ("ts", "2026-01-01T00:00:00"),
])
def test_read_audit_log_names_the_line_of_a_bad_field(tmp_path, field, value):
    good = {"ts": "2026-01-01T00:00:00+00:00", "kind": "alarm", "claimed_id": "bob",
            "ms_final": 0.25, "detail": ""}
    log = tmp_path / "audit.log"
    log.write_text(json.dumps(good) + "\n" + json.dumps({**good, field: value}) + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(log))}: line 2: bad audit record: "):
        read_audit_log(log)


# ---------------------------------------------------------------------------
# persistence


def test_load_db_round_trip_is_byte_identical(enrolled):
    reloaded = load_db(enrolled.path)
    assert list(reloaded.records) == list(enrolled.records)
    for sid, record in enrolled.records.items():
        other = reloaded.records[sid]
        assert other.enrolled_at == record.enrolled_at
        assert [encode_template(t) for t in other.fingerprints] == [
            encode_template(t) for t in record.fingerprints
        ]
        for mine, theirs in zip(record.iris_codes, other.iris_codes):
            assert encode_code(theirs.haar) == encode_code(mine.haar)
            assert encode_code(theirs.mellin) == encode_code(mine.mellin)


def test_load_db_empty_and_missing_directories(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert len(load_db(empty)) == 0
    assert len(load_db(tmp_path / "never-created")) == 0


def _copy_db(src_db, dest):
    shutil.copytree(src_db.path, dest)
    return dest


def test_load_db_missing_template_file(enrolled, tmp_path):
    root = _copy_db(enrolled, tmp_path / "db")
    victim = root / "bob_finger_0.fpt"
    victim.unlink()
    with pytest.raises(MissingTemplateFile) as err:
        load_db(root)
    assert "bob_finger_0.fpt" in str(err.value)


def test_load_db_directory_in_place_of_file(enrolled, tmp_path):
    root = _copy_db(enrolled, tmp_path / "db")
    victim = root / "bob_finger_0.fpt"
    victim.unlink()
    victim.mkdir()
    with pytest.raises(MissingTemplateFile) as err:
        load_db(root)
    assert "bob_finger_0.fpt" in str(err.value)


def test_load_db_bad_magic_names_file(enrolled, tmp_path):
    root = _copy_db(enrolled, tmp_path / "db")
    victim = root / "carol_iris_0_haar.irc"
    victim.write_bytes(b"XXXX" + victim.read_bytes()[4:])
    with pytest.raises(BadMagic) as err:
        load_db(root)
    assert "carol_iris_0_haar.irc" in str(err.value)


def test_load_db_bad_code_length_names_file(enrolled, tmp_path):
    root = _copy_db(enrolled, tmp_path / "db")
    victim = root / "carol_iris_0_haar.irc"
    data = bytearray(victim.read_bytes())
    struct.pack_into("<I", data, 5, 8)
    victim.write_bytes(bytes(data))
    with pytest.raises(TruncatedData) as err:
        load_db(root)
    assert "carol_iris_0_haar.irc" in str(err.value)
    assert "haar code must have 512 bits, got 8" in str(err.value)


def test_load_db_non_finite_minutia_names_file(enrolled, tmp_path):
    root = _copy_db(enrolled, tmp_path / "db")
    victim = root / "bob_finger_0.fpt"
    data = bytearray(victim.read_bytes())
    struct.pack_into("<f", data, 10, math.nan)
    victim.write_bytes(bytes(data))
    with pytest.raises(TruncatedData) as err:
        load_db(root)
    assert "bob_finger_0.fpt" in str(err.value)


def test_load_db_wrong_scheme_in_slot(enrolled, tmp_path):
    root = _copy_db(enrolled, tmp_path / "db")
    manifest = json.loads((root / "manifest.json").read_text())
    item = manifest["subjects"][0]["iris"][0]
    item["haar"], item["mellin"] = item["mellin"], item["haar"]
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CorruptManifest):
        load_db(root)


CORRUPT_MANIFESTS = (
    "{ not json",
    json.dumps([1, 2, 3]),
    json.dumps({"version": 2, "subjects": []}),
    json.dumps({"version": 1, "subjects": {}}),
    json.dumps({"version": 1, "subjects": [{"id": "bad id!", "enrolled_at": "t",
                                            "fingers": [], "iris": []}]}),
    json.dumps({"version": 1, "subjects": [{"id": "nobody", "enrolled_at": "t",
                                            "fingers": [], "iris": []}]}),
    json.dumps({"version": 1, "subjects": [{"id": "x", "enrolled_at": "",
                                            "fingers": ["f"], "iris": []}]}),
    json.dumps({"version": 1, "subjects": [{"id": "x", "enrolled_at": "t",
                                            "fingers": [], "iris": [{"haar": "h"}]}]}),
)


def test_load_db_corrupt_manifests(tmp_path):
    root = tmp_path / "db"
    root.mkdir()
    manifest = root / "manifest.json"
    for content in CORRUPT_MANIFESTS:
        manifest.write_text(content)
        with pytest.raises(CorruptManifest):
            load_db(root)


def _duplicate_first_subject(enrolled, root):
    _copy_db(enrolled, root)
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["subjects"].append(manifest["subjects"][0])
    (root / "manifest.json").write_text(json.dumps(manifest))
    return root


def test_load_db_duplicate_subject_in_manifest(enrolled, tmp_path):
    root = _duplicate_first_subject(enrolled, tmp_path / "db")
    with pytest.raises(CorruptManifest) as err:
        load_db(root)
    assert "alice" in str(err.value)


# ---------------------------------------------------------------------------
# one-record reads: the door's view of the database


def test_load_record_equals_load_db_for_every_subject(enrolled):
    full = load_db(enrolled.path)
    for sid, record in full.records.items():
        view = _load_record(enrolled.path, sid)
        assert list(view.records) == [sid]
        other = view.records[sid]
        assert other.enrolled_at == record.enrolled_at
        assert [encode_template(t) for t in other.fingerprints] == [
            encode_template(t) for t in record.fingerprints]
        assert [(encode_code(p.haar), encode_code(p.mellin)) for p in other.iris_codes] == [
            (encode_code(p.haar), encode_code(p.mellin)) for p in record.iris_codes]


def test_load_record_of_an_absent_subject_is_empty(enrolled, corpus, tmp_path):
    for sid in ("mallory", "not a token!"):
        view = _load_record(enrolled.path, sid)
        assert len(view) == 0
        with pytest.raises(UnknownSubject):
            verify(view, sid, None, corpus["alice"]["eye"], CFG)
    assert len(_load_record(tmp_path / "never-created", "alice")) == 0


@pytest.mark.parametrize("claim", ["x", "nobody", "absent"])
def test_load_record_checks_the_whole_manifest(tmp_path, claim):
    root = tmp_path / "db"
    root.mkdir()
    manifest = root / "manifest.json"
    for content in CORRUPT_MANIFESTS:
        manifest.write_text(content)
        with pytest.raises(CorruptManifest):
            _load_record(root, claim)


@pytest.mark.parametrize("loader", [load_db, lambda root: _load_record(root, "other")],
                         ids=["load_db", "_load_record"])
@pytest.mark.parametrize("entry", [
    {"fingers": [""]}, {"fingers": [5]}, {"iris": [{"haar": None, "mellin": "m.irc"}]},
    # only a plain name in the database directory
    {"iris": [{"haar": "../x.irc", "mellin": "m.irc"}]}, {"fingers": ["/abs/x.fpt"]},
    {"fingers": ["a/b.fpt"]}, {"fingers": ["."]}, {"fingers": [".."]},
    {"fingers": ["a\0b.fpt"]},
])
def test_loaders_reject_a_bad_file_reference_before_reading_files(tmp_path, loader, entry):
    (tmp_path / "manifest.json").write_text(json.dumps({"version": 1, "subjects": [
        {"id": "other", "enrolled_at": "t", "fingers": ["absent.fpt"]},
        {"id": "x", "enrolled_at": "t", **entry}]}))
    with pytest.raises(CorruptManifest, match="bad file reference"):
        loader(tmp_path)


def test_loaders_read_no_file_outside_the_directory(enrolled, tmp_path, monkeypatch):
    root = _copy_db(enrolled, tmp_path / "db")
    (tmp_path / "outside.irc").write_bytes((root / "alice_iris_0_mellin.irc").read_bytes())
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["subjects"][0]["iris"][0]["mellin"] = "../outside.irc"
    (root / "manifest.json").write_text(json.dumps(manifest))
    read = []
    load_file = registry._load_file
    monkeypatch.setattr(registry, "_load_file",
                        lambda *args: read.append(args[1]) or load_file(*args))
    for loader in (load_db, lambda root: _load_record(root, "alice")):
        with pytest.raises(CorruptManifest, match=re.escape("'../outside.irc'")):
            loader(root)
    assert read == []


@pytest.mark.parametrize("claim", ["alice", "carol"])
def test_load_record_rejects_a_duplicate_subject_in_manifest(enrolled, tmp_path, claim):
    root = _duplicate_first_subject(enrolled, tmp_path / "db")
    with pytest.raises(CorruptManifest) as err:
        _load_record(root, claim)
    assert "alice" in str(err.value)


def test_load_record_reads_only_the_claimed_files(enrolled, tmp_path):
    root = _copy_db(enrolled, tmp_path / "db")
    (root / "alice_finger_0.fpt").unlink()
    victim = root / "carol_iris_0_haar.irc"
    victim.write_bytes(b"XXXX" + victim.read_bytes()[4:])
    manifest = json.loads((root / "manifest.json").read_text())
    item = manifest["subjects"][0]["iris"][0]
    item["haar"], item["mellin"] = item["mellin"], item["haar"]
    (root / "manifest.json").write_text(json.dumps(manifest))
    assert list(_load_record(root, "bob").records) == ["bob"]
    with pytest.raises(MissingTemplateFile, match="alice_finger_0.fpt"):
        _load_record(root, "alice")
    with pytest.raises(BadMagic, match="carol_iris_0_haar.irc"):
        _load_record(root, "carol")
    (root / "alice_finger_0.fpt").write_bytes((enrolled.path / "alice_finger_0.fpt").read_bytes())
    with pytest.raises(CorruptManifest, match="alice_iris_0_mellin.irc"):
        _load_record(root, "alice")


def _files(root):
    return {p.name: p.read_bytes() for p in root.iterdir()}


def _assert_enrolled_dave_beside_the_others(root, before):
    after = _files(root)
    assert list(load_db(root).records) == ["alice", "bob", "carol", "dave"]
    # the others' entries are re-written byte for byte, their files untouched
    assert after["manifest.json"].startswith(before["manifest.json"][:-len(b"\n]}\n")])
    for name, blob in before.items():
        if name.endswith((".fpt", ".irc")):
            assert after[name] == blob


def test_bare_database_enrollment_keeps_every_subject(enrolled, corpus, tmp_path):
    root = _copy_db(enrolled, tmp_path / "db")
    before = _files(root)
    db = TemplateDB(root)
    assert len(db) == 0
    enroll(db, "dave", [corpus["alice"]["finger"]])
    assert list(db.records) == ["dave"]
    _assert_enrolled_dave_beside_the_others(root, before)


def test_load_record_view_is_a_complete_enrollment_target(enrolled, corpus, tmp_path):
    for view in ("alice", "dave"):
        root = _copy_db(enrolled, tmp_path / view)
        before = _files(root)
        enroll(_load_record(root, view), "dave", [corpus["alice"]["finger"]])
        _assert_enrolled_dave_beside_the_others(root, before)


def test_load_record_view_refuses_a_duplicate(enrolled, corpus, tmp_path):
    root = _copy_db(enrolled, tmp_path / "db")
    before = _files(root)
    for view in ("alice", "bob", "dave"):
        with pytest.raises(DuplicateSubject):
            enroll(_load_record(root, view), "alice", [corpus["alice"]["finger"]])
    assert _files(root) == before


def test_reloaded_db_verifies_identically(enrolled, corpus):
    reloaded = load_db(enrolled.path)
    fused = verify(reloaded, "carol", corpus["carol"]["finger"],
                   corpus["carol"]["eye"], CFG)
    assert fused.ms_final == 1.0
    assert fused.decision == GENUINE


# ---------------------------------------------------------------------------
# domain type validation


def test_person_record_validation(enrolled):
    record = enrolled.records["alice"]
    with pytest.raises(ValueError):
        PersonRecord("ok", (), (), "2026-01-01T00:00:00+00:00")
    with pytest.raises(ValueError):
        PersonRecord("bad id!", record.fingerprints, (), record.enrolled_at)
    with pytest.raises(TypeError):
        PersonRecord("ok", ("not-a-template",), (), record.enrolled_at)
    with pytest.raises(ValueError):
        PersonRecord("ok", record.fingerprints, (), "")


def test_iris_pair_validates_schemes(enrolled):
    pair = enrolled.records["alice"].iris_codes[0]
    assert pair.haar.scheme == SCHEME_HAAR
    assert pair.mellin.scheme == SCHEME_MELLIN
    with pytest.raises(ValueError):
        IrisPair(pair.mellin, pair.haar)


def test_ranked_match_validation():
    with pytest.raises(ValueError):
        RankedMatch("ok", 0.5, (0.5,))
    with pytest.raises(ValueError):
        RankedMatch("bad id!", 0.5, (0.5, 0.5))
    match = RankedMatch("ok", 0.5, (None, 0.5))
    assert match.per_trait == (None, 0.5)
    match = RankedMatch("ok", np.float64(0.5), (np.float64(0.25), "0.75"))
    assert match.per_trait == (0.25, 0.75)
    assert repr(match) == "RankedMatch(subject_id='ok', ms_final=0.5, per_trait=(0.25, 0.75))"
    for bad in (math.nan, math.inf, np.float64(-math.inf)):
        with pytest.raises(ValueError):
            RankedMatch("ok", 0.5, (0.5, bad))


def test_audit_event_validation():
    with pytest.raises(ValueError):
        AuditEvent("2026-01-01T00:00:00+00:00", "intrusion", "x", 0.0, "")
    event = AuditEvent("2026-01-01T00:00:00+00:00", "alarm", "x", "0.25", "")
    assert event.ms_final == 0.25
    for bad in (math.inf, -math.inf, math.nan, "nan"):
        with pytest.raises(ValueError, match="ms_final must be finite"):
            AuditEvent("2026-01-01T00:00:00+00:00", "alarm", "x", bad, "")
