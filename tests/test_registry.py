"""Tests for the template database: enrollment, matching, audit, persistence."""

import dataclasses
import errno
import json
import math
import os
import re
import shutil
import stat
import struct
import subprocess
import sys
import threading
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

import synthgen
from test_codecs import decode_code_oracle, decode_template_array_oracle
from test_fusion import oracle_pipeline
from test_iris import hamming_oracle
import biolock
from biolock import cli, fingerprint, fusion, imaging, iris, registry
from biolock.errors import (
    BadMagic,
    BiolockError,
    CorruptManifest,
    DuplicateSubject,
    EmptyDatabase,
    EmptyEnrollment,
    ImageTooSmall,
    MissingTemplateFile,
    NoProbe,
    NoPupilFound,
    NoScores,
    NotRegularFile,
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
from biolock.imaging import GrayImage, decode_pgm, encode_pgm, read_regular_file
from biolock.iris import CODE_MAX_BYTES, SCHEME_HAAR, SCHEME_MELLIN, build_codes, encode_code
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


def test_the_invalid_claim_mark_is_not_a_subject_id(tmp_path, corpus):
    # the audit log records an invalid claim as "-", so no subject may be "-"
    db = load_db(tmp_path / "db")
    with pytest.raises(ValueError, match="not be '-'"):
        enroll(db, "-", [corpus["alice"]["finger"]], [])
    assert len(db) == 0 and db._entries == {} and not (tmp_path / "db").exists()
    for good in ("--", "-a", "a-", "_"):
        assert registry._validate_subject_id(good) == good
    root = tmp_path / "db"
    root.mkdir()
    (root / "manifest.json").write_text(json.dumps({"version": 1, "subjects": [
        {"id": "-", "enrolled_at": "t", "fingers": ["f"], "iris": []}]}))
    with pytest.raises(CorruptManifest, match="not be '-'"):
        load_db(root)
    with pytest.raises(CorruptManifest):
        _load_record(root, "-")


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


def test_enroll_names_a_finger_that_fails_extraction_and_writes_nothing(tmp_path):
    db = load_db(tmp_path / "db")
    with pytest.raises(PipelineFailure) as err:
        enroll(db, "dave", [GrayImage(np.full((8, 8), 0.5))], [])
    assert (err.value.modality, err.value.index, err.value.stage) == (
        "finger", 0, "feature-extraction")
    assert len(db) == 0 and db._entries == {} and not (tmp_path / "db").exists()


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
    assert reopened.records["bob"] == record
    assert right_after == [verify(reopened, "bob", *probe, CFG) for probe in probes]


def test_enroll_encodes_each_template_and_code_once(tmp_path, corpus, monkeypatch):
    calls = []
    for name in ("encode_template", "encode_code"):
        monkeypatch.setattr(registry, name, lambda value, name=name, encode=getattr(registry, name):
                            calls.append(name) or encode(value))
    db = load_db(tmp_path / "db")
    record = enroll(db, "alice", [corpus["alice"]["finger"], corpus["bob"]["finger"]],
                    [corpus["alice"]["eye"]])
    assert calls == ["encode_template"] * 2 + ["encode_code"] * 2
    expected = {f"alice_finger_{i}.fpt": encode_template(t)
                for i, t in enumerate(record.fingerprints)}
    for i, pair in enumerate(record.iris_codes):
        expected[f"alice_iris_{i}_haar.irc"] = encode_code(pair.haar)
        expected[f"alice_iris_{i}_mellin.irc"] = encode_code(pair.mellin)
    assert {p.name: p.read_bytes() for p in db.path.iterdir()
            if p.suffix in (".fpt", ".irc")} == expected
    (entry,) = json.loads((db.path / "manifest.json").read_text())["subjects"]
    assert entry["fingers"] == ["alice_finger_0.fpt", "alice_finger_1.fpt"]
    assert entry["iris"] == [{"haar": "alice_iris_0_haar.irc",
                              "mellin": "alice_iris_0_mellin.irc"}]


def test_enroll_removes_the_files_it_wrote_when_the_manifest_write_fails(
        tmp_path, corpus, monkeypatch):
    db = load_db(tmp_path / "db")
    enroll(db, "alice", [corpus["alice"]["finger"]], [])
    before = {p.name: p.read_bytes() for p in db.path.iterdir()}
    open_regular = registry.open_regular

    def fail_on_manifest(path, flags, dir_fd=None):
        if Path(path).name == "manifest.json.tmp":
            raise OSError("disk full")
        return open_regular(path, flags, dir_fd)

    monkeypatch.setattr(registry, "open_regular", fail_on_manifest)
    with pytest.raises(OSError, match="disk full"):
        enroll(db, "bob", [corpus["bob"]["finger"]], [corpus["bob"]["eye"]])
    assert {p.name: p.read_bytes() for p in db.path.iterdir()} == before
    assert list(db._entries) == list(db.records) == ["alice"]


@pytest.mark.parametrize("step", ["write", "replace"])
def test_enroll_leaves_no_temp_file_when_an_atomic_write_fails(
        tmp_path, corpus, monkeypatch, step):
    db = load_db(tmp_path / "db")
    enroll(db, "alice", [corpus["alice"]["finger"]], [])
    before = {p.name: p.read_bytes() for p in db.path.iterdir()}
    replace = os.replace

    def full_disk_replace(src, dst):
        if Path(dst).name == "manifest.json":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        replace(src, dst)

    if step == "write":  # half the manifest's bytes land, as when the disk fills
        _count_file_calls(monkeypatch, _EnrollOs(full_at="manifest.json.tmp"))
    else:
        monkeypatch.setattr(registry.os, "replace", full_disk_replace)
    with pytest.raises(OSError) as err:
        enroll(db, "bob", [corpus["bob"]["finger"]], [corpus["bob"]["eye"]])
    monkeypatch.undo()
    assert err.value.errno == errno.ENOSPC
    assert {p.name: p.read_bytes() for p in db.path.iterdir()} == before
    assert list(db._entries) == list(db.records) == ["alice"]


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


def test_eval_splits_the_scores_the_identify_loop_split(mixed_db, corpus, tmp_path,
                                                        monkeypatch):
    # Probes sharing no trait with finger-only or eyes-only, a true subject
    # without the probe's trait, and one outside the gallery.
    paths = {}
    for sid in ("alice", "bob"):
        for trait in ("finger", "eye"):
            paths[sid, trait] = tmp_path / f"{sid}_{trait}.pgm"
            paths[sid, trait].write_bytes(encode_pgm(corpus[sid]["probe_" + trait]))
    rows = [("bob", paths["bob", "finger"], paths["bob", "eye"]),
            ("bob", "", paths["bob", "eye"]),
            ("alice", paths["alice", "finger"], ""),
            ("eyes-only", paths["bob", "finger"], ""),
            ("finger-only", "", paths["alice", "eye"]),
            ("nobody", paths["alice", "finger"], paths["bob", "eye"])]
    probes = tmp_path / "probes.csv"
    probes.write_text("".join(f"{sid},{f},{e}\n" for sid, f, e in rows))
    swept = []
    real = cli.sweep_rates
    monkeypatch.setattr(cli, "sweep_rates", lambda g, i: swept.append((g, i)) or real(g, i))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["eval", "--db", str(mixed_db.path), "--probes", str(probes)]) == 0

    genuine, impostor = [], []  # oracle: a full identify per row, split by subject id
    for true_id, finger_path, iris_path in rows:
        finger = decode_pgm(finger_path.read_bytes()) if finger_path else None
        eye = decode_pgm(iris_path.read_bytes()) if iris_path else None
        for match in identify(mixed_db, finger, eye, CFG, top_k=len(mixed_db)):
            (genuine if match.subject_id == true_id else impostor).append(match.ms_final)
    assert len(genuine) == 3 and len(impostor) < len(rows) * len(mixed_db) - 3
    [(got_genuine, got_impostor)] = swept
    assert sorted(got_genuine) == sorted(genuine)
    assert sorted(got_impostor) == sorted(impostor)


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
    # RankedMatch checks nothing, so plain types are identify's to keep; one
    # test over the finger-only, eye-only and two-trait probes keeps its id
    for probe_traits in (("finger",), ("eye",), ("finger", "eye")):
        images = {trait: corpus["bob"]["probe_" + trait] for trait in probe_traits}
        matches = identify(mixed_db, images.get("finger"), images.get("eye"), CFG,
                           top_k=len(mixed_db))
        for i, trait in enumerate(("finger", "eye")):
            scored = {m.per_trait[i] is not None for m in matches}
            assert scored == ({True, False} if len(probe_traits) == 2 else
                              {trait in probe_traits})
        for match in matches:
            assert type(match.ms_final) is float
            assert all(type(s) is float for s in match.per_trait if s is not None)
            assert "np." not in repr(match)


# ---------------------------------------------------------------------------
# the scoring core runs on the calling thread


def _record_extraction_threads(monkeypatch) -> dict:
    """Record the thread each probe extraction of the scoring core runs on."""
    threads = {}
    for name in ("build_template", "build_codes"):
        def spy(img, _real=getattr(registry, name), _name=name):
            threads[_name] = threading.current_thread()
            return _real(img)
        monkeypatch.setattr(registry, name, spy)
    return threads


def _scoring_calls(db, probe, log_path):
    return (lambda: verify(db, "bob", *probe, CFG),
            lambda: identify(db, *probe, CFG, top_k=len(db)),
            lambda: access(db, "bob", *probe, CFG, audit_log=log_path))


@pytest.mark.parametrize("failing", [None, "build_template", "build_codes"])
def test_a_two_trait_probe_starts_no_thread(mixed_db, corpus, monkeypatch, tmp_path, failing):
    def no_thread(self):
        raise RuntimeError("the scoring core started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    threads = _record_extraction_threads(monkeypatch)
    if failing is not None:
        def fail(img):
            raise ImageTooSmall(f"{failing} failed")
        monkeypatch.setattr(registry, failing, fail)
    probe = corpus["bob"]["probe_finger"], corpus["bob"]["probe_eye"]
    for call in _scoring_calls(mixed_db, probe, tmp_path / "door.log"):
        threads.clear()
        if failing is None:
            call()
            assert threads == {"build_template": threading.current_thread(),
                               "build_codes": threading.current_thread()}
        else:
            with pytest.raises(ImageTooSmall, match=f"{failing} failed"):
                call()
            assert set(threads.values()) <= {threading.current_thread()}


@pytest.mark.parametrize("trait", ["finger", "eye"])
def test_a_one_trait_probe_scores_on_the_calling_thread(mixed_db, corpus, monkeypatch, trait):
    finger, eye = corpus["bob"]["probe_finger"], corpus["bob"]["probe_eye"]
    column = 0 if trait == "finger" else 1
    both = identify(mixed_db, finger, eye, CFG, top_k=len(mixed_db))
    threads = _record_extraction_threads(monkeypatch)
    probe = (finger, None) if trait == "finger" else (None, eye)
    matches = identify(mixed_db, *probe, CFG, top_k=len(mixed_db))
    assert list(threads.values()) == [threading.current_thread()]
    assert {m.subject_id: m.per_trait[column] for m in matches} == {
        m.subject_id: m.per_trait[column] for m in both if m.per_trait[column] is not None}


def test_a_finger_error_is_raised_before_the_iris_half_starts(mixed_db, corpus, monkeypatch,
                                                               tmp_path):
    error = ImageTooSmall("the finger half failed")
    codes_calls = []

    def failing_template(img):
        raise error

    def counting_codes(img, _real=registry.build_codes):
        codes_calls.append(img)
        return _real(img)

    monkeypatch.setattr(registry, "build_template", failing_template)
    monkeypatch.setattr(registry, "build_codes", counting_codes)
    log_path = tmp_path / "door.log"
    probe = corpus["bob"]["probe_finger"], corpus["bob"]["probe_eye"]
    for call in _scoring_calls(mixed_db, probe, log_path):
        with pytest.raises(ImageTooSmall) as raised:
            call()
        assert raised.value is error
    assert codes_calls == []
    [event] = read_audit_log(log_path)
    assert (event.kind, event.claimed_id, event.detail) == ("error", "bob", "the finger half failed")


def test_an_iris_error_reaches_the_caller_unchanged(mixed_db, corpus, monkeypatch, tmp_path):
    error = NoPupilFound("the iris half failed")

    def failing_codes(img):
        raise error

    monkeypatch.setattr(registry, "build_codes", failing_codes)
    log_path = tmp_path / "door.log"
    probe = corpus["bob"]["probe_finger"], corpus["bob"]["probe_eye"]
    for call in _scoring_calls(mixed_db, probe, log_path):
        with pytest.raises(NoPupilFound) as raised:
            call()
        assert raised.value is error
    [event] = read_audit_log(log_path)
    assert (event.kind, event.detail) == ("error", "the iris half failed")


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


def audit_stamps(path):
    return [datetime.fromisoformat(e.ts) for e in read_audit_log(path)]


def test_audit_stamps_strictly_increase_across_processes(tmp_path):
    # three writers, each its own process, start together on one log
    path = tmp_path / "audit.log"
    src = os.path.dirname(os.path.dirname(biolock.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = ("import sys; from biolock.registry import AuditLog; log = AuditLog(sys.argv[1]); "
              "print('ready', flush=True); sys.stdin.readline(); "
              "[log.append('enroll', f's{i}', -1.0, 'race') for i in range(300)]")
    writers = [subprocess.Popen([sys.executable, "-c", script, str(path)], env=env, text=True,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
               for _ in range(3)]
    try:
        for w in writers:
            assert w.stdout.readline() == "ready\n"
        for w in writers:
            w.stdin.write("go\n")
            w.stdin.close()
        assert [w.wait(timeout=60) for w in writers] == [0, 0, 0]
    finally:
        for w in writers:
            w.kill()
            w.wait()
            w.stdin.close()
            w.stdout.close()
    stamps = audit_stamps(path)
    assert len(stamps) == 900
    assert all(a < b for a, b in zip(stamps, stamps[1:]))


def test_audit_stamps_strictly_increase_across_threads(tmp_path):
    path = tmp_path / "audit.log"
    start = threading.Barrier(4, timeout=60)

    def write():
        log = AuditLog(path)
        start.wait()
        for i in range(200):
            log.append("enroll", f"s{i}", -1.0, "race")

    writers = [threading.Thread(target=write) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so writes interleave
    try:
        for w in writers:
            w.start()
        for w in writers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in writers)
    stamps = audit_stamps(path)
    assert len(stamps) == 800
    assert all(a < b for a, b in zip(stamps, stamps[1:]))


def audit_line(ts, detail="-"):
    return json.dumps({"ts": ts, "kind": "alarm", "claimed_id": "bob", "ms_final": 0.25,
                       "detail": detail}).encode() + b"\n"


def test_the_next_audit_stamp_follows_the_last_one_in_the_file(tmp_path):
    path = tmp_path / "audit.log"
    path.write_bytes(audit_line("2030-01-01T00:00:00.000000+00:00"))
    assert AuditLog(path).append("enroll", "bob", -1.0, "next").ts == \
        "2030-01-01T00:00:00.000001+00:00"
    assert [e.ts for e in read_audit_log(path)][1:] == ["2030-01-01T00:00:00.000001+00:00"]


# last lines that set no floor, or whose floor the clock has passed
AUDIT_TAILS = {
    "torn": audit_line("2020-01-01T00:00:00.000000+00:00")
    + audit_line("2030-01-01T00:00:00.000000+00:00")[:40],
    "foreign_json": b'["2030-01-01T00:00:00.000000+00:00"]\n',
    "offset_less": audit_line("2030-01-01T00:00:00.000000"),
    "calendar_end": audit_line("9999-12-31T23:59:59.999999+00:00"),
    "long_detail": audit_line("2020-01-01T00:00:00.000000+00:00", "x" * 10_000),
    "longer_than_the_tail": audit_line("2030-01-01T00:00:00.000000+00:00",
                                       "x" * 64 * 1024),  # past AUDIT_TAIL_BYTES
}


@pytest.mark.parametrize("name", AUDIT_TAILS)
def test_an_append_after_an_odd_last_line_takes_the_clock_and_parses_back(tmp_path, name):
    path = tmp_path / "audit.log"
    old = AUDIT_TAILS[name]
    path.write_bytes(old)
    before = datetime.now(timezone.utc)
    event = AuditLog(path).append("alarm", "bob", 0.5, "door")
    assert before <= datetime.fromisoformat(event.ts) <= datetime.now(timezone.utc)
    ended = old if old.endswith(b"\n") else old + b"\n"
    blob = path.read_bytes()
    assert blob.startswith(ended)
    line = blob[len(ended):]
    assert line.count(b"\n") == 1 and line.endswith(b"\n")
    assert AuditEvent(**json.loads(line)) == event


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


def test_audit_log_on_a_fifo_raises_naming_the_path(tmp_path):
    fifo = tmp_path / "audit.fifo"
    os.mkfifo(fifo)  # opened read-write, so no reader or writer is awaited
    with pytest.raises(NotRegularFile, match=rf"^{re.escape(str(fifo))}: not a regular file$"):
        AuditLog(fifo).append("alarm", "bob", 0.2, "door")


def test_read_audit_log_of_a_fifo_raises_at_once(tmp_path):
    fifo = tmp_path / "audit.fifo"
    os.mkfifo(fifo)
    # read in a child with a timeout, so a read that waits for a writer fails
    # this test instead of hanging the suite
    src = os.path.dirname(os.path.dirname(biolock.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys; from biolock.registry import read_audit_log; read_audit_log(sys.argv[1])",
         str(fifo)],
        capture_output=True, text=True, timeout=20, env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 1
    assert result.stderr.endswith(f"biolock.errors.NotRegularFile: {fifo}: not a regular file\n")


def test_read_audit_log_skips_blank_lines(tmp_path):
    line = ('{"ts": "2026-01-01T00:00:00+00:00", "kind": "alarm", "claimed_id": "x", '
            '"ms_final": 0.25, "detail": ""}\n')
    log = tmp_path / "audit.log"
    log.write_text(line + "\n  \t\n" + line)
    assert [e.ms_final for e in read_audit_log(log)] == [0.25, 0.25]


def test_read_audit_log_past_its_cap_raises(tmp_path):
    log_path = tmp_path / "audit.log"
    with open(log_path, "wb") as fh:  # one good event, then a sparse run of NUL bytes
        fh.write(b'{"ts": "2026-01-01T00:00:00+00:00", "kind": "alarm", '
                 b'"claimed_id": "x", "ms_final": 0.25, "detail": ""}\n')
        fh.truncate(registry.MAX_AUDIT_LOG_BYTES + 1)
    with pytest.raises(TruncatedData, match=f"audit.log: longer than the "
                                            f"{registry.MAX_AUDIT_LOG_BYTES}-byte cap$"):
        read_audit_log(log_path)


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
    nested = tmp_path / "nested.log"
    nested.write_text("[" * 200_000 + "\n")
    with pytest.raises(ValueError, match="line 1: bad audit record"):
        read_audit_log(nested)


@pytest.mark.parametrize("field, value", [
    ("kind", "opened"), ("ms_final", "x"), ("ts", 5), ("claimed_id", ["x"]), ("detail", None),
    ("ms_final", math.inf), ("ms_final", -math.inf), ("ms_final", math.nan),
    ("claimed_id", "bad id!"), ("claimed_id", ""), ("ts", "t"),
    ("ts", "2026-01-01T00:00:00"),
    pytest.param("ms_final", 10**400, id="ms_final-int-past-float"),
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
    "[" * 200_000,  # nested past the parser's recursion limit
)


def test_load_db_corrupt_manifests(tmp_path):
    root = tmp_path / "db"
    root.mkdir()
    manifest = root / "manifest.json"
    for content in CORRUPT_MANIFESTS:
        manifest.write_text(content)
        with pytest.raises(CorruptManifest):
            load_db(root)


@pytest.mark.parametrize("make", [os.mkfifo, os.mkdir], ids=["fifo", "directory"])
def test_a_manifest_that_is_not_a_regular_file_is_corrupt_on_every_command(
        enrolled, corpus, tmp_path, capsys, make):
    root = _copy_db(enrolled, tmp_path / "db")
    (root / "manifest.json").unlink()
    make(root / "manifest.json")
    files = {p.name: p.read_bytes() for p in root.iterdir() if p.is_file()}
    for load in (load_db, TemplateDB, lambda root: _load_record(root, "alice")):
        with pytest.raises(CorruptManifest, match="manifest.json: not a regular file"):
            load(root)
    finger, eye = tmp_path / "finger.pgm", tmp_path / "eye.pgm"
    finger.write_bytes(encode_pgm(corpus["alice"]["finger"]))
    eye.write_bytes(encode_pgm(corpus["alice"]["eye"]))
    probes = tmp_path / "probes.csv"
    probes.write_text(f"alice,{finger},{eye}\n")
    probe = ["--finger", str(finger), "--iris", str(eye)]
    for argv in (["enroll", "--subject", "dave"] + probe, ["verify", "--claim", "alice"] + probe,
                 ["access", "--claim", "alice"] + probe, ["identify"] + probe,
                 ["eval", "--probes", str(probes)]):
        assert cli.main(argv[:1] + ["--db", str(root)] + argv[1:]) == 2
        _, err = capsys.readouterr()
        assert err.startswith("error: ") and "manifest.json: not a regular file" in err
    assert {p.name: p.read_bytes() for p in root.iterdir() if p.is_file()} == files


def test_a_manifest_past_its_cap_is_corrupt(enrolled, tmp_path, monkeypatch):
    root = _copy_db(enrolled, tmp_path / "db")
    monkeypatch.setattr(registry, "MAX_MANIFEST_BYTES", (root / "manifest.json").stat().st_size - 1)
    with pytest.raises(CorruptManifest, match="manifest.json: longer than the"):
        load_db(root)


@pytest.mark.parametrize("version", [True, 1.0, "1"], ids=["bool", "float", "str"])
def test_manifest_version_must_be_the_int_1(tmp_path, version):
    root = tmp_path / "db"
    root.mkdir()
    (root / "manifest.json").write_text(json.dumps({"version": version, "subjects": []}))
    for load in (load_db, lambda root: _load_record(root, "x")):
        with pytest.raises(CorruptManifest, match="unsupported version"):
            load(root)


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
# the batch open path against the one-file-at-a-time path it replaced


def _oracle_load_file(directory, name, decode, cap):
    full = os.path.join(directory, name)
    try:
        blob = read_regular_file(full, cap)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        raise MissingTemplateFile(full) from exc
    except NotRegularFile as exc:
        raise MissingTemplateFile(str(exc)) from exc
    try:
        return decode(blob)
    except (BadMagic, TruncatedData) as exc:
        raise type(exc)(f"{full}: {exc}") from exc


def oracle_records(root, subject_ids=None):
    """Each entry's files read and decoded one at a time by the one-blob
    decoders, each code's scheme checked against its slot as it is decoded."""
    db = TemplateDB(root)
    directory, records = os.fspath(db.path), {}
    for sid, entry in db._entries.items():
        if subject_ids is not None and sid not in subject_ids:
            continue
        templates = [_oracle_load_file(directory, name, decode_template_array_oracle,
                                       fingerprint.TEMPLATE_MAX_BYTES) for name in entry["fingers"]]
        pairs = []
        for item in entry["iris"]:
            codes = []
            for scheme in (SCHEME_HAAR, SCHEME_MELLIN):
                codes.append(_oracle_load_file(directory, item[scheme], decode_code_oracle,
                                               iris.CODE_MAX_BYTES))
                if codes[-1].scheme != scheme:
                    raise CorruptManifest(
                        f"{os.path.join(directory, 'manifest.json')}: {item[scheme]}: manifest "
                        f"lists a {scheme} code but the file holds {codes[-1].scheme}")
            pairs.append(IrisPair(*codes))
        records[sid] = PersonRecord(sid, tuple(templates), tuple(pairs), entry["enrolled_at"])
    return records


def _outcome(load):
    try:
        return load()
    except BiolockError as exc:
        return type(exc), str(exc)


def _swap_slots(root, name):
    """Swap the file in ``name``'s manifest slot with its neighbour: haar with
    mellin, a finger with the first haar code."""
    manifest = json.loads((root / "manifest.json").read_text())
    for entry in manifest["subjects"]:
        item = entry["iris"][0]
        if name in item.values():
            item["haar"], item["mellin"] = item["mellin"], item["haar"]
        elif name in entry["fingers"]:
            entry["fingers"][0], item["haar"] = item["haar"], entry["fingers"][0]
    (root / "manifest.json").write_text(json.dumps(manifest))


def _put(fmt, value, offsets):
    def damage(path):
        data = bytearray(path.read_bytes())
        struct.pack_into(fmt, data, offsets[path.suffix], value)
        path.write_bytes(bytes(data))
    return damage


def _replace_with_directory(path):
    path.unlink()
    path.mkdir()


def _replace_with_device(path):
    if not os.path.exists("/dev/zero"):
        pytest.skip("no /dev/zero on this host")
    path.unlink()
    path.symlink_to("/dev/zero")


def _past_its_cap(path):
    cap = {".fpt": fingerprint.TEMPLATE_MAX_BYTES, ".irc": iris.CODE_MAX_BYTES}[path.suffix]
    path.write_bytes(path.read_bytes().ljust(cap + 1, b"\0"))


# Each damage, applied to any .fpt or .irc file: the FPT1 kind byte and x
# field of the first minutia, and the IRC1 scheme byte and bit count.
FILE_DAMAGE = {
    "bad_magic": lambda path: path.write_bytes(b"XXXX" + path.read_bytes()[4:]),
    "cut_short": lambda path: path.write_bytes(path.read_bytes()[:-3]),
    "kind_code_2": _put("<B", 2, {".fpt": 22, ".irc": 4}),
    "nan_field": _put("<f", math.nan, {".fpt": 10, ".irc": 9}),
    "wrong_bit_count": _put("<H", 1, {".fpt": 4, ".irc": 5}),
    "scheme_swapped_in_manifest": lambda path: _swap_slots(path.parent, path.name),
    "missing": lambda path: path.unlink(),
    "directory": _replace_with_directory,
    "device": _replace_with_device,  # a symlink to /dev/zero, which never ends
    "past_its_cap": _past_its_cap,
}


@pytest.mark.parametrize("how", sorted(FILE_DAMAGE))
def test_each_damaged_file_fails_the_batch_as_the_one_file_path_does(enrolled, tmp_path, how):
    files = sorted(p.name for p in enrolled.path.iterdir() if p.suffix in (".fpt", ".irc"))
    assert len(files) == 9
    for name in files:
        root = _copy_db(enrolled, tmp_path / f"{how}-{name}")
        FILE_DAMAGE[how](root / name)
        owner = name.split("_")[0]
        expected = _outcome(lambda: oracle_records(root))
        # IRC1 holds no float: NaN bytes in its words are bits like any other
        decodes = (how, name[-4:]) == ("nan_field", ".irc")
        assert isinstance(expected, dict) == decodes, (how, name)
        assert _outcome(lambda: load_db(root).records) == expected, (how, name)
        assert _outcome(lambda: _load_record(root, owner).records) == _outcome(
            lambda: oracle_records(root, {owner})), (how, name)
        if isinstance(expected, tuple):
            assert str(root) in expected[1]
        if how in ("directory", "device"):
            assert expected == (MissingTemplateFile, f"{root / name}: not a regular file")
        if how == "past_its_cap":
            assert expected[0] is TruncatedData and expected[1].startswith(
                f"{root / name}: longer than the "), expected


def test_of_several_faults_the_batch_reports_a_read_fault_first(enrolled, tmp_path):
    root = _copy_db(enrolled, tmp_path / "db")
    FILE_DAMAGE["bad_magic"](root / "alice_finger_0.fpt")  # the first file read
    (root / "carol_iris_0_mellin.irc").unlink()  # the last
    assert _outcome(lambda: oracle_records(root)) == (
        BadMagic, f"{root / 'alice_finger_0.fpt'}: expected b'FPT1' header, got b'XXXX'")
    assert _outcome(lambda: load_db(root)) == (
        MissingTemplateFile, str(root / "carol_iris_0_mellin.irc"))
    # of several read faults, the first in manifest order
    (root / "bob_finger_0.fpt").unlink()
    (root / "alice_iris_0_mellin.irc").unlink()
    assert _outcome(lambda: load_db(root)) == (
        MissingTemplateFile, str(root / "alice_iris_0_mellin.irc"))


class _CountingOs:
    """``os`` with every ``open``, ``fstat``, ``lseek``, ``pread`` and ``close``
    logged as (name, args, kwargs, result)."""

    COUNTED = ("open", "fstat", "lseek", "pread", "close")

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        real = getattr(os, name)
        if name not in self.COUNTED:
            return real

        def counted(*args, **kwargs):
            result = real(*args, **kwargs)
            self.calls.append((name, args, kwargs, result))
            return result
        return counted


def _count_file_calls(monkeypatch, counting=None):
    """Log the file calls of the reader's module and of the registry, through
    ``counting`` (a new :class:`_CountingOs` if ``None``)."""
    counting = counting or _CountingOs()
    monkeypatch.setattr(imaging, "os", counting)
    monkeypatch.setattr(registry, "os", counting)
    return counting.calls


def _assert_one_pass_over(calls, root, names):
    """``calls`` read the manifest, then open ``root`` once as a directory, then
    open each of ``names`` once, in order, relative to it, each with one
    ``fstat``, one ``pread`` and one ``close`` and no ``lseek``."""
    manifest, rest = calls[:4], calls[4:]
    assert [c[0] for c in manifest] == ["open", "fstat", "pread", "close"]
    assert manifest[0][1][0] == root / "manifest.json"
    (name, args, _, dir_fd), *files, last = rest
    assert (name, args[0]) == ("open", os.fspath(root)) and args[1] & os.O_DIRECTORY
    assert last[:2] == ("close", (dir_fd,))
    assert len(files) == 4 * len(names)
    for i, expected in enumerate(names):
        opened, stat, pread, close = files[4 * i:4 * i + 4]
        fd = opened[3]
        assert opened[:3] == ("open", (expected, os.O_RDONLY | os.O_NONBLOCK, 0o666),
                              {"dir_fd": dir_fd})
        assert (stat[:2], pread[0], pread[1][0], close[:2]) == (
            ("fstat", (fd,)), "pread", fd, ("close", (fd,)))
    assert not [c for c in calls if c[0] == "lseek"]


def _manifest_names(root, subject_ids):
    entries = TemplateDB(root)._entries
    return [name for sid in subject_ids for name in entries[sid]["fingers"] + [
        item[key] for item in entries[sid]["iris"] for key in ("haar", "mellin")]]


def test_load_db_opens_each_file_once_relative_to_one_directory_descriptor(
        mixed_db, monkeypatch):
    names = _manifest_names(mixed_db.path, list(mixed_db.records))
    assert len(names) == 17
    calls = _count_file_calls(monkeypatch)
    assert load_db(mixed_db.path).records == mixed_db.records
    _assert_one_pass_over(calls, mixed_db.path, names)


def test_load_record_opens_only_the_claimed_subjects_files(mixed_db, monkeypatch):
    for sid, count in (("alice", 3), ("twoeye", 5), ("eyes-only", 2)):
        names = _manifest_names(mixed_db.path, [sid])
        assert len(names) == count
        calls = _count_file_calls(monkeypatch)
        assert _load_record(mixed_db.path, sid).records == {sid: mixed_db.records[sid]}
        _assert_one_pass_over(calls, mixed_db.path, names)


def test_an_empty_or_missing_database_opens_no_directory_descriptor(tmp_path, monkeypatch):
    (tmp_path / "empty").mkdir()
    (tmp_path / "no-subjects").mkdir()
    (tmp_path / "no-subjects" / "manifest.json").write_text('{"version": 1, "subjects": []}')
    for root in (tmp_path / "missing", tmp_path / "empty", tmp_path / "no-subjects"):
        calls = _count_file_calls(monkeypatch)
        db = load_db(root)
        assert db.records == {} and db._entries == {} and len(db) == 0
        # at most the manifest's one read: no directory descriptor
        assert [c[0] for c in calls] == (["open", "fstat", "pread", "close"]
                                         if root.name == "no-subjects" else [])
        assert len(_load_record(root, "alice")) == 0


def test_loaded_records_equal_records_the_checking_constructors_build(mixed_db):
    """The decode path builds records without their constructors' checks; each
    equals, field by field and type by type, the record the constructors build
    from the same values, and the record ``enroll`` built and checked."""
    loaded = load_db(mixed_db.path).records
    assert list(loaded) == list(mixed_db.records)
    for sid, record in loaded.items():
        pairs = [IrisPair(pair.haar, pair.mellin) for pair in record.iris_codes]
        checked = PersonRecord(record.subject_id, list(record.fingerprints), pairs,
                               record.enrolled_at)
        for other in (checked, mixed_db.records[sid]):
            assert type(record) is type(other) is PersonRecord
            for field in dataclasses.fields(PersonRecord):
                mine, theirs = getattr(record, field.name), getattr(other, field.name)
                assert type(mine) is type(theirs) and mine == theirs, (sid, field.name)
            for mine, theirs in zip(record.iris_codes, other.iris_codes, strict=True):
                assert type(mine) is type(theirs) is IrisPair
                assert (mine.haar, mine.mellin) == (theirs.haar, theirs.mellin)
                assert (mine.haar.scheme, mine.mellin.scheme) == (SCHEME_HAAR, SCHEME_MELLIN)
        assert record == checked and hash(record) == hash(checked)
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.subject_id = "mallory"
        for pair in record.iris_codes:
            with pytest.raises(dataclasses.FrozenInstanceError):
                pair.haar = pair.mellin


# ---------------------------------------------------------------------------
# enrollment writes: one opener, one commit point


class _EnrollOs(_CountingOs):
    """:class:`_CountingOs` also logging ``replace`` and ``write``.  With ``full_at``,
    the disk fills halfway through the file opened under that name: its first
    ``write`` lands half the bytes asked for, and the next raises ENOSPC."""

    COUNTED = _CountingOs.COUNTED + ("replace", "write")

    def __init__(self, full_at=None):
        super().__init__()
        self.full_at, self.full = full_at, False

    def write(self, fd, data):
        opened = [c for c in self.calls if c[0] == "open" and c[3] == fd][-1]
        if Path(opened[1][0]).name == self.full_at:
            if self.full:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            self.full, data = True, data[:len(data) // 2]
        return self.__getattr__("write")(fd, data)


def _enroll_alice_in_child(root, full_at=""):
    """Run in a child process by :func:`_run_in_child`: enroll ``finger.pgm`` and
    ``eye.pgm`` of ``root`` as alice into ``root/db``, logging every ``open_regular``
    call of the registry and the ``os`` calls of ``imaging`` and ``registry``
    (:class:`_EnrollOs`, filling the disk at ``full_at`` if it is not empty).
    Prints the log, the error number, and the subjects of the open database."""
    root = Path(root)
    images = [decode_pgm((root / name).read_bytes()) for name in ("finger.pgm", "eye.pgm")]
    db = load_db(root / "db")
    counting = _EnrollOs(full_at or None)
    open_regular = registry.open_regular

    def logged_open_regular(path, flags, dir_fd=None):
        counting.calls.append(("open_regular", (path, flags), {}, None))
        return open_regular(path, flags, dir_fd)

    imaging.os = registry.os = counting
    registry.open_regular = logged_open_regular
    try:
        enroll(db, "alice", images[:1], images[1:])
        error = None
    except OSError as exc:
        error = exc.errno
    # as JSON: a path as a string, bytes as their length, a result that is not an int as None
    calls = [[name, *[a if isinstance(a, int) else os.fspath(a) if isinstance(a, (str, Path))
                      else len(a) for a in args], result if isinstance(result, int) else None]
             for name, args, _, result in counting.calls]
    print(json.dumps({"calls": calls, "errno": error, "entries": list(db._entries),
                      "records": list(db.records)}))


def _run_in_child(args, timeout=60):
    """``args`` run by a fresh interpreter with ``src`` and the tests on its path,
    under ``timeout`` seconds, so that a hang fails the test rather than
    blocking the suite."""
    paths = [os.path.dirname(os.path.dirname(biolock.__file__)), os.path.dirname(__file__),
             os.environ.get("PYTHONPATH")]
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=timeout, env={**os.environ, "PYTHONPATH": os.pathsep.join(
                              filter(None, paths))})


def _enroll_in_child(root, full_at=""):
    result = _run_in_child(["-c", "import sys, test_registry; "
                            "test_registry._enroll_alice_in_child(*sys.argv[1:])",
                            str(root), full_at])
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def _entries_of(root):
    """Each entry of ``root`` by name: its type, and its bytes or link target."""
    out = {}
    for name in sorted(os.listdir(root)):
        mode = os.lstat(root / name).st_mode
        out[name] = (stat.S_IFMT(mode), (root / name).read_bytes() if stat.S_ISREG(mode)
                     else os.readlink(root / name) if stat.S_ISLNK(mode) else None)
    return out


@pytest.fixture(scope="module")
def bob_db(tmp_path_factory, corpus):
    """A database holding bob alone, and alice's print and eye as PGM files
    beside it; tests work on a copy."""
    root = tmp_path_factory.mktemp("bob")
    enroll(load_db(root / "db"), "bob", [corpus["bob"]["finger"]], [corpus["bob"]["eye"]])
    (root / "finger.pgm").write_bytes(encode_pgm(corpus["alice"]["finger"]))
    (root / "eye.pgm").write_bytes(encode_pgm(corpus["alice"]["eye"]))
    return root


def test_enroll_opens_each_file_once_through_the_regular_file_opener(bob_db, tmp_path):
    root = shutil.copytree(bob_db, tmp_path / "root")
    report = _enroll_in_child(root)
    assert report["errno"] is None and report["entries"] == report["records"] == ["bob", "alice"]
    db = os.fspath(root / "db")
    writes = [(i, c) for i, c in enumerate(report["calls"])
              if c[0] == "open" and c[2] & (os.O_WRONLY | os.O_RDWR)
              and os.path.basename(c[1]) != "audit.log"]
    assert [os.path.basename(c[1]) for _, c in writes] == [
        "alice_finger_0.fpt", "alice_iris_0_haar.irc", "alice_iris_0_mellin.irc",
        "manifest.json.tmp"]
    for i, (_, path, flags, *_) in writes:
        assert os.path.dirname(path) == db
        assert flags == registry.WRITE_FLAGS
        assert flags & os.O_NONBLOCK and flags & os.O_NOFOLLOW
        assert report["calls"][i - 1] == ["open_regular", path, flags, None]
    assert [c for c in report["calls"] if c[0] == "replace"] == [
        ["replace", os.path.join(db, "manifest.json.tmp"), os.path.join(db, "manifest.json"),
         None]]
    assert sorted(os.listdir(root / "db")) == sorted(
        ["audit.log", "manifest.json", "bob_finger_0.fpt", "bob_iris_0_haar.irc",
         "bob_iris_0_mellin.irc", "alice_finger_0.fpt", "alice_iris_0_haar.irc",
         "alice_iris_0_mellin.irc"])
    assert list(load_db(root / "db").records) == ["bob", "alice"]


@pytest.mark.parametrize("name", ["manifest.json.tmp", "alice_finger_0.fpt"])
@pytest.mark.parametrize("plant", ["fifo", "devnull", "outside", "hardlink"])
def test_enroll_refuses_an_entry_that_is_not_a_regular_file_and_leaves_it(
        bob_db, tmp_path, name, plant):
    root = shutil.copytree(bob_db, tmp_path / "root")
    outside = tmp_path / "outside.txt"
    outside.write_bytes(b"outside the database\n")
    if plant == "fifo":
        os.mkfifo(root / "db" / name)
    elif plant == "hardlink":  # a regular file, but writing it writes the outside one
        os.link(outside, root / "db" / name)
    else:
        os.symlink("/dev/null" if plant == "devnull" else outside, root / "db" / name)
    before = _entries_of(root / "db")
    result = _run_in_child(["-m", "biolock.cli", "enroll", "--db", str(root / "db"),
                            "--subject", "alice", "--finger", str(root / "finger.pgm"),
                            "--iris", str(root / "eye.pgm")])
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: ") and name in result.stderr
    assert "Traceback" not in result.stderr
    assert _entries_of(root / "db") == before
    assert outside.read_bytes() == b"outside the database\n"


def test_a_full_disk_halfway_through_a_data_file_leaves_the_database_as_it_was(
        bob_db, tmp_path):
    root = shutil.copytree(bob_db, tmp_path / "root")
    before = _entries_of(root / "db")
    report = _enroll_in_child(root, "alice_iris_0_haar.irc")
    assert report["errno"] == errno.ENOSPC
    assert report["entries"] == report["records"] == ["bob"]
    calls = report["calls"]
    (at,) = [i for i, c in enumerate(calls) if c[0] == "open" and c[1].endswith("_haar.irc")]
    assert calls[at][2] == registry.WRITE_FLAGS
    # the one write that landed: half the code's bytes, then ENOSPC
    written = [c[2] for c in calls[at:] if c[0] == "write" and c[1] == calls[at][-1]]
    assert len(written) == 1 and 0 < written[0] < CODE_MAX_BYTES // 2
    assert _entries_of(root / "db") == before


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
    with pytest.raises(TypeError, match="iris_codes must hold IrisPair"):
        PersonRecord("ok", (), (record.iris_codes[0].haar,), record.enrolled_at)
    with pytest.raises(ValueError):
        PersonRecord("ok", record.fingerprints, (), "")


def test_iris_pair_validates_schemes(enrolled):
    pair = enrolled.records["alice"].iris_codes[0]
    assert pair.haar.scheme == SCHEME_HAAR
    assert pair.mellin.scheme == SCHEME_MELLIN
    with pytest.raises(ValueError):
        IrisPair(pair.mellin, pair.haar)
    with pytest.raises(ValueError, match="haar slot"):
        IrisPair(pair.mellin, pair.mellin)
    with pytest.raises(ValueError, match="mellin slot"):
        IrisPair(pair.haar, pair.haar)


def test_audit_event_validation():
    with pytest.raises(ValueError):
        AuditEvent("2026-01-01T00:00:00+00:00", "intrusion", "x", 0.0, "")
    event = AuditEvent("2026-01-01T00:00:00+00:00", "alarm", "x", "0.25", "")
    assert event.ms_final == 0.25
    for bad in (math.inf, -math.inf, math.nan, "nan"):
        with pytest.raises(ValueError, match="ms_final must be finite"):
            AuditEvent("2026-01-01T00:00:00+00:00", "alarm", "x", bad, "")
