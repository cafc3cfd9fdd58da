"""Tests for the command-line front end."""

import ast
import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import synthgen
import biolock
from biolock import cli, registry
from biolock.cli import MAX_PROBE_CSV_BYTES, EvalReport, read_probe_rows, sweep_rates
from biolock.errors import (
    BiolockError,
    BoundaryNotFound,
    MissingTemplateFile,
    NoPupilFound,
    PipelineFailure,
    TruncatedData,
)
from biolock.fingerprint import KIND_ENDING, TEMPLATE_MAX_BYTES, build_template
from biolock.fusion import GENUINE, MAX_CONFIG_BYTES, FusionConfig, save_config
from biolock.imaging import MAX_PGM_BYTES, decode_pgm, encode_pgm
from biolock.iris import CODE_MAX_BYTES
from biolock.registry import read_audit_log
from test_benchmark_hooks import load_tracer
from test_fingerprint import as_minutiae


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    """PGM fixtures on disk plus a two-subject database enrolled via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    paths = {"root": root, "db": root / "db"}

    def finger_pgm(idx, name, probe=None):
        img, _, state = synthgen.matching_print_state(idx)
        if probe is not None:
            img, _ = synthgen.rerender_print(state, probe[0], probe[1])
        (root / name).write_bytes(encode_pgm(img))
        return root / name

    def eye_pgm(seed, name, rot=0.0, noise=0.0, noise_seed=None):
        img = synthgen.render_eye(
            seed, rotation=math.radians(rot), noise=noise, noise_seed=noise_seed
        )
        (root / name).write_bytes(encode_pgm(img))
        return root / name

    paths["alice_finger"] = finger_pgm(0, "alice_f.pgm")
    paths["alice_eye"] = eye_pgm(511, "alice_e.pgm")
    paths["bob_finger"] = finger_pgm(1, "bob_f.pgm")
    paths["bob_eye"] = eye_pgm(519, "bob_e.pgm")
    paths["bob_probe_finger"] = finger_pgm(
        1, "bob_pf.pgm", probe=(math.radians(1.5), (-8.0, -8.0))
    )
    paths["bob_probe_eye"] = eye_pgm(
        519, "bob_pe.pgm", rot=0.9, noise=0.02, noise_seed=9519
    )
    for sid in ("alice", "bob"):
        code = cli.main([
            "enroll", "--db", str(paths["db"]), "--subject", sid,
            "--finger", str(paths[f"{sid}_finger"]),
            "--iris", str(paths[f"{sid}_eye"]),
        ])
        assert code == 0
    return paths


def run_cli(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# enroll


def test_enroll_prints_summary(tmp_path, env, capsys):
    code, out, _ = run_cli(
        capsys, "enroll", "--db", tmp_path / "fresh", "--subject", "carol",
        "--finger", env["alice_finger"],
    )
    assert code == 0
    assert out.strip() == "enrolled carol: 1 finger, 0 iris"


def test_enroll_duplicate_exits_2(env, capsys, monkeypatch):
    def fail(*_):
        raise AssertionError("extraction ran")

    monkeypatch.setattr(registry, "build_template", fail)
    monkeypatch.setattr(registry, "build_codes", fail)
    before = {p.name: p.read_bytes() for p in env["db"].iterdir()}
    code, _, err = run_cli(
        capsys, "enroll", "--db", env["db"], "--subject", "alice",
        "--finger", env["alice_finger"], "--iris", env["alice_eye"],
    )
    assert code == 2
    assert "duplicate" in err
    assert {p.name: p.read_bytes() for p in env["db"].iterdir()} == before


def test_enroll_decodes_no_gallery_file(tmp_path, env, capsys, monkeypatch):
    root = tmp_path / "db"
    shutil.copytree(env["db"], root)
    decoded = []
    load_file = registry._load_file
    monkeypatch.setattr(registry, "_load_file",
                        lambda *args: decoded.append(args[1]) or load_file(*args))
    code, _, _ = run_cli(capsys, "enroll", "--db", root, "--subject", "carol",
                         "--finger", env["alice_finger"])
    assert code == 0 and decoded == []
    # another subject's broken file does not stand in the way of a new one
    (root / "alice_finger_0.fpt").unlink()
    code, out, _ = run_cli(capsys, "enroll", "--db", root, "--subject", "dave",
                           "--iris", env["bob_eye"])
    assert code == 0 and out.strip() == "enrolled dave: 0 finger, 1 iris"
    assert decoded == []
    assert list(registry.TemplateDB(root)._entries) == ["alice", "bob", "carol", "dave"]


def test_enroll_missing_db_is_usage_error(env, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["enroll", "--subject", "x", "--finger", str(env["alice_finger"])])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_enroll_without_images_exits_2(tmp_path, env, capsys):
    code, _, err = run_cli(
        capsys, "enroll", "--db", tmp_path / "fresh", "--subject", "carol"
    )
    assert code == 2
    assert err.startswith("error:")


def test_enroll_with_an_audit_log_it_cannot_open_exits_2_and_writes_nothing(
        tmp_path, env, capsys):
    root = tmp_path / "db"
    shutil.copytree(env["db"], root)
    log = (root / "audit.log").read_bytes()
    (root / "audit.log").unlink()
    (root / "audit.log").mkdir()
    before = {p.name: p.read_bytes() for p in root.iterdir() if p.is_file()}
    enroll = ("enroll", "--db", root, "--subject", "carol",
              "--finger", env["alice_finger"], "--iris", env["alice_eye"])
    code, out, err = run_cli(capsys, *enroll)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "audit.log" in err
    assert {p.name: p.read_bytes() for p in root.iterdir() if p.is_file()} == before
    (root / "audit.log").rmdir()
    (root / "audit.log").write_bytes(log)
    assert run_cli(capsys, *enroll)[:2] == (0, "enrolled carol: 1 finger, 1 iris\n")
    assert list(registry.TemplateDB(root)._entries) == ["alice", "bob", "carol"]
    assert read_audit_log(root / "audit.log")[-1].claimed_id == "carol"


# ---------------------------------------------------------------------------
# verify


def test_verify_genuine_self_probe(env, capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--db", env["db"], "--claim", "alice",
        "--finger", env["alice_finger"], "--iris", env["alice_eye"],
    )
    assert code == 0
    line = out.strip()
    assert line.endswith("GENUINE")
    assert "ms_finger=1.0000" in line
    assert "ms_iris=1.0000" in line
    assert "ms_final=1.0000" in line


def test_verify_impostor_probe(env, capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--db", env["db"], "--claim", "alice",
        "--finger", env["bob_finger"], "--iris", env["bob_eye"],
    )
    assert code == 1
    assert out.strip().endswith("IMPOSTOR")


def test_verify_single_modality_prints_dash(env, capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--db", env["db"], "--claim", "alice",
        "--iris", env["alice_eye"],
    )
    assert code == 0
    assert "ms_finger=-" in out
    assert "ms_iris=1.0000" in out


def test_verify_unknown_subject_exits_2(env, capsys):
    code, _, err = run_cli(
        capsys, "verify", "--db", env["db"], "--claim", "mallory",
        "--iris", env["alice_eye"],
    )
    assert code == 2
    assert "mallory" in err


def test_verify_accepts_seed_flag(env, capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--db", env["db"], "--claim", "alice",
        "--iris", env["alice_eye"], "--seed", "7",
    )
    assert code == 0
    assert out.strip().endswith("GENUINE")


def test_verify_config_flag_changes_fusion(tmp_path, env, capsys):
    conf = tmp_path / "fusion.conf"
    save_config(FusionConfig(paper_faithful_final=True), conf)
    code, out, _ = run_cli(
        capsys, "verify", "--db", env["db"], "--claim", "alice",
        "--finger", env["alice_finger"], "--iris", env["alice_eye"],
        "--config", conf,
    )
    assert code == 0
    assert "ms_final=0.5000" in out
    assert out.strip().endswith("GENUINE")


# ---------------------------------------------------------------------------
# identify


def test_identify_ranks_probe_subject_first(env, capsys):
    code, out, _ = run_cli(
        capsys, "identify", "--db", env["db"],
        "--finger", env["bob_probe_finger"], "--iris", env["bob_probe_eye"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert re.fullmatch(r"1 bob 0\.\d{4}", lines[0])
    assert lines[1].startswith("2 alice ")
    scores = [float(line.split()[2]) for line in lines]
    assert scores[0] > scores[1]


def test_identify_top_truncates(env, capsys):
    code, out, _ = run_cli(
        capsys, "identify", "--db", env["db"], "--iris", env["alice_eye"],
        "--top", "1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("1 alice ")


def test_identify_empty_db_exits_2(tmp_path, env, capsys):
    code, _, err = run_cli(
        capsys, "identify", "--db", tmp_path / "nothing",
        "--iris", env["alice_eye"],
    )
    assert code == 2
    assert err.startswith("error:")


def _finishes(call, seconds=20.0):
    """Run ``call`` in a daemon thread and return what it returned or raised;
    fail if it is still running after ``seconds``, as a blocking read would be."""
    outcome = []

    def target():
        try:
            outcome.append(call())
        except Exception as exc:
            outcome.append(exc)

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(seconds)
    return None if worker.is_alive() else outcome[0]


@pytest.mark.parametrize("name, make, error", [
    ("alice_finger_0.fpt", lambda p: p.write_bytes(bytes(TEMPLATE_MAX_BYTES + 1)), TruncatedData),
    ("bob_iris_0_haar.irc", lambda p: p.write_bytes(bytes(CODE_MAX_BYTES + 1)), TruncatedData),
    ("alice_finger_0.fpt", lambda p: p.mkdir(), MissingTemplateFile),
    ("bob_iris_0_mellin.irc", os.mkfifo, MissingTemplateFile),
], ids=["fpt_over_its_size", "irc_over_its_size", "directory", "fifo"])
def test_unreadable_gallery_files_fail_bounded_and_exit_2(tmp_path, env, capsys, name, make,
                                                         error):
    root = tmp_path / "db"
    shutil.copytree(env["db"], root)
    (root / name).unlink()
    make(root / name)
    try:
        raised = _finishes(lambda: registry.load_db(root))
        assert isinstance(raised, error) and name in str(raised)
        code = _finishes(lambda: cli.main(["identify", "--db", str(root),
                                           "--iris", str(env["alice_eye"])]))
        _, err = capsys.readouterr()
        assert code == 2 and name in err
    finally:
        if (root / name).is_fifo():  # end a read still blocked on the FIFO, if any
            with contextlib.suppress(OSError):  # ENXIO: no reader is waiting
                os.close(os.open(root / name, os.O_WRONLY | os.O_NONBLOCK))


DAMAGE = ("header_byte", "body_byte", "truncation", "trailing_bytes", "other_scheme",
          "directory", "deleted", "other_subject")
MANIFEST_DAMAGE = ("byte", "truncation", "nested", "wrong_type", "missing_file", "unsafe_name")
UNSAFE_NAMES = ("../x.fpt", "a/b.fpt", "..", ".", "", "x\0y")
NESTED_JSON = "[" * 200_000  # past the JSON parser's recursion limit
WRONG_TYPES = (None, 7, 1.5, True, "x", [], {})


def damaged_manifest(data, db):
    """Damage ``db / manifest.json`` in place as drawn: one byte set, the file
    cut short, JSON nested past the parser's limit, one field replaced by a
    value of another type, a file name changed to one that is not there, or a
    file name changed to one that is not a plain name: a relative path, a
    special or empty name, a name holding NUL, or the file's absolute path."""
    path = db / registry.MANIFEST_NAME
    blob = path.read_bytes()
    kind = data.draw(st.sampled_from(MANIFEST_DAMAGE))
    if kind == "byte":
        at = data.draw(st.integers(0, len(blob) - 1))
        path.write_bytes(blob[:at] + bytes([data.draw(st.integers(0, 255))]) + blob[at + 1:])
        return
    if kind == "truncation":
        path.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1))])
        return
    if kind == "nested":
        path.write_text(NESTED_JSON)
        return
    manifest = json.loads(blob)
    entry = data.draw(st.sampled_from(manifest["subjects"]))
    # (object, key) of every field: the top level's, an entry's, and each file name
    slots = [(manifest, "version"), (manifest, "subjects"), *((entry, key) for key in entry),
             (entry["fingers"], 0), (entry["iris"][0], "haar"), (entry["iris"][0], "mellin")]
    if kind == "wrong_type":
        parent, key = data.draw(st.sampled_from(slots))
        parent[key] = data.draw(st.sampled_from(
            [value for value in WRONG_TYPES if type(value) is not type(parent[key])]))
    elif kind == "missing_file":
        parent, key = data.draw(st.sampled_from(slots[-3:]))
        parent[key] = "absent" + parent[key][-4:]
    else:
        parent, key = data.draw(st.sampled_from(slots[-3:]))
        parent[key] = data.draw(st.sampled_from([*UNSAFE_NAMES, str(db / parent[key])]))
    path.write_text(json.dumps(manifest))


def damaged(data, db, name):
    """Damage ``db / name`` in place as drawn: for a template or code, one byte
    of the header or the body set, the file cut short or extended, another
    format's bytes in its place (the other scheme's code for a code, a code
    for a template), the same file of the other subject in its place, the file
    deleted, or a directory where the file was; for the manifest, as
    :func:`damaged_manifest` does."""
    if name == registry.MANIFEST_NAME:
        damaged_manifest(data, db)
        return
    path = db / name
    blob = path.read_bytes()
    kind = data.draw(st.sampled_from(DAMAGE))
    head = 9 if name.endswith(".irc") else 10
    if kind in ("directory", "deleted"):
        path.unlink()
        if kind == "directory":
            path.mkdir()
        return
    if kind in ("header_byte", "body_byte"):
        at = data.draw(st.integers(0, head - 1) if kind == "header_byte"
                       else st.integers(head, len(blob) - 1))
        blob = blob[:at] + bytes([data.draw(st.integers(0, 255))]) + blob[at + 1:]
    elif kind == "truncation":
        blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
    elif kind == "trailing_bytes":
        blob += data.draw(st.binary(min_size=1, max_size=16))
    elif kind == "other_subject":
        subject, rest = name.split("_", 1)
        blob = (db / f"{'bob' if subject == 'alice' else 'alice'}_{rest}").read_bytes()
    else:
        subject = name.split("_")[0]
        other = "mellin" if name.endswith("_haar.irc") else "haar"
        blob = (db / f"{subject}_iris_0_{other}.irc").read_bytes()
    path.write_bytes(blob)


CONFIG_DAMAGE = ("byte", "truncation", "invalid_utf8", "repeated_key", "non_finite")
AUDIT_DAMAGE = ("garbage", "invalid_utf8", "torn")
AUDIT_LINE = (b'{"ts": "2026-01-01T00:00:00+00:00", "kind": "alarm", "claimed_id": "bob", '
              b'"ms_final": 0.25, "detail": "-"}\n')


def damaged_config(data, path):
    """Write the default fusion config to ``path``, intact in about half the
    examples, else damaged as drawn: one byte set, the file cut short, an
    invalid UTF-8 sequence put in, one line repeated, or one number made
    non-finite."""
    save_config(FusionConfig(), path)
    kind = data.draw(st.none() | st.sampled_from(CONFIG_DAMAGE))
    blob = path.read_bytes()
    lines = blob.splitlines(keepends=True)
    if kind == "byte":
        at = data.draw(st.integers(0, len(blob) - 1))
        blob = blob[:at] + bytes([data.draw(st.integers(0, 255))]) + blob[at + 1:]
    elif kind == "truncation":
        blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
    elif kind == "invalid_utf8":
        at = data.draw(st.integers(0, len(blob)))
        blob = blob[:at] + data.draw(st.sampled_from([b"\xff", b"\x80", b"\xc3("])) + blob[at:]
    elif kind == "repeated_key":
        blob += data.draw(st.sampled_from(lines))
    elif kind == "non_finite":
        at = data.draw(st.sampled_from([i for i, line in enumerate(lines) if b"true" not in line
                                        and b"false" not in line]))
        key = lines[at].split(b"=")[0]
        value = data.draw(st.sampled_from([b"nan", b"inf", b"-inf", b"1e999"]))
        blob = b"".join(lines[:at] + [key + b"= " + value + b"\n"] + lines[at + 1:])
    path.write_bytes(blob)


def damaged_audit(data, path) -> bytes:
    """Leave no audit log at ``path`` in about half the examples, else write
    a damaged one as drawn: garbage bytes, an event line holding invalid
    UTF-8, or an event line then a torn one; returns what was written."""
    kind = data.draw(st.none() | st.sampled_from(AUDIT_DAMAGE))
    if kind is None:
        return b""
    if kind == "garbage":
        blob = data.draw(st.binary(min_size=1, max_size=64))
    elif kind == "invalid_utf8":
        blob = AUDIT_LINE.replace(b'"-"', b'"\xff\xfe"')
    else:
        blob = AUDIT_LINE + AUDIT_LINE[:data.draw(st.integers(1, len(AUDIT_LINE) - 2))]
    path.write_bytes(blob)
    return blob


def every_command(db, tmp, env, claim, config=None):
    """The argv of each command that opens ``db``, ``enroll`` (which writes)
    last; probes are bob's, and a ``config`` is passed to each command that
    scores."""
    probe = ["--finger", env["bob_probe_finger"], "--iris", env["bob_probe_eye"]]
    probes = Path(tmp) / "probes.csv"
    probes.write_text(f"bob,{env['bob_probe_finger']},{env['bob_probe_eye']}\n")
    cfg = [] if config is None else ["--config", config]
    return [[str(a) for a in argv] for argv in (
        ["verify", "--db", db, "--claim", claim, *probe, *cfg],
        ["access", "--db", db, "--claim", claim, *probe, "--audit", Path(tmp) / "audit.log", *cfg],
        ["identify", "--db", db, *probe, *cfg],
        ["eval", "--db", db, "--probes", probes, *cfg],
        ["enroll", "--db", db, "--subject", "carol", *probe])]


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_damaged_template_and_code_files_exit_0_1_or_2_on_every_command(env, data):
    # the manifest in about half the examples, one of the six codec files otherwise
    names = sorted(p.name for p in env["db"].iterdir() if p.suffix in (".fpt", ".irc"))
    name = data.draw(st.just(registry.MANIFEST_NAME) | st.sampled_from(names))
    claim = data.draw(st.sampled_from(["alice", "bob"])) if name == registry.MANIFEST_NAME \
        else name.split("_")[0]
    with tempfile.TemporaryDirectory(dir=env["root"]) as tmp, \
            pytest.MonkeyPatch.context() as mp:
        db = shutil.copytree(env["db"], Path(tmp) / "db")
        damaged(data, db, name)
        config, audit = Path(tmp) / "fusion.cfg", Path(tmp) / "audit.log"
        damaged_config(data, config)
        before = damaged_audit(data, audit)
        mp.chdir(tmp)  # eval writes roc.csv to the working directory
        # then one door event that no damage but the audit log's stops
        door = ["access", "--db", env["db"], "--claim", claim, "--audit", audit,
                "--finger", env["bob_probe_finger"], "--iris", env["bob_probe_eye"]]
        for argv in every_command(db, tmp, env, claim, config) + [[str(a) for a in door]]:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(argv) in (0, 1, 2)
            after = audit.read_bytes() if audit.exists() else b""
            if argv[0] != "access" or after == before:
                continue
            # access appended one event, on a line of its own, after the bytes it found
            head = before + b"\n" if before and not before.endswith(b"\n") else before
            assert after.startswith(head) and after.endswith(b"\n")
            assert after[len(head):].count(b"\n") == 1
            assert json.loads(after[len(head):])["claimed_id"] == claim
            before = after
        assert json.loads(before.splitlines()[-1])["claimed_id"] == claim


def test_nested_json_manifest_exits_2_on_every_command(tmp_path, env, monkeypatch, capsys):
    db = shutil.copytree(env["db"], tmp_path / "db")
    (db / registry.MANIFEST_NAME).write_text(NESTED_JSON)
    monkeypatch.chdir(tmp_path)
    for argv in every_command(db, tmp_path, env, "bob"):
        assert cli.main(argv) == 2
        assert "maximum recursion depth" in capsys.readouterr().err
    assert (db / registry.MANIFEST_NAME).read_text() == NESTED_JSON


# ---------------------------------------------------------------------------
# access


def test_access_unlock_then_alarm_audits_one_line_each(tmp_path, env, capsys):
    audit = tmp_path / "door.log"
    code, out, _ = run_cli(
        capsys, "access", "--db", env["db"], "--claim", "bob",
        "--finger", env["bob_probe_finger"], "--iris", env["bob_probe_eye"],
        "--audit", audit,
    )
    assert code == 0
    assert out.strip().endswith("UNLOCK")
    assert len(audit.read_text().splitlines()) == 1

    code, out, _ = run_cli(
        capsys, "access", "--db", env["db"], "--claim", "alice",
        "--finger", env["bob_probe_finger"], "--iris", env["bob_probe_eye"],
        "--audit", audit,
    )
    assert code == 1
    assert out.strip().endswith("ALARM")
    events = read_audit_log(audit)
    assert [e.kind for e in events] == ["access_granted", "alarm"]
    assert events[1].claimed_id == "alice"


def test_access_after_a_torn_audit_line_writes_its_event_on_a_line_of_its_own(
        tmp_path, env, capsys):
    audit = tmp_path / "door.log"
    torn = b'{"ts": "2026-01-01T00:00:00+00:00", "ki'
    audit.write_bytes(torn)
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "access", "--db", env["db"], "--claim", "bob",
            "--finger", env["bob_probe_finger"], "--iris", env["bob_probe_eye"],
            "--audit", audit,
        )
        assert code == 0 and out.strip().endswith("UNLOCK")
    lines = audit.read_bytes().split(b"\n")
    assert lines[0] == torn and lines[-1] == b"" and len(lines) == 4
    for line in lines[1:3]:
        event = json.loads(line)
        assert (event["kind"], event["claimed_id"]) == ("access_granted", "bob")


def test_access_error_still_logs_event(tmp_path, env, capsys):
    audit = tmp_path / "door.log"
    code, _, err = run_cli(
        capsys, "access", "--db", env["db"], "--claim", "mallory",
        "--iris", env["alice_eye"], "--audit", audit,
    )
    assert code == 2
    assert "mallory" in err
    events = read_audit_log(audit)
    assert [e.kind for e in events] == ["error"]


def _door(capsys, env, db, audit):
    code, out, err = run_cli(capsys, "access", "--db", db, "--claim", "bob",
                             "--finger", env["bob_probe_finger"],
                             "--iris", env["bob_probe_eye"], "--audit", audit)
    return code, out, err, [(e.kind, e.claimed_id, e.ms_final, e.detail)
                            for e in read_audit_log(audit)]


def test_access_ignores_another_subjects_broken_files(tmp_path, env, capsys):
    intact = _door(capsys, env, env["db"], tmp_path / "intact.log")
    db = shutil.copytree(env["db"], tmp_path / "db")
    (db / "alice_finger_0.fpt").unlink()
    victim = db / "alice_iris_0_haar.irc"
    victim.write_bytes(b"XXXX" + victim.read_bytes()[4:])
    assert _door(capsys, env, db, tmp_path / "broken.log") == intact
    assert intact[0] == 0 and len(intact[3]) == 1
    verified = [run_cli(capsys, "verify", "--db", root, "--claim", "bob",
                        "--finger", env["bob_probe_finger"]) for root in (env["db"], db)]
    assert verified[1] == verified[0] and verified[0][0] == 0


def test_access_with_the_claimed_subjects_file_missing_exits_2(tmp_path, env, capsys):
    db = shutil.copytree(env["db"], tmp_path / "db")
    (db / "bob_finger_0.fpt").unlink()
    code, out, err, events = _door(capsys, env, db, tmp_path / "door.log")
    assert code == 2
    assert out == ""
    assert "bob_finger_0.fpt" in err
    assert events == []


def test_access_decodes_only_the_claimed_record(tmp_path, env, capsys, monkeypatch):
    calls = []  # one name per decoded blob
    for name in ("decode_templates", "decode_codes"):
        original = getattr(registry, name)
        monkeypatch.setattr(registry, name, lambda blobs, names, _f=original, _n=name:
                            calls.extend([_n] * len(blobs)) or _f(blobs, names))
    code, _, _, _ = _door(capsys, env, env["db"], tmp_path / "door.log")
    assert code == 0
    assert sorted(calls) == ["decode_codes", "decode_codes", "decode_templates"]


@pytest.mark.parametrize("claim, expected_code", [("bob", 0), ("alice", 1)])
def test_access_extracts_once_and_reports_what_access_then_verify_did(
        tmp_path, env, capsys, monkeypatch, claim, expected_code):
    # Reference: access() on the whole database gives the audit line and the
    # printed score, which must be verify()'s score for the same probe.
    db = registry.load_db(env["db"])
    finger = decode_pgm(env["bob_probe_finger"].read_bytes())
    eye = decode_pgm(env["bob_probe_eye"].read_bytes())
    expected_log = tmp_path / "expected.log"
    fused = registry.access(db, claim, finger, eye, FusionConfig(), audit_log=expected_log)
    assert fused == registry.verify(db, claim, finger, eye, FusionConfig())
    label = "UNLOCK" if fused.decision == GENUINE else "ALARM"

    calls = []
    for name in ("build_template", "build_codes"):
        original = getattr(registry, name)
        monkeypatch.setattr(registry, name,
                            lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k))
    audit = tmp_path / "door.log"
    code, out, _ = run_cli(capsys, "access", "--db", env["db"], "--claim", claim,
                           "--finger", env["bob_probe_finger"],
                           "--iris", env["bob_probe_eye"], "--audit", audit)
    assert sorted(calls) == ["build_codes", "build_template"]
    assert code == expected_code
    assert out == f"{cli._score_line(fused)} {label}\n"
    fields = lambda e: (e.kind, e.claimed_id, e.ms_final, e.detail)
    assert [fields(e) for e in read_audit_log(audit)] == [
        fields(e) for e in read_audit_log(expected_log)]


def test_access_runs_the_public_registry_access_once(tmp_path, env):
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        code = cli.main(["access", "--db", str(env["db"]), "--claim", "bob",
                         "--finger", str(env["bob_probe_finger"]),
                         "--iris", str(env["bob_probe_eye"]),
                         "--audit", str(tmp_path / "door.log")])
    finally:
        tracer.uninstall()
    assert code == 0
    names = [span[0] for span in tracer.spans]
    assert names.count("registry.access") == 1
    door = names.index("registry.access")
    assert [name for name, _, _, parent, _ in tracer.spans if parent == door] == [
        "registry.verify", "registry.audit_append"]


# ---------------------------------------------------------------------------
# eval


@pytest.fixture()
def probes_csv(env):
    path = env["root"] / "probes.csv"
    path.write_text(
        "true_subject_id,finger_path,iris_path\n"
        f"alice,{env['alice_finger']},{env['alice_eye']}\n"
        f"bob,{env['bob_probe_finger']},{env['bob_probe_eye']}\n"
        f"bob,,{env['bob_probe_eye']}\n"
    )
    return path


def test_eval_writes_roc_and_prints_eer(tmp_path, env, probes_csv, capsys,
                                        monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        capsys, "eval", "--db", env["db"], "--probes", probes_csv
    )
    assert code == 0
    assert re.search(
        r"EER 0\.0000 at threshold 0\.\d{4} \(far=0\.0000 frr=0\.0000\)", out
    )
    assert "3 genuine, 3 impostor" in out

    lines = (tmp_path / "roc.csv").read_text().splitlines()
    assert lines[0] == "threshold,far,frr"
    assert len(lines) == 102
    assert lines[1] == "0.00,1.0000,0.0000"
    rows = [line.split(",") for line in lines[1:]]
    fars = [float(r[1]) for r in rows]
    frrs = [float(r[2]) for r in rows]
    assert all(a >= b for a, b in zip(fars, fars[1:]))
    assert all(a <= b for a, b in zip(frrs, frrs[1:]))
    assert fars[-1] == 0.0


def test_eval_header_is_optional(tmp_path, env, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    headerless = env["root"] / "probes_bare.csv"
    headerless.write_text(f"alice,,{env['alice_eye']}\n")
    code, out, _ = run_cli(
        capsys, "eval", "--db", env["db"], "--probes", headerless
    )
    assert code == 0
    assert "1 genuine, 1 impostor" in out


def test_eval_malformed_csv_exits_2(tmp_path, env, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "bad.csv"
    bad.write_text("alice,only-two-columns\n")
    code, _, err = run_cli(capsys, "eval", "--db", env["db"], "--probes", bad)
    assert code == 2
    assert "3 columns" in err


def test_eval_csv_field_past_the_csv_module_limit_exits_2_naming_the_line(
        tmp_path, env, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "bad.csv"
    bad.write_text(f"alice,{env['alice_finger']},\nbob,{'x' * 200_000},\n")
    code, out, err = run_cli(capsys, "eval", "--db", env["db"], "--probes", bad)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad}: line 2: field larger than field limit")


def test_eval_unresolved_path_exits_2(tmp_path, env, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "bad.csv"
    bad.write_text(f"alice,{tmp_path / 'missing.pgm'},\n")
    code, _, err = run_cli(capsys, "eval", "--db", env["db"], "--probes", bad)
    assert code == 2
    assert err.startswith("error:")


def test_eval_empty_db_exits_2(tmp_path, env, probes_csv, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(
        capsys, "eval", "--db", tmp_path / "nothing", "--probes", probes_csv
    )
    assert code == 2
    assert "enrolled" in err


# ---------------------------------------------------------------------------
# inspect


def test_inspect_finger_dumps_and_counts(tmp_path, env, capsys):
    out_dir = tmp_path / "dump"
    code, out, _ = run_cli(
        capsys, "inspect", "--finger", env["alice_finger"], "--out", out_dir
    )
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["enhanced.pgm", "mask.pgm", "minutiae.pgm", "thin.pgm"]
    source = decode_pgm(env["alice_finger"].read_bytes())
    for name in names:
        dump = decode_pgm((out_dir / name).read_bytes())
        assert (dump.width, dump.height) == (source.width, source.height)
    template = build_template(source)
    endings = sum(1 for m in as_minutiae(template.rows) if m.kind == KIND_ENDING)
    expected = (f"minutiae: {len(template)} total, {endings} endings, "
                f"{len(template) - endings} bifurcations")
    assert expected in out
    # quality is the fraction of the image inside the segmentation mask
    mask = decode_pgm((out_dir / "mask.pgm").read_bytes()).pixels > 0.5
    assert 0.0 < mask.mean() < 1.0
    assert f"quality: {mask.mean():.4f}\n" in out


def test_inspect_iris_dumps_strip(tmp_path, env, capsys):
    out_dir = tmp_path / "dump"
    code, out, _ = run_cli(
        capsys, "inspect", "--iris", env["alice_eye"], "--out", out_dir
    )
    assert code == 0
    strip = decode_pgm((out_dir / "strip.pgm").read_bytes())
    validity = decode_pgm((out_dir / "validity.pgm").read_bytes())
    assert (strip.width, strip.height) == (512, 64)
    assert (validity.width, validity.height) == (512, 64)
    assert "strip: 512x64" in out
    assert re.search(r"haar balance 0\.\d{4} \(512 bits, \d+ valid\)", out)
    assert re.search(r"mellin balance 0\.\d{4} \(1536 bits, \d+ valid\)", out)


def test_inspect_unreadable_names_decode_stage(tmp_path, env, capsys):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P6 not a grayscale file")
    code, _, err = run_cli(
        capsys, "inspect", "--finger", bad, "--out", tmp_path / "dump"
    )
    assert code == 2
    assert "stage 'decode'" in err
    code, _, err = run_cli(
        capsys, "inspect", "--iris", tmp_path / "absent.pgm",
        "--out", tmp_path / "dump"
    )
    assert code == 2
    assert "stage 'decode'" in err


def test_pgm_header_over_the_pixel_cap_exits_2(tmp_path, env, capsys):
    huge = tmp_path / "huge.pgm"
    huge.write_bytes(b"P5\n100000 100000\n255\n" + bytes(64))
    code, _, err = run_cli(capsys, "verify", "--db", env["db"], "--claim", "bob",
                           "--finger", huge)
    assert code == 2
    assert "100000x100000 exceeds" in err and "PGM cap" in err


def test_probe_pgm_longer_than_the_byte_cap_exits_2_naming_the_cap(tmp_path, env, capsys):
    # a 64 x 64 header whose payload runs on past what any PGM within the pixel cap holds
    long = tmp_path / "long.pgm"
    long.write_bytes(b"P5 64 64 255\n" + bytes(range(256)) * (MAX_PGM_BYTES // 256))
    code, out, err = run_cli(capsys, "verify", "--db", env["db"], "--claim", "bob",
                             "--finger", long)
    assert (code, out) == (2, "")
    assert err == f"error: {long}: longer than the {MAX_PGM_BYTES}-byte cap\n"


@pytest.mark.parametrize("flag, cap", [("--finger", MAX_PGM_BYTES), ("--config", MAX_CONFIG_BYTES)])
@pytest.mark.parametrize("make, message", [
    (lambda path, cap: os.mkfifo(path), "not a regular file"),
    (lambda path, cap: path.mkdir(), "not a regular file"),
    (lambda path, cap: path.write_bytes(bytes(cap + 1)), "-byte cap"),
], ids=["fifo", "directory", "past_the_cap"])
def test_unreadable_probe_and_config_files_exit_2_at_once(tmp_path, env, capsys, flag, cap, make,
                                                         message):
    path = tmp_path / "input"
    make(path, cap)
    argv = ["verify", "--db", env["db"], "--claim", "bob", "--finger", env["bob_probe_finger"],
            flag, path]
    try:
        code = _finishes(lambda: cli.main([str(a) for a in argv]))
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: ") and message in err
    finally:
        if path.is_fifo():  # end an open still blocked on the FIFO, if any
            with contextlib.suppress(OSError):  # ENXIO: no reader is waiting
                os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))


def _probe_csv_past_its_cap(path):
    with open(path, "wb") as fh:  # one good row, then a sparse run of NUL bytes
        fh.write(b"alice,a.pgm,\n")
        fh.truncate(MAX_PROBE_CSV_BYTES + 1)


@pytest.mark.parametrize("make, message", [
    (os.mkfifo, "not a regular file"),
    (os.mkdir, "not a regular file"),
    (_probe_csv_past_its_cap, f"longer than the {MAX_PROBE_CSV_BYTES}-byte cap"),
    (lambda path: path.write_bytes(b"alice,\xff.pgm,\n"),
     "'utf-8' codec can't decode byte 0xff in position 6: invalid start byte"),
], ids=["fifo", "directory", "past_the_cap", "not_utf8"])
def test_unreadable_probe_csv_exits_2_at_once_naming_it(tmp_path, env, capsys, make, message):
    path = tmp_path / "probes.csv"
    make(path)
    try:
        code = _finishes(lambda: cli.main(["eval", "--db", str(env["db"]), "--probes", str(path)]))
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == f"error: {path}: {message}\n"
    finally:
        if path.is_fifo():  # end an open still blocked on the FIFO, if any
            with contextlib.suppress(OSError):  # ENXIO: no reader is waiting
                os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))


def test_access_with_a_fifo_audit_log_exits_2_naming_it(tmp_path, env, capsys):
    fifo = tmp_path / "audit.fifo"
    os.mkfifo(fifo)  # opened read-write, so no reader or writer is awaited
    code, out, err = run_cli(capsys, "access", "--db", env["db"], "--claim", "bob",
                             "--finger", env["bob_probe_finger"], "--audit", fifo)
    assert (code, out) == (2, "")
    assert err == f"error: {fifo}: not a regular file\n"


@pytest.mark.parametrize("make", [os.mkfifo, os.mkdir], ids=["fifo", "directory"])
def test_access_refuses_an_unusable_audit_log_before_it_scores(tmp_path, env, capsys,
                                                               monkeypatch, make):
    calls = []
    for name in ("build_template", "build_codes"):
        monkeypatch.setattr(registry, name, lambda img, _real=getattr(registry, name), _name=name:
                            calls.append(_name) or _real(img))
    path = tmp_path / "audit"
    make(path)
    code, out, err = run_cli(capsys, "access", "--db", env["db"], "--claim", "bob",
                             "--finger", env["bob_probe_finger"], "--iris", env["bob_eye"],
                             "--audit", path)
    assert (code, out, calls) == (2, "", [])
    assert err.startswith("error: ") and str(path) in err


def test_enroll_of_a_print_wider_than_fpt1_stores_exits_2_and_writes_nothing(tmp_path, capsys):
    # within the PGM pixel cap, but FPT1 stores each image side as a u16
    wide = tmp_path / "wide.pgm"
    wide.write_bytes(b"P5\n65536 16\n255\n" + bytes(65536 * 16))
    db = tmp_path / "db"
    code, _, err = run_cli(capsys, "enroll", "--db", db, "--subject", "carol", "--finger", wide)
    assert code == 2
    assert err.startswith("error:") and "0..65535" in err
    assert not db.exists() or not any(db.iterdir())


def test_inspect_pipeline_failure_names_stage(tmp_path, env, capsys):
    flat = tmp_path / "flat.pgm"
    flat.write_bytes(b"P5\n64 64\n255\n" + bytes([230]) * (64 * 64))
    code, _, err = run_cli(
        capsys, "inspect", "--iris", flat, "--out", tmp_path / "dump"
    )
    assert code == 2
    assert "stage 'pupil-localization'" in err


@pytest.mark.parametrize("base, stage", [
    (NoPupilFound, "pupil-localization"),
    (BoundaryNotFound, "iris-boundary"),
    (BiolockError, "feature-extraction"),
])
def test_enroll_and_inspect_name_the_same_stage_for_error_subclasses(
        tmp_path, env, capsys, monkeypatch, base, stage):
    class Narrower(base):
        pass

    def failing(img):
        raise Narrower("no luck")

    monkeypatch.setattr(registry, "build_codes", failing)
    monkeypatch.setattr(cli, "build_codes", failing)
    with pytest.raises(PipelineFailure) as exc:
        registry.enroll(registry.load_db(tmp_path / "db"), "carol", [],
                        [decode_pgm(env["alice_eye"].read_bytes())])
    assert exc.value.stage == stage
    code, _, err = run_cli(
        capsys, "inspect", "--iris", env["alice_eye"], "--out", tmp_path / "dump"
    )
    assert code == 2
    assert f"stage '{stage}' failed: no luck" in err


def test_inspect_requires_exactly_one_source(env, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([
            "inspect", "--finger", str(env["alice_finger"]),
            "--iris", str(env["alice_eye"]), "--out", "x",
        ])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# console entry point


def test_console_script_runs(env):
    # The child imports the same biolock as this process, installed or not.
    src = os.path.dirname(os.path.dirname(biolock.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "biolock.cli", "identify", "--db", str(env["db"]),
         "--iris", str(env["alice_eye"]), "--top", "1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert result.stdout.startswith("1 alice ")


def test_biolock_needs_no_scipy():
    """numpy is the one runtime dependency: no module of the package imports
    scipy, even inside a function, and importing the CLI loads no scipy module."""
    package = Path(biolock.__file__).parent
    for source in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            assert not [n for n in names if n.split(".")[0] == "scipy"], (source.name, names)
    result = subprocess.run(
        [sys.executable, "-c", "import sys, biolock.cli; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(package.parent), os.environ.get("PYTHONPATH")]))},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


# ---------------------------------------------------------------------------
# evaluation report unit tests


def test_sweep_rates_matches_naive_oracle():
    import random

    rng = random.Random(808)
    for _ in range(20):
        genuine = [rng.random() for _ in range(rng.randint(1, 30))]
        impostor = [rng.random() for _ in range(rng.randint(1, 30))]
        report = sweep_rates(genuine, impostor)
        assert len(report.rows) == 101
        for t, far, frr in report.rows:
            naive_far = sum(1 for s in impostor if s >= t) / len(impostor)
            naive_frr = sum(1 for s in genuine if s < t) / len(genuine)
            assert far == naive_far
            assert frr == naive_frr


def test_sweep_rates_boundary_rows():
    report = sweep_rates([0.8, 0.9, 1.0], [0.1, 0.2])
    t0, far0, frr0 = report.rows[0]
    assert (t0, far0, frr0) == (0.0, 1.0, 0.0)
    t_last, far_last, frr_last = report.rows[-1]
    assert (t_last, far_last) == (1.0, 0.0)
    assert frr_last == pytest.approx(2 / 3)


def test_sweep_rates_empty_side_is_zero_rate():
    report = sweep_rates([0.9], [])
    assert all(far == 0.0 for _, far, _ in report.rows)


def test_eval_report_eer_tie_breaks_low():
    report = EvalReport(((0.0, 0.3, 0.3), (0.5, 0.3, 0.3), (1.0, 0.0, 1.0)))
    assert report.eer_row() == (0.0, 0.3, 0.3)


# ---------------------------------------------------------------------------
# probe CSV parsing unit tests


def test_read_probe_rows_full_and_headerless(tmp_path):
    with_header = tmp_path / "a.csv"
    with_header.write_text(
        "true_subject_id,finger_path,iris_path\n"
        "alice,f.pgm,e.pgm\n"
        "\n"
        "bob,,e2.pgm\n"
    )
    rows = read_probe_rows(with_header)
    assert rows == [("alice", "f.pgm", "e.pgm"), ("bob", "", "e2.pgm")]
    headerless = tmp_path / "b.csv"
    headerless.write_text("alice,f.pgm,\n")
    assert read_probe_rows(headerless) == [("alice", "f.pgm", "")]


def test_read_probe_rows_header_after_line_one_is_data(tmp_path):
    # Only a first line matching the canonical column names is a header;
    # the same text later in the file is an ordinary row.
    path = tmp_path / "a.csv"
    path.write_text("alice,f.pgm,\ntrue_subject_id,finger_path,iris_path\n")
    rows = read_probe_rows(path)
    assert len(rows) == 2
    assert rows[1] == ("true_subject_id", "finger_path", "iris_path")


def test_read_probe_rows_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("alice,two\n")
    with pytest.raises(ValueError):
        read_probe_rows(path)
    path.write_text("alice,,\n")
    with pytest.raises(ValueError):
        read_probe_rows(path)
    path.write_text(",f.pgm,\n")
    with pytest.raises(ValueError):
        read_probe_rows(path)
    path.write_text("")
    with pytest.raises(ValueError):
        read_probe_rows(path)


@pytest.mark.parametrize("text, expected", [
    # a blank first line: the header is still the first row, and skipped
    ("\ntrue_subject_id,finger_path,iris_path\nalice,a.pgm,\n", [("alice", "a.pgm", "")]),
    # a quoted path over lines 1-2: the four-column row is line 3, not record 2
    ('alice,"a\nb.pgm",\nbob,,x,y\n', "line 3: expected 3 columns, got 4"),
], ids=["header_after_a_blank_line", "bad_row_after_a_two_line_row"])
def test_read_probe_rows_counts_lines_not_records(tmp_path, text, expected):
    path = tmp_path / "probes.csv"
    path.write_text(text)
    if isinstance(expected, list):
        assert read_probe_rows(path) == expected
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {expected}$"):
            read_probe_rows(path)
