"""Tests for the command-line front end."""

import contextlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import threading

import pytest

import synthgen
import biolock
from biolock import cli, registry
from biolock.cli import EvalReport, read_probe_rows, sweep_rates
from biolock.errors import (
    BiolockError,
    BoundaryNotFound,
    MissingTemplateFile,
    NoPupilFound,
    PipelineFailure,
    TruncatedData,
)
from biolock.fingerprint import KIND_ENDING, TEMPLATE_MAX_BYTES, build_template
from biolock.fusion import GENUINE, FusionConfig, save_config
from biolock.imaging import decode_pgm, encode_pgm
from biolock.iris import CODE_MAX_BYTES
from biolock.registry import read_audit_log
from test_benchmark_hooks import load_tracer


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
    calls = []
    for name in ("decode_template", "decode_code"):
        original = getattr(registry, name)
        monkeypatch.setattr(registry, name,
                            lambda blob, _f=original, _n=name: calls.append(_n) or _f(blob))
    code, _, _, _ = _door(capsys, env, env["db"], tmp_path / "door.log")
    assert code == 0
    assert sorted(calls) == ["decode_code", "decode_code", "decode_template"]


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
    endings = sum(1 for m in template.minutiae if m.kind == KIND_ENDING)
    expected = (f"minutiae: {len(template.minutiae)} total, {endings} endings, "
                f"{len(template.minutiae) - endings} bifurcations")
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


def test_eval_report_validates_monotonicity():
    with pytest.raises(ValueError):
        EvalReport(((0.0, 0.5, 0.0), (0.1, 0.6, 0.0)))
    with pytest.raises(ValueError):
        EvalReport(((0.0, 0.5, 0.5), (0.1, 0.5, 0.4)))
    with pytest.raises(ValueError):
        EvalReport(((0.0, 1.5, 0.0),))
    with pytest.raises(ValueError):
        EvalReport(())
    with pytest.raises(ValueError):
        EvalReport(((0.1, 0.5, 0.5), (0.1, 0.5, 0.5)))


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
