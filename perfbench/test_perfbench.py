"""The benchmark's own tests: seeded inputs, digests, tracing, smoke runs.

Runs use a 30-subject background and a handful of operations so the module
finishes in about a minute; ``seconds=0`` makes the operation count exactly
``min_ops``.
"""

import json
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import bench
import gen
from biolock import fingerprint, registry
from conftest import HERE, ROOT
from speed import SAMPLE_INTERVAL_S, Speed
from tracer import Tracer

SEED = 7
SMALL_BACKGROUND = 30
OPS = {"door": 4, "search": 2, "enroll": 2}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    cache = {}

    def get(workload, trace, tag=0):
        key = (workload, trace, tag)
        if key not in cache:
            cache[key] = bench.run(workload, SEED, 0.0, trace,
                                   tmp_path_factory.mktemp(f"{workload}{int(trace)}{tag}"),
                                   min_ops=OPS[workload], n_background=SMALL_BACKGROUND)
        return cache[key]
    return get


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_pass_is_correct_with_no_errors(runs, workload):
    res = runs(workload, False)
    assert res.attempted == OPS[workload]
    assert res.failed == 0
    assert res.correct, res.checks
    assert set(res.digests) == {workload}


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_traced_run_prints_untraced_digests(runs, workload):
    plain, traced = runs(workload, False), runs(workload, True)
    assert traced.correct, traced.checks
    assert traced.digests == plain.digests
    assert traced.metrics["trace.coverage_min"]["value"] >= 0.95


def test_same_seed_gives_same_digests_and_counts(runs):
    first, second = runs("door", False), runs("door", False, tag=1)
    assert first.digests == second.digests
    assert (first.attempted, first.failed) == (second.attempted, second.failed)


def test_different_seeds_give_different_inputs():
    a, b = gen.real_subjects(1), gen.real_subjects(2)
    assert not np.array_equal(a[0].finger.pixels, b[0].finger.pixels)
    assert a[0].eye_seed != b[0].eye_seed
    _, fa, _ = gen.enroll_capture(1, 0)
    _, fb, _ = gen.enroll_capture(2, 0)
    assert not np.array_equal(fa.pixels, fb.pixels)


def test_same_seed_gives_same_inputs_and_no_repeated_probe():
    subjects = gen.real_subjects(SEED)
    again = gen.real_subjects(SEED)
    assert all(np.array_equal(x.finger.pixels, y.finger.pixels)
               for x, y in zip(subjects, again))
    claims = [gen.door_claim(subjects, SEED, i) for i in range(8)]
    assert np.array_equal(claims[3].probe.eye.pixels,
                          gen.door_claim(subjects, SEED, 3).probe.eye.pixels)
    eyes = {c.probe.eye.pixels.tobytes() for c in claims}
    assert len(eyes) == len(claims)
    assert [c.genuine for c in claims[:4]] == [True, True, True, False]


def test_door_counts_the_known_double_extraction(runs):
    metrics = runs("door", True).metrics
    assert metrics["fingerprint.build_template.calls"]["value"] == 2.0
    assert metrics["iris.build_codes.calls"]["value"] == 2.0
    assert metrics["registry.load_db.calls"]["value"] == 1.0


def test_identify_scores_every_subject_with_per_pair_fusion(runs):
    metrics = runs("search", True).metrics
    n = gen.N_REAL + SMALL_BACKGROUND
    assert metrics["iris.hamming_distance.calls"]["value"] == 2 * n
    assert metrics["fusion.fuse_pipeline.calls"]["value"] == 2 * n
    assert metrics["fingerprint.match_minutiae.calls"]["value"] == n


def test_tracer_wraps_imported_names_and_restores_them():
    original = fingerprint.build_template
    tracer = Tracer()
    tracer.install()
    try:
        assert registry.build_template is not original
        assert registry.build_template is fingerprint.build_template
        assert registry.build_template.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert registry.build_template is original
    assert fingerprint.build_template is original


def test_speed_samples_inside_an_interval_and_leaves_its_bursts_out(tmp_path):
    speed = Speed(tmp_path)
    t0 = time.perf_counter()
    # The sleep resumes after each burst and ends on time, so its interval
    # minus the bursts is shorter than the sleep.
    result, wall, scaled = speed.timed(lambda: time.sleep(3 * SAMPLE_INTERVAL_S) or 7)
    elapsed = time.perf_counter() - t0
    assert result == 7
    assert len(speed.slowdowns) >= 3  # at least two inside, one closing
    assert wall < 3 * SAMPLE_INTERVAL_S < elapsed
    assert scaled > 0.0


def test_speed_restores_the_alarm_handler_when_the_call_raises(tmp_path):
    speed = Speed(tmp_path)
    with pytest.raises(ZeroDivisionError):
        speed.timed(lambda: 1 / 0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_benchmark_json_lists_the_reported_metrics(runs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(runs("search", False).metrics)
    assert {m["name"] for m in spec["per_layer"]} == set(runs("search", True).metrics)
    for m in spec["end_to_end"]:
        assert runs("search", False).metrics[m["name"]]["unit"] == m["unit"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "door", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout
