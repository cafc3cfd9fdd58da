"""The benchmark's tracer wraps program functions by name; these names must
stay bound to callables, and tracing must leave them as it found them."""

import importlib.util
import sys
from pathlib import Path

import synthgen
from biolock import fingerprint, registry
from biolock.fingerprint import KIND_BIFURCATION, KIND_ENDING
from test_registry import CFG, corpus, mixed_db  # noqa: F401  (fixtures)

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_names_a_callable_and_uninstall_restores_it():
    tracer = load_tracer()
    originals = [(owner, attr, vars(owner).get(attr)) for _, owner, attr, _ in tracer.TARGETS]
    for owner, attr, fn in originals:
        assert callable(fn), f"{getattr(owner, '__name__', owner)}.{attr} is not a callable"
    # every module that imported a target by name, as the tracer rebinds those too
    holders = [(mod, attr, fn) for _, attr, fn in originals for mod in list(sys.modules.values())
               if getattr(mod, "__dict__", {}).get(attr) is fn]
    run = tracer.Tracer()
    run.install()
    try:
        for owner, attr, fn in originals:
            assert vars(owner)[attr] is not fn
            assert vars(owner)[attr].__wrapped__ is fn
    finally:
        run.uninstall()
    for owner, attr, fn in originals:
        assert vars(owner)[attr] is fn
    for mod, attr, fn in holders:
        assert vars(mod)[attr] is fn


def test_minutiae_counters_read_the_raw_and_kept_rows_of_one_print():
    img, _ = synthgen.plant_print([KIND_ENDING, KIND_BIFURCATION, KIND_ENDING], seed=42)
    assert img.pixels.shape == (256, 256)
    run = load_tracer().Tracer()
    run.install()
    try:
        template, art = fingerprint.build_template(img, keep_artifacts=True)
    finally:
        run.uninstall()
    names = [span[0] for span in run.spans]
    assert names.count("fingerprint.extract_minutiae") == 1
    assert names.count("fingerprint.filter_false_minutiae") == 1
    assert run.counts["minutiae_raw"] == len(art.raw_minutiae) > 0
    assert run.counts["minutiae_kept"] == len(template) > 0


def test_traced_spans_nest_and_no_self_time_is_negative(mixed_db, corpus):
    probe = corpus["bob"]["probe_finger"], corpus["bob"]["probe_eye"]
    run = load_tracer().Tracer()
    run.install()
    try:
        registry.verify(mixed_db, "bob", *probe, CFG)
        registry.identify(mixed_db, *probe, CFG, top_k=len(mixed_db))
    finally:
        run.uninstall()
    names = [span[0] for span in run.spans]
    assert names.count("iris.build_codes") == names.count("fingerprint.build_template") == 2
    siblings = {}
    for name, start, end, parent, _ in run.spans:
        if parent >= 0:
            _, parent_start, parent_end, _, _ = run.spans[parent]
            assert parent_start <= start and end <= parent_end, f"{name} leaves its parent"
        siblings.setdefault(parent, []).append((start, end, name))
    for group in siblings.values():
        group.sort()
        for (_, end, first), (start, _, second) in zip(group, group[1:]):
            assert end <= start, f"{first} and {second} overlap"
    for name, (self_ns, _) in run.self_times().items():
        assert self_ns >= 0, f"{name} has a negative self time"
