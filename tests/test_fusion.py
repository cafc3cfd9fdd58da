"""Tests for score normalization, threshold rescaling, and sum-rule fusion."""

import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biolock.errors import NoScores, ZeroWeights
from biolock.fusion import (
    CLASSIFIER_HAAR,
    CLASSIFIER_MELLIN,
    CLASSIFIER_MINUTIAE,
    CLASSIFIERS,
    GENUINE,
    IMPOSTOR,
    FusedScore,
    FusionConfig,
    decide,
    fuse_arrays,
    fuse_classifiers,
    fuse_modalities,
    fuse_pipeline,
    load_config,
    normalize_score,
    rescale_to_common_threshold,
    save_config,
    to_similarity,
)


# ---------------------------------------------------------------------------
# domain types


def test_classifier_score_validates_fields():
    cfg = FusionConfig()
    for fuse in (fuse_pipeline, fuse_arrays):
        # a score names one of the three classifiers; the retired ref slot is
        # unknown too ...
        for name in ("face", "gabor", "finger", "iris", "ref"):
            with pytest.raises(ValueError, match="unknown classifier"):
                fuse({name: 0.5}, cfg)
        # ... and holds a finite value or NaN (no score)
        for name in CLASSIFIERS:
            for value in (math.inf, -math.inf):
                with pytest.raises(ValueError, match="must be finite"):
                    fuse({name: value}, cfg)
        with pytest.raises(ValueError, match="must be finite"):
            fuse({CLASSIFIER_MINUTIAE: 0.5, CLASSIFIER_HAAR: math.inf}, cfg)


def test_fusion_config_defaults():
    cfg = FusionConfig()
    assert cfg.alpha == 1.0 and cfg.beta == 1.0
    assert cfg.a == 1.0 and cfg.b == 1.0
    assert cfg.common_threshold == 0.5
    assert CLASSIFIERS == (CLASSIFIER_MINUTIAE, CLASSIFIER_HAAR, CLASSIFIER_MELLIN)
    assert dict(cfg.classifier_thresholds) == {name: 0.5 for name in CLASSIFIERS}
    assert cfg.paper_faithful_final is False


def test_fusion_config_validation():
    with pytest.raises(ValueError):
        FusionConfig(alpha=-0.1)
    for name in ("alpha", "beta", "a", "b"):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            FusionConfig(**{name: math.inf})
    with pytest.raises(ZeroWeights):
        FusionConfig(alpha=0.0, beta=0.0)
    with pytest.raises(ZeroWeights):
        FusionConfig(a=0.0, b=0.0)
    with pytest.raises(ValueError):
        FusionConfig(common_threshold=0.0)
    with pytest.raises(ValueError):
        FusionConfig(common_threshold=1.0)
    with pytest.raises(ValueError):
        FusionConfig(classifier_thresholds={"minutiae": 1.0})
    for name in ("voice", "ref"):
        with pytest.raises(ValueError, match="unknown classifier"):
            FusionConfig(classifier_thresholds={name: 0.5})
    # c and d took part in no computation and are gone.
    for name in ("c", "d"):
        with pytest.raises(TypeError):
            FusionConfig(**{name: 1.0})


def test_fusion_config_partial_thresholds_fill_defaults():
    cfg = FusionConfig(classifier_thresholds={"haar": 0.3})
    assert cfg.threshold_for(CLASSIFIER_HAAR) == 0.3
    assert cfg.threshold_for(CLASSIFIER_MELLIN) == 0.5
    with pytest.raises(ValueError):
        cfg.threshold_for("voice")


def test_fused_score_validates_decision():
    fs = FusedScore(None, 0.4, 0.4, IMPOSTOR)
    assert fs.ms_finger is None


# ---------------------------------------------------------------------------
# normalize_score


def test_normalize_score_examples():
    assert normalize_score(0.25) == 0.25
    assert normalize_score(0.0) == 0.0 and normalize_score(1.0) == 1.0
    assert normalize_score(5.0) == 1.0
    assert normalize_score(-1.0) == 0.0


def test_normalize_score_stays_in_unit_interval():
    rng = random.Random(101)
    for _ in range(500):
        raw = rng.uniform(-0.5, 1.5)
        result = normalize_score(raw)
        assert 0.0 <= result <= 1.0
        assert result == oracle_normalize(raw, 0.0, 1.0)


# ---------------------------------------------------------------------------
# to_similarity


def test_to_similarity_examples():
    assert to_similarity(0.3, True) == 0.7
    assert to_similarity(0.3, False) == 0.3
    assert to_similarity(1.0, True) == 0.0
    assert to_similarity(0.0, True) == 1.0


def test_to_similarity_involution():
    rng = random.Random(202)
    for _ in range(500):
        x = rng.random()
        assert to_similarity(to_similarity(x, True), True) == pytest.approx(x, abs=1e-15)
        assert to_similarity(to_similarity(x, False), False) == x


def test_to_similarity_rejects_out_of_range():
    with pytest.raises(ValueError):
        to_similarity(-0.1, True)
    with pytest.raises(ValueError):
        to_similarity(1.1, False)


# ---------------------------------------------------------------------------
# rescale_to_common_threshold


def test_rescale_knots_exact():
    for t_cls, t_common in ((0.5, 0.5), (0.3, 0.7), (0.123, 0.456), (0.9, 0.1)):
        assert rescale_to_common_threshold(t_cls, t_cls, t_common) == t_common
        assert rescale_to_common_threshold(0.0, t_cls, t_common) == 0.0
        assert rescale_to_common_threshold(1.0, t_cls, t_common) == 1.0


def test_rescale_linear_segment_example():
    assert rescale_to_common_threshold(0.25, 0.5, 0.6) == 0.30


def test_rescale_strictly_increasing():
    scores = [i / 200.0 for i in range(201)]
    previous = None
    for score in scores:
        value = rescale_to_common_threshold(score, 0.37, 0.52)
        if previous is not None:
            assert value > previous
        previous = value


def test_rescale_preserves_decision_boundary():
    rng = random.Random(4242)
    for _ in range(10_000):
        score = rng.random()
        t_cls = 0.01 + 0.98 * rng.random()
        t_common = 0.01 + 0.98 * rng.random()
        rescaled = rescale_to_common_threshold(score, t_cls, t_common)
        assert (score >= t_cls) == (rescaled >= t_common)
        assert 0.0 <= rescaled <= 1.0


def test_rescale_boundary_exact_at_one_ulp():
    # A score one float step below the classifier threshold must stay below
    # the common threshold after rescaling.
    for t_cls in (0.1, 0.25, 1.0 / 3.0, 0.5, 0.7, 0.9):
        below = math.nextafter(t_cls, 0.0)
        for t_common in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert rescale_to_common_threshold(below, t_cls, t_common) < t_common
            assert rescale_to_common_threshold(t_cls, t_cls, t_common) >= t_common


def test_rescale_validates_inputs():
    with pytest.raises(ValueError):
        rescale_to_common_threshold(0.5, 0.0, 0.5)
    with pytest.raises(ValueError):
        rescale_to_common_threshold(0.5, 0.5, 1.0)
    with pytest.raises(ValueError):
        rescale_to_common_threshold(1.5, 0.5, 0.5)


# ---------------------------------------------------------------------------
# fuse_classifiers


def test_fuse_classifiers_unit_weights_mean():
    assert fuse_classifiers(0.8, 0.6, 1, 1) == 0.7


def test_fuse_classifiers_weighted_mean():
    assert fuse_classifiers(1.0, 0.0, 3, 1) == 0.75


def test_fuse_classifiers_idempotent():
    rng = random.Random(303)
    for _ in range(300):
        s = rng.random()
        w1 = rng.uniform(0.0, 5.0)
        w2 = rng.uniform(0.1, 5.0)
        assert fuse_classifiers(s, s, w1, w2) == s


def test_fuse_classifiers_symmetry_and_betweenness():
    rng = random.Random(404)
    for _ in range(300):
        s1, s2 = rng.random(), rng.random()
        w = rng.uniform(0.1, 4.0)
        fused = fuse_classifiers(s1, s2, w, w)
        assert fused == fuse_classifiers(s2, s1, w, w)
        assert min(s1, s2) <= fused <= max(s1, s2)


def test_fuse_classifiers_errors():
    with pytest.raises(ZeroWeights):
        fuse_classifiers(0.5, 0.5, 0, 0)
    with pytest.raises(ValueError):
        fuse_classifiers(0.5, 0.5, -1, 2)
    with pytest.raises(ValueError):
        fuse_classifiers(1.5, 0.5, 1, 1)


# ---------------------------------------------------------------------------
# fuse_modalities


def test_fuse_modalities_normalized_examples():
    cfg = FusionConfig()
    assert fuse_modalities(1.0, 1.0, cfg) == 1.0
    assert fuse_modalities(0.9, 0.5, cfg) == 0.7


def test_fuse_modalities_paper_faithful():
    cfg = FusionConfig(paper_faithful_final=True)
    assert fuse_modalities(1.0, 1.0, cfg) == 0.5
    assert fuse_modalities(0.8, 0.6, cfg) == 0.35


def test_fuse_modalities_weighted():
    cfg = FusionConfig(a=3.0, b=1.0)
    assert fuse_modalities(1.0, 0.0, cfg) == 0.75
    assert fuse_modalities(0.0, 1.0, cfg) == 0.25


def test_fuse_modalities_idempotent_and_symmetric():
    rng = random.Random(505)
    cfg = FusionConfig()
    for _ in range(300):
        f, i = rng.random(), rng.random()
        assert fuse_modalities(f, f, cfg) == f
        assert fuse_modalities(f, i, cfg) == fuse_modalities(i, f, cfg)


# ---------------------------------------------------------------------------
# decide


def test_decide_examples():
    assert decide(0.7, 0.5) == GENUINE
    assert decide(0.3, 0.5) == IMPOSTOR
    assert decide(0.5, 0.5) == GENUINE  # equality counts as genuine
    with pytest.raises(ValueError):
        decide(0.5, 0.0)
    with pytest.raises(ValueError):
        decide(0.5, 1.0)


# ---------------------------------------------------------------------------
# fuse_pipeline


def test_fuse_pipeline_knot_propagation():
    # Distance scores sitting exactly at their classifier thresholds land on
    # the common threshold, and equality decides genuine.
    cfg = FusionConfig(
        common_threshold=0.6, classifier_thresholds={"haar": 0.25, "mellin": 0.75}
    )
    fused = fuse_pipeline({CLASSIFIER_HAAR: 0.75, CLASSIFIER_MELLIN: 0.25}, cfg)
    assert fused.ms_iris == 0.6
    assert fused.ms_final == 0.6
    assert fused.decision == GENUINE


def test_fuse_pipeline_endpoint_propagation():
    cfg = FusionConfig()
    fused = fuse_pipeline(
        {CLASSIFIER_MINUTIAE: 1.0, CLASSIFIER_HAAR: 0.0, CLASSIFIER_MELLIN: 0.0}, cfg
    )
    assert fused.ms_finger == 1.0
    assert fused.ms_iris == 1.0
    assert fused.ms_final == 1.0
    assert fused.decision == GENUINE


def test_fuse_pipeline_missing_trait_passes_through():
    cfg = FusionConfig()
    finger_only = fuse_pipeline({CLASSIFIER_MINUTIAE: 0.82}, cfg)
    assert finger_only.ms_iris is None
    assert finger_only.ms_final == finger_only.ms_finger
    iris_only = fuse_pipeline({CLASSIFIER_HAAR: 0.1, CLASSIFIER_MELLIN: 0.2}, cfg)
    assert iris_only.ms_finger is None
    assert iris_only.ms_final == iris_only.ms_iris
    # NaN is no score, as a left-out classifier is
    assert fuse_pipeline({CLASSIFIER_MINUTIAE: math.nan, CLASSIFIER_HAAR: 0.1,
                          CLASSIFIER_MELLIN: 0.2}, cfg) == iris_only


def test_fuse_pipeline_single_classifier_passes_through():
    cfg = FusionConfig(alpha=5.0, beta=0.25)
    fused = fuse_pipeline({CLASSIFIER_MELLIN: 0.3}, cfg)
    # An iris score is a distance: 1 - 0.3 = 0.7 similarity, rescaled across
    # (0.5 -> 0.5) stays 0.7.
    assert fused.ms_iris == pytest.approx(0.7, abs=1e-15)
    assert fused.ms_final == fused.ms_iris


def test_fuse_pipeline_errors():
    cfg = FusionConfig()
    with pytest.raises(NoScores):
        fuse_pipeline({}, cfg)
    with pytest.raises(NoScores):
        fuse_pipeline({CLASSIFIER_MINUTIAE: math.nan, CLASSIFIER_HAAR: math.nan}, cfg)


def test_fuse_pipeline_monotone_in_each_similarity():
    rng = random.Random(606)
    for _ in range(200):
        cfg = FusionConfig(
            alpha=rng.uniform(0.1, 3.0),
            beta=rng.uniform(0.1, 3.0),
            a=rng.uniform(0.1, 3.0),
            b=rng.uniform(0.1, 3.0),
            common_threshold=rng.uniform(0.05, 0.95),
            classifier_thresholds={
                "minutiae": rng.uniform(0.05, 0.95),
                "haar": rng.uniform(0.05, 0.95),
                "mellin": rng.uniform(0.05, 0.95),
            },
        )
        sim = rng.random()
        d_haar, d_mellin = rng.random(), rng.random()
        base = fuse_pipeline(
            {CLASSIFIER_MINUTIAE: sim, CLASSIFIER_HAAR: d_haar, CLASSIFIER_MELLIN: d_mellin}, cfg
        ).ms_final
        bumped_sim = min(1.0, sim + rng.uniform(0.0, 1.0 - sim))
        lowered_haar = max(0.0, d_haar - rng.uniform(0.0, d_haar))
        better = fuse_pipeline(
            {CLASSIFIER_MINUTIAE: bumped_sim, CLASSIFIER_HAAR: lowered_haar,
             CLASSIFIER_MELLIN: d_mellin},
            cfg,
        ).ms_final
        assert better >= base
        assert 0.0 <= base <= 1.0 and 0.0 <= better <= 1.0


def test_fuse_pipeline_swap_symmetry():
    rng = random.Random(707)
    cfg = FusionConfig()  # alpha == beta, a == b, all thresholds equal
    for _ in range(200):
        d1, d2 = rng.random(), rng.random()
        direct = fuse_pipeline({CLASSIFIER_HAAR: d1, CLASSIFIER_MELLIN: d2}, cfg).ms_final
        swapped = fuse_pipeline({CLASSIFIER_HAAR: d2, CLASSIFIER_MELLIN: d1}, cfg).ms_final
        assert direct == swapped
    for _ in range(200):
        u, w = rng.random(), rng.random()
        one = fuse_pipeline({CLASSIFIER_MINUTIAE: u, CLASSIFIER_HAAR: 1.0 - w}, cfg).ms_final
        other = fuse_pipeline({CLASSIFIER_MINUTIAE: w, CLASSIFIER_HAAR: 1.0 - u}, cfg).ms_final
        assert one == pytest.approx(other, abs=1e-12)


def test_fuse_pipeline_normalizes_raw_ranges():
    cfg = FusionConfig()
    # Raw scores are read on the matchers' [0, 1] scale, clamping outside it.
    fused = fuse_pipeline({CLASSIFIER_MINUTIAE: 1.5, CLASSIFIER_HAAR: -0.5}, cfg)
    assert fused.ms_finger == 1.0
    assert fused.ms_iris == 1.0
    assert fused.decision == GENUINE
    assert fuse_pipeline({CLASSIFIER_MELLIN: 2.0}, cfg).ms_iris == 0.0


# ---------------------------------------------------------------------------
# the array-valued chain against the scalar chain it replaced


def _finite(name, value):
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _unit(name, value):
    value = _finite(name, value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


def oracle_normalize(raw, lo, hi):
    return min(1.0, max(0.0, (_finite("raw", raw) - lo) / (hi - lo)))


def oracle_similarity(score, is_distance):
    score = _unit("score", score)
    return 1.0 - score if is_distance else score


def oracle_rescale(score, t_classifier, t_common):
    score = _unit("score", score)
    if score == 0.0:
        return 0.0
    if score == 1.0:
        return 1.0
    if score >= t_classifier:
        rescaled = t_common + ((score - t_classifier) / (1.0 - t_classifier)) * (1.0 - t_common)
    else:
        rescaled = (score / t_classifier) * t_common
    return min(1.0, max(0.0, rescaled))


def oracle_fuse_classifiers(s1, s2, w1, w2):
    s1 = _unit("s1", s1)
    s2 = _unit("s2", s2)
    if s1 == s2:
        return s1
    total = w1 + w2
    return min(1.0, max(0.0, (w1 * s1) / total + (w2 * s2) / total))


def oracle_fuse_modalities(ms_finger, ms_iris, cfg):
    ms_finger = _unit("ms_finger", ms_finger)
    ms_iris = _unit("ms_iris", ms_iris)
    if cfg.paper_faithful_final:
        return 0.25 * (cfg.a * ms_finger + cfg.b * ms_iris)
    if ms_finger == ms_iris:
        return ms_finger
    total = cfg.a + cfg.b
    return min(1.0, max(0.0, (cfg.a * ms_finger) / total + (cfg.b * ms_iris) / total))


def oracle_decide(ms_final, threshold):
    return GENUINE if _finite("ms_final", ms_final) >= threshold else IMPOSTOR


#: Classifiers feeding each trait; the iris pair is ordered (alpha-weighted, beta-weighted).
TRAIT_CLASSIFIERS = {"finger": (CLASSIFIER_MINUTIAE,),
                     "iris": (CLASSIFIER_HAAR, CLASSIFIER_MELLIN)}
TRAIT_OF = {name: trait for trait, names in TRAIT_CLASSIFIERS.items() for name in names}


def oracle_pipeline(raw, cfg):
    """The scalar fuse_pipeline over a ``{classifier: raw}`` mapping: one score
    at a time, NaN skipped, lone classifiers and traits passing through."""
    per_trait = {}
    for name, value in raw.items():
        if math.isnan(value):
            continue
        trait = TRAIT_OF[name]
        similarity = oracle_similarity(oracle_normalize(value, 0.0, 1.0), trait == "iris")
        per_trait.setdefault(trait, {})[name] = oracle_rescale(
            similarity, cfg.threshold_for(name), cfg.common_threshold)
    if not per_trait:
        raise NoScores("no classifier scores to fuse")
    trait_scores = {}
    for trait, by_classifier in per_trait.items():
        if len(by_classifier) == 2:
            first, second = TRAIT_CLASSIFIERS[trait]
            trait_scores[trait] = oracle_fuse_classifiers(
                by_classifier[first], by_classifier[second], cfg.alpha, cfg.beta)
        else:
            (trait_scores[trait],) = by_classifier.values()
    ms_finger = trait_scores.get("finger")
    ms_iris = trait_scores.get("iris")
    if ms_finger is not None and ms_iris is not None:
        ms_final = oracle_fuse_modalities(ms_finger, ms_iris, cfg)
    else:
        ms_final = ms_finger if ms_finger is not None else ms_iris
    return FusedScore(ms_finger, ms_iris, ms_final, oracle_decide(ms_final, cfg.common_threshold))


_WEIGHTS = st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 5.0)
_THRESHOLDS = st.sampled_from([0.5, 0.25, 0.75, 0.1]) | st.floats(0.01, 0.99)


@st.composite
def fusion_configs(draw):
    alpha, beta, a, b = (draw(_WEIGHTS) for _ in range(4))
    return FusionConfig(
        alpha=alpha, beta=beta if alpha + beta > 0.0 else 1.0,
        a=a, b=b if a + b > 0.0 else 1.0,
        common_threshold=draw(_THRESHOLDS),
        classifier_thresholds={name: draw(_THRESHOLDS) for name in CLASSIFIERS},
        paper_faithful_final=draw(st.booleans()),
    )


@st.composite
def fusion_rows(draw):
    """A config and rows of raw scores: NaN for an absent classifier, the
    knots 0, 1 and the classifier threshold (and its neighbouring floats),
    anything in [0, 1], or a value off that scale, which clamps."""
    cfg = draw(fusion_configs())
    n = draw(st.integers(1, 10))
    raw = {}
    for name in draw(st.sets(st.sampled_from(CLASSIFIERS), min_size=1)):
        t = cfg.threshold_for(name)
        knot = 1.0 - t if TRAIT_OF[name] == "iris" else t
        values = (st.sampled_from([math.nan, 0.0, 1.0, knot, math.nextafter(knot, 0.0),
                                   math.nextafter(knot, 1.0)])
                  | st.floats(0.0, 1.0) | st.floats(-10.0, 10.0))
        raw[name] = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    return cfg, n, raw


@settings(max_examples=400, deadline=None)
@given(case=fusion_rows())
def test_fuse_arrays_equals_the_scalar_chain_row_by_row(case):
    cfg, n, raw = case
    fused = fuse_arrays(raw, cfg)
    assert all(values.shape == (n,) for values in fused)
    for i in range(n):
        got = [None if math.isnan(values[i]) else values[i] for values in fused]
        row = {name: values[i] for name, values in raw.items()}
        if all(math.isnan(value) for value in row.values()):
            assert got == [None, None, None]
            for fuse in (fuse_pipeline, oracle_pipeline):
                with pytest.raises(NoScores):
                    fuse(row, cfg)
            continue
        want = oracle_pipeline(row, cfg)
        assert got == [want.ms_finger, want.ms_iris, want.ms_final]
        score = fuse_pipeline(row, cfg)
        assert score == want
        # FusedScore checks nothing, so plain types are fuse_pipeline's to keep
        assert all(type(s) is float for s in (score.ms_finger, score.ms_iris, score.ms_final)
                   if s is not None)
        assert type(score.decision) is str and score.decision in (GENUINE, IMPOSTOR)


@st.composite
def scored_rows(draw):
    """A config and one raw score per drawn classifier, on any scale: the
    ends 0 and 1, NaN (no score), or any finite float, far off [0, 1] too."""
    cfg = draw(fusion_configs())
    values = (st.sampled_from([0.0, 1.0, math.nan, -0.0, 5e-324, math.nextafter(1.0, 2.0)])
              | st.floats(-10.0, 10.0) | st.floats(allow_nan=False, allow_infinity=False))
    row = {name: draw(values)
           for name in draw(st.sets(st.sampled_from(CLASSIFIERS), min_size=1))}
    return cfg, row


@settings(max_examples=300, deadline=None)
@given(case=scored_rows())
def test_fuse_pipeline_equals_the_scalar_chain_on_any_scale(case):
    cfg, row = case
    if all(math.isnan(value) for value in row.values()):
        for fuse in (fuse_pipeline, oracle_pipeline):
            with pytest.raises(NoScores):
                fuse(row, cfg)
        return
    assert fuse_pipeline(row, cfg) == oracle_pipeline(row, cfg)


@pytest.mark.parametrize("bad", [1.5, -0.25, math.inf, -math.inf])
def test_array_steps_raise_the_scalar_errors(bad):
    cfg = FusionConfig(paper_faithful_final=True)
    steps = (
        (normalize_score, lambda x: oracle_normalize(x, 0.0, 1.0)),
        (lambda x: to_similarity(x, True), lambda x: oracle_similarity(x, True)),
        (lambda x: rescale_to_common_threshold(x, 0.4, 0.6),
         lambda x: oracle_rescale(x, 0.4, 0.6)),
        (lambda x: fuse_classifiers(x, 0.5, 1.0, 2.0),
         lambda x: oracle_fuse_classifiers(x, 0.5, 1.0, 2.0)),
        (lambda x: fuse_classifiers(0.5, x, 1.0, 2.0),
         lambda x: oracle_fuse_classifiers(0.5, x, 1.0, 2.0)),
        (lambda x: fuse_modalities(x, 0.5, cfg), lambda x: oracle_fuse_modalities(x, 0.5, cfg)),
        (lambda x: fuse_modalities(0.5, x, cfg), lambda x: oracle_fuse_modalities(0.5, x, cfg)),
        (lambda x: decide(x, 0.5), lambda x: oracle_decide(x, 0.5)),
    )
    column = [0.5, math.nan, bad, 0.25]
    for step, oracle in steps:
        try:
            expected = [oracle(x) for x in column if not math.isnan(x)]
        except ValueError as exc:
            for value in (bad, np.array(column)):
                with pytest.raises(ValueError) as got:
                    step(value)
                assert str(got.value) == str(exc)
        else:
            result = step(np.array(column))
            assert [result[0], result[2], result[3]] == expected
            assert step(bad) == expected[1]


# ---------------------------------------------------------------------------
# config file round-trip


def test_config_roundtrip(tmp_path):
    cfg = FusionConfig(
        alpha=2.0,
        beta=0.5,
        a=1.5,
        b=2.5,
        common_threshold=0.45,
        classifier_thresholds={"minutiae": 0.3, "haar": 0.55, "mellin": 0.6},
        paper_faithful_final=True,
    )
    path = tmp_path / "fusion.conf"
    save_config(cfg, path)
    assert load_config(path) == cfg
    keys = [line.split(" = ")[0] for line in path.read_text().splitlines()]
    assert keys == [
        "alpha",
        "beta",
        "a",
        "b",
        "common_threshold",
        "threshold.minutiae",
        "threshold.haar",
        "threshold.mellin",
        "paper_faithful_final",
    ]


def test_config_roundtrip_keeps_every_key(tmp_path):
    # Every key away from its default.
    cfg = FusionConfig(
        alpha=0.25,
        beta=3.5,
        a=0.75,
        b=1.25,
        common_threshold=0.35,
        classifier_thresholds={"minutiae": 0.2, "haar": 0.65, "mellin": 0.7},
        paper_faithful_final=True,
    )
    default = FusionConfig()
    for name in ("alpha", "beta", "a", "b", "common_threshold", "paper_faithful_final"):
        assert getattr(cfg, name) != getattr(default, name)
    for name in CLASSIFIERS:
        assert cfg.threshold_for(name) != default.threshold_for(name)
    path = tmp_path / "fusion.conf"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_config_partial_file_uses_defaults(tmp_path):
    path = tmp_path / "fusion.conf"
    path.write_text("alpha = 2.0\n")
    cfg = load_config(path)
    assert cfg.alpha == 2.0
    assert cfg.beta == 1.0
    assert cfg.common_threshold == 0.5


def test_config_comments_and_blank_lines(tmp_path):
    path = tmp_path / "fusion.conf"
    path.write_text("# tuning from the last eval run\n\ncommon_threshold = 0.42\n")
    assert load_config(path).common_threshold == 0.42


def test_config_accepts_ref_threshold(tmp_path):
    # threshold.ref, c and d are retired: loading skips them, whatever their
    # value, and the ref slot stays unknown.
    path = tmp_path / "fusion.conf"
    for text in ("threshold.ref = 0.4\n", "c = 7.0\nd = 0.0\n",
                 "c = fast\nd = -1\nthreshold.ref = 1.5\n"):
        path.write_text(text)
        assert load_config(path) == FusionConfig()
    with pytest.raises(ValueError, match="unknown classifier"):
        FusionConfig().threshold_for("ref")


# The file the previous save_config wrote for these settings: it held the
# retired keys c, d and threshold.ref, each away from its default.
PREVIOUS_FORMAT = """\
alpha = 0.25
beta = 3.5
a = 0.75
b = 1.25
c = 0.1
d = 7.0
common_threshold = 0.35
threshold.minutiae = 0.2
threshold.ref = 0.3
threshold.haar = 0.65
threshold.mellin = 0.7
paper_faithful_final = false
"""


def test_config_in_the_previous_format_fuses_as_before(tmp_path):
    path = tmp_path / "fusion.conf"
    path.write_text(PREVIOUS_FORMAT)
    cfg = load_config(path)
    assert cfg == FusionConfig(
        alpha=0.25, beta=3.5, a=0.75, b=1.25, common_threshold=0.35,
        classifier_thresholds={"minutiae": 0.2, "haar": 0.65, "mellin": 0.7})
    raw = {CLASSIFIER_MINUTIAE: [0.0, 0.1, 0.2, 0.55, 1.0, math.nan, 0.9, 1.5],
           CLASSIFIER_HAAR: [0.3, math.nan, 0.35, 0.12, 0.0, 0.4, 0.5, -0.5],
           CLASSIFIER_MELLIN: [0.28, 0.6, math.nan, 0.5, 0.31, 0.3, math.nan, 0.2]}
    # fuse_arrays(raw, cfg) of the version that wrote the file, repr-exact
    before = (
        [0.0, 0.175, 0.35, 0.6343749999999999, 1.0, math.nan, 0.91875, 1.0],
        [0.3966349206349206, 0.2, 0.35, 0.28514285714285714, 0.38866666666666666,
         0.34820512820512817, 0.26923076923076916, 0.5955555555555557],
        [0.2478968253968254, 0.190625, 0.35, 0.4161049107142857, 0.6179166666666667,
         0.34820512820512817, 0.5128004807692307, 0.7472222222222223],
    )
    for got, want in zip(fuse_arrays(raw, cfg), before):
        assert np.array_equal(got, want, equal_nan=True)


def test_config_parse_errors(tmp_path):
    cases = (
        "alpha\n",                      # no key=value
        "alpha = 2.0\nalpha = 3.0\n",   # duplicate key
        "alpha = fast\n",               # not a number
        "paper_faithful_final = yes\n", # not true/false
        "threshold.voice = 0.5\n",      # unknown classifier
        "c = 1.0\nc = 1.0\n",           # a retired key repeated is still a duplicate
        "gamma = 1.0\n",                # unknown key
        "= 0.5\n",                      # empty key
    )
    path = tmp_path / "fusion.conf"
    for content in cases:
        path.write_text(content)
        with pytest.raises(ValueError):
            load_config(path)


def test_readme_config_example_loads_to_the_defaults(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [block.split("\n```")[0] for block in readme.split("```text\n")[1:]]
    (example,) = [block for block in blocks if block.startswith("# fusion.conf")]
    path = tmp_path / "fusion.conf"
    path.write_text(example, encoding="utf-8")
    assert load_config(path) == FusionConfig()


def test_config_invalid_values_rejected_on_load(tmp_path):
    path = tmp_path / "fusion.conf"
    path.write_text("common_threshold = 1.5\n")
    with pytest.raises(ValueError):
        load_config(path)
    path.write_text("alpha = -1.0\n")
    with pytest.raises(ValueError):
        load_config(path)
    path.write_text("alpha = 0.0\nbeta = 0.0\n")
    with pytest.raises(ZeroWeights):
        load_config(path)
