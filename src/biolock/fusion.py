"""Score-level fusion: normalization, threshold alignment, sum-rule combination.

Each matcher (minutiae similarity, iris code distances) produces a raw score on
its own scale.  Fusion brings every score onto a common [0, 1] similarity scale
(:func:`normalize_score`, :func:`to_similarity`), aligns the per-classifier
decision thresholds onto one common threshold with a knot-preserving piecewise
linear map (:func:`rescale_to_common_threshold`), combines classifiers within a
trait and then traits with weighted sums (:func:`fuse_classifiers`,
:func:`fuse_modalities`), and finally thresholds the fused score into a
genuine/impostor decision (:func:`decide`).  Each step takes a float or,
elementwise, a float64 array with NaN for "no score".  Raw scores come as a
``{classifier: raw}`` mapping, read on the matchers' fixed [0, 1] scale with
iris scores as distances: :func:`fuse_arrays` runs the one chain over a whole
gallery, and :func:`fuse_pipeline` is its one-row call.

Weighted sums are evaluated term-by-term (``w1*s1/total + w2*s2/total``) so the
documented reference values (for example ``fuse_classifiers(0.8, 0.6, 1, 1) ==
0.7``) hold exactly in IEEE arithmetic, and equal inputs short-circuit so the
sum rule is exactly idempotent for every weighting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Optional, Union

import numpy as np

from .errors import NoScores, ZeroWeights

TRAIT_FINGER = "finger"
TRAIT_IRIS = "iris"
TRAITS = (TRAIT_FINGER, TRAIT_IRIS)

CLASSIFIER_MINUTIAE = "minutiae"
CLASSIFIER_REF = "ref"
CLASSIFIER_HAAR = "haar"
CLASSIFIER_MELLIN = "mellin"
CLASSIFIERS = (CLASSIFIER_MINUTIAE, CLASSIFIER_REF, CLASSIFIER_HAAR, CLASSIFIER_MELLIN)

#: Classifiers feeding each trait, ordered (alpha-weighted, beta-weighted).
TRAIT_CLASSIFIERS = {
    TRAIT_FINGER: (CLASSIFIER_REF, CLASSIFIER_MINUTIAE),
    TRAIT_IRIS: (CLASSIFIER_HAAR, CLASSIFIER_MELLIN),
}

GENUINE = "genuine"
IMPOSTOR = "impostor"

DEFAULT_THRESHOLD = 0.5

_FLOAT_KEYS = ("alpha", "beta", "a", "b", "c", "d", "common_threshold")
_THRESHOLD_PREFIX = "threshold."
_BOOL_WORDS = {"true": True, "false": False}


def _check_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _check_open_unit(name: str, value: float) -> float:
    value = _check_finite(name, value)
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must be in (0, 1), got {value!r}")
    return value


def _default_thresholds() -> Mapping[str, float]:
    return MappingProxyType({name: DEFAULT_THRESHOLD for name in CLASSIFIERS})


@dataclass(frozen=True)
class FusionConfig:
    """Weights and thresholds for the fusion pipeline.

    ``alpha``/``beta`` weight the two classifiers within a trait, ``a``/``b``
    weight the two traits.  ``c`` and ``d`` are accepted for config-file
    compatibility but take part in no computation.  ``paper_faithful_final``
    switches the cross-trait sum from the normalized mean to the fixed
    one-quarter form ``0.25 * (a*ms_finger + b*ms_iris)``.
    """

    alpha: float = 1.0
    beta: float = 1.0
    a: float = 1.0
    b: float = 1.0
    c: float = 1.0
    d: float = 1.0
    common_threshold: float = DEFAULT_THRESHOLD
    classifier_thresholds: Mapping[str, float] = field(default_factory=_default_thresholds)
    paper_faithful_final: bool = False

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "a", "b", "c", "d"):
            weight = _check_finite(name, getattr(self, name))
            if weight < 0.0:
                raise ValueError(f"{name} must be >= 0, got {weight!r}")
            object.__setattr__(self, name, weight)
        if self.alpha + self.beta <= 0.0:
            raise ZeroWeights("classifier weights alpha and beta are both zero")
        if self.a + self.b <= 0.0:
            raise ZeroWeights("trait weights a and b are both zero")
        object.__setattr__(
            self, "common_threshold", _check_open_unit("common_threshold", self.common_threshold)
        )
        merged = {name: DEFAULT_THRESHOLD for name in CLASSIFIERS}
        for name, value in dict(self.classifier_thresholds).items():
            if name not in CLASSIFIERS:
                raise ValueError(f"threshold for unknown classifier {name!r}")
            merged[name] = _check_open_unit(f"threshold.{name}", value)
        object.__setattr__(self, "classifier_thresholds", MappingProxyType(merged))
        object.__setattr__(self, "paper_faithful_final", bool(self.paper_faithful_final))

    def threshold_for(self, classifier: str) -> float:
        """Return the decision threshold for ``classifier`` (similarity scale)."""
        if classifier not in CLASSIFIERS:
            raise ValueError(f"unknown classifier {classifier!r}")
        return self.classifier_thresholds[classifier]


@dataclass(frozen=True)
class FusedScore:
    """The pipeline's result: per-trait scores (``None`` for a trait absent
    from the input), final score, and decision."""

    ms_finger: Optional[float]
    ms_iris: Optional[float]
    ms_final: float
    decision: str

    def __post_init__(self) -> None:
        for name in ("ms_finger", "ms_iris"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _check_finite(name, value))
        object.__setattr__(self, "ms_final", _check_finite("ms_final", self.ms_final))
        if self.decision not in (GENUINE, IMPOSTOR):
            raise ValueError(f"decision must be {GENUINE!r} or {IMPOSTOR!r}, got {self.decision!r}")


def _scores(name: str, value, unit: bool = False) -> np.ndarray:
    """``value`` as float64 (0-d for a scalar); NaN passes the checks, an
    infinite entry or, with ``unit``, one outside [0, 1] raises."""
    value = np.asarray(value, dtype=np.float64)
    bad = np.isinf(value)
    if bad.any():
        raise ValueError(f"{name} must be finite, got {float(value[bad][0])!r}")
    if unit:
        bad = (value < 0.0) | (value > 1.0)
        if bad.any():
            raise ValueError(f"{name} must be in [0, 1], got {float(value[bad][0])!r}")
    return value


def _result(value: np.ndarray):
    return float(value) if value.ndim == 0 else value


def normalize_score(raw):
    """Clamp ``raw``, read on the matchers' fixed [0, 1] scale, onto [0, 1]."""
    return _result(np.minimum(1.0, np.maximum(0.0, _scores("raw", raw))))


def to_similarity(score, is_distance: bool):
    """Return ``1 - score`` for distances, ``score`` unchanged for similarities."""
    score = _scores("score", score, unit=True)
    return _result(1.0 - score if is_distance else score)


def rescale_to_common_threshold(score, t_classifier: float, t_common: float):
    """Piecewise-linear remap with knots (0, 0), (t_classifier, t_common), (1, 1).

    Every classifier's own threshold lands exactly on the common threshold, so
    a single decision boundary serves all of them: ``score >= t_classifier``
    holds if and only if the rescaled score is ``>= t_common``.
    """
    score = _scores("score", score, unit=True)
    t_classifier = _check_open_unit("t_classifier", t_classifier)
    t_common = _check_open_unit("t_common", t_common)
    above = t_common + ((score - t_classifier) / (1.0 - t_classifier)) * (1.0 - t_common)
    below = (score / t_classifier) * t_common
    rescaled = np.minimum(1.0, np.maximum(0.0, np.where(score >= t_classifier, above, below)))
    return _result(np.where(score == 0.0, 0.0, np.where(score == 1.0, 1.0, rescaled)))


def fuse_classifiers(s1, s2, w1: float, w2: float):
    """Weighted sum rule over two classifier scores: (w1*s1 + w2*s2)/(w1 + w2);
    where one is NaN (absent) the other passes through unfused."""
    s1 = _scores("s1", s1, unit=True)
    s2 = _scores("s2", s2, unit=True)
    for name, weight in (("w1", w1), ("w2", w2)):
        weight = _check_finite(name, weight)
        if weight < 0.0:
            raise ValueError(f"{name} must be >= 0, got {weight!r}")
    total = w1 + w2
    if total <= 0.0:
        raise ZeroWeights("classifier weights sum to zero")
    fused = np.minimum(1.0, np.maximum(0.0, (w1 * s1) / total + (w2 * s2) / total))
    return _result(np.where(np.isnan(s1), s2, np.where(np.isnan(s2) | (s1 == s2), s1, fused)))


def fuse_modalities(ms_finger, ms_iris, cfg: FusionConfig):
    """Combine the two trait scores with the cross-trait sum rule.

    Normalized mode is :func:`fuse_classifiers` with weights ``a`` and ``b``,
    so the result stays in [0, 1]; paper-faithful mode keeps the fixed factor
    ``0.25`` as printed, in which case a perfect match under unit weights
    scores 0.5.  Where one trait score is NaN (absent) the other passes through
    with full weight.
    """
    ms_finger = _scores("ms_finger", ms_finger, unit=True)
    ms_iris = _scores("ms_iris", ms_iris, unit=True)
    if not cfg.paper_faithful_final:
        return fuse_classifiers(ms_finger, ms_iris, cfg.a, cfg.b)
    fused = 0.25 * (cfg.a * ms_finger + cfg.b * ms_iris)
    return _result(np.where(np.isnan(ms_finger), ms_iris,
                            np.where(np.isnan(ms_iris), ms_finger, fused)))


def decide(ms_final, threshold: float):
    """Threshold the final score; a score exactly at the threshold is genuine."""
    ms_final = _scores("ms_final", ms_final)
    threshold = _check_open_unit("threshold", threshold)
    decision = np.where(ms_final >= threshold, GENUINE, IMPOSTOR)
    return str(decision) if decision.ndim == 0 else decision


def fuse_arrays(raw: Mapping[str, object], cfg: FusionConfig) -> tuple:
    """Run the fusion chain over rows of raw scores, one array per classifier.

    Each raw score is clamped onto [0, 1]; iris scores are distances.  A NaN,
    or a classifier left out of ``raw``, is no score, and a lone score passes
    through unfused.  Returns the ``(ms_finger, ms_iris, ms_final)`` arrays,
    NaN where absent.
    """
    rescaled = {}
    for name, values in raw.items():
        t_classifier = cfg.threshold_for(name)
        similarity = to_similarity(normalize_score(values),
                                   name in TRAIT_CLASSIFIERS[TRAIT_IRIS])
        rescaled[name] = rescale_to_common_threshold(similarity, t_classifier,
                                                     cfg.common_threshold)
    absent = np.full(np.broadcast_shapes(*map(np.shape, rescaled.values())), np.nan)
    ms_finger, ms_iris = (
        fuse_classifiers(*(rescaled.get(name, absent) for name in TRAIT_CLASSIFIERS[trait]),
                         cfg.alpha, cfg.beta)
        for trait in TRAITS)
    ms_final = fuse_modalities(ms_finger, ms_iris, cfg)
    return tuple(np.asarray(score) for score in (ms_finger, ms_iris, ms_final))


def fuse_pipeline(raw: Mapping[str, object], cfg: FusionConfig) -> FusedScore:
    """One row of :func:`fuse_arrays`, thresholded: ``raw`` maps classifier
    names to one raw score each, NaN for none; NoScores if the row holds none."""
    ms_finger, ms_iris, ms_final = (
        None if np.isnan(value) else value.item() for value in fuse_arrays(raw, cfg))
    if ms_final is None:
        raise NoScores("no classifier scores to fuse")
    return FusedScore(ms_finger, ms_iris, ms_final, decide(ms_final, cfg.common_threshold))


def save_config(cfg: FusionConfig, path: Union[str, Path]) -> None:
    """Write ``cfg`` as a flat ``key = value`` text file."""
    lines = [f"{key} = {getattr(cfg, key)!r}" for key in _FLOAT_KEYS]
    lines += [f"{_THRESHOLD_PREFIX}{name} = {cfg.threshold_for(name)!r}" for name in CLASSIFIERS]
    lines.append(f"paper_faithful_final = {'true' if cfg.paper_faithful_final else 'false'}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_config(path: Union[str, Path]) -> FusionConfig:
    """Parse a flat ``key = value`` config file written by :func:`save_config`.

    Blank lines and ``#`` comments are ignored.  Unknown keys, repeated keys,
    and unparsable values are errors.
    """
    text = Path(path).read_text(encoding="utf-8")
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}: line {lineno}: expected key = value, got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ValueError(f"{path}: line {lineno}: empty key")
        if key in raw:
            raise ValueError(f"{path}: line {lineno}: duplicate key {key!r}")
        raw[key] = (lineno, value)

    def parse_float(key: str, lineno: int, value: str) -> float:
        try:
            return float(value)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: {key} must be a number, got {value!r}") from None

    kwargs: dict = {}
    thresholds: dict = {}
    for key, (lineno, value) in raw.items():
        if key in _FLOAT_KEYS:
            kwargs[key] = parse_float(key, lineno, value)
        elif key == "paper_faithful_final":
            word = value.lower()
            if word not in _BOOL_WORDS:
                raise ValueError(
                    f"{path}: line {lineno}: paper_faithful_final must be true or false, got {value!r}"
                )
            kwargs[key] = _BOOL_WORDS[word]
        elif key.startswith(_THRESHOLD_PREFIX):
            name = key[len(_THRESHOLD_PREFIX):]
            if name not in CLASSIFIERS:
                raise ValueError(f"{path}: line {lineno}: unknown classifier in key {key!r}")
            thresholds[name] = parse_float(key, lineno, value)
        else:
            raise ValueError(f"{path}: line {lineno}: unknown key {key!r}")
    if thresholds:
        kwargs["classifier_thresholds"] = thresholds
    return FusionConfig(**kwargs)
