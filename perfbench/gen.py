"""Seeded workload inputs for the biolock benchmark.

Everything here is a pure function of the seed.  The program under test only
ever receives what this module produces: PGM bytes or ``GrayImage`` rasters,
and a database directory of ``FPT1``/``IRC1`` files plus ``manifest.json``.

The gallery has 20 real subjects, rendered by ``tests/synthgen.py`` and
enrolled through ``registry.enroll``, plus background subjects whose records
are random: 8-12 random minutiae and iris codes with random bits over the mask
of a real code.  Matching cost does not depend on the bit values, so the
background costs what real subjects would cost to score, without the minutes
that enrolling hundreds of rendered subjects would add to every run.

Genuine probes stay inside the envelope the acceptance suite pins: the
bin-aligned print transforms, iris rotation of at most 1.2 degrees and pixel
noise of sigma 0.02.  Every probe carries its own noise seed, so no two
operations send the same bytes and a probe-feature cache cannot win.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import synthgen
from biolock import registry
from biolock.fingerprint import (
    KIND_BIFURCATION,
    KIND_ENDING,
    FingerprintTemplate,
    Minutia,
    encode_template,
)
from biolock.imaging import GrayImage
from biolock.iris import SCHEME_HAAR, SCHEME_MELLIN, IrisCode, encode_code

N_REAL = 20
N_BACKGROUND = 480
BACKGROUND_MINUTIAE = (8, 12)
BACKGROUND_ENROLLED_AT = "2026-01-01T00:00:00.000000+00:00"

# The acceptance suite's bin-aligned print transforms: (degrees, (dx, dy) px).
MATCH_TRANSFORMS = (
    (10.0, (8.0, 8.0)),
    (1.5, (-8.0, -8.0)),
    (10.0, (16.0, -16.0)),
    (-8.0, (-8.0, 8.0)),
    (6.0, (0.0, 8.0)),
    (20.0, (0.0, -8.0)),
    (-10.0, (16.0, 8.0)),
)
IRIS_MAX_ROTATION_DEG = 1.2
IRIS_NOISE_SIGMA = 0.02

# Degraded enrollment print: upsampled 2x, then strong pixel noise, which
# gives thousands of raw minutiae that the filter must prune to the cap.
ENROLL_UPSAMPLE = 2
ENROLL_NOISE_SIGMA = 0.15
# Enrollment prints cycle through a fixed family of planted designs, the same
# for every seed; the seed sets each print's noise.  An enroll's cost follows
# its design (1 700 to 2 800 raw minutiae, same design within 3%), so designs
# drawn from the seed would carry a dozen draws' luck into a run's mean.
ENROLL_DESIGNS = 6
ENROLL_DESIGN_SEED = 4242

# One impostor claim after every three genuine ones.
DOOR_CLAIM_CYCLE = 4


@dataclass(frozen=True)
class RealSubject:
    subject_id: str
    print_state: dict
    finger: GrayImage
    eye_seed: int
    eye: GrayImage


@dataclass(frozen=True)
class Probe:
    """One operation's capture pair and the subject it truly belongs to."""

    true_id: str
    finger: GrayImage
    eye: GrayImage


@dataclass(frozen=True)
class DoorClaim:
    claimed_id: str
    genuine: bool
    probe: Probe


def _stream(seed: int, *key: int) -> np.random.Generator:
    """An independent generator for one purpose, derived from the seed."""
    return np.random.default_rng([seed, *key])


def _planted_print(rng: np.random.Generator) -> tuple:
    """A synthgen print with 8-12 planted minutiae: (image, truth, state)."""
    while True:
        k = int(rng.integers(8, 13))
        kinds = [KIND_ENDING if j % 2 == 0 else KIND_BIFURCATION for j in range(k)]
        try:
            return synthgen.plant_print_state(
                kinds, int(rng.integers(1, 2**31)),
                beta=math.radians(float(rng.uniform(-20.0, 20.0))))
        except AssertionError:
            # synthgen refuses layouts whose cores land too close together or
            # to the border; draw another.
            continue


def real_subjects(seed: int) -> list:
    """The 20 rendered subjects: a planted print and a textured eye each."""
    rng = _stream(seed, 1)
    subjects = []
    for i in range(N_REAL):
        img, _, state = _planted_print(rng)
        eye_seed = int(rng.integers(1, 2**31))
        subjects.append(RealSubject(f"real{i:02d}", state, img, eye_seed,
                                    synthgen.render_eye(eye_seed)))
    return subjects


def genuine_probe(subject: RealSubject, rng: np.random.Generator, k: int) -> Probe:
    """A fresh capture of ``subject`` under print transform ``k``."""
    deg, shift = MATCH_TRANSFORMS[k % len(MATCH_TRANSFORMS)]
    finger, _ = synthgen.rerender_print(subject.print_state, math.radians(deg), shift)
    rotation = math.radians(float(rng.uniform(-IRIS_MAX_ROTATION_DEG,
                                              IRIS_MAX_ROTATION_DEG)))
    eye = synthgen.render_eye(subject.eye_seed, rotation=rotation,
                              noise=IRIS_NOISE_SIGMA,
                              noise_seed=int(rng.integers(1, 2**31)))
    return Probe(subject.subject_id, finger, eye)


def door_claim(subjects: list, seed: int, op: int) -> DoorClaim:
    """Operation ``op`` of the door workload: 3 genuine claims to 1 impostor."""
    rng = _stream(seed, 2, op)
    owner = subjects[int(rng.integers(len(subjects)))]
    probe = genuine_probe(owner, rng, op)
    if op % DOOR_CLAIM_CYCLE != DOOR_CLAIM_CYCLE - 1:
        return DoorClaim(owner.subject_id, True, probe)
    others = [s.subject_id for s in subjects if s.subject_id != owner.subject_id]
    return DoorClaim(others[int(rng.integers(len(others)))], False, probe)


def search_probe(subjects: list, seed: int, op: int) -> Probe:
    """Operation ``op`` of the search workload: subjects in a seeded order,
    each probe a distinct capture."""
    order = _stream(seed, 3).permutation(len(subjects))
    subject = subjects[int(order[op % len(subjects)])]
    return genuine_probe(subject, _stream(seed, 3, op), op)


@functools.lru_cache(maxsize=None)
def _enroll_design(design: int) -> GrayImage:
    img, _, _ = _planted_print(_stream(ENROLL_DESIGN_SEED, design))
    return img


def enroll_capture(seed: int, op: int) -> tuple:
    """Operation ``op`` of the enroll workload: (subject id, degraded print, eye).

    The print is planted design ``op % ENROLL_DESIGNS`` upsampled with
    ``np.kron`` plus N(0, 0.15) noise from a per-operation seed; the eye is a
    fresh render.
    """
    rng = _stream(seed, 4, op)
    img = _enroll_design(op % ENROLL_DESIGNS)
    up = np.kron(img.pixels, np.ones((ENROLL_UPSAMPLE, ENROLL_UPSAMPLE)))
    noisy = np.clip(up + rng.normal(0.0, ENROLL_NOISE_SIGMA, size=up.shape), 0.0, 1.0)
    eye = synthgen.render_eye(int(rng.integers(1, 2**31)))
    return f"enr{op:04d}", GrayImage(noisy), eye


@dataclass(frozen=True)
class BackgroundRecord:
    subject_id: str
    template: FingerprintTemplate
    haar: IrisCode
    mellin: IrisCode


def background_records(seed: int, masks: list, count: int = N_BACKGROUND) -> list:
    """Random gallery records; ``masks`` holds real (haar, mellin) mask pairs
    whose validity pattern the random codes reuse."""
    rng = _stream(seed, 5)
    size = synthgen.PRINT_SIZE
    lo, hi = synthgen.PRINT_MARGIN, size - synthgen.PRINT_MARGIN
    records = []
    for i in range(count):
        n = int(rng.integers(BACKGROUND_MINUTIAE[0], BACKGROUND_MINUTIAE[1] + 1))
        minutiae = tuple(
            Minutia(float(rng.uniform(lo, hi)), float(rng.uniform(lo, hi)),
                    float(rng.uniform(0.0, 2.0 * math.pi)) % (2.0 * math.pi),
                    KIND_ENDING if rng.random() < 0.5 else KIND_BIFURCATION)
            for _ in range(n))
        haar_mask, mellin_mask = masks[i % len(masks)]
        haar = IrisCode(rng.random(haar_mask.size) < 0.5, haar_mask, SCHEME_HAAR)
        mellin = IrisCode(rng.random(mellin_mask.size) < 0.5, mellin_mask, SCHEME_MELLIN)
        records.append(BackgroundRecord(f"bg{i:04d}",
                                        FingerprintTemplate(minutiae, size, size),
                                        haar, mellin))
    return records


def write_background(db_path: Path, records: list) -> None:
    """Write background records with the public codecs and extend the
    manifest in the documented format."""
    manifest_path = db_path / registry.MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    for rec in records:
        finger = f"{rec.subject_id}_finger_0.fpt"
        haar = f"{rec.subject_id}_iris_0_haar.irc"
        mellin = f"{rec.subject_id}_iris_0_mellin.irc"
        (db_path / finger).write_bytes(encode_template(rec.template))
        (db_path / haar).write_bytes(encode_code(rec.haar))
        (db_path / mellin).write_bytes(encode_code(rec.mellin))
        manifest["subjects"].append({
            "id": rec.subject_id,
            "enrolled_at": BACKGROUND_ENROLLED_AT,
            "fingers": [finger],
            "iris": [{"haar": haar, "mellin": mellin}],
        })
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")

