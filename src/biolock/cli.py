"""Command-line front end for the biolock toolkit.

Subcommands: ``enroll``, ``verify``, ``identify``, ``access``, ``eval``,
``inspect``.  Exit codes are total over {0, 1, 2}: 0 for success (genuine /
unlock), 1 for a rejected decision (impostor / alarm), 2 for any error.
All numeric output is fixed 4-decimal, so repeated runs over the same inputs
are byte-identical (audit timestamps excepted).
"""

from __future__ import annotations

import argparse
import bisect
import csv
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import BiolockError, failed_stage
from .fingerprint import KIND_ENDING, build_template
from .fusion import FusionConfig, GENUINE, load_config
from .imaging import GrayImage, decode_pgm, encode_pgm, encode_pgm_raster
from .iris import build_codes
from .registry import ACCESS_UNLOCK, _access, _load_record, enroll, identify, load_db, verify

ROC_THRESHOLDS = tuple(i / 100.0 for i in range(101))
_PROBE_HEADER = ("true_subject_id", "finger_path", "iris_path")


# ---------------------------------------------------------------------------
# evaluation report


@dataclass(frozen=True)
class EvalReport:
    """FAR/FRR sweep over a probe set.

    ``rows`` holds (threshold, far, frr) triples on the fixed 0.00..1.00 grid;
    far must be non-increasing and frr non-decreasing as the threshold rises.
    """

    rows: tuple

    def __post_init__(self) -> None:
        rows = tuple((float(t), float(far), float(frr)) for t, far, frr in self.rows)
        if not rows:
            raise ValueError("an evaluation report needs at least one row")
        for _, far, frr in rows:
            if not (0.0 <= far <= 1.0 and 0.0 <= frr <= 1.0):
                raise ValueError("rates must lie in [0, 1]")
        for (t0, far0, frr0), (t1, far1, frr1) in zip(rows, rows[1:]):
            if t1 <= t0:
                raise ValueError("thresholds must strictly increase")
            if far1 > far0:
                raise ValueError("far must be non-increasing in threshold")
            if frr1 < frr0:
                raise ValueError("frr must be non-decreasing in threshold")
        object.__setattr__(self, "rows", rows)

    def eer_row(self) -> tuple:
        """The (threshold, far, frr) row minimizing |far - frr|, ties lowest."""
        return min(self.rows, key=lambda row: (abs(row[1] - row[2]), row[0]))


def sweep_rates(genuine_scores, impostor_scores) -> EvalReport:
    """Build the FAR/FRR table: far = impostors at or above the threshold,
    frr = genuines below it (the accept rule is score >= threshold).

    Rates are exact count ratios, never complements of one another — 1 - 11/12
    is one ulp away from 1/12, and determinism pins these bytes.
    """
    genuine = sorted(float(s) for s in genuine_scores)
    impostor = sorted(float(s) for s in impostor_scores)
    rows = []
    for t in ROC_THRESHOLDS:
        below_i = bisect.bisect_left(impostor, t)
        below_g = bisect.bisect_left(genuine, t)
        far = (len(impostor) - below_i) / len(impostor) if impostor else 0.0
        frr = below_g / len(genuine) if genuine else 0.0
        rows.append((t, far, frr))
    return EvalReport(tuple(rows))


def read_probe_rows(path: Path) -> list:
    """Parse the probe CSV: rows of (true_subject_id, finger_path, iris_path),
    empty path fields meaning the modality is absent.  A leading header row
    matching the canonical column names is skipped."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 3:
                raise ValueError(
                    f"{path}: line {lineno}: expected 3 columns, got {len(row)}"
                )
            cells = tuple(cell.strip() for cell in row)
            if lineno == 1 and cells == _PROBE_HEADER:
                continue
            if not cells[0]:
                raise ValueError(f"{path}: line {lineno}: empty subject id")
            if not cells[1] and not cells[2]:
                raise ValueError(
                    f"{path}: line {lineno}: probe needs at least one image path"
                )
            rows.append(cells)
    if not rows:
        raise ValueError(f"{path}: no probe rows")
    return rows


# ---------------------------------------------------------------------------
# shared helpers


def _read_image(path: str) -> GrayImage:
    return decode_pgm(Path(path).read_bytes())


def _load_cfg(args) -> FusionConfig:
    if getattr(args, "config", None):
        return load_config(args.config)
    return FusionConfig()


def _fmt(score: Optional[float]) -> str:
    return "-" if score is None else f"{score:.4f}"


def _score_line(fused) -> str:
    return (
        f"ms_finger={_fmt(fused.ms_finger)} "
        f"ms_iris={_fmt(fused.ms_iris)} "
        f"ms_final={_fmt(fused.ms_final)}"
    )


def _binary_pgm(bits: np.ndarray) -> bytes:
    return encode_pgm(GrayImage(bits.astype(np.float64)))


# ---------------------------------------------------------------------------
# subcommands


def cmd_enroll(args) -> int:
    db = _load_record(args.db, args.subject)
    fingers = [_read_image(p) for p in args.finger]
    irises = [_read_image(p) for p in args.iris]
    enroll(db, args.subject, fingers, irises)
    print(f"enrolled {args.subject}: {len(fingers)} finger, {len(irises)} iris")
    return 0


def _load_probes(args):
    probe_finger = _read_image(args.finger) if args.finger else None
    probe_iris = _read_image(args.iris) if args.iris else None
    return probe_finger, probe_iris


def cmd_verify(args) -> int:
    db = _load_record(args.db, args.claim)
    probe_finger, probe_iris = _load_probes(args)
    fused = verify(db, args.claim, probe_finger, probe_iris, _load_cfg(args))
    label = "GENUINE" if fused.decision == GENUINE else "IMPOSTOR"
    print(f"{_score_line(fused)} {label}")
    return 0 if fused.decision == GENUINE else 1


def cmd_access(args) -> int:
    db = _load_record(args.db, args.claim)
    probe_finger, probe_iris = _load_probes(args)
    audit = Path(args.audit) if args.audit else None
    cfg = _load_cfg(args)
    # The access path owns the audit trail (one event per call, errors
    # included) and hands back the score it decided on for the printed line.
    result, fused = _access(db, args.claim, probe_finger, probe_iris, cfg, audit)
    label = "UNLOCK" if result == ACCESS_UNLOCK else "ALARM"
    print(f"{_score_line(fused)} {label}")
    return 0 if result == ACCESS_UNLOCK else 1


def cmd_identify(args) -> int:
    db = load_db(args.db)
    probe_finger, probe_iris = _load_probes(args)
    matches = identify(db, probe_finger, probe_iris, _load_cfg(args),
                       top_k=args.top)
    for rank, match in enumerate(matches, start=1):
        print(f"{rank} {match.subject_id} {match.ms_final:.4f}")
    return 0


def cmd_eval(args) -> int:
    db = load_db(args.db)
    if not db.records:
        raise BiolockError("no subjects enrolled")
    cfg = _load_cfg(args)
    rows = read_probe_rows(Path(args.probes))
    genuine, impostor = [], []
    for true_id, finger_path, iris_path in rows:
        probe_finger = _read_image(finger_path) if finger_path else None
        probe_iris = _read_image(iris_path) if iris_path else None
        for match in identify(db, probe_finger, probe_iris, cfg, top_k=len(db)):
            if match.subject_id == true_id:
                genuine.append(match.ms_final)
            else:
                impostor.append(match.ms_final)
    report = sweep_rates(genuine, impostor)
    with open("roc.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "far", "frr"])
        for t, far, frr in report.rows:
            writer.writerow([f"{t:.2f}", f"{far:.4f}", f"{frr:.4f}"])
    t, far, frr = report.eer_row()
    eer = (far + frr) / 2.0
    print(f"EER {eer:.4f} at threshold {t:.4f} (far={far:.4f} frr={frr:.4f})")
    print(f"scores: {len(genuine)} genuine, {len(impostor)} impostor")
    return 0


def _inspect_finger(img: GrayImage, out: Path) -> int:
    template, artifacts = build_template(img, keep_artifacts=True)
    overlay = np.where(artifacts.thinned.bits, 0.25, 0.0)
    for m in template.minutiae:
        row, col = int(round(m.y)), int(round(m.x))
        shade = 1.0 if m.kind == KIND_ENDING else 0.6
        overlay[max(0, row - 1):row + 2, max(0, col - 1):col + 2] = shade
    (out / "mask.pgm").write_bytes(_binary_pgm(artifacts.mask.bits))
    (out / "enhanced.pgm").write_bytes(encode_pgm_raster(artifacts.enhanced))
    (out / "thin.pgm").write_bytes(_binary_pgm(artifacts.thinned.bits))
    (out / "minutiae.pgm").write_bytes(encode_pgm(GrayImage(overlay)))
    endings = sum(1 for m in template.minutiae if m.kind == KIND_ENDING)
    total = len(template.minutiae)
    print(f"minutiae: {total} total, {endings} endings, "
          f"{total - endings} bifurcations")
    print(f"quality: {float(artifacts.mask.bits.mean()):.4f}")
    return 0


def _inspect_iris(img: GrayImage, out: Path) -> int:
    geometry, strip, haar, mellin = build_codes(img)
    (out / "strip.pgm").write_bytes(
        encode_pgm(GrayImage(np.clip(strip.values, 0.0, 1.0)))
    )
    (out / "validity.pgm").write_bytes(_binary_pgm(strip.valid))
    print(f"geometry: center=({geometry.center_x:.4f}, {geometry.center_y:.4f}) "
          f"pupil_r={geometry.pupil_r:.4f} iris_r={geometry.iris_r:.4f}")
    height, width = strip.values.shape
    print(f"strip: {width}x{height}, {int(strip.valid.sum())} valid cells")
    for code in (haar, mellin):
        valid = int(code.mask.sum())
        balance = float(code.bits[code.mask].mean()) if valid else 0.0
        print(f"{code.scheme} balance {balance:.4f} "
              f"({code.bits.size} bits, {valid} valid)")
    return 0


def cmd_inspect(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    source = args.finger if args.finger else args.iris
    try:
        img = _read_image(source)
    except (BiolockError, OSError, ValueError) as exc:
        print(f"error: stage 'decode' failed: {exc}", file=sys.stderr)
        return 2
    try:
        return _inspect_finger(img, out) if args.finger else _inspect_iris(img, out)
    except BiolockError as exc:
        print(f"error: stage '{failed_stage(exc)}' failed: {exc}", file=sys.stderr)
        return 2


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE",
                        help="fusion settings file (key = value lines)")
    common.add_argument("--seed", type=int, default=0, metavar="N",
                        help="fixture seed, accepted for script compatibility")
    need_db = argparse.ArgumentParser(add_help=False)
    need_db.add_argument("--db", required=True, metavar="DIR",
                         help="template database directory")

    parser = argparse.ArgumentParser(
        prog="biolock",
        description="Multimodal fingerprint + iris matching toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enroll", parents=[need_db, common],
                       help="add a subject's templates to the database")
    p.add_argument("--subject", required=True, metavar="ID")
    p.add_argument("--finger", action="append", default=[], metavar="FILE")
    p.add_argument("--iris", action="append", default=[], metavar="FILE")
    p.set_defaults(func=cmd_enroll)

    p = sub.add_parser("verify", parents=[need_db, common],
                       help="score a claimed identity against probe images")
    p.add_argument("--claim", required=True, metavar="ID")
    p.add_argument("--finger", metavar="FILE")
    p.add_argument("--iris", metavar="FILE")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("identify", parents=[need_db, common],
                       help="rank enrolled subjects against probe images")
    p.add_argument("--finger", metavar="FILE")
    p.add_argument("--iris", metavar="FILE")
    p.add_argument("--top", type=int, default=5, metavar="K")
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("access", parents=[need_db, common],
                       help="verify a claim and gate the door, with audit")
    p.add_argument("--claim", required=True, metavar="ID")
    p.add_argument("--finger", metavar="FILE")
    p.add_argument("--iris", metavar="FILE")
    p.add_argument("--audit", metavar="FILE",
                   help="audit log path (default: <db>/audit.log)")
    p.set_defaults(func=cmd_access)

    p = sub.add_parser("eval", parents=[need_db, common],
                       help="sweep FAR/FRR over a probe CSV, write roc.csv")
    p.add_argument("--probes", required=True, metavar="CSV",
                   help="rows: true_subject_id,finger_path,iris_path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("inspect", parents=[common],
                       help="dump pipeline intermediates as PGM images")
    p.add_argument("--db", metavar="DIR", help="accepted, unused")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--finger", metavar="FILE")
    group.add_argument("--iris", metavar="FILE")
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BiolockError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
