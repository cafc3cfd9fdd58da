"""README's command-line walkthrough and Python API sketch, run as written.

Each ``biolock`` line of the walkthrough runs through ``cli.main`` in order,
in a directory holding the images and probe CSV it names, and the sketch
runs after it in the same directory.  Each command's first output line must
have the form of the ``# -> `` line documented below the command, with every
number read as a pattern: ``\\d+\\.\\d{4}`` for a 4-decimal value and ``\\d+``
for a count.
"""

import math
import re
import shlex
from pathlib import Path

import synthgen
from biolock import cli
from biolock.imaging import encode_pgm
from biolock.registry import read_audit_log

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced(heading, lang):
    """The first ``lang`` code block of the README section ``heading``."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("\n```", 1)[0]


def walkthrough():
    """``(argv, documented first output line)`` for each walkthrough command."""
    steps = []
    for line in fenced("Command-line walkthrough", "sh").replace("\\\n", " ").splitlines():
        if line.startswith("biolock "):
            steps.append([shlex.split(line, comments=True)[1:], None])
        elif line.startswith("# -> ") and steps and steps[-1][1] is None:
            steps[-1][1] = line[len("# -> "):]
    return steps


def output_form(documented):
    """A regex for ``documented`` with each number free: 4-decimal or count.
    Any other number, such as ``0.95``, stays literal and so fails to match."""
    parts = re.split(r"(\d+\.\d{4}(?!\d)|(?<![\d.])\d+(?![\d.]))", documented)
    return "".join(re.escape(part) if i % 2 == 0 else r"\d+\.\d{4}" if "." in part else r"\d+"
                   for i, part in enumerate(parts))


def test_readme_walkthrough_and_api_sketch_run_as_written(tmp_path, monkeypatch, capsys):
    # the files the walkthrough names: a subject's print and eye, a genuine
    # re-rendered probe of each, and a probe CSV over them
    finger, _, state = synthgen.matching_print_state(0)
    probe_finger, _ = synthgen.rerender_print(state, math.radians(10.0), (8.0, 8.0))
    probe_eye = synthgen.render_eye(511, rotation=math.radians(0.3), noise=0.02,
                                    noise_seed=9511)
    for name, img in (("alice_f.pgm", finger), ("alice_e.pgm", synthgen.render_eye(511)),
                      ("probe_f.pgm", probe_finger), ("probe_e.pgm", probe_eye)):
        (tmp_path / name).write_bytes(encode_pgm(img))
    (tmp_path / "probes.csv").write_text("true_subject_id,finger_path,iris_path\n"
                                         "alice,probe_f.pgm,probe_e.pgm\n"
                                         "alice,,probe_e.pgm\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    steps = walkthrough()
    assert [argv[0] for argv, _ in steps] == [
        "enroll", "verify", "identify", "access", "eval", "inspect", "inspect"]
    for argv, documented in steps:
        assert documented is not None, f"no '# -> ' output documented for {argv}"
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code == 0, (argv, err)
        first = out.splitlines()[0]
        assert re.fullmatch(output_form(documented), first), (argv, first, documented)
    assert [e.kind for e in read_audit_log(tmp_path / "door.log")] == ["access_granted"]
    assert (tmp_path / "roc.csv").read_text().splitlines()[0] == "threshold,far,frr"
    assert {p.name for p in (tmp_path / "dump").iterdir()} == {
        "mask.pgm", "enhanced.pgm", "thin.pgm", "minutiae.pgm", "strip.pgm", "validity.pgm"}

    exec(compile(fenced("Python API sketch", "python"), "README.md", "exec"), {})
    assert re.fullmatch(r"\d+\.\d+ genuine\n", capsys.readouterr().out)
