"""The pinned template, mask and iris code digests under a lower numpy
dispatch target.

numpy picks its SIMD kernels at run time from the CPU it finds, and
``NPY_DISABLE_CPU_FEATURES`` switches off the targets above the build's
baseline for one process.  The Gabor kernels' ``np.exp``/``np.cos`` and the
registration's ``np.cos``/``np.sin`` are among the kernels that differ, so a
CI runner or an older CPU could round differently from this machine.  This
test re-computes every pinned digest in one subprocess with every dispatch
target the host offers disabled, and compares them with the pins.  It covers
every compiled kernel the pipelines call, the FFT included, except BLAS, which
picks its own.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core import _multiarray_umath

from test_fingerprint import PINNED_PRINT_DIGESTS
from test_iris import PINNED_CODE_DIGESTS

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

DIGEST_SCRIPT = """
import hashlib, json
from numpy._core import _multiarray_umath as umath
import synthgen
from biolock.fingerprint import build_template, encode_template, segment
from biolock.iris import build_codes, encode_code
from test_fingerprint import PINNED_PRINT_DIGESTS, pinned_print
from test_iris import PINNED_CODE_DIGESTS

sha = lambda blob: hashlib.sha256(blob).hexdigest()
prints = []
for kind, seed in PINNED_PRINT_DIGESTS:
    img = pinned_print(kind, seed)
    prints.append([kind, seed, sha(encode_template(build_template(img))),
                   sha(segment(img).bits.tobytes())])
codes = [[seed, *(sha(encode_code(c)) for c in build_codes(synthgen.render_eye(seed))[2:])]
         for seed in PINNED_CODE_DIGESTS]
dispatched = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
print(json.dumps({"dispatched": dispatched, "prints": prints, "codes": codes}))
"""


def host_dispatch_targets() -> list:
    """The dispatch targets above numpy's baseline that this CPU supports."""
    features = _multiarray_umath.__cpu_features__
    return [f for f in _multiarray_umath.__cpu_dispatch__ if features.get(f)]


def test_pinned_digests_hold_at_the_baseline_dispatch_target():
    targets = host_dispatch_targets()
    if not targets:
        pytest.skip("numpy dispatches nothing above its baseline on this host")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets),
               PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    run = subprocess.run([sys.executable, "-c", DIGEST_SCRIPT], env=env, cwd=TESTS,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    assert got["dispatched"] == [], f"still dispatched: {got['dispatched']}"
    assert {(kind, seed): tuple(d) for kind, seed, *d in got["prints"]} == PINNED_PRINT_DIGESTS
    assert {seed: tuple(d) for seed, *d in got["codes"]} == PINNED_CODE_DIGESTS
