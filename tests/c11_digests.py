"""Print the sha256 of each of criterion 11's nine pipeline artifacts.

Criterion 11 runs the whole CLI pipeline (synth, ingest, stats, train,
hash, db-build, eval) twice and compares the artifacts. This script runs
it once, into a temporary directory, and prints one ``digest  path`` line
per artifact. Run it on two source trees and diff the output to check
that a change leaves every CLI artifact byte-identical:

    python tests/c11_digests.py > after.txt

It imports ``evhash`` and ``tests`` from the tree it lies in. pytest does
not collect it.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from tests.test_acceptance import _run_pipeline  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            artifacts = _run_pipeline(Path(tmp))
    for rel, data in artifacts.items():
        print(f"{hashlib.sha256(data).hexdigest()}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
