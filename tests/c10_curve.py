"""Print criterion 10's training loss, epoch by epoch.

Criterion 10 trains the toy model (20 synthetic 20 s videos in one batch
of 20, D = 1024, L = 8, float32) for 200 epochs and requires the last
epoch's reconstruction loss to be at most half the first's. This script
runs the same training and prints one line per epoch, then the ratio.
A change to training can be screened on fewer epochs first:

    python tests/c10_curve.py --epochs 40

Fewer epochs replay the first epochs of the full run exactly. It imports
``evhash`` and ``tests`` from the tree it lies in. pytest does not
collect it.
"""

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from tests.test_acceptance import TOY_EPOCHS, _toy_training  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--epochs", type=int, default=TOY_EPOCHS,
                    help=f"epochs to train (default {TOY_EPOCHS})")
    args = ap.parse_args(argv)
    if args.epochs < 1:
        ap.error("--epochs must be at least 1")
    t0 = time.perf_counter()
    log = _toy_training(args.epochs)[-1]
    print("epoch,recon,memory,diversity,total")
    for e, bd in enumerate(log, start=1):
        print(f"{e},{bd.recon:.3f},{bd.memory:.4f},{bd.diversity:.4f},"
              f"{bd.total:.3f}")
    print(f"# recon ratio {log[-1].recon / log[0].recon:.3f} after "
          f"{len(log)} epochs, {time.perf_counter() - t0:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
