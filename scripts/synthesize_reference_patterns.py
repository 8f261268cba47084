#!/usr/bin/env python3
"""Generate the four reference-orientation scan patterns as CSV + PGM.

The orientations come from the bundled fixture; each pattern is one
``nvvortex simulate-pattern`` run, so the files (and the JSON report
printed per pattern) match what the CLI writes. Images land in --out
(default ./reference_patterns). Useful as fitting test data and as a
quick visual check that differently oriented NV centers produce visibly
different patterns under azimuthal excitation.
"""

import argparse
import sys

from nvvortex import cli
from nvvortex.fileio import read_json


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="reference_patterns")
    parser.add_argument("--pitch-nm", type=float, default=50.0)
    parser.add_argument("--size-px", type=int, default=31)
    parser.add_argument("--amplitude", type=float, default=10000.0)
    parser.add_argument("--background", type=float, default=100.0)
    parser.add_argument("--noise-seed", type=int, default=None)
    args = parser.parse_args()

    entries = read_json(cli.bundled_fixture_path("paper_fig2_orientations"))

    noise = [] if args.noise_seed is None else ["--noise-seed", str(args.noise_seed)]
    for entry in entries:
        status = cli.main([
            "simulate-pattern",
            "--theta-deg", str(entry["theta_deg"]),
            "--phi-deg", str(entry["phi_deg"]),
            "--width", str(args.size_px),
            "--height", str(args.size_px),
            "--pitch-nm", str(args.pitch_nm),
            "--amplitude", str(args.amplitude),
            "--background", str(args.background),
            "--out", args.out,
            "--prefix", entry["label"].lower(),
            *noise,
        ])
        if status != cli.EXIT_OK:
            return status
    return cli.EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
