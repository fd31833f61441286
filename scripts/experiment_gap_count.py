#!/usr/bin/env python3
"""Gap-count sweep: how much do extra gaps buy?

Runs the k-gap heuristics and the exact solver for k = 1..5 over seeded
random instances and writes results.csv plus SVG plots; the exact optimum
is the reference of the crossing ratios. Desk scale has 16 nodes per
layer, --paper-scale 40.
"""

from __future__ import annotations

import sys

import sweep


def config(paper_scale: bool) -> dict:
    return {
        "sweep_param": "k",
        "values": [1, 2, 3, 4, 5],
        "base_params": {"n": 40 if paper_scale else 16},
        "algos": ["median_kgaps", "barycenter_kgaps", "exact_kgaps"],
    }


def main() -> int:
    return sweep.main(__doc__, "results/gap_count", config)


if __name__ == "__main__":
    sys.exit(main())
