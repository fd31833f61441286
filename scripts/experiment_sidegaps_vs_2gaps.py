#!/usr/bin/env python3
"""Side gaps versus two free gaps.

Side-gap permutations are a special case of 2-gap permutations, so the
2-gap optimum can only be better; this experiment measures by how much,
for the heuristic pipelines and the exact solvers, over a sweep of the
layer size n: 8..20 at desk scale, 10..40 with --paper-scale.
"""

from __future__ import annotations

import sys

import sweep


def config(paper_scale: bool) -> dict:
    return {
        "sweep_param": "n",
        "values": [10, 20, 30, 40] if paper_scale else [8, 12, 16, 20],
        "algos": [
            "median_sidegaps",
            "barycenter_sidegaps",
            "median_kgaps:2",
            "barycenter_kgaps:2",
            "exact_sidegaps",
            "exact_kgaps:2",
        ],
    }


def main() -> int:
    return sweep.main(__doc__, "results/sidegaps_vs_2gaps", config)


if __name__ == "__main__":
    sys.exit(main())
