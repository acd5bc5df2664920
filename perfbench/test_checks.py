"""The benchmark's HD95 reference against a plain brute-force loop.

The reference (checks.hd95_ref) gates the evaluate workload, so it must
agree with the definition on its own: surfaces from explicit
6-neighbour tests, distances from every surface pair, nearest-rank 95th
percentile.  Runs without mixnet:

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import itertools
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checks import hd95_ref, surface_ref  # noqa: E402

STEPS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))


def brute_surface(mask) -> list:
    points = []
    for p in itertools.product(*(range(n) for n in mask.shape)):
        if not mask[p]:
            continue
        for step in STEPS:
            q = tuple(c + s for c, s in zip(p, step))
            if not all(0 <= c < n for c, n in zip(q, mask.shape)) or not mask[q]:
                points.append(p)
                break
    return points


def brute_hd95(a, b, spacing):
    sa, sb = brute_surface(a), brute_surface(b)
    if not sa or not sb:
        return None

    def directed(src, dst):
        dists = sorted(min(math.sqrt(sum(((q[i] - p[i]) * spacing[i]) ** 2
                                         for i in range(3)))
                           for q in dst)
                       for p in src)
        return dists[math.ceil(0.95 * len(dists)) - 1]

    return max(directed(sa, sb), directed(sb, sa))


def random_masks(seed: int):
    rng = np.random.default_rng(seed)
    shape = tuple(int(n) for n in rng.integers(3, 9, size=3))
    a = rng.random(shape) < rng.uniform(0.1, 0.7)
    b = rng.random(shape) < rng.uniform(0.1, 0.7)
    return rng, a, b


@pytest.mark.parametrize("seed", range(30))
def test_surface_matches_neighbour_loop(seed):
    _, a, _ = random_masks(seed)
    assert sorted(map(tuple, np.argwhere(surface_ref(a)))) == brute_surface(a)


@pytest.mark.parametrize("seed", range(30))
def test_hd95_matches_brute_force_with_non_integer_spacing(seed):
    rng, a, b = random_masks(seed)
    spacing = tuple(float(s) for s in rng.uniform(0.3, 3.1, size=3))
    assert math.isclose(hd95_ref(a, b, spacing), brute_hd95(a, b, spacing),
                        rel_tol=1e-12)


@pytest.mark.parametrize("spacing", [(0.958, 0.958, 3.0), (0.7, 0.7, 0.7)])
@pytest.mark.parametrize("seed", range(10))
def test_hd95_matches_brute_force_on_tie_prone_grids(seed, spacing):
    _, a, b = random_masks(100 + seed)
    assert math.isclose(hd95_ref(a, b, spacing), brute_hd95(a, b, spacing),
                        rel_tol=1e-12)


def test_empty_mask_has_no_distance():
    a = np.zeros((4, 4, 4), bool)
    b = np.zeros((4, 4, 4), bool)
    b[1, 2, 3] = True
    assert hd95_ref(a, b, (1.0, 1.0, 1.0)) is None
    assert hd95_ref(b, a, (1.0, 1.0, 1.0)) is None
    assert hd95_ref(b, b, (0.7, 1.3, 2.9)) == 0.0
