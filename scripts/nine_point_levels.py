#!/usr/bin/env python3
"""Reproduce the nine-point loss-landscape computation end to end.

Enumerates the full activation fan of the nine planar points with four terms,
buckets the maximal cones by 0/1-loss for the target dichotomy, and reports
the wall components of the zero and one-mistake level sets, including the
20-cone component with no codimension-1 wall into the perfect fan.

Run:  python scripts/nine_point_levels.py [--workers N]
"""

import argparse
import sys
import time
from collections import Counter

from tropfan.classify import level_set, parse_signs, wall_adjacent
from tropfan.fan import dataset, fan_index, lineality_dim

POINTS = [(-2, 3), (3, 3), (1, 2), (0, 1), (0, 0), (-2, -1), (1, -2), (-7, -3), (3, -4)]
TARGET = "+,+,-,-,+,-,-,+,+"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    data = dataset(POINTS)
    target = parse_signs(TARGET)
    print(f"nine points in R^2, n = m = 2, target {TARGET}")
    print(f"ambient dimension 12, lineality dimension {lineality_dim(data, 4)}")

    t0 = time.time()
    index = fan_index(data, 4, workers=args.workers, progress=lambda s: print(f"# {s}", file=sys.stderr))
    counts = Counter(sum((c > 0) != (t <= 2) for t, c in zip(a, target)) for a in index.iter_assignments())
    print(f"\nenumeration: {sum(counts.values())} maximal cones in {time.time()-t0:.1f}s")
    print("loss profile:", [counts.get(k, 0) for k in range(10)])

    reports = {}
    for k in (0, 1):
        t1 = time.time()
        rep = reports[k] = level_set(data, 2, 2, target, k)
        sizes = sorted((len(c) for c in rep.components), reverse=True)
        print(f"\nlevel {k}: {rep.count} maximal cones, {len(rep.components)} wall components "
              f"(sizes {sizes}) in {time.time()-t1:.1f}s")
        if k == 1:
            s0 = reports[0]
            for comp in rep.components:
                if len(comp) != 20:
                    continue
                walls = 0
                dims = Counter()
                for i in comp:
                    for j in range(s0.count):
                        adjacent, dim = wall_adjacent(rep.patterns[i], s0.patterns[j], data, 2, 2)
                        walls += adjacent
                        dims[dim] += 1
                print(f"  20-cone component: {walls} walls into level 0, "
                      f"intersection dims {dict(sorted(dims.items()))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
