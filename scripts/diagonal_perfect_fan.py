#!/usr/bin/env python3
"""The four-diagonal-point instance: a disconnected perfect classification fan.

Enumerates the eight full-dimensional cones classifying (+,-,-,+) perfectly,
their two wall components, and every cross-component intersection dimension,
exhibiting the explicit parameter vector that witnesses the 8-dimensional
common face of the numerator-swap pairs.
"""

import sys
from itertools import combinations

from fractions import Fraction as F

from tropfan.classify import level_set, parse_signs, wall_adjacent
from tropfan.fan import cone_constraints, dataset, lineality_dim
from tropfan.rationals import dot


def main() -> int:
    data = dataset([(0, 0), (1, 1), (2, 2), (3, 3)])
    target = parse_signs("+,-,-,+")
    rep = level_set(data, 2, 2, target, 0)
    print(f"perfect fan: {rep.count} maximal cones, components "
          f"{[tuple(rep.patterns[i].assignment() for i in c) for c in rep.components]}")
    print(f"lineality dimension: {lineality_dim(data, 4)}")
    for ca, cb in combinations(range(len(rep.components)), 2):
        for x in rep.components[ca]:
            for y in rep.components[cb]:
                adjacent, dim = wall_adjacent(rep.patterns[x], rep.patterns[y], data, 2, 2)
                print(f"  {rep.patterns[x].assignment()} x {rep.patterns[y].assignment()}"
                      f" -> dim {dim}{' (wall)' if adjacent else ''}")

    # The numerator-swap pair shares an 8-dimensional face: terms 1, 2 and the
    # common denominator term tie along the data line, term 4 stays below.
    theta = (F(0),) * 3 + (F(0), F(1), F(-1)) + (F(0),) * 3 + (F(-1), F(0), F(0))
    for assign in ((1, 3, 3, 2), (2, 3, 3, 1)):
        from tropfan.fan import pattern_from_assignment

        rows = cone_constraints(pattern_from_assignment(assign, 4), data)
        inside = all(dot(row, theta) >= 0 for row in rows)
        print(f"witness in cone {assign}: {inside}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
