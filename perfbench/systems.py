"""The Coxeter systems the workloads use, as plain generator names and bond
matrices (0 is an infinite bond), so the inputs can be written out without
importing the package under test."""

from __future__ import annotations

import json


def _system(names, bonds):
    n = len(names)
    matrix = [[2] * n for _ in range(n)]
    for i in range(n):
        matrix[i][i] = 1
    for (i, j), m in bonds.items():
        matrix[i][j] = matrix[j][i] = m
    return tuple(names), tuple(tuple(row) for row in matrix)


def _chain(first, *bonds):
    names = [f"s{first + i}" for i in range(len(bonds) + 1)]
    return _system(names, {(i, i + 1): m for i, m in enumerate(bonds)})


def _triangle(p, q, r):
    """(su)^p = (st)^q = (tu)^r = 1."""
    return _system(("s", "t", "u"), {(0, 2): p, (0, 1): q, (1, 2): r})


SYSTEMS = {
    "H4": _chain(0, 5, 3, 3),
    "F4": _chain(1, 3, 4, 3),  # s1..s4, the naming closed-form f4 uses
    "B4": _chain(1, 3, 3, 4),
    "B5": _chain(1, 3, 3, 3, 4),  # the system bn_bound(5, a, b) works in
    "G2t": _chain(0, 3, 6),
    "B3t": _system([f"s{i}" for i in range(4)], {(0, 2): 3, (1, 2): 3, (2, 3): 4}),
    "B4t": _system([f"s{i}" for i in range(5)], {(0, 2): 3, (1, 2): 3, (2, 3): 3, (3, 4): 4}),
    "C4t": _chain(0, 4, 3, 3, 4),
    "F4t": _chain(0, 3, 3, 4, 3),
    "D5t": _system(
        [f"s{i}" for i in range(6)],
        {(0, 2): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3, (3, 5): 3},
    ),
    "H353": _chain(0, 3, 5, 3),  # the compact hyperbolic [3,5,3]
    "C303": _chain(0, 3, 0, 3),  # rank 4 with an infinite middle bond
    "T2711": _triangle(2, 7, 11),  # field degree 60
    "T345": _triangle(3, 4, 5),
    "T246": _triangle(2, 4, 6),
    "T237": _triangle(2, 3, 7),
    "T444": _triangle(4, 4, 4),
    # I2(2m), the system of `closed-form dihedral --m m`
    **{f"I2_{2 * m}": _system(("s", "t"), {(0, 1): 2 * m}) for m in range(3, 7)},
}


def system_json(name: str) -> str:
    names, matrix = SYSTEMS[name]
    return json.dumps({"generators": list(names), "matrix": [list(r) for r in matrix]}) + "\n"


def weight_classes(name: str) -> list[list[int]]:
    """Components of the odd-bond graph: a group weight function is constant
    on each (generators in declaration order, classes by least member)."""
    names, matrix = SYSTEMS[name]
    n = len(names)
    label = list(range(n))
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if i != j and matrix[i][j] % 2 == 1 and label[j] < label[i]:
                    label[i] = label[j]
                    changed = True
    classes: dict[int, list[int]] = {}
    for i in range(n):
        classes.setdefault(label[i], []).append(i)
    return [classes[k] for k in sorted(classes)]
