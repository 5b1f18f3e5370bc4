"""Exact rational polyhedral cones: H-representation from circuit letter
counts, and one double-description engine for extreme rays, irredundancy
and containment.

Cones are homogeneous: an HRep is a list of primitive integer normals n
meaning <n, phi> <= 0; a VRep is an integer lineality basis plus primitive
extreme rays of the pointed quotient.  Everything is exact; dimensions in
scope are small (alphabet-sized).
"""

from __future__ import annotations

from fractions import Fraction

from .cyclo import primitive_vector
from .errors import InputError, Record, ResourceLimitError
from .limits import Caps
from .weights import distinct_count_vectors

__all__ = [
    "HRep",
    "VRep",
    "cone_from_circuits",
    "contains",
    "describe",
    "extreme_rays",
    "facets",
    "implies",
    "project_parameters",
    "remove_redundant",
    "same_cone",
]


class HRep(Record):
    """Intersection of half-spaces <n, x> <= 0, n primitive integer."""

    dim: int
    normals: tuple[tuple[int, ...], ...]

    def __init__(self, dim, normals):
        for n in normals:
            if len(n) != dim:
                raise InputError("normal has wrong dimension")
            if not any(n):
                raise InputError("zero vector is not a valid inequality normal")
        self._init(dim=dim, normals=tuple(dict.fromkeys(map(primitive_vector, normals))))


class VRep(Record):
    """span(lineality) + cone(rays); rays are extreme modulo the lineality."""

    dim: int
    lineality: tuple[tuple[int, ...], ...]
    rays: tuple[tuple[int, ...], ...]

    def __init__(self, dim, lineality, rays):
        self._init(dim=dim, lineality=lineality, rays=rays)


def cone_from_circuits(cycles, alphabet) -> HRep:
    """H-representation from simple cycles: deduplicated primitive letter-count
    vectors, first-occurrence order."""
    return HRep(len(alphabet), tuple(distinct_count_vectors(cycles, len(alphabet))))


def describe(h: HRep, caps: Caps = Caps()) -> tuple[HRep, VRep]:
    """The cone's irredundant H-representation and its V-representation,
    from one double description of the whole list.

    The VRep depends on the cone alone, not on the list that cuts it out:
    the lineality basis is read off an RREF, and the rays' representatives
    modulo the lineality are fixed by the cone's span, so `extreme_rays` of
    the irredundant list returns the same VRep.

    The minimal sub-list keeps the input order.  When the cone is
    full-dimensional (its rays and lineality span the space) the facets are
    exactly the normals whose tight generators have rank dim - 1, and no
    other normal is needed.  A lower-dimensional cone (only reachable
    through the API: circuit-count normals are non-negative) drops normals
    greedily, each implied by the ones still kept."""
    v = extreme_rays(h, caps)
    if len(_rref(v.lineality + v.rays)) == h.dim:
        kept = [n for n in h.normals if len(_rref(_tight(v, n))) == h.dim - 1]
        return HRep(h.dim, tuple(kept)), v
    kept = list(h.normals)
    i = 0
    while i < len(kept):
        rest = kept[:i] + kept[i + 1 :]
        if rest and _satisfies(extreme_rays(HRep(h.dim, tuple(rest)), caps), kept[i]):
            kept.pop(i)
        else:
            i += 1
    return HRep(h.dim, tuple(kept)), v


def remove_redundant(h: HRep, caps: Caps = Caps()) -> HRep:
    """Minimal sub-list defining the same cone, input order preserved
    (the first part of `describe`)."""
    return describe(h, caps)[0]


def _tight(v: VRep, normal) -> tuple[tuple[int, ...], ...]:
    """The lineality basis and the rays on the hyperplane <normal, x> = 0."""
    return v.lineality + tuple(r for r in v.rays if _dot(normal, r) == 0)


def _satisfies(v: VRep, normal) -> bool:
    """True iff <normal, x> <= 0 on span(v.lineality) + cone(v.rays)."""
    return all(_dot(normal, r) <= 0 for r in v.rays) and all(
        _dot(normal, l) == 0 for l in v.lineality
    )


def implies(h1: HRep, h2: HRep, caps: Caps = Caps()) -> bool:
    """True iff cone(h1) is contained in cone(h2) (h1's inequalities imply h2's)."""
    if h1.dim != h2.dim:
        raise InputError("dimension mismatch")
    v = extreme_rays(h1, caps)
    return all(_satisfies(v, n) for n in h2.normals)


def same_cone(h1: HRep, h2: HRep, caps: Caps = Caps()) -> bool:
    return implies(h1, h2, caps) and implies(h2, h1, caps)


def contains(h: HRep, point) -> bool:
    """True iff the point (a sequence or a WeightVector) satisfies every
    inequality."""
    vec = tuple(Fraction(v) for v in getattr(point, "values", point))
    if len(vec) != h.dim:
        raise InputError("point has wrong dimension")
    return all(_dot(n, vec) <= 0 for n in h.normals)


def _dot(a, b):
    """Exact inner product: an int for integer vectors, else a Fraction."""
    return sum(x * y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# Double description
# ---------------------------------------------------------------------------


def _rref(rows) -> list[list[Fraction]]:
    """The non-zero rows of the reduced row-echelon form of `rows` over Q:
    their number is the rank, and they are a canonical basis of the span."""
    mat = [[Fraction(v) for v in row] for row in rows]
    rank, col, n_cols = 0, 0, (len(rows[0]) if rows else 0)
    while rank < len(mat) and col < n_cols:
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        col += 1
    return mat[:rank]


def extreme_rays(h: HRep, caps: Caps = Caps()) -> VRep:
    """Double description: start from the full space (d lines), intersect with
    one half-space at a time.  Adjacency of rays is decided by the exact rank
    test on their common tight constraints, valid in the quotient modulo the
    current lineality."""
    dim = h.dim
    lines: list[tuple[int, ...]] = [
        tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)
    ]
    rays: list[tuple[int, ...]] = []
    processed: list[tuple[int, ...]] = []

    for normal in h.normals:
        pivot_line = next((l for l in lines if _dot(normal, l) != 0), None)
        if pivot_line is not None:
            alpha = _dot(normal, pivot_line)
            sign = 1 if alpha > 0 else -1

            def project(v):
                """v - <normal, v> / alpha * pivot_line, scaled by |alpha|."""
                beta = _dot(normal, v)
                return primitive_vector(
                    tuple(sign * (alpha * x - beta * y) for x, y in zip(v, pivot_line))
                )

            oriented = pivot_line if alpha < 0 else tuple(-v for v in pivot_line)
            lines = [project(l) for l in lines if l is not pivot_line]
            rays = _dedupe([project(r) for r in rays] + [oriented])
        else:
            plus = [r for r in rays if _dot(normal, r) > 0]
            zero = [r for r in rays if _dot(normal, r) == 0]
            minus = [r for r in rays if _dot(normal, r) < 0]
            quotient_dim = dim - len(lines)
            combos = []
            for rp in plus:
                for rm in minus:
                    if not _adjacent(rp, rm, processed, quotient_dim):
                        continue
                    wp, wm = _dot(normal, rp), _dot(normal, rm)
                    combo = tuple(wp * y - wm * x for x, y in zip(rp, rm))
                    combos.append(primitive_vector(combo))
            rays = _dedupe(zero + minus + combos)
            if len(rays) > caps.rays:
                raise ResourceLimitError("extreme rays", caps.rays)
        processed.append(normal)

    return VRep(
        dim,
        tuple(primitive_vector(row) for row in _rref(lines)),
        tuple(sorted(_dedupe(rays))),
    )


def _dedupe(rays):
    out = []
    for r in rays:
        if any(r) and r not in out:
            out.append(r)
    return out


def _adjacent(r1, r2, processed, quotient_dim) -> bool:
    common = [
        n for n in processed if _dot(n, r1) == 0 and _dot(n, r2) == 0
    ]
    if quotient_dim <= 2:
        return True
    if len(common) < quotient_dim - 2:
        return False
    return len(_rref(common)) == quotient_dim - 2


def facets(v: VRep, caps: Caps = Caps()) -> HRep:
    """Facet normals of span(lineality)+cone(rays), by double description on
    the polar cone (rays become inequalities, lineality becomes equalities).

    When the cone is not full-dimensional the polar has lineality; both signs
    of those directions are emitted so the H-representation pins the span.
    """
    constraints = list(v.rays)
    for l in v.lineality:
        constraints.append(l)
        constraints.append(tuple(-x for x in l))
    polar = extreme_rays(HRep(v.dim, tuple(constraints)), caps)
    normals = list(polar.rays)
    for l in polar.lineality:
        normals.append(l)
        normals.append(tuple(-x for x in l))
    return HRep(v.dim, tuple(sorted(_dedupe(normals))))


def project_parameters(h: HRep, groups) -> HRep:
    """Restrict the cone to a coordinate subspace where all coordinates in
    each group are equal: normals collapse by summing within groups.

    `groups` lists disjoint index groups covering 0..dim-1; the output lives
    in len(groups) dimensions, ordered as given.
    """
    flat = [i for g in groups for i in g]
    if sorted(flat) != list(range(h.dim)):
        raise InputError("groups must partition the coordinate indices")
    folded = (tuple(sum(n[i] for i in g) for g in groups) for n in h.normals)
    return HRep(len(groups), tuple(f for f in folded if any(f)))
