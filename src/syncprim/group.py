"""Permutation-group structure: orbits, transitivity, homogeneity,
primitivity via block closure, and the separation property.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional

from . import perm
from .perm import ParseError, Transformation

DEFAULT_ELEMENT_CAP = 1_000_000


class GroupTooLargeError(RuntimeError):
    def __init__(self, partial_count: int):
        super().__init__(f"group too large (more than {partial_count} elements found)")
        self.partial_count = partial_count


@dataclass(frozen=True)
class GroupSpec:
    """A permutation group given by its degree and a generator list."""

    degree: int
    generators: tuple[Transformation, ...]

    def __post_init__(self):
        if not self.generators:
            raise ValueError("at least one generator required")
        for g in self.generators:
            if g.degree != self.degree:
                raise perm.DegreeMismatchError("degree mismatch")
            if not perm.is_permutation(g):
                raise ValueError(f"generator {g} is not a permutation")


@dataclass(frozen=True)
class BlockSystem:
    """A G-invariant partition of the points."""

    degree: int
    classes: tuple[frozenset[int], ...]

    def __post_init__(self):
        covered = sorted(p for cls in self.classes for p in cls)
        if covered != list(range(self.degree)):
            raise ValueError("classes must partition the point set")

    @property
    def nontrivial(self) -> bool:
        return len(self.classes) > 1 and any(len(c) >= 2 for c in self.classes)


def trivial_group(n: int) -> GroupSpec:
    return GroupSpec(n, (perm.identity(n),))


def from_cycles(n: int, *cycle_strings: str) -> GroupSpec:
    return GroupSpec(n, tuple(perm.parse_permutation(s, n) for s in cycle_strings))


def iter_elements(G: GroupSpec, cap: int = DEFAULT_ELEMENT_CAP):
    """BFS closure of the generators; identity first, deterministic order.

    Lazy, so consumers that stop early (separator search) pay only for
    the prefix they actually visit."""
    if cap < 1:
        raise ValueError("cap must be positive")
    ident = perm.identity(G.degree)
    elements = [ident]
    seen = {ident}
    head = 0
    yield ident
    while head < len(elements):
        e = elements[head]
        head += 1
        for g in G.generators:
            h = perm.compose(g, e)
            if h not in seen:
                if len(elements) >= cap:
                    raise GroupTooLargeError(len(elements))
                seen.add(h)
                elements.append(h)
                yield h


def enumerate_elements(G: GroupSpec, cap: int = DEFAULT_ELEMENT_CAP) -> list[Transformation]:
    return list(iter_elements(G, cap))


def _closure(G: GroupSpec, start, act) -> set:
    """Everything the generators reach from start, where act(g, x) is the
    image of x under g; in a finite group this is start's G-orbit."""
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for g in G.generators:
            y = act(g, x)
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def orbit(G: GroupSpec, p: int) -> frozenset[int]:
    if not 0 <= p < G.degree:
        raise ValueError(f"point {p} outside [0, {G.degree})")
    return frozenset(_closure(G, p, Transformation.__call__))


def orbital(G: GroupSpec, a: int, b: int) -> set[tuple[int, int]]:
    """The orbit of G on ordered pairs of points through (a, b)."""
    return _closure(G, (a, b), lambda g, pair: (g(pair[0]), g(pair[1])))


def orbits(G: GroupSpec) -> list[frozenset[int]]:
    out = []
    done: set[int] = set()
    for p in range(G.degree):
        if p not in done:
            o = orbit(G, p)
            done |= o
            out.append(o)
    return out


def is_transitive(G: GroupSpec) -> bool:
    return len(orbit(G, 0)) == G.degree


def is_k_transitive(G: GroupSpec, k: int) -> bool:
    """Single orbit on k-tuples of distinct points."""
    n = G.degree
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside [1, {n}]")
    total = 1
    for i in range(k):
        total *= n - i
    return len(_closure(G, tuple(range(k)), lambda g, t: tuple(g(p) for p in t))) == total


def is_k_homogeneous(G: GroupSpec, k: int) -> bool:
    """Single orbit on k-subsets."""
    n = G.degree
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside [1, {n}]")
    return len(set_orbit(G, frozenset(range(k)))) == comb(n, k)


def set_orbit(G: GroupSpec, S: frozenset[int]) -> set[frozenset[int]]:
    return _closure(G, S, Transformation.apply_set)


def _minimal_block(G: GroupSpec, a: int, b: int) -> list[frozenset[int]]:
    """Classes of the smallest G-congruence identifying a and b (union-find closure)."""
    n = G.degree
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> bool:
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        parent[ry] = rx
        return True

    queue = [(a, b)]
    union(a, b)
    while queue:
        x, y = queue.pop()
        for g in G.generators:
            gx, gy = g(x), g(y)
            if union(gx, gy):
                queue.append((gx, gy))
    classes: dict[int, set[int]] = {}
    for p in range(n):
        classes.setdefault(find(p), set()).add(p)
    return [frozenset(c) for c in classes.values()]


def is_primitive(G: GroupSpec) -> tuple[bool, Optional[BlockSystem]]:
    """Whether G preserves no non-trivial equivalence relation.

    Convention: all groups of degree <= 2 are primitive.  For n > 2 an
    intransitive group is imprimitive, witnessed by an invariant non-trivial
    partition.  Transitive groups are checked through minimal-block closure
    of the pairs (0, b) in order of b: every non-trivial block system has a
    block holding 0 and some other point, so the first pair in lexicographic
    order whose closure is non-trivial is always one of these.
    """
    n = G.degree
    if n <= 2:
        return True, None
    if not is_transitive(G):
        orb = orbits(G)
        if any(len(o) >= 2 for o in orb):
            classes = tuple(sorted(orb, key=min))
        else:
            # Only the identity acts; any non-trivial partition is invariant.
            classes = (frozenset({0, 1}),) + tuple(frozenset({p}) for p in range(2, n))
        return False, BlockSystem(n, classes)
    for b in range(1, n):
        classes = _minimal_block(G, 0, b)
        if len(classes) > 1:
            return False, BlockSystem(n, tuple(sorted(classes, key=min)))
    return True, None


def find_separator(
    G: GroupSpec,
    A: frozenset[int],
    B: frozenset[int],
    cap: int = DEFAULT_ELEMENT_CAP,
) -> Optional[Transformation]:
    """Some g in G with g(A) disjoint from B, if one exists."""
    if not A or not B:
        raise ValueError("A and B must be non-empty")
    for S in (A, B):
        for p in S:
            if not 0 <= p < G.degree:
                raise ValueError(f"point {p} outside [0, {G.degree})")
    for g in iter_elements(G, cap):
        if not (g.apply_set(A) & B):
            return g
    return None


def parse_group_file(text: str) -> GroupSpec:
    """Parse the .grp format: "degree n" then one generator per line.

    Generators may be image lists or cycle notation; '#' starts a comment.
    """
    degree, body = perm.parse_degree_header(text)
    gens: list[Transformation] = []
    for lineno, line in body:
        try:
            gens.append(perm.parse_permutation(line, degree))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    if not gens:
        raise ParseError("no generators given")
    return GroupSpec(degree, tuple(gens))
