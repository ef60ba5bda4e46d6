"""Transformations and permutations on the point set {0, ..., n-1}.

A transformation is a total map on the points, stored as its image array.
Permutations are the bijective special case.  Composition follows the
formal-language convention: compose(f, g) applies g first.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product
from typing import Iterator

# Pair-level constructions work up to one 64-bit word of points; anything
# that touches the power set is capped separately (see automaton.SUBSET_CAP).
DEGREE_CAP = 64


class DegreeMismatchError(ValueError):
    pass


class ParseError(ValueError):
    pass


@dataclass(frozen=True)
class Transformation:
    """A map f on [n], with image[i] = f(i)."""

    image: tuple[int, ...]

    def __post_init__(self):
        n = len(self.image)
        if n == 0:
            raise ValueError("degree must be positive")
        if n > DEGREE_CAP:
            raise ValueError(f"degree {n} exceeds cap {DEGREE_CAP}")
        for v in self.image:
            if not (0 <= v < n):
                raise ValueError(f"image entry {v} outside [0, {n})")

    @property
    def degree(self) -> int:
        return len(self.image)

    def __call__(self, point: int) -> int:
        return self.image[point]

    def apply_set(self, points) -> frozenset[int]:
        return frozenset(self.image[p] for p in points)

    def apply_mask(self, mask: int) -> int:
        out = 0
        i = 0
        m = mask
        while m:
            if m & 1:
                out |= 1 << self.image[i]
            m >>= 1
            i += 1
        return out

    def __str__(self) -> str:
        return format_image(self)


def identity(n: int) -> Transformation:
    return Transformation(tuple(range(n)))


def compose(f: Transformation, g: Transformation) -> Transformation:
    """(f o g)(x) = f(g(x)); g is applied first."""
    if f.degree != g.degree:
        raise DegreeMismatchError("degree mismatch")
    return Transformation(tuple(f.image[v] for v in g.image))


def rank(f: Transformation) -> int:
    return len(set(f.image))


def is_permutation(f: Transformation) -> bool:
    return rank(f) == f.degree


def is_idempotent(f: Transformation) -> bool:
    return compose(f, f) == f


def inverse(g: Transformation) -> Transformation:
    if not is_permutation(g):
        raise ValueError("only permutations are invertible")
    inv = [0] * g.degree
    for i, v in enumerate(g.image):
        inv[v] = i
    return Transformation(tuple(inv))


def idempotent_power(f: Transformation) -> Transformation:
    """The minimal power f^m (m >= 1) that is idempotent.

    Exists for every map on a finite set: the cyclic subsemigroup generated
    by f contains exactly one idempotent.
    """
    power = f
    while not is_idempotent(power):
        power = compose(power, f)
    return power


def enumerate_rank_n_minus_1(n: int) -> Iterator[Transformation]:
    """All maps on [n] of rank exactly n-1, lexicographic in the image array.

    Count is C(n,2) * n!.  Empty for n < 2.
    """
    return enumerate_maps_of_rank(n, n - 1)


def enumerate_idempotents_rank_n_minus_1(n: int) -> Iterator[Transformation]:
    """All maps sending one point a to some b != a and fixing the rest.

    These are exactly the idempotents of rank n-1; count is n*(n-1).
    Yielded lexicographically in the image array.
    """
    if n < 2:
        return
    maps = []
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            image = list(range(n))
            image[a] = b
            maps.append(tuple(image))
    for image in sorted(maps):
        yield Transformation(image)


def enumerate_maps_of_rank(n: int, r: int) -> Iterator[Transformation]:
    """All maps on [n] of rank exactly r, lexicographic in the image array."""
    if not 1 <= r <= n:
        return
    for image in product(range(n), repeat=n):
        if len(set(image)) == r:
            yield Transformation(image)


def parse_image(text: str, n: int | None = None) -> Transformation:
    """Parse the whitespace-separated image list, e.g. "1 1 2 3 4"."""
    try:
        image = tuple(int(tok) for tok in text.split())
    except ValueError as exc:
        raise ParseError(f"bad image list {text!r}") from exc
    if not image:
        raise ParseError("empty image list")
    if n is not None and len(image) != n:
        raise ParseError(f"expected {n} entries, got {len(image)}")
    m = n if n is not None else len(image)
    for v in image:
        if not (0 <= v < m):
            raise ParseError(f"image entry {v} outside [0, {m})")
    return Transformation(image)


# One cycle: its body, the text between "(" and ")", is captured, so
# splitting a line on this pattern leaves the text around and between the
# cycles at the even indices.
_CYCLE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, n: int) -> Transformation:
    """Parse cycle notation, e.g. "(0 1 2)(3)" or "(0 1 2) (3)"; omitted
    points are fixed.  Only whitespace may stand around and between the
    cycles."""
    pieces = _CYCLE.split(text.replace(",", " "))
    if len(pieces) < 3 or any(gap.strip() for gap in pieces[::2]):
        raise ParseError(f"not cycle notation: {text!r}")
    image = list(range(n))
    seen: set[int] = set()
    for part in pieces[1::2]:
        try:
            cycle = [int(tok) for tok in part.split()]
        except ValueError as exc:
            raise ParseError(f"bad cycle {part!r}") from exc
        for p in cycle:
            if not (0 <= p < n):
                raise ParseError(f"cycle point {p} outside [0, {n})")
            if p in seen:
                raise ParseError(f"repeated cycle point {p}")
            seen.add(p)
        for i, p in enumerate(cycle):
            image[p] = cycle[(i + 1) % len(cycle)]
    return Transformation(tuple(image))


def parse_permutation(text: str, n: int) -> Transformation:
    """Parse either cycle notation or an image list; must be a bijection."""
    if text.lstrip().startswith("("):
        g = parse_cycles(text, n)
    else:
        g = parse_image(text, n)
    if not is_permutation(g):
        raise ParseError(f"not a permutation: {text!r}")
    return g


def parse_degree_header(text: str) -> tuple[int, list[tuple[int, str]]]:
    """Split a .grp or .aut file into its "degree n" header and its body.

    '#' starts a comment and blank lines are skipped.  Returns n and the
    remaining lines as (line number, text) pairs, for the caller's own
    line parser."""
    degree = None
    body: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if degree is not None:
            body.append((lineno, line))
            continue
        parts = line.split()
        if len(parts) != 2 or parts[0] != "degree":
            raise ParseError(f"line {lineno}: expected 'degree n', got {line!r}")
        try:
            degree = int(parts[1])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad degree {parts[1]!r}") from exc
        if degree < 1:
            raise ParseError(f"line {lineno}: degree must be positive")
    if degree is None:
        raise ParseError("missing 'degree n' line")
    return degree, body


def format_image(f: Transformation) -> str:
    return " ".join(str(v) for v in f.image)


def format_cycles(g: Transformation) -> str:
    if not is_permutation(g):
        raise ValueError("cycle notation only for permutations")
    seen: set[int] = set()
    out = []
    for start in range(g.degree):
        if start in seen or g.image[start] == start:
            seen.add(start)
            continue
        cycle = [start]
        seen.add(start)
        p = g.image[start]
        while p != start:
            cycle.append(p)
            seen.add(p)
            p = g.image[p]
        out.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(out) if out else "()"
