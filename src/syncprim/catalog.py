"""Built-in catalog of permutation groups for verification campaigns."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import group as gr
from . import perm
from .group import GroupSpec
from .perm import Transformation


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    group: GroupSpec
    expected_transitive: Optional[bool] = None
    expected_primitive: Optional[bool] = None

    @property
    def degree(self) -> int:
        return self.group.degree


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n ** 0.5) + 1))


def cyclic(n: int) -> GroupSpec:
    return GroupSpec(n, (Transformation(tuple((i + 1) % n for i in range(n))),))


def dihedral(n: int) -> GroupSpec:
    rot = Transformation(tuple((i + 1) % n for i in range(n)))
    refl = Transformation(tuple((n - i) % n for i in range(n)))
    return GroupSpec(n, (rot, refl))


def symmetric(n: int) -> GroupSpec:
    if n == 1:
        return gr.trivial_group(1)
    swap = perm.parse_cycles("(0 1)", n)
    if n == 2:
        return GroupSpec(n, (swap,))
    rot = Transformation(tuple((i + 1) % n for i in range(n)))
    return GroupSpec(n, (swap, rot))


def alternating(n: int) -> GroupSpec:
    if n < 3:
        return gr.trivial_group(n)
    three = perm.parse_cycles("(0 1 2)", n)
    if n == 3:
        return GroupSpec(n, (three,))
    if n % 2 == 1:
        rot = Transformation(tuple((i + 1) % n for i in range(n)))
    else:
        # an n-1 cycle on 1..n-1 is even for even n
        rot = perm.parse_cycles("(" + " ".join(str(i) for i in range(1, n)) + ")", n)
    return GroupSpec(n, (three, rot))


def builtin_catalog(max_degree: int) -> list[CatalogEntry]:
    """Deterministic list of named groups up to the given degree.

    Covers trivial, cyclic, dihedral, alternating and symmetric groups,
    the degree-4 counterexample group <(0 1 2)(3)>, the Klein four group,
    and imprimitive block groups at degrees 4 and 6."""
    if max_degree < 1:
        raise ValueError("max_degree must be positive")
    entries: list[CatalogEntry] = []

    def add(name, G, transitive=None, primitive=None):
        entries.append(CatalogEntry(name, G, transitive, primitive))

    for n in range(1, max_degree + 1):
        add(f"trivial_{n}", gr.trivial_group(n), n == 1, n <= 2)
        if n >= 2:
            add(f"C{n}", cyclic(n), True, n <= 2 or _is_prime(n))
        if n >= 3:
            add(f"D{n}", dihedral(n), True, _is_prime(n))
            add(f"A{n}", alternating(n), True, True)
            add(f"S{n}", symmetric(n), True, True)
        if n == 4:
            add("fix3_C3", gr.from_cycles(4, "(0 1 2)(3)"), False, False)
            add("klein4", gr.from_cycles(4, "(0 1)(2 3)", "(0 2)(1 3)"), True, False)
            # wreath-style block group on {0,1} x {2,3}
            add(
                "block4",
                gr.from_cycles(4, "(0 1)", "(2 3)", "(0 2)(1 3)"),
                True,
                False,
            )
        if n == 6:
            # blocks {0,1,2} and {3,4,5}
            add(
                "block6",
                gr.from_cycles(6, "(0 1 2)", "(0 1)", "(0 3)(1 4)(2 5)"),
                True,
                False,
            )
    return entries


def subgroup_census_s4() -> list[CatalogEntry]:
    """All 30 subgroups of the symmetric group on 4 points.

    Generated by closing every unordered pair of elements, a no later
    than b in element order (every subgroup of this group is 2-generated,
    and <a, b> = <b, a>), and deduplicating by element set."""
    elements = gr.enumerate_elements(symmetric(4))
    seen: dict[frozenset, tuple[Transformation, ...]] = {}
    for i, a in enumerate(elements):
        for b in elements[i:]:
            gens = (a, b)
            closure = frozenset(gr.enumerate_elements(GroupSpec(4, gens), cap=30))
            if closure not in seen:
                seen[closure] = gens
    out = []
    for i, (closure, gens) in enumerate(
        sorted(seen.items(), key=lambda kv: (len(kv[0]), sorted(g.image for g in kv[0])))
    ):
        out.append(
            CatalogEntry(f"s4_subgroup_{i:02d}_order{len(closure)}", GroupSpec(4, gens))
        )
    return out
