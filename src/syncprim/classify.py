"""Group-level predicates: sync-maximality, the six equivalent
characterization conditions, and strong sync-maximality.

Every predicate is tri-state: True, False (with a witness that
re-validates independently), or None when a degree cap makes the scan
infeasible ("skipped", never guessed).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import automaton as am
from . import group as gr
from . import perm
from .group import GroupSpec
from .perm import Transformation

MODE_IDEMPOTENTS = "idempotents_only"
MODE_ALL = "all_rank_n_minus_1"

# The strong scan labels the maps of rank 2..n-1 by G x G orbit and checks
# one per orbit; up to here that stays tractable.
STRONG_SCAN_CAP = 7
# The mode-all scans build a table over all n^n maps: 16.8 M at n = 8, 387 M
# at n = 9.
ALL_MAPS_CAP = 8

REPORT_SCHEMA = "syncprim-report/1"

# A scan family: its size, the map at a position, and the moves, one int32
# array per generator move sending each position to the moved map's.
Family = tuple[int, Callable[[int], Transformation], list[np.ndarray]]
# A predicate's test of one map: whether it passes, and the witness's
# details when it fails.
Check = Callable[[Transformation], tuple[bool, Optional[dict]]]


@dataclass
class PredicateResult:
    value: Optional[bool]        # None = skipped
    witness: Optional[dict] = None
    scanned: int = 0
    millis: float = 0.0
    reason: Optional[str] = None

    def to_dict(self, timings: bool = False) -> dict:
        out: dict = {"value": self.value, "witness": self.witness, "scanned": self.scanned}
        if self.reason is not None:
            out["reason"] = self.reason
        if timings:
            out["millis"] = round(self.millis, 3)
        return out


@dataclass
class ClassificationReport:
    group: GroupSpec
    name: Optional[str] = None
    predicates: dict[str, PredicateResult] = field(default_factory=dict)

    def to_dict(self, timings: bool = False) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "name": self.name,
            "group": {
                "degree": self.group.degree,
                "generators": [perm.format_image(g) for g in self.group.generators],
            },
            "predicates": {
                k: v.to_dict(timings) for k, v in sorted(self.predicates.items())
            },
        }


def _idempotent_family(G: GroupSpec) -> Family:
    """The idempotents of rank n-1 in perm's order, with one move per
    generator s: conjugation e -> s o e o s^-1.

    e_(a->b) sends a to b and fixes the rest; it is keyed a*n + b, and
    its conjugate by s is e_(s(a)->s(b)).  Left and right moves would walk
    the whole G x G orbit, up to |G|^2 maps mostly outside this family;
    conjugation stays inside it and still reaches the orbit's part of it,
    because G x G orbits meet the family in conjugation orbits: let
    e' = g e h be another such idempotent.  The image of e' is
    g([n] - {a}), so e' moves g(a) and fixes every other point.  Its one
    kernel class of size 2 is h^-1{a, b}, which e' sends to g(b); that
    class holds g(a) and the fixed point e'(g(a)), so e' sends g(a) to
    g(b), i.e. e' = g e g^-1.  The conjugates of e are the maps sending
    g(a) to g(b), one per pair in the orbital of (a, b), and conjugation
    by the generators reaches them all."""
    n = G.degree
    maps = list(perm.enumerate_idempotents_rank_n_minus_1(n))
    images = np.array([e.image for e in maps], dtype=np.intp).reshape(-1, n)
    a = (images != np.arange(n)).argmax(axis=1)
    b = images[np.arange(len(maps)), a]
    position = np.zeros(n * n, dtype=np.int32)
    position[a * n + b] = np.arange(len(maps))
    moves = [position[s[a] * n + s[b]] for s in np.array([s.image for s in G.generators])]
    return len(maps), maps.__getitem__, moves


def _map_family(G: GroupSpec, ranks) -> Family:
    """All maps on [n] of the given ranks, rank by rank and lexicographic
    within a rank, with the moves f -> s o f and f -> f o s for each
    generator s.  The moves preserve rank, and since G is finite they
    generate all of G x G, so their orbits are the orbits {g f h}.

    The maps are held as int32 base-n codes (see perm.codes_of_ranks) and
    one int8 digit plane per point, plane i holding f(i).  s o f maps
    every plane through s; f o s permutes the planes, plane i of it being
    plane s(i) of f.  A code -> position table over all n^n codes turns
    the re-encoded maps into positions."""
    n = G.degree
    codes = perm.codes_of_ranks(n, ranks)
    position = np.zeros(n**n, dtype=np.int32)
    position[codes] = np.arange(len(codes), dtype=np.int32)
    weights = [np.int32(n ** (n - 1 - i)) for i in range(n)]
    planes = [(codes // w % n).astype(np.int8) for w in weights]

    def positions(images):
        code = np.zeros(len(codes), dtype=np.int32)
        for image, w in zip(images, weights):
            code += w * image
        return position[code]

    moves = []
    for s in G.generators:
        left = np.array(s.image, dtype=np.int8)
        moves.append(positions(left[plane] for plane in planes))
        moves.append(positions(planes[j] for j in s.image))
    return len(codes), lambda i: Transformation(tuple(int(plane[i]) for plane in planes)), moves


def _family(G: GroupSpec, mode: str) -> Family:
    """The quantifier family of rank n-1 maps selected by mode."""
    if mode == MODE_IDEMPOTENTS:
        return _idempotent_family(G)
    if mode == MODE_ALL:
        return _map_family(G, [G.degree - 1])
    raise ValueError(f"unknown mode {mode!r}")


def _orbit_labels(size: int, moves: list[np.ndarray]) -> np.ndarray:
    """The first position of every map's orbit, for a family of size maps
    whose moves are permutations of the positions 0..size-1 generating the
    group that acts on it.

    label[i] starts at i and only ever takes positions of i's orbit no
    greater than i: label = min(label, label[move]) for every move, then
    label = label[label], until nothing changes.  At that point
    label[i] <= label[move[i]] for every i and move; a move's cycle
    through i leads back to i, so label is constant along it, hence on
    the whole orbit, and the constant is the orbit's first position m
    since m <= label[m] <= m."""
    label = np.arange(size, dtype=np.int32)
    while True:
        before = label
        for move in moves:
            label = np.minimum(label, label[move])
        label = label[label]
        if np.array_equal(label, before):
            return label


def _scan(family: Family, check: Check) -> tuple[bool, Optional[dict], int]:
    """Run check over one map per orbit of the family; the first
    counterexample in family order wins.

    Every predicate depends only on the monoid <G, f>, and <G, f> =
    <G, g f h> for g, h in G, so check gives the same verdict on a whole
    orbit.  The scan checks, in family order, the maps that come first in
    their orbit (see _orbit_labels).  The first failing map is the first
    of its orbit, so it is always checked: the witness is the one a
    map-by-map scan finds, and scanned is that map's position + 1, or the
    family's size when all pass."""
    size, map_at, moves = family
    label = _orbit_labels(size, moves)
    for i in np.flatnonzero(label == np.arange(size)).tolist():
        f = map_at(i)
        ok, extra = check(f)
        if not ok:
            witness = {"f": perm.format_image(f)}
            if extra:
                witness.update(extra)
            return False, witness, i + 1
    return True, None, size


def _scan_mode(G: GroupSpec, mode: str, check: Check) -> PredicateResult:
    n = G.degree
    if mode == MODE_ALL and n > ALL_MAPS_CAP:
        return PredicateResult(None, reason=f"all-map table infeasible: {n}^{n} = {n**n} maps")
    return PredicateResult(*_scan(_family(G, mode), check))


def _timed(func):
    start = time.perf_counter()
    result = func()
    result.millis = (time.perf_counter() - start) * 1000.0
    return result


def is_sync_maximal(G: GroupSpec, mode: str = MODE_IDEMPOTENTS) -> PredicateResult:
    """Whether every adjoined rank n-1 map yields a synchronizing language
    whose minimal DFA has the maximum 2^n - n states."""
    def run():
        n = G.degree
        if n > am.SUBSET_CAP:
            return PredicateResult(None, reason=f"degree {n} exceeds power-set cap")
        return _scan_mode(G, mode, _sync_maximal_check(G))

    return _timed(run)


def _sync_maximal_check(G: GroupSpec) -> Check:
    target = (1 << G.degree) - G.degree

    def check(f):
        count = am.minimal_syn_dfa(am.build_group_automaton(G, f)).state_count
        return count == target, None if count == target else {"state_count": count}

    return check


# conditions 3-6: the automaton function returning (ok, first indistinguishable pair)
_PAIR_CHECKS = {
    3: "all_2subsets_distinguishable",
    4: "all_nonsingleton_distinguishable_witness",
    5: "different_cardinality_reachable_witness",
    6: "disjoint_2subsets_distinguishable",
}


def _condition_check(G: GroupSpec, index: int) -> Check:
    if index == 2:
        def check(f):
            states, _ = am.build_subset_automaton(am.build_group_automaton(G, f))
            unreached = np.ones(1 << G.degree, bool)
            unreached[states] = False
            missing = np.flatnonzero(unreached[1:])
            if not len(missing):
                return True, None
            return False, {"unreachable": am.mask_to_str(int(missing[0]) + 1)}
    elif index in _PAIR_CHECKS:
        name = _PAIR_CHECKS[index]

        def check(f):
            # looked up at call time, so a wrapper set on the module is seen
            ok, pair = getattr(am, name)(am.build_group_automaton(G, f))
            return ok, None if ok else {"pair": [am.set_to_str(s) for s in pair]}
    else:
        raise ValueError(f"no scan for condition {index}")
    return check


def condition(G: GroupSpec, index: int, mode: str = MODE_IDEMPOTENTS) -> PredicateResult:
    """One of the six characterization conditions.

    (1) primitivity; (2) complete reachability for every f; (3) all 2-subsets
    distinguishable; (4) all non-singleton subsets distinguishable; (5) every
    two non-singleton subsets mappable to different cardinalities; (6) like
    (3) for disjoint 2-subsets.  Their full equivalence needs degree >= 5;
    each condition is still computed at any degree."""
    if index not in range(1, 7):
        raise ValueError(f"condition index {index} outside 1..6")

    def run():
        if index == 1:
            prim, blocks = gr.is_primitive(G)
            witness = None
            if blocks is not None:
                witness = {"blocks": [am.set_to_str(c) for c in blocks.classes]}
            return PredicateResult(prim, witness)
        if index in (2, 4, 5) and G.degree > am.SUBSET_CAP:
            return PredicateResult(None, reason=f"degree {G.degree} exceeds power-set cap")
        return _scan_mode(G, mode, _condition_check(G, index))

    return _timed(run)


def is_strongly_sync_maximal(G: GroupSpec) -> PredicateResult:
    """Whether adjoining any map of rank 2..n-1 leaves all 2-subsets
    distinguishable.  The scan labels all n^n maps, so degrees above
    STRONG_SCAN_CAP are skipped."""
    def run():
        n = G.degree
        if n > STRONG_SCAN_CAP:
            return PredicateResult(
                None, reason=f"full map scan infeasible: {n}^{n} = {n**n} maps"
            )
        # condition 3's check, over all ranks 2..n-1
        return PredicateResult(*_scan(_map_family(G, range(2, n)), _condition_check(G, 3)))

    return _timed(run)


def classify(
    G: GroupSpec,
    name: Optional[str] = None,
    mode: str = MODE_IDEMPOTENTS,
    with_conditions: bool = True,
    with_strong: bool = True,
) -> ClassificationReport:
    """Run all predicates and collect the report.  Predicates exceeding a
    cap come back skipped, never guessed."""
    report = ClassificationReport(G, name)
    preds = report.predicates

    preds["transitive"] = _timed(lambda: PredicateResult(gr.is_transitive(G)))
    prim = condition(G, 1)
    preds["primitive"] = prim
    preds["sync_maximal"] = is_sync_maximal(G, mode)
    preds["completely_reachable_all_f"] = condition(G, 2, mode)
    if with_conditions:
        for i in range(3, 7):
            preds[f"condition_{i}"] = condition(G, i, mode)
        preds["condition_1"] = prim
        preds["condition_2"] = preds["completely_reachable_all_f"]
    if with_strong:
        preds["strongly_sync_maximal"] = is_strongly_sync_maximal(G)
    return report
