"""Group-level predicates: sync-maximality, the six equivalent
characterization conditions, and strong sync-maximality.

Every predicate is tri-state: True, False (with a witness that
re-validates independently), or None when a degree cap makes the scan
infeasible ("skipped", never guessed).
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import automaton as am
from . import group as gr
from . import perm
from .group import GroupSpec
from .perm import Transformation

MODE_IDEMPOTENTS = "idempotents_only"
MODE_ALL = "all_rank_n_minus_1"

# The mode-all scans and the strong scan build a table over all n^n maps:
# 16.8 M at n = 8, 387 M at n = 9.
ALL_MAPS_CAP = 8

REPORT_SCHEMA = "syncprim-report/1"

# A scan: the family's size, the map at a position, and the positions to
# check, in increasing order.  The builders, _idempotent_family and
# _map_family, return the first position of every G x G orbit.
Scan = tuple[int, Callable[[int], Transformation], list[int]]
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


def _idempotent_family(G: GroupSpec) -> Scan:
    """The idempotents of rank n-1 in perm's order, and as the positions to
    check the first map of every G x G orbit: e_(a->b), which sends a to b
    and fixes the rest, when no earlier map's orbital holds (a, b).

    G x G orbits meet this family in orbitals, the orbits of G on ordered
    pairs of distinct points: let e' = g e h be another such idempotent.
    The image of e' is g([n] - {a}), so e' moves g(a) and fixes every
    other point.  Its one kernel class of size 2 is h^-1{a, b}, which e'
    sends to g(b); that class holds g(a) and the fixed point e'(g(a)), so
    e' sends g(a) to g(b), i.e. e' = g e g^-1.  Conversely every conjugate
    g e g^-1 is e_(g(a)->g(b)), so the orbit of e in the family is one map
    per pair of the orbital of (a, b)."""
    maps = list(perm.enumerate_idempotents_rank_n_minus_1(G.degree))
    # the image is every point but a, so a is 0 + 1 + ... + (n-1) minus its sum
    total = G.degree * (G.degree - 1) // 2
    seen: set[tuple[int, int]] = set()
    positions = []
    for i, e in enumerate(maps):
        a = total - sum(set(e.image))
        pair = (a, e.image[a])
        if pair not in seen:
            seen |= gr.orbital(G, *pair)
            positions.append(i)
    return len(maps), maps.__getitem__, positions


def codes_of_rank(n: int, r: int) -> np.ndarray:
    """The base-n codes sum f(i) n^(n-1-i) of all maps on [n] of rank r,
    in ascending order, as int32.

    Code order is the lexicographic order of the image arrays."""
    return np.flatnonzero(_code_ranks(n) == r).astype(np.int32)


@lru_cache(maxsize=1)
def _code_ranks(n: int) -> np.ndarray:
    """The rank of every map on [n], indexed by its code, as a read-only
    int8 array of n^n entries.  Cached for the last degree, since a scan
    over ranks 2..n-1 asks for the same table once per rank.

    A map's rank is the popcount of its image mask, the OR of 1 << f(i)
    over its points; the masks of all n^n maps are ORed together one point
    at a time by broadcasting, one byte per map up to n = 8."""
    bits = 1 << np.arange(n)
    mask = np.zeros((n,) * n, dtype=np.min_scalar_type((1 << n) - 1))
    for i in range(n):
        mask |= bits.astype(mask.dtype).reshape((1,) * i + (n,) + (1,) * (n - 1 - i))
    ranks = am._popcounts(n)[mask.ravel()]
    ranks.setflags(write=False)
    return ranks


def _map_family(G: GroupSpec, rank: int) -> Scan:
    """All maps on [n] of the given rank, in lexicographic order, and as the
    positions to check the first map of every orbit {g f h : g, h in G}.

    The maps are held as int32 base-n codes (see codes_of_rank) and one
    int8 digit plane per point, plane i holding f(i).  The orbits are
    labelled along the moves f -> s o f and f -> f o s for each generator
    s, which preserve rank and, G being finite, generate all of G x G.
    s o f maps every plane through s; f o s permutes the planes, plane i of
    it being plane s(i) of f.  A code -> position table over all n^n codes
    turns the re-encoded maps into positions."""
    n = G.degree
    codes = codes_of_rank(n, rank)
    size = len(codes)
    position = np.zeros(n**n, dtype=np.int32)
    position[codes] = np.arange(size, dtype=np.int32)
    planes = [(codes // n ** (n - 1 - i) % n).astype(np.int8) for i in range(n)]
    del codes
    moves = []
    for s in G.generators:
        left = np.array(s.image, dtype=np.int8)
        for images in ((left[plane] for plane in planes), (planes[j] for j in s.image)):
            code = np.zeros(size, dtype=np.int32)
            for image in images:  # Horner's rule, in place
                code *= n
                code += image
            moves.append(position[code])
    del position, code
    label = _orbit_labels(size, moves)
    positions = np.flatnonzero(label == np.arange(size, dtype=np.int32)).tolist()
    return size, lambda i: Transformation(tuple(int(plane[i]) for plane in planes)), positions


def _mode_scan(G: GroupSpec, mode: str) -> Scan:
    """The scan of the rank n-1 maps selected by mode."""
    if mode == MODE_IDEMPOTENTS:
        return _idempotent_family(G)
    if mode == MODE_ALL:
        return _map_family(G, G.degree - 1)
    raise ValueError(f"unknown mode {mode!r}")


def _orbit_labels(size: int, moves: list[np.ndarray]) -> np.ndarray:
    """The first position of every map's orbit, for a family of size maps
    whose moves are permutations of the positions 0..size-1 generating the
    group that acts on it.

    label[i] starts at i and only ever takes positions of i's orbit no
    greater than i: label = min(label, label[move]) for every move, then
    label = label[label], until a round changes nothing.  Labels only go
    down, so a round changed nothing when their sum did not change.  At
    that point label[i] <= label[move[i]] for every i and move; a move's
    cycle through i leads back to i, so label is constant along it, hence
    on the whole orbit, and the constant is the orbit's first position m
    since m <= label[m] <= m.  The minima are taken in place, so a round
    holds label and one gathered copy of it at a time."""
    label, total = np.arange(size, dtype=np.int32), -1
    while True:
        for move in moves:
            np.minimum(label, label[move], out=label)
        label = label[label]
        if total == (total := int(label.sum())):
            return label


def _scan(scan: Scan, check: Check) -> tuple[bool, Optional[dict], int]:
    """Run check over the scan's positions in order; the first
    counterexample wins.

    Every predicate depends only on the monoid <G, f>, and <G, f> =
    <G, g f h> for g, h in G, so a check gives the same verdict on a whole
    G x G orbit, and the first failing map of a family is the first of its
    orbit.  So given the positions a builder returns, the first of every
    orbit, or any of their tails that starts at or before the first
    failing map, the witness is the one a map-by-map scan of the family
    finds, and scanned is that map's position + 1, or the family's size
    when all pass."""
    size, map_at, positions = scan
    for i in positions:
        f = map_at(i)
        ok, extra = check(f)
        if not ok:
            witness = {"f": perm.format_image(f)}
            if extra:
                witness.update(extra)
            return False, witness, i + 1
    return True, None, size


def _mode_feasible(G: GroupSpec, mode: str) -> bool:
    return not (mode == MODE_ALL and G.degree > ALL_MAPS_CAP)


def _scan_mode(G: GroupSpec, mode: str, check: Check, scan: Optional[Scan]) -> PredicateResult:
    """The mode's scan over scan's positions, or, without scan, over
    the orbit representatives of the mode's family built here."""
    n = G.degree
    if not _mode_feasible(G, mode):
        return PredicateResult(None, reason=f"all-map table infeasible: {n}^{n} = {n**n} maps")
    if scan is None:
        scan = _mode_scan(G, mode)
    return PredicateResult(*_scan(scan, check))


def _timed(func):
    start = time.perf_counter()
    result = func()
    result.millis = (time.perf_counter() - start) * 1000.0
    return result


def is_sync_maximal(
    G: GroupSpec, mode: str = MODE_IDEMPOTENTS, *, scan: Optional[Scan] = None
) -> PredicateResult:
    """Whether every adjoined rank n-1 map yields a synchronizing language
    whose minimal DFA has the maximum 2^n - n states.  scan is classify's
    shared family; alone, the function builds its own."""
    def run():
        n = G.degree
        if n > am.SUBSET_CAP:
            return PredicateResult(None, reason=f"degree {n} exceeds power-set cap")
        return _scan_mode(G, mode, _sync_maximal_check(G), scan)

    return _timed(run)


def _sync_maximal_check(G: GroupSpec) -> Check:
    target = (1 << G.degree) - G.degree

    def check(f):
        count = am._syn_dfa(am.build_group_automaton(G, f))[0].state_count
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
            missing = am.first_unreachable_subset(am.build_group_automaton(G, f))
            if missing is None:
                return True, None
            return False, {"unreachable": am.set_to_str(missing)}
    elif index in _PAIR_CHECKS:
        name = _PAIR_CHECKS[index]

        def check(f):
            # looked up at call time, so a wrapper set on the module is seen
            ok, pair = getattr(am, name)(am.build_group_automaton(G, f))
            return ok, None if ok else {"pair": [am.set_to_str(s) for s in pair]}
    else:
        raise ValueError(f"no scan for condition {index}")
    return check


def condition(
    G: GroupSpec, index: int, mode: str = MODE_IDEMPOTENTS, *, scan: Optional[Scan] = None
) -> PredicateResult:
    """One of the six characterization conditions.

    (1) primitivity; (2) complete reachability for every f; (3) all 2-subsets
    distinguishable; (4) all non-singleton subsets distinguishable; (5) every
    two non-singleton subsets mappable to different cardinalities; (6) like
    (3) for disjoint 2-subsets.  Their full equivalence needs degree >= 5;
    each condition is still computed at any degree.  scan is classify's
    share of the family (see classify); alone, the function builds its
    own and checks one map per orbit."""
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
        return _scan_mode(G, mode, _condition_check(G, index), scan)

    return _timed(run)


def is_strongly_sync_maximal(G: GroupSpec) -> PredicateResult:
    """Whether adjoining any map of rank 2..n-1 leaves all 2-subsets
    distinguishable.  Moves preserve rank, so the scan goes one rank at a
    time, and builds and labels a rank, on a table of all n^n maps, only
    when every earlier rank passed.  Degrees above ALL_MAPS_CAP are skipped."""
    def run():
        n = G.degree
        if n > ALL_MAPS_CAP:
            return PredicateResult(None, reason=f"full map scan infeasible: {n}^{n} = {n**n} maps")
        check, before = _condition_check(G, 3), 0
        for rank in range(2, n):
            ok, witness, scanned = _scan(_map_family(G, rank), check)
            if not ok:
                return PredicateResult(False, witness, before + scanned)
            before += scanned
        return PredicateResult(True, None, before)

    return _timed(run)


def classify(
    G: GroupSpec,
    name: Optional[str] = None,
    mode: str = MODE_IDEMPOTENTS,
    with_conditions: bool = True,
    with_strong: bool = True,
) -> ClassificationReport:
    """Run all predicates and collect the report.  Predicates exceeding a
    cap come back skipped, never guessed.

    The scans share one scan of the mode's family, built once per call:
    one map per orbital of G in mode idempotents_only, one per G x G orbit
    in mode all_rank_n_minus_1.  At n >= 3 a map that passes the sync-max
    check passes conditions 2-6 as well.  Its minimal Syn-DFA has 2^n - n
    states, so some singleton is reachable and every non-singleton subset
    is reachable and apart from every other one: that is condition 4, and
    conditions 3 and 6 are parts of it.  A word that sends one of two
    subsets to a singleton and the other not sends them to different
    cardinalities (condition 5).  The reachable subsets include every
    (n-1)-subset, so the G-orbit of the point missing from im f is [n]:
    G is transitive and every singleton is reachable (condition 2).  At
    n = 2 that step fails: the trivial group is sync-maximal, but f = 0 0
    leaves {1} unreachable.  So the conditions check the representatives
    from sync-max's first failing map on.  The first failing map of each
    condition lies there, so values, witnesses and scanned counts are
    those of the standalone scans."""
    report = ClassificationReport(G, name)
    preds = report.predicates
    scan = _mode_scan(G, mode) if _mode_feasible(G, mode) else None

    preds["transitive"] = _timed(lambda: PredicateResult(gr.is_transitive(G)))
    prim = condition(G, 1)
    preds["primitive"] = prim
    sync_max = is_sync_maximal(G, mode, scan=scan)
    preds["sync_maximal"] = sync_max
    if scan is not None and G.degree >= 3 and sync_max.value is not None:
        size, map_at, reps = scan
        first = size if sync_max.value else sync_max.scanned - 1
        scan = size, map_at, reps[bisect_left(reps, first):]
    preds["completely_reachable_all_f"] = condition(G, 2, mode, scan=scan)
    if with_conditions:
        for i in range(3, 7):
            preds[f"condition_{i}"] = condition(G, i, mode, scan=scan)
        preds["condition_1"] = prim
        preds["condition_2"] = preds["completely_reachable_all_f"]
    if with_strong:
        preds["strongly_sync_maximal"] = is_strongly_sync_maximal(G)
    return report
