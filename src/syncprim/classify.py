"""Group-level predicates: sync-maximality, the six equivalent
characterization conditions, and strong sync-maximality.

Every predicate is tri-state: True, False (with a witness that
re-validates independently), or None when a degree cap makes the scan
infeasible ("skipped", never guessed).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import mul
from typing import Callable, Iterable, Iterator, Optional

from . import automaton as am
from . import group as gr
from . import perm
from .group import GroupSpec
from .perm import Transformation

MODE_IDEMPOTENTS = "idempotents_only"
MODE_ALL = "all_rank_n_minus_1"

# The strong scan walks all maps of rank 2..n-1 and checks one per G x G
# orbit; up to here that stays tractable.
STRONG_SCAN_CAP = 7

REPORT_SCHEMA = "syncprim-report/1"


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


def family(G: GroupSpec, mode: str) -> Iterator[Transformation]:
    """The quantifier family of rank n-1 maps selected by mode."""
    if mode == MODE_IDEMPOTENTS:
        return perm.enumerate_idempotents_rank_n_minus_1(G.degree)
    if mode == MODE_ALL:
        return perm.enumerate_rank_n_minus_1(G.degree)
    raise ValueError(f"unknown mode {mode!r}")


def _strong_family(n: int) -> Iterator[Transformation]:
    """All maps on [n] of rank 2..n-1, by rank, each rank lexicographic."""
    for r in range(2, n):
        yield from perm.enumerate_maps_of_rank(n, r)


def _orbit(G: GroupSpec, start: tuple[int, ...], conjugate: bool) -> set[tuple[int, ...]]:
    """The image arrays reachable from start by generator moves.

    Without conjugate the moves are f -> s o f and f -> f o s for each
    generator s.  They preserve rank, and since G is finite they generate
    all of G x G, so on a family of all maps of some ranks they reach the
    whole orbit {g f h : g, h in G}.

    With conjugate the move is f -> s^-1 o f o s, for the family of
    idempotents of rank n-1.  Left and right moves would walk the whole
    G x G orbit, up to |G|^2 maps mostly outside that family; conjugation
    stays inside it and still reaches the orbit's part of it, because
    G x G orbits meet the family in conjugation orbits: let e send a to
    b and fix the rest, and let e' = g e h be another such idempotent.  The
    image of e' is g([n] - {a}), so e' moves g(a) and fixes every other
    point.  Its one kernel class of size 2 is h^-1{a, b}, which e' sends to
    g(b); that class holds g(a) and the fixed point e'(g(a)), so e' sends
    g(a) to g(b), i.e. e' = g e g^-1.  The conjugates of e are the maps
    sending g(a) to g(b), one per pair in the orbital of (a, b), and
    conjugation by the generators reaches them all."""
    moves = []
    for s in G.generators:
        if conjugate:
            inv = perm.inverse(s).image.__getitem__
            moves.append(lambda t, s=s.image, inv=inv: tuple(map(inv, map(t.__getitem__, s))))
        else:
            moves.append(lambda t, left=s.image.__getitem__: tuple(map(left, t)))
            moves.append(lambda t, s=s.image: tuple(map(t.__getitem__, s)))
    seen = {start}
    stack = [start]
    while stack:
        t = stack.pop()
        for move in moves:
            u = move(t)
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def _scan(
    G: GroupSpec,
    maps: Iterable[Transformation],
    check: Callable[[Transformation], tuple[bool, Optional[dict]]],
    conjugate: bool = False,
) -> tuple[bool, Optional[dict], int]:
    """Run check over one map per G x G orbit of the family; the first
    counterexample in enumeration order wins.

    Every predicate depends only on the monoid <G, f>, and <G, f> =
    <G, g f h> for g, h in G, so check gives the same verdict on a whole
    orbit.  The scan walks the family in enumeration order and checks a
    map only if no earlier checked map's orbit (see _orbit) covered it.
    The first failing map is the first of its orbit, so it is always
    checked: the witness is the one a map-by-map scan finds, and scanned
    is that map's index + 1, or the family size when all pass."""
    n = G.degree
    weights = [n ** (n - 1 - i) for i in range(n)]
    # base-n codes of maps covered but not met yet; each map is met once,
    # so a code leaves the set when its map comes up
    covered: set[int] = set()
    size = 0
    for i, f in enumerate(maps):
        size = i + 1
        code = sum(map(mul, f.image, weights))
        if code in covered:
            covered.remove(code)
            continue
        ok, extra = check(f)
        if not ok:
            witness = {"f": perm.format_image(f)}
            if extra:
                witness.update(extra)
            return False, witness, i + 1
        orbit = _orbit(G, f.image, conjugate)
        orbit.remove(f.image)
        covered.update(sum(map(mul, t, weights)) for t in orbit)
    return True, None, size


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
        ok, witness, scanned = _scan(
            G, family(G, mode), _sync_maximal_check(G), conjugate=mode == MODE_IDEMPOTENTS
        )
        return PredicateResult(ok, witness, scanned)

    return _timed(run)


def _sync_maximal_check(G: GroupSpec) -> Callable[[Transformation], tuple[bool, Optional[dict]]]:
    target = (1 << G.degree) - G.degree

    def check(f):
        count = am.minimal_syn_dfa(am.build_group_automaton(G, f)).state_count
        return count == target, None if count == target else {"state_count": count}

    return check


def _condition_check(G: GroupSpec, index: int) -> Callable[[Transformation], tuple[bool, Optional[dict]]]:
    if index == 2:
        def check(f):
            A = am.build_group_automaton(G, f)
            sub = am.build_subset_automaton(A)
            if len(sub.states) == (1 << G.degree) - 1:
                return True, None
            reached = set(sub.states)
            missing = next(m for m in range(1, 1 << G.degree) if m not in reached)
            return False, {"unreachable": am.mask_to_str(missing)}
    elif index == 3:
        def check(f):
            ok, pair = am.all_2subsets_distinguishable(am.build_group_automaton(G, f))
            return ok, None if ok else {"pair": [am.set_to_str(s) for s in pair]}
    elif index == 4:
        def check(f):
            ok, pair = am.all_nonsingleton_distinguishable_witness(am.build_group_automaton(G, f))
            return ok, None if ok else {"pair": [am.set_to_str(s) for s in pair]}
    elif index == 5:
        def check(f):
            ok, pair = am.different_cardinality_reachable_witness(am.build_group_automaton(G, f))
            return ok, None if ok else {"pair": [am.set_to_str(s) for s in pair]}
    elif index == 6:
        def check(f):
            ok, pair = am.disjoint_2subsets_distinguishable(am.build_group_automaton(G, f))
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
        ok, witness, scanned = _scan(
            G, family(G, mode), _condition_check(G, index), conjugate=mode == MODE_IDEMPOTENTS
        )
        return PredicateResult(ok, witness, scanned)

    return _timed(run)


def is_strongly_sync_maximal(G: GroupSpec) -> PredicateResult:
    """Whether adjoining any map of rank 2..n-1 leaves all 2-subsets
    distinguishable.  The scan covers all n^n maps, so degrees above
    STRONG_SCAN_CAP are skipped."""
    def run():
        n = G.degree
        if n > STRONG_SCAN_CAP:
            return PredicateResult(
                None, reason=f"full map scan infeasible: {n}^{n} = {n**n} maps"
            )

        # condition 3's check, over all ranks 2..n-1
        ok, witness, scanned = _scan(G, _strong_family(n), _condition_check(G, 3))
        return PredicateResult(ok, witness, scanned)

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

    def timed_plain(func):
        start = time.perf_counter()
        value, witness = func()
        res = PredicateResult(value, witness)
        res.millis = (time.perf_counter() - start) * 1000.0
        return res

    preds["transitive"] = timed_plain(lambda: (gr.is_transitive(G), None))
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
