"""Verification campaigns: the theorem battery over the group catalog,
the strongly-sync-maximal search, and random test-instance generation."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional

from . import __version__
from . import classify as cl
from . import group as gr
from .automaton import SemiAutomaton
from .catalog import CatalogEntry, builtin_catalog, subgroup_census_s4
from .classify import MODE_ALL, MODE_IDEMPOTENTS
from .perm import ParseError, Transformation
from .rng import SplitMix64


@dataclass
class VerifySummary:
    mode: str
    max_degree: int
    groups_checked: int = 0
    checks: int = 0
    violations: list[dict] = field(default_factory=list)
    expected_divergences: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "schema": "syncprim-verify/1",
            "mode": self.mode,
            "max_degree": self.max_degree,
            "groups_checked": self.groups_checked,
            "checks": self.checks,
            "violations": self.violations,
            "expected_divergences": self.expected_divergences,
            "ok": self.ok,
        }


def _verify_entries(max_degree: int) -> list[CatalogEntry]:
    entries = [e for e in builtin_catalog(max_degree) if 3 <= e.degree <= max_degree]
    if max_degree >= 4:
        entries += subgroup_census_s4()
    return entries


def verify_theorems(max_degree: int, mode: str = MODE_IDEMPOTENTS) -> VerifySummary:
    """Check the main equivalences over the catalog plus the degree-4
    subgroup census.

    Checks, per group: sync-maximal = primitive, complete reachability for
    every f = primitive, and (degree >= 5) pairwise agreement of all six
    conditions.  At degree < 5 a true condition (6) on an imprimitive group
    is recorded as an expected divergence, not a violation."""
    if max_degree > 6:
        raise ValueError("verification battery capped at degree 6")
    summary = VerifySummary(mode, max_degree)
    for entry in _verify_entries(max_degree):
        G = entry.group
        n = G.degree
        summary.groups_checked += 1
        preds = cl.classify(G, entry.name, mode, with_strong=False).predicates
        prim = preds["primitive"].value
        for exp, got, what in (
            (entry.expected_transitive, preds["transitive"].value, "transitive"),
            (entry.expected_primitive, prim, "primitive"),
        ):
            if exp is not None:
                summary.checks += 1
                if exp != got:
                    summary.violations.append(
                        {"group": entry.name, "check": f"expected_{what}", "expected": exp, "got": got}
                    )

        sm = preds["sync_maximal"]
        summary.checks += 1
        if sm.value != prim:
            summary.violations.append(
                {
                    "group": entry.name,
                    "check": "sync_maximal_equals_primitive",
                    "primitive": prim,
                    "sync_maximal": sm.value,
                    "witness": sm.witness,
                }
            )
        cr = preds["condition_2"]
        summary.checks += 1
        if cr.value != prim:
            summary.violations.append(
                {
                    "group": entry.name,
                    "check": "complete_reachability_equals_primitive",
                    "primitive": prim,
                    "condition_2": cr.value,
                    "witness": cr.witness,
                }
            )
        conds = {i: preds[f"condition_{i}"].value for i in range(1, 7)}
        if n >= 5:
            summary.checks += 1
            if len({conds[i] for i in range(1, 7)}) != 1:
                summary.violations.append(
                    {"group": entry.name, "check": "six_conditions_agree", "conditions": conds}
                )
        else:
            # the full six-way equivalence needs degree >= 5; condition (6)
            # may hold on imprimitive groups below that
            for i in range(3, 7):
                if conds[i] != prim:
                    summary.expected_divergences.append(
                        {"group": entry.name, "condition": i, "primitive": prim, "value": conds[i]}
                    )
    return summary


@dataclass
class ExperimentRecord:
    name: str
    report: cl.ClassificationReport
    k_transitive_4: Optional[bool]
    seconds: float

    def to_dict(self, timings: bool = False) -> dict:
        out = {
            "schema": "syncprim-record/1",
            "version": __version__,
            "name": self.name,
            "four_transitive": self.k_transitive_4,
            "report": self.report.to_dict(timings),
        }
        if timings:
            out["seconds"] = round(self.seconds, 3)
        return out


def search_strongly_sync_maximal(
    degrees: range, skip_names: Optional[set[str]] = None
) -> Iterator[ExperimentRecord]:
    """Classify every catalog group at the given degrees, recording the
    primitive / 4-transitive / strongly-sync-maximal flags to expose any
    separation witness for the open containment question.

    An empty range, or one reaching below 1 or past STRONG_SCAN_CAP,
    raises ValueError here, before any group is classified."""
    if not degrees:
        raise ValueError(f"empty degree range {degrees.start}..{degrees.stop - 1}")
    if min(degrees) < 1:
        raise ValueError(f"degree {min(degrees)} is below 1")
    if max(degrees) > cl.STRONG_SCAN_CAP:
        raise ValueError(f"degree {max(degrees)} exceeds the full-scan cap {cl.STRONG_SCAN_CAP}")
    return _search(degrees, skip_names)


def _search(degrees: range, skip_names: Optional[set[str]]) -> Iterator[ExperimentRecord]:
    for n in degrees:
        for entry in builtin_catalog(n):
            if entry.degree != n:
                continue
            if skip_names and entry.name in skip_names:
                continue
            start = time.perf_counter()
            report = cl.classify(entry.group, entry.name, with_conditions=False)
            four = gr.is_k_transitive(entry.group, 4) if n >= 4 else None
            strong = report.predicates["strongly_sync_maximal"].value
            prim = report.predicates["primitive"].value
            if strong is True and prim is not True:
                raise AssertionError(
                    f"{entry.name}: strongly sync-maximal but not primitive"
                )
            yield ExperimentRecord(entry.name, report, four, time.perf_counter() - start)


def random_automaton(rng: SplitMix64, n: int, num_letters: int) -> SemiAutomaton:
    """A random n-state automaton; each letter is a uniform permutation
    with probability 1/2, otherwise a uniform map.  The mix keeps both
    synchronizing and non-synchronizing instances frequent."""
    letters = []
    for _ in range(num_letters):
        if rng.randbool():
            image = list(range(n))
            rng.shuffle(image)
        else:
            image = [rng.randbelow(n) for _ in range(n)]
        letters.append(Transformation(tuple(image)))
    return SemiAutomaton(n, tuple(letters))


def random_instances(
    seed: int, count: int, min_n: int = 2, max_n: int = 8, min_letters: int = 2, max_letters: int = 4
) -> Iterator[SemiAutomaton]:
    rng = SplitMix64(seed)
    for _ in range(count):
        n = min_n + rng.randbelow(max_n - min_n + 1)
        k = min_letters + rng.randbelow(max_letters - min_letters + 1)
        yield random_automaton(rng, n, k)


def _intact_lines(path: str) -> tuple[list[bytes], int]:
    """The newline-terminated lines of a records file and their length in
    bytes.  write_records ends every record with a newline, so a final
    line without one was cut short by a killed run and is not a record."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return [], 0
    end = data.rfind(b"\n") + 1
    return data[:end].splitlines(), end


def write_records(records, path: str, timings: bool = False) -> int:
    """Append experiment records as line-delimited JSON; returns the count.

    A final line cut short by a killed run is truncated first, so the next
    record starts on a line of its own."""
    _, end = _intact_lines(path)
    count = 0
    with open(path, "a", encoding="utf-8") as fh:
        fh.truncate(end)
        for rec in records:
            fh.write(json.dumps(rec.to_dict(timings), sort_keys=True) + "\n")
            count += 1
    return count


def completed_names(path: str) -> set[str]:
    """Names of the records in a records file, ignoring a final line cut
    short by a killed run.  A record is a JSON object with a string
    "name"; any other line raises ParseError naming its line number."""
    lines, _ = _intact_lines(path)
    names = set()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except ValueError:
            rec = None
        if not (isinstance(rec, dict) and isinstance(rec.get("name"), str)):
            raise ParseError(f'{path} line {lineno}: not a record (a JSON object with a string "name")')
        names.add(rec["name"])
    return names
