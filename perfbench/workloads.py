"""Workload inputs, the library calls each CLI path makes, and the checks
that validate every output through an independent route.

Inputs are made from the workload seed: catalog groups and automata are
relabelled by a seeded random point permutation, which keeps their cost and
their answers but changes every generator, map and witness the library sees.
Each output is serialised exactly as the `syncprim` CLI prints it, with
timings off.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import re
import sys
from dataclasses import dataclass
from math import perm as falling
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The random automata are drawn once from this fixed stream, so that every
# seed runs the same mix of reachable-subset counts (from 1 to 58 651 at
# n = 16); the workload seed only relabels them.
RANDOM_POOL_SEED = 2021

# Full-size parameters of each workload, and reduced ones for the smoke test.
WORKLOADS = {
    "classify-idem": {"degrees": (5, 8), "census": True},
    "search-strong": {"degrees": (3, 5)},
    "syn-dfa-cerny": {"sizes": (13, 14)},
    "syn-dfa-random": {"n": 16, "letters": 3, "count": 8},
}
SMOKE = {
    "classify-idem": {"degrees": (5, 5), "census": True},
    "search-strong": {"degrees": (3, 4)},
    "syn-dfa-cerny": {"sizes": (5, 6)},
    "syn-dfa-random": {"n": 8, "letters": 3, "count": 4},
}


class LibraryMissing(RuntimeError):
    pass


def load_library() -> SimpleNamespace:
    """Import syncprim from this checkout's source tree, never from elsewhere."""
    if not (SRC / "syncprim" / "__init__.py").is_file():
        raise LibraryMissing(f"no syncprim sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    names = ("automaton", "catalog", "classify", "group", "harness", "perm", "rng", "_kernels")
    mods = {name: importlib.import_module(f"syncprim.{name}") for name in names}
    if not Path(mods["automaton"].__file__).resolve().is_relative_to(SRC.resolve()):
        raise LibraryMissing(f"syncprim imported from {mods['automaton'].__file__}, not {SRC}")
    mods["kernels"] = mods.pop("_kernels")
    return SimpleNamespace(**mods)


def emit(doc: dict) -> str:
    """The bytes `syncprim classify` and `syncprim syn-dfa` print for doc."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def point_permutation(rng: random.Random, n: int) -> list[int]:
    pi = list(range(n))
    rng.shuffle(pi)
    return pi


def conjugate(lib, t, pi: list[int]):
    """The map pi t pi^-1: t relabelled so that point i is called pi[i]."""
    image = [0] * len(pi)
    for i, v in enumerate(t.image):
        image[pi[i]] = pi[v]
    return lib.perm.Transformation(tuple(image))


def relabel_group(lib, G, pi):
    return lib.group.GroupSpec(G.degree, tuple(conjugate(lib, g, pi) for g in G.generators))


def relabel_automaton(lib, A, pi):
    return lib.automaton.SemiAutomaton(A.degree, tuple(conjugate(lib, t, pi) for t in A.letters))


@dataclass
class Item:
    """One CLI-path call: run() returns the serialised report, and
    check(lib, item, doc) the reasons the parsed report is wrong."""

    name: str
    subject: Any
    expected: Any
    run: Callable[[], str]
    check: Callable[[Any, "Item", dict], list[str]]


def make_items(lib, workload: str, seed: int, tracer, params: dict | None = None) -> list[Item]:
    """The workload's items for this seed.  Report serialisation runs inside
    a `cli.emit` span of tracer."""
    params = WORKLOADS[workload] if params is None else params
    rng = random.Random(f"{workload}:{seed}")
    span = tracer.span
    builders = {
        "classify-idem": _classify_items,
        "search-strong": _search_items,
        "syn-dfa-cerny": _cerny_items,
        "syn-dfa-random": _random_items,
    }
    return builders[workload](lib, rng, params, span)


def _catalog(lib, lo: int, hi: int) -> list:
    return [e for e in lib.catalog.builtin_catalog(hi) if lo <= e.degree <= hi]


def _census_primitive(entry) -> bool:
    # The degree-4 primitive groups are exactly A4 and S4, of orders 12 and 24.
    order = int(re.search(r"order(\d+)$", entry.name).group(1))
    return order in (12, 24)


def _classify_items(lib, rng, params, span) -> list[Item]:
    entries = _catalog(lib, *params["degrees"])
    expected = [e.expected_primitive for e in entries]
    if params["census"]:
        census = lib.catalog.subgroup_census_s4()
        entries += census
        expected += [_census_primitive(e) for e in census]
    items = []
    for entry, prim in zip(entries, expected):
        G = relabel_group(lib, entry.group, point_permutation(rng, entry.degree))

        def run(G=G, name=entry.name):
            report = lib.classify.classify(
                G, name=name, mode=lib.classify.MODE_IDEMPOTENTS, with_strong=False
            )
            with span("cli.emit"):
                return emit(report.to_dict(timings=False))

        items.append(Item(entry.name, G, prim, run, check_classify))
    return items


def _search_items(lib, rng, params, span) -> list[Item]:
    items = []
    for entry in _catalog(lib, *params["degrees"]):
        G = relabel_group(lib, entry.group, point_permutation(rng, entry.degree))

        def run(G=G, name=entry.name):
            # the per-entry calls of harness.search_strongly_sync_maximal
            report = lib.classify.classify(G, name, with_conditions=False)
            four = lib.group.is_k_transitive(G, 4) if G.degree >= 4 else None
            with span("cli.emit"):
                record = lib.harness.ExperimentRecord(name, report, four, 0.0)
                return json.dumps(record.to_dict(False), sort_keys=True) + "\n"

        items.append(Item(entry.name, G, entry.expected_primitive, run, check_search))
    return items


def _syn_dfa_item(lib, name, A, expected, span) -> Item:
    def run():
        # the document `syncprim syn-dfa` builds
        am = lib.automaton
        summary = am.minimal_syn_dfa(A)
        word = am.shortest_reset_word(A)
        with span("cli.emit"):
            doc = {
                "schema": "syncprim-syndfa/1",
                "degree": A.degree,
                "letters": len(A.letters),
                "state_count": summary.state_count,
                "synchronizing": word is not None,
            }
            if word is not None:
                doc["reset_word"] = am.word_to_str(word)
                doc["reset_word_length"] = len(word)
            return emit(doc)

    return Item(name, A, expected, run, check_syn_dfa)


def _cerny_items(lib, rng, params, span) -> list[Item]:
    items = []
    for n in params["sizes"]:
        A = relabel_automaton(lib, lib.automaton.cerny_automaton(n), point_permutation(rng, n))
        items.append(_syn_dfa_item(lib, f"cerny_{n}", A, ((1 << n) - n, (n - 1) ** 2), span))
    return items


def _random_items(lib, rng, params, span) -> list[Item]:
    pool = lib.rng.SplitMix64(RANDOM_POOL_SEED)
    n = params["n"]
    items = []
    for i in range(params["count"]):
        A = lib.harness.random_automaton(pool, n, params["letters"])
        A = relabel_automaton(lib, A, point_permutation(rng, n))
        items.append(_syn_dfa_item(lib, f"random_{n}_{i}", A, None, span))
    return items


# --- validation -----------------------------------------------------------


def _pair_witness_failures(lib, G, label: str, pred: dict) -> list[str]:
    """A reported indistinguishable pair must have no distinguishing word."""
    witness = pred.get("witness")
    if pred["value"] is not False or not witness or "pair" not in witness:
        return []
    am = lib.automaton
    f = lib.perm.parse_image(witness["f"], G.degree)
    S, T = (am.parse_set(s, G.degree) for s in witness["pair"])
    word = am.distinguish_witness(am.build_group_automaton(G, f), S, T)
    return [] if word is None else [f"{label}: pair {witness['pair']} is split by {word}"]


def check_classify(lib, item: Item, doc: dict) -> list[str]:
    preds = doc["predicates"]
    value = {k: v["value"] for k, v in preds.items()}
    bad = []
    if item.expected is not None and value["primitive"] != item.expected:
        bad.append(f"primitive={value['primitive']}, catalog says {item.expected}")
    if not value["sync_maximal"] == value["primitive"] == value["condition_2"]:
        bad.append("sync_maximal, primitive and condition_2 disagree")
    if item.subject.degree >= 5 and len({value[f"condition_{i}"] for i in range(1, 7)}) != 1:
        bad.append("the six conditions disagree at degree >= 5")
    for i in range(3, 7):
        bad += _pair_witness_failures(lib, item.subject, f"condition_{i}", preds[f"condition_{i}"])
    return bad


def check_search(lib, item: Item, doc: dict) -> list[str]:
    preds = doc["report"]["predicates"]
    value = {k: v["value"] for k, v in preds.items()}
    G = item.subject
    bad = []
    if item.expected is not None and value["primitive"] != item.expected:
        bad.append(f"primitive={value['primitive']}, catalog says {item.expected}")
    if not value["sync_maximal"] == value["primitive"] == value["completely_reachable_all_f"]:
        bad.append("sync_maximal, primitive and completely_reachable_all_f disagree")
    if value["strongly_sync_maximal"] and not value["primitive"]:
        bad.append("strongly sync-maximal but not primitive")
    bad += _pair_witness_failures(lib, G, "strongly_sync_maximal", preds["strongly_sync_maximal"])
    # 4-transitive iff the 4-tuple (0,1,2,3) has all n!/(n-4)! images
    four = None
    if G.degree >= 4:
        images = {tuple(g.image[:4]) for g in lib.group.enumerate_elements(G)}
        four = len(images) == falling(G.degree, 4)
    if doc["four_transitive"] != four:
        bad.append(f"four_transitive={doc['four_transitive']}, element count says {four}")
    return bad


def check_syn_dfa(lib, item: Item, doc: dict) -> list[str]:
    A = item.subject
    bad = []
    word = doc.get("reset_word")
    if doc["synchronizing"] != lib.automaton.is_synchronizing_pairs(A):
        bad.append("synchronizing disagrees with the pair criterion")
    if word is not None:
        letters = [int(x) for x in word.split()]
        image = A.apply_word_mask((1 << A.degree) - 1, letters)
        if image == 0 or image & (image - 1):
            bad.append(f"reset word maps the full set to mask {image:#x}")
    if item.expected is not None:
        states, length = item.expected
        if doc["state_count"] != states or doc.get("reset_word_length") != length:
            bad.append(
                f"state_count={doc['state_count']} reset_word_length={doc.get('reset_word_length')}, "
                f"expected {states} and {length}"
            )
    return bad


def digest(outputs: list[str]) -> str:
    h = hashlib.sha256()
    for text in outputs:
        h.update(text.encode())
    return h.hexdigest()
