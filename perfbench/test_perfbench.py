"""Tests of the benchmark itself: seeded inputs, relabelling, validation on a
reduced-size run of every workload, span coverage and self-time arithmetic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

BENCH = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def lib():
    return workloads.load_library()


def _subjects(lib, workload, seed):
    items = workloads.make_items(lib, workload, seed, spans.Tracer(), workloads.SMOKE[workload])
    gens = [getattr(it.subject, "generators", None) or it.subject.letters for it in items]
    return [[g.image for g in gs] for gs in gens]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_relabelling(lib, workload):
    assert _subjects(lib, workload, 7) == _subjects(lib, workload, 7)
    assert _subjects(lib, workload, 7) != _subjects(lib, workload, 8)


def test_relabelling_preserves_order_and_primitivity(lib):
    rng = random.Random(3)
    entries = [e for e in lib.catalog.builtin_catalog(6) if e.degree >= 3]
    entries += lib.catalog.subgroup_census_s4()
    for entry in entries:
        G = entry.group
        H = workloads.relabel_group(lib, G, workloads.point_permutation(rng, G.degree))
        assert len(lib.group.enumerate_elements(H)) == len(lib.group.enumerate_elements(G))
        assert lib.group.is_primitive(H)[0] == lib.group.is_primitive(G)[0]


def test_census_primitivity_rule(lib):
    for entry in lib.catalog.subgroup_census_s4():
        assert workloads._census_primitive(entry) == lib.group.is_primitive(entry.group)[0]


def _smoke_setup(workload):
    return run.setup(workload, 5, workloads.SMOKE[workload])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_validates_every_item(workload):
    _, lib, tracer, items = _smoke_setup(workload)
    tally = run.Tally()
    result = run.measure(lib, items, tracer, 0, tally)
    assert result["passes"] == 1
    assert tally.attempted == len(items) > 0
    assert tally.failed == 0, tally.reasons


def test_checks_catch_a_wrong_report(lib):
    _, lib, tracer, items = _smoke_setup("syn-dfa-cerny")
    item = items[0]
    doc = json.loads(item.run())
    assert item.check(lib, item, doc) == []
    doc["state_count"] += 1
    assert item.check(lib, item, doc)
    doc = json.loads(item.run())
    doc["reset_word"] = doc["reset_word"].rsplit(" ", 1)[0]
    assert item.check(lib, item, doc)


def test_every_named_span_records_a_call():
    seen = {}
    for workload in sorted(workloads.WORKLOADS):
        _, lib, tracer, items = _smoke_setup(workload)
        undo = spans.instrument(lib, tracer)
        try:
            _, _, failures = run.run_pass(lib, items, tracer, True)
        finally:
            undo()
        assert failures == []
        for name, (calls, _, _) in tracer.totals().items():
            seen[name] = seen.get(name, 0) + calls
        for key, count in spans.layer_metrics(tracer, 1.0).items():
            if key.endswith((".calls", ".scanned", ".checked", ".states", ".rows", ".maps")):
                seen[key] = seen.get(key, 0) + count
    missing = [name for name in spans.SPAN_NAMES if not seen.get(name)]
    assert missing == []
    zero = [k for k in spans.PER_LAYER if k.endswith((".calls", ".scanned", ".checked")) and not seen.get(k)]
    assert zero == []


def test_instrument_undo_restores_the_library(lib):
    before = lib.automaton.moore_refine, lib.classify.condition, lib.perm.enumerate_maps_of_rank
    undo = spans.instrument(lib, spans.Tracer())
    assert lib.automaton.moore_refine is not before[0]
    undo()
    assert (lib.automaton.moore_refine, lib.classify.condition, lib.perm.enumerate_maps_of_rank) == before


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 6.0, 10.0, 20.0, 22.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    tracer.active = True
    with tracer.span("outer"):          # 0 .. 10
        with tracer.span("inner"):      # 1 .. 4
            pass
        with tracer.span("inner"):      # 5 .. 6
            pass
    with tracer.span("outer"):          # 20 .. 22
        pass
    totals = tracer.totals()
    assert totals["outer"] == [2, (10 - 3 - 1) + 2, 12]
    assert totals["inner"] == [2, 4, 4]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, -1]


def test_inactive_tracer_records_nothing():
    tracer = spans.Tracer()
    with tracer.span("x"):
        pass
    assert tracer.spans == []


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCH["per_layer"]} == spans.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_contract(monkeypatch, capsys, trace):
    monkeypatch.setattr(workloads, "WORKLOADS", workloads.SMOKE)
    code = run.main(["--workload", "syn-dfa-cerny", "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_library(tmp_path):
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "syn-dfa-cerny", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
