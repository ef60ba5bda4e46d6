import json

import pytest

from syncprim import catalog, classify as cl, group as gr, harness, perm
from syncprim.rng import SplitMix64


class TestCatalog:
    def test_expected_flags_match_computed(self):
        for entry in catalog.builtin_catalog(6):
            if entry.expected_transitive is not None:
                assert gr.is_transitive(entry.group) == entry.expected_transitive, entry.name
            if entry.expected_primitive is not None:
                assert gr.is_primitive(entry.group)[0] == entry.expected_primitive, entry.name

    def test_names_unique(self):
        names = [e.name for e in catalog.builtin_catalog(6)]
        assert len(names) == len(set(names))

    def test_degree_filter(self):
        assert all(e.degree <= 4 for e in catalog.builtin_catalog(4))
        with pytest.raises(ValueError):
            catalog.builtin_catalog(0)

    def test_alternating_parity(self):
        # every generator of A_n must be even; check via cycle type
        for n in (4, 5, 6, 7):
            G = catalog.alternating(n)
            assert len(gr.enumerate_elements(G, cap=5100)) == _factorial(n) // 2


def _factorial(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


class TestSubgroupCensus:
    def test_count_is_30(self):
        assert len(catalog.subgroup_census_s4()) == 30

    def test_order_multiset(self):
        orders = {}
        for entry in catalog.subgroup_census_s4():
            k = len(gr.enumerate_elements(entry.group, cap=30))
            orders[k] = orders.get(k, 0) + 1
        assert orders == {1: 1, 2: 9, 3: 4, 4: 7, 6: 4, 8: 3, 12: 1, 24: 1}

    def test_names_deterministic(self):
        a = [e.name for e in catalog.subgroup_census_s4()]
        b = [e.name for e in catalog.subgroup_census_s4()]
        assert a == b
        assert a[0].endswith("order1")
        assert a[-1].endswith("order24")


class TestVerifyTheorems:
    def test_degree_4_ok_with_expected_divergence(self):
        summary = harness.verify_theorems(4)
        assert summary.ok
        assert summary.to_dict()["ok"] is True
        assert any(
            d["group"] == "fix3_C3" and d["condition"] == 6 and d["value"] is True
            for d in summary.expected_divergences
        )

    def test_degree_5_no_violations(self):
        summary = harness.verify_theorems(5)
        assert summary.ok
        assert summary.violations == []
        assert summary.groups_checked > 30  # catalog plus the census

    def test_cap(self):
        with pytest.raises(ValueError):
            harness.verify_theorems(cl.ALL_MAPS_CAP + 1)

    @pytest.mark.parametrize("max_degree", [2, 0, -1])
    def test_degree_below_3_raises(self, max_degree):
        # the battery starts at degree 3; below it no group would be checked
        with pytest.raises(ValueError, match="outside"):
            harness.verify_theorems(max_degree)

    def test_equals_primitive_violations(self, monkeypatch):
        # classify with sync-max and condition 2 flipped: every degree-3
        # group breaks both "equals primitive" checks, in this order
        classify = cl.classify

        def flipped(*args, **kwargs):
            report = classify(*args, **kwargs)
            for key in ("sync_maximal", "condition_2"):
                report.predicates[key].value = not report.predicates[key].value
            return report

        monkeypatch.setattr(cl, "classify", flipped)
        summary = harness.verify_theorems(3)
        want = [
            {
                "group": "trivial_3",
                "check": "sync_maximal_equals_primitive",
                "primitive": False,
                "sync_maximal": True,
                "witness": {"f": "0 0 2", "state_count": 1},
            },
            {
                "group": "trivial_3",
                "check": "complete_reachability_equals_primitive",
                "primitive": False,
                "condition_2": True,
                "witness": {"f": "0 0 2", "unreachable": "{0}"},
            },
        ]
        for name in ("C3", "D3", "A3", "S3"):
            want += [
                {
                    "group": name,
                    "check": "sync_maximal_equals_primitive",
                    "primitive": True,
                    "sync_maximal": False,
                    "witness": None,
                },
                {
                    "group": name,
                    "check": "complete_reachability_equals_primitive",
                    "primitive": True,
                    "condition_2": False,
                    "witness": None,
                },
            ]
        assert summary.violations == want
        assert [list(v) for v in summary.violations] == [list(v) for v in want]
        assert (summary.groups_checked, summary.checks) == (5, 20)

    def test_summary_serializes(self):
        doc = harness.verify_theorems(3).to_dict()
        assert doc["schema"] == "syncprim-verify/1"
        json.dumps(doc)


class TestSearch:
    def test_strongly_implies_primitive_over_degrees_4_to_5(self):
        records = list(harness.search_strongly_sync_maximal(range(4, 6)))
        assert records
        by_name = {r.name: r for r in records}
        s5 = by_name["S5"].report.predicates
        assert s5["strongly_sync_maximal"].value is True
        assert by_name["S5"].k_transitive_4 is True
        # a rank-2 map with a 2+2 kernel defeats every degree-4 group
        for name in ("S4", "A4"):
            assert by_name[name].report.predicates["strongly_sync_maximal"].value is False
        for rec in records:
            if rec.report.predicates["strongly_sync_maximal"].value is True:
                assert rec.report.predicates["primitive"].value is True

    def test_skip_names(self):
        names = {
            r.name
            for r in harness.search_strongly_sync_maximal(range(4, 5), skip_names={"S4", "A4"})
        }
        assert "S4" not in names and "A4" not in names
        assert "C4" in names

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            list(harness.search_strongly_sync_maximal(range(cl.ALL_MAPS_CAP + 1, cl.ALL_MAPS_CAP + 2)))

    def test_record_serialization(self):
        rec = next(iter(harness.search_strongly_sync_maximal(range(4, 5))))
        doc = rec.to_dict()
        assert doc["schema"] == "syncprim-record/1"
        assert doc["version"] == "0.1.0"
        assert "seconds" not in doc
        assert "seconds" in rec.to_dict(timings=True)
        json.dumps(doc)


class TestRandomInstances:
    def test_reproducible(self):
        a = [A.letters for A in harness.random_instances(42, 20)]
        b = [A.letters for A in harness.random_instances(42, 20)]
        assert a == b

    def test_bounds(self):
        for A in harness.random_instances(7, 50, min_n=2, max_n=8, min_letters=2, max_letters=4):
            assert 2 <= A.degree <= 8
            assert 2 <= len(A.letters) <= 4

    def test_mix_of_letter_kinds(self):
        perms = maps = 0
        for A in harness.random_instances(1, 100):
            for f in A.letters:
                if perm.is_permutation(f):
                    perms += 1
                else:
                    maps += 1
        assert perms > 50 and maps > 50


class TestSplitMix64:
    def test_known_stream_seed_0(self):
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_seed_masking(self):
        assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()

    def test_randbelow_range_and_error(self):
        rng = SplitMix64(3)
        assert all(0 <= rng.randbelow(7) < 7 for _ in range(100))
        with pytest.raises(ValueError):
            rng.randbelow(0)

    def test_shuffle_is_permutation(self):
        rng = SplitMix64(5)
        items = list(range(10))
        rng.shuffle(items)
        assert sorted(items) == list(range(10))


class TestRecordsFile:
    def test_write_and_resume(self, tmp_path):
        path = str(tmp_path / "records.jsonl")
        records = list(harness.search_strongly_sync_maximal(range(4, 5)))
        assert harness.write_records(records, path) == len(records)
        done = harness.completed_names(path)
        assert done == {r.name for r in records}
        # append mode: a second batch adds, never truncates
        assert harness.write_records(records[:1], path) == 1
        with open(path) as fh:
            assert len(fh.read().splitlines()) == len(records) + 1

    def test_torn_final_line(self, tmp_path):
        path = tmp_path / "records.jsonl"
        records = list(harness.search_strongly_sync_maximal(range(4, 5)))
        harness.write_records(records[:2], str(path))
        intact = path.read_text()
        path.write_text(intact + intact.splitlines()[0][:40])
        assert harness.completed_names(str(path)) == {r.name for r in records[:2]}
        assert harness.write_records(records[2:3], str(path)) == 1
        lines = path.read_text().splitlines()
        assert [json.loads(line)["name"] for line in lines] == [r.name for r in records[:3]]

    def test_unparsable_inner_line_is_an_error(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"name": "C4"}\n{"name": \n{"name": "S4"}\n')
        with pytest.raises(ValueError):
            harness.completed_names(str(path))

    def test_completed_names_missing_file(self, tmp_path):
        assert harness.completed_names(str(tmp_path / "absent.jsonl")) == set()
