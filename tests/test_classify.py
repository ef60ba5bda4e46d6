from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncprim import automaton as am, catalog, classify as cl, group as gr, perm
from syncprim.classify import MODE_ALL, MODE_IDEMPOTENTS
from syncprim.perm import Transformation
from test_automaton import brute_force_reachable


class TestIsSyncMaximal:
    def test_c5_both_modes(self):
        G = catalog.cyclic(5)
        assert cl.is_sync_maximal(G, MODE_IDEMPOTENTS).value is True
        res = cl.is_sync_maximal(G, MODE_ALL)
        assert res.value is True
        assert res.scanned == 1200  # C(5,2) * 5! rank-4 maps

    def test_c4_fails_with_witness(self):
        res = cl.is_sync_maximal(catalog.cyclic(4), MODE_IDEMPOTENTS)
        assert res.value is False
        f = perm.parse_image(res.witness["f"])
        assert perm.rank(f) == 3
        A = am.build_group_automaton(catalog.cyclic(4), f)
        assert am.minimal_syn_dfa(A).state_count == res.witness["state_count"]
        assert res.witness["state_count"] < 2 ** 4 - 4

    def test_degree_2_always_sync_maximal(self):
        assert cl.is_sync_maximal(gr.trivial_group(2)).value is True
        assert cl.is_sync_maximal(gr.from_cycles(2, "(0 1)")).value is True

    def test_degree_1_vacuous(self):
        assert cl.is_sync_maximal(gr.trivial_group(1)).value is True

    def test_scanned_counts_match_family(self):
        G = catalog.symmetric(4)
        assert cl.is_sync_maximal(G, MODE_IDEMPOTENTS).scanned == 12
        assert cl.is_sync_maximal(G, MODE_ALL).scanned == 144

    def test_mode_agreement_on_catalog(self):
        for entry in catalog.builtin_catalog(5):
            if entry.degree < 3:
                continue
            a = cl.is_sync_maximal(entry.group, MODE_IDEMPOTENTS).value
            b = cl.is_sync_maximal(entry.group, MODE_ALL).value
            assert a == b, entry.name


class TestConditions:
    def test_condition_6_diverges_at_degree_4(self):
        G = gr.from_cycles(4, "(0 1 2)(3)")
        assert cl.condition(G, 6).value is True
        assert cl.condition(G, 1).value is False

    def test_c5_all_six_true(self):
        G = catalog.cyclic(5)
        for i in range(1, 7):
            assert cl.condition(G, i).value is True, f"condition {i}"

    def test_generator_set_independence(self):
        a = gr.from_cycles(5, "(0 1 2 3 4)")
        b = gr.GroupSpec(5, (perm.compose(a.generators[0], a.generators[0]),))
        for i in range(1, 7):
            assert cl.condition(a, i).value == cl.condition(b, i).value

    def test_condition_2_witness_revalidates(self):
        res = cl.condition(catalog.cyclic(4), 2)
        assert res.value is False
        f = perm.parse_image(res.witness["f"])
        A = am.build_group_automaton(catalog.cyclic(4), f)
        missing = am.parse_set(res.witness["unreachable"], 4)
        states, _ = am.build_subset_automaton(A)
        assert all(am.mask_to_set(s) != missing for s in states.tolist())

    @pytest.mark.parametrize("mode", [MODE_IDEMPOTENTS, MODE_ALL])
    def test_condition_2_witness_is_the_first_unreachable_mask(self, mode):
        # against a map-by-map scan whose reachability test is the
        # frozenset BFS
        for entry in _oracle_entries(5):
            G = entry.group
            res = cl.condition(G, 2, mode)
            want = _map_by_map(_walk(G, mode), _brute_condition_2(G))
            assert (res.value, res.witness, res.scanned) == want, entry.name

    def test_condition_3_witness_revalidates(self):
        res = cl.condition(catalog.cyclic(4), 3)
        assert res.value is False
        f = perm.parse_image(res.witness["f"])
        A = am.build_group_automaton(catalog.cyclic(4), f)
        S, T = (am.parse_set(s, 4) for s in res.witness["pair"])
        assert am.distinguish_witness(A, S, T) is None

    def test_bad_index(self):
        with pytest.raises(ValueError):
            cl.condition(catalog.cyclic(4), 7)

    def test_trivial_group_condition2_false(self):
        assert cl.condition(gr.trivial_group(3), 2).value is False


class TestStronglySyncMaximal:
    def test_s5_true_full_scan(self):
        res = cl.is_strongly_sync_maximal(catalog.symmetric(5))
        assert res.value is True
        # all maps of rank 2..4 on [5]
        expected = sum(
            1 for r in (2, 3, 4) for _ in perm.enumerate_maps_of_rank(5, r)
        )
        assert res.scanned == expected == 3000

    def test_s4_counterexample_at_degree_4(self):
        # a rank-2 map whose kernel splits [4] into two 2-classes defeats
        # even the full symmetric group: a complementary pair of 2-sets
        # stays equal, complementary, or both-collapsed under every word
        res = cl.is_strongly_sync_maximal(catalog.symmetric(4))
        assert res.value is False
        f = perm.parse_image(res.witness["f"])
        assert f.image == (0, 0, 1, 1)
        S, T = (am.parse_set(s, 4) for s in res.witness["pair"])
        assert {S, T} == {frozenset({0, 1}), frozenset({2, 3})}
        # exhaustive monoid closure: no element maps exactly one to a singleton
        gens = list(catalog.symmetric(4).generators) + [f]
        monoid = {perm.identity(4)}
        frontier = [perm.identity(4)]
        while frontier:
            x = frontier.pop()
            for y in gens:
                z = perm.compose(y, x)
                if z not in monoid:
                    monoid.add(z)
                    frontier.append(z)
        assert not any(
            (len(h.apply_set(S)) == 1) != (len(h.apply_set(T)) == 1) for h in monoid
        )

    def test_c4_false_with_revalidating_witness(self):
        res = cl.is_strongly_sync_maximal(catalog.cyclic(4))
        assert res.value is False
        f = perm.parse_image(res.witness["f"])
        assert 2 <= perm.rank(f) <= 3
        A = am.build_group_automaton(catalog.cyclic(4), f)
        S, T = (am.parse_set(s, 4) for s in res.witness["pair"])
        assert am.distinguish_witness(A, S, T) is None

    def test_imprimitive_implies_not_strongly(self):
        for entry in catalog.builtin_catalog(5):
            if entry.degree < 3:
                continue
            if not gr.is_primitive(entry.group)[0]:
                assert cl.is_strongly_sync_maximal(entry.group).value is False, entry.name

    def test_degree_2_vacuous(self):
        assert cl.is_strongly_sync_maximal(gr.trivial_group(2)).value is True

    def test_large_degree_skipped(self):
        res = cl.is_strongly_sync_maximal(catalog.symmetric(8))
        assert res.value is None
        assert "infeasible" in res.reason


class TestClassify:
    def test_c5_report(self):
        report = cl.classify(catalog.cyclic(5), name="C5")
        preds = report.predicates
        assert preds["transitive"].value is True
        assert preds["primitive"].value is True
        assert preds["sync_maximal"].value is True
        assert preds["completely_reachable_all_f"].value is True

    def test_trivial_3_report(self):
        preds = cl.classify(gr.trivial_group(3)).predicates
        assert preds["transitive"].value is False
        assert preds["primitive"].value is False
        assert preds["sync_maximal"].value is False
        assert preds["sync_maximal"].witness is not None

    def test_degree_1_vacuously_true(self):
        preds = cl.classify(gr.trivial_group(1)).predicates
        for name in ("transitive", "primitive", "sync_maximal", "strongly_sync_maximal"):
            assert preds[name].value is True, name

    def test_report_serializes(self):
        import json

        report = cl.classify(catalog.cyclic(4), name="C4")
        doc = report.to_dict()
        assert doc["schema"] == "syncprim-report/1"
        json.dumps(doc)  # must be JSON clean
        assert doc["group"]["degree"] == 4

    def test_false_predicates_carry_witnesses(self):
        report = cl.classify(catalog.cyclic(4))
        for name, res in report.predicates.items():
            if res.value is False and name != "transitive":
                assert res.witness is not None, name

    def test_all_maps_scan_skipped_above_cap(self, monkeypatch):
        # S9 in mode all would need a table of 9^9 maps; it is never built
        def no_table(*args):
            raise AssertionError("all-map table built")

        monkeypatch.setattr(perm, "codes_of_ranks", no_table)
        G = catalog.symmetric(9)
        assert G.degree > cl.ALL_MAPS_CAP
        results = [cl.is_sync_maximal(G, MODE_ALL)] + [cl.condition(G, i, MODE_ALL) for i in range(2, 7)]
        for res in results:
            assert res.value is None
            assert "infeasible" in res.reason
        assert cl.is_sync_maximal(G, MODE_IDEMPOTENTS).value is True

    def test_skipped_never_guessed(self):
        report = cl.classify(
            catalog.symmetric(8), with_conditions=False, with_strong=True
        )
        assert report.predicates["strongly_sync_maximal"].value is None
        assert report.predicates["strongly_sync_maximal"].reason


def _map_by_map(maps, check):
    """The oracle for the orbit scan: check every map in enumeration order
    and stop at the first failure."""
    scanned = 0
    for scanned, f in enumerate(maps, 1):
        ok, extra = check(f)
        if not ok:
            witness = {"f": perm.format_image(f)}
            witness.update(extra or {})
            return False, witness, scanned
    return True, None, scanned


def _brute_condition_2(G):
    """Condition 2's check of one map by brute force: the first mask, in
    mask order, that the frozenset BFS does not reach."""
    n = G.degree

    def check(f):
        reached = brute_force_reachable(am.build_group_automaton(G, f))
        missing = [m for m in range(1, 1 << n) if am.mask_to_set(m) not in reached]
        return not missing, {"unreachable": am.mask_to_str(missing[0])} if missing else None

    return check


def _walk(G, mode):
    """The family of a scan, walked through perm's enumerations."""
    n = G.degree
    if mode == "strong":
        return (f for r in range(2, n) for f in perm.enumerate_maps_of_rank(n, r))
    if mode == MODE_IDEMPOTENTS:
        return perm.enumerate_idempotents_rank_n_minus_1(n)
    return perm.enumerate_rank_n_minus_1(n)


def _scan_family(G, mode):
    return cl._map_family(G, range(2, G.degree)) if mode == "strong" else cl._family(G, mode)


def _scan_and_oracle(G, predicate, mode):
    if predicate == "strong":
        res = cl.is_strongly_sync_maximal(G)
        maps, check = _walk(G, "strong"), cl._condition_check(G, 3)
    elif predicate == "sync_maximal":
        res = cl.is_sync_maximal(G, mode)
        maps, check = _walk(G, mode), cl._sync_maximal_check(G)
    else:
        res = cl.condition(G, predicate, mode)
        maps, check = _walk(G, mode), cl._condition_check(G, predicate)
    return (res.value, res.witness, res.scanned), _map_by_map(maps, check)


def _orbit_oracle(G, maps):
    """The first position of every map's orbit {g f h : g, h in G} in maps,
    marking each orbit by brute force over the group's elements when its
    first map comes up."""
    elements = [g.image for g in gr.enumerate_elements(G)]
    first = {}
    labels = []
    for i, f in enumerate(maps):
        if f.image not in first:
            right = {tuple(f.image[x] for x in h) for h in elements}
            for t in {tuple(g[x] for x in r) for g in elements for r in right}:
                first[t] = i
        labels.append(first[f.image])
    return labels


def _oracle_entries(max_degree, degree_6_imprimitive=False):
    """Catalog entries up to max_degree plus the S4 census; optionally the
    degree-6 imprimitive entries, whose scans fail within a few maps."""
    entries = catalog.builtin_catalog(max_degree) + catalog.subgroup_census_s4()
    if degree_6_imprimitive:
        entries += [
            e for e in catalog.builtin_catalog(6)
            if e.degree == 6 and not gr.is_primitive(e.group)[0]
        ]
    return entries


class TestOrbitScan:
    """The orbit scan against a map-by-map scan of the whole family: the
    same value, witness and scanned count for every predicate."""

    @pytest.mark.parametrize("predicate", ["sync_maximal", 2, 3, 4, 5, 6])
    def test_idempotents_match_map_by_map(self, predicate):
        for entry in _oracle_entries(6):
            got, want = _scan_and_oracle(entry.group, predicate, MODE_IDEMPOTENTS)
            assert got == want, entry.name

    @pytest.mark.parametrize("predicate", ["sync_maximal", 2, 3, 4, 5, 6])
    def test_all_rank_n_minus_1_match_map_by_map(self, predicate):
        # the primitive degree-6 groups pass all 10 800 maps; a map-by-map
        # scan of them is left out for time
        for entry in _oracle_entries(5, degree_6_imprimitive=True):
            got, want = _scan_and_oracle(entry.group, predicate, MODE_ALL)
            assert got == want, entry.name

    def test_strong_matches_map_by_map(self):
        # the primitive degree-6 groups pass all 45 930 maps; a map-by-map
        # scan of them is left out for time
        for entry in _oracle_entries(5, degree_6_imprimitive=True):
            got, want = _scan_and_oracle(entry.group, "strong", None)
            assert got == want, entry.name

    @pytest.mark.parametrize(
        "G, maps, conjugation, checked, size",
        [
            (catalog.symmetric(5), "strong", False, 5, 3000),
            (catalog.alternating(5), "strong", False, 5, 3000),
            (catalog.dihedral(5), "strong", False, 40, 3000),
            (catalog.cyclic(5), "strong", False, 120, 3000),
            (catalog.symmetric(6), "strong", False, 9, 45930),
            (catalog.alternating(6), "strong", False, 9, 45930),
            (catalog.cyclic(6), "strong", False, 1291, 45930),
            (catalog.symmetric(6), MODE_IDEMPOTENTS, True, 1, 30),
            (catalog.cyclic(6), MODE_IDEMPOTENTS, True, 5, 30),
            # every orbit of the trivial group is one map, the last one too
            (gr.trivial_group(4), "strong", False, 228, 228),
            (gr.trivial_group(4), MODE_IDEMPOTENTS, True, 12, 12),
        ],
    )
    def test_representative_counts(self, G, maps, conjugation, checked, size):
        family = _scan_family(G, maps)
        # the idempotent family moves by conjugation, the others by a left
        # and a right move per generator
        assert len(family[2]) == len(G.generators) * (1 if conjugation else 2)
        seen = []

        def passing(f):
            seen.append(f)
            return True, None

        assert cl._scan(family, passing) == (True, None, size)
        assert len(seen) == checked
        assert len(set(seen)) == checked

    def test_family_sizes_are_counted_exactly(self):
        for n in range(1, 7):
            G = gr.trivial_group(n)
            for mode in ("strong", MODE_IDEMPOTENTS, MODE_ALL):
                size, map_at, _ = _scan_family(G, mode)
                walked = list(_walk(G, mode))
                assert size == len(walked), (n, mode)
                assert [map_at(i) for i in range(size)] == walked, (n, mode)
        assert _scan_family(gr.trivial_group(7), "strong")[0] == 818_496

    @pytest.mark.parametrize("mode", ["strong", MODE_IDEMPOTENTS, MODE_ALL])
    def test_representatives_match_brute_force_orbits(self, mode):
        for entry in _oracle_entries(5):
            G = entry.group
            size, _, moves = _scan_family(G, mode)
            label = cl._orbit_labels(size, moves)
            want = _orbit_oracle(G, _walk(G, mode))
            assert label.tolist() == want, entry.name
            reps = [i for i, first in enumerate(want) if first == i]
            assert np.flatnonzero(label == np.arange(size)).tolist() == reps, entry.name

    def test_idempotent_orbits_are_conjugation_orbits(self):
        # the G x G orbit of an idempotent of rank n-1 meets that family
        # exactly in its conjugation orbit, the orbital of (a, b)
        for entry in _oracle_entries(5):
            G = entry.group
            size, map_at, moves = cl._family(G, MODE_IDEMPOTENTS)
            assert len(moves) == len(G.generators)
            label = cl._orbit_labels(size, moves).tolist()
            assert label == _orbit_oracle(G, _walk(G, MODE_IDEMPOTENTS)), entry.name
            for i in range(size):
                e = map_at(i)
                (a,) = [p for p in range(G.degree) if e(p) != p]
                orbital = {(g(a), g(e(a))) for g in gr.enumerate_elements(G)}
                conjugates = [map_at(j) for j in range(size) if label[j] == label[i]]
                assert {next((p, q) for p, q in enumerate(t.image) if p != q) for t in conjugates} == orbital

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_predicates_agree_on_both_sides_of_the_orbit(self, data):
        entry = data.draw(st.sampled_from(_oracle_entries(5)), label="group")
        G, n = entry.group, entry.group.degree
        f = Transformation(tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))))
        word = st.lists(st.sampled_from(G.generators), max_size=6)
        g, h = (
            reduce(perm.compose, data.draw(word, label=side), perm.identity(n))
            for side in ("g", "h")
        )
        moved = perm.compose(perm.compose(g, f), h)
        checks = [cl._sync_maximal_check(G)] + [cl._condition_check(G, i) for i in range(2, 7)]
        assert [c(f)[0] for c in checks] == [c(moved)[0] for c in checks]
