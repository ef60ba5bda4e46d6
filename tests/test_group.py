import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncprim import catalog, group as gr, perm
from syncprim.group import BlockSystem, GroupSpec


def cyc(n, *cycles):
    return gr.from_cycles(n, *cycles)


def all_partitions(n):
    """All set partitions of [n] via restricted growth strings."""
    def rec(i, labels, maxlab):
        if i == n:
            classes = {}
            for p, lab in enumerate(labels):
                classes.setdefault(lab, set()).add(p)
            yield [frozenset(c) for c in classes.values()]
            return
        for lab in range(maxlab + 2):
            yield from rec(i + 1, labels + [lab], max(maxlab, lab))

    yield from rec(1, [0], 0)


def invariant_nontrivial_partition_exists(G):
    """Brute-force primitivity oracle: scan every equivalence relation."""
    n = G.degree
    for classes in all_partitions(n):
        if len(classes) == 1 or all(len(c) == 1 for c in classes):
            continue
        class_set = set(classes)
        if all(g.apply_set(c) in class_set for g in G.generators for c in classes):
            return True
    return False


def all_pairs_is_primitive(G):
    """Reference for is_primitive's witness on transitive groups: the
    minimal-block closure of every point pair (a, b), a < b, in
    lexicographic order, the first non-trivial one being the witness."""
    n = G.degree
    if n <= 2 or not gr.is_transitive(G):
        return gr.is_primitive(G)
    for a in range(n):
        for b in range(a + 1, n):
            classes = gr._minimal_block(G, a, b)
            if len(classes) > 1:
                return False, BlockSystem(n, tuple(sorted(classes, key=min)))
    return True, None


@st.composite
def generating_sets(draw):
    n = draw(st.integers(3, 8), label="degree")
    gens = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3), label="generators")
    return GroupSpec(n, tuple(perm.Transformation(tuple(g)) for g in gens))


class TestEnumerateElements:
    def test_cyclic_four(self):
        assert len(gr.enumerate_elements(cyc(4, "(0 1 2 3)"), cap=100)) == 4

    def test_trivial(self):
        assert gr.enumerate_elements(gr.trivial_group(3), cap=10) == [perm.identity(3)]

    def test_s5(self):
        G = cyc(5, "(0 1)", "(0 1 2 3 4)")
        elems = gr.enumerate_elements(G, cap=200)
        assert len(elems) == 120
        assert elems[0] == perm.identity(5)
        assert len(set(elems)) == 120

    def test_cap_exceeded(self):
        G = cyc(5, "(0 1)", "(0 1 2 3 4)")
        with pytest.raises(gr.GroupTooLargeError, match="group too large") as exc:
            gr.enumerate_elements(G, cap=50)
        assert exc.value.partial_count == 50


class TestOrbits:
    def test_fixed_point(self):
        assert gr.orbit(cyc(4, "(0 1 2)(3)"), 3) == {3}

    def test_moved_points(self):
        assert gr.orbit(cyc(4, "(0 1 2)(3)"), 0) == {0, 1, 2}

    def test_trivial(self):
        assert gr.orbit(gr.trivial_group(3), 1) == {1}

    def test_orbits_partition(self):
        G = cyc(5, "(0 1)(2 3)")
        orb = gr.orbits(G)
        assert sorted(p for o in orb for p in o) == list(range(5))


class TestTransitivity:
    def test_rotation(self):
        assert gr.is_transitive(cyc(4, "(0 1 2 3)"))

    def test_fixes_point(self):
        assert not gr.is_transitive(cyc(4, "(0 1 2)(3)"))

    def test_degree_one(self):
        assert gr.is_transitive(gr.trivial_group(1))

    def test_s4_is_4_transitive(self):
        assert gr.is_k_transitive(catalog.symmetric(4), 4)

    def test_c4_not_2_transitive(self):
        assert not gr.is_k_transitive(cyc(4, "(0 1 2 3)"), 2)

    def test_transitive_is_1_transitive(self):
        for G in (cyc(4, "(0 1 2 3)"), catalog.symmetric(3)):
            assert gr.is_k_transitive(G, 1) == gr.is_transitive(G)

    def test_a5_transitivity_ladder(self):
        A5 = catalog.alternating(5)
        assert gr.is_k_transitive(A5, 3)
        assert not gr.is_k_transitive(A5, 4)

    def test_k_transitive_implies_k_homogeneous_and_lower(self):
        for G in (catalog.symmetric(4), catalog.alternating(5), catalog.cyclic(5)):
            for k in range(2, 5):
                if k > G.degree:
                    continue
                if gr.is_k_transitive(G, k):
                    assert gr.is_k_homogeneous(G, k)
                    assert gr.is_k_transitive(G, k - 1)


class TestHomogeneity:
    def test_fix3_group_two_orbits_on_2_sets(self):
        G = cyc(4, "(0 1 2)(3)")
        assert not gr.is_k_homogeneous(G, 2)
        # the two orbits listed in the degree-4 counterexample
        orbit1 = gr.set_orbit(G, frozenset({0, 3}))
        orbit2 = gr.set_orbit(G, frozenset({0, 1}))
        assert orbit1 == {frozenset({0, 3}), frozenset({1, 3}), frozenset({2, 3})}
        assert orbit2 == {frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})}

    def test_s4_2_homogeneous(self):
        assert gr.is_k_homogeneous(catalog.symmetric(4), 2)

    def test_full_set_always_homogeneous(self):
        assert gr.is_k_homogeneous(gr.trivial_group(3), 3)


class TestOrbitsAgainstElements:
    """The generator-closure BFS against images over every group element,
    as the benchmark checks 4-transitivity."""

    @pytest.mark.parametrize("entry", catalog.builtin_catalog(6), ids=lambda e: e.name)
    def test_catalog(self, entry):
        G, n = entry.group, entry.group.degree
        elements = gr.enumerate_elements(G)
        for p in range(n):
            assert gr.orbit(G, p) == {g(p) for g in elements}
        for k in range(1, n + 1):
            tuples = {tuple(g(p) for p in range(k)) for g in elements}
            sets = {g.apply_set(range(k)) for g in elements}
            assert gr.is_k_transitive(G, k) == (len(tuples) == math.perm(n, k))
            assert gr.is_k_homogeneous(G, k) == (len(sets) == math.comb(n, k))
            assert gr.set_orbit(G, frozenset(range(k))) == sets
        for a, b in itertools.permutations(range(n), 2):
            assert gr.orbital(G, a, b) == {(g(a), g(b)) for g in elements}


class TestPrimitivity:
    def test_c4_blocks(self):
        prim, blocks = gr.is_primitive(cyc(4, "(0 1 2 3)"))
        assert not prim
        assert set(blocks.classes) == {frozenset({0, 2}), frozenset({1, 3})}

    def test_c5_primitive(self):
        assert gr.is_primitive(catalog.cyclic(5)) == (True, None)

    def test_degree_2_convention(self):
        assert gr.is_primitive(cyc(2, "(0 1)")) == (True, None)
        assert gr.is_primitive(gr.trivial_group(2)) == (True, None)

    def test_intransitive_has_witness(self):
        prim, blocks = gr.is_primitive(cyc(4, "(0 1 2)(3)"))
        assert not prim
        assert blocks.nontrivial
        self._check_invariant(cyc(4, "(0 1 2)(3)"), blocks)

    def test_trivial_group_witness(self):
        prim, blocks = gr.is_primitive(gr.trivial_group(4))
        assert not prim
        assert blocks.nontrivial
        self._check_invariant(gr.trivial_group(4), blocks)

    @staticmethod
    def _check_invariant(G, blocks):
        class_set = set(blocks.classes)
        for g in G.generators:
            for c in blocks.classes:
                assert g.apply_set(c) in class_set

    def test_block_witness_is_invariant(self):
        for entry in catalog.builtin_catalog(6):
            prim, blocks = gr.is_primitive(entry.group)
            if blocks is not None:
                assert blocks.nontrivial
                self._check_invariant(entry.group, blocks)

    def test_against_partition_oracle(self):
        # exhaustive equivalence-relation scan must agree with block closure
        for entry in catalog.builtin_catalog(6):
            G = entry.group
            if G.degree <= 2 or G.degree > 6:
                continue
            prim, _ = gr.is_primitive(G)
            assert prim == (not invariant_nontrivial_partition_exists(G)), entry.name

    @pytest.mark.parametrize(
        "entry", catalog.builtin_catalog(9) + catalog.subgroup_census_s4(), ids=lambda e: e.name
    )
    def test_witness_matches_the_all_pairs_closure(self, entry):
        # closing only the pairs (0, b) finds the same first block system
        assert gr.is_primitive(entry.group) == all_pairs_is_primitive(entry.group)

    @settings(max_examples=300, deadline=None)
    @given(generating_sets())
    def test_witness_matches_the_all_pairs_closure_on_drawn_groups(self, G):
        assert gr.is_primitive(G) == all_pairs_is_primitive(G)

    def test_primitive_implies_transitive_above_2(self):
        for entry in catalog.builtin_catalog(6):
            if entry.degree > 2 and gr.is_primitive(entry.group)[0]:
                assert gr.is_transitive(entry.group)


class TestFindSeparator:
    def test_singletons(self):
        g = gr.find_separator(catalog.cyclic(5), frozenset({0}), frozenset({1}))
        assert g is not None
        assert g(0) != 1

    def test_two_by_two(self):
        G = catalog.cyclic(5)
        A, B = frozenset({0, 1}), frozenset({2, 3})
        g = gr.find_separator(G, A, B)
        assert g is not None
        assert not (g.apply_set(A) & B)

    def test_impossible(self):
        assert gr.find_separator(gr.trivial_group(3), frozenset({0}), frozenset({0})) is None

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            gr.find_separator(catalog.cyclic(5), frozenset(), frozenset({0}))


class TestBlockSystem:
    def test_must_partition(self):
        with pytest.raises(ValueError):
            BlockSystem(3, (frozenset({0, 1}),))

    def test_nontrivial(self):
        assert BlockSystem(4, (frozenset({0, 1}), frozenset({2, 3}))).nontrivial
        assert not BlockSystem(4, tuple(frozenset({i}) for i in range(4))).nontrivial
        assert not BlockSystem(4, (frozenset(range(4)),)).nontrivial


class TestGroupSpec:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            GroupSpec(3, (perm.Transformation((0, 0, 1)),))

    def test_rejects_degree_mismatch(self):
        with pytest.raises(perm.DegreeMismatchError):
            GroupSpec(3, (perm.identity(4),))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GroupSpec(3, ())


class TestGroupFileParsing:
    def test_basic(self):
        G = gr.parse_group_file("# comment\ndegree 5\n(0 1 2 3 4)\n0 1 2 3 4\n")
        assert G.degree == 5
        assert len(G.generators) == 2

    def test_missing_degree(self):
        with pytest.raises(perm.ParseError, match="degree"):
            gr.parse_group_file("(0 1)\n")

    def test_bad_generator_reports_line(self):
        with pytest.raises(perm.ParseError, match="line 3"):
            gr.parse_group_file("# hi\ndegree 3\n(0 5)\n")

    def test_no_generators(self):
        with pytest.raises(perm.ParseError, match="no generators"):
            gr.parse_group_file("degree 3\n")
