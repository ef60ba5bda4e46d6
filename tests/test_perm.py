import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncprim import perm
from syncprim.perm import Transformation


def t(*image):
    return Transformation(tuple(image))


def transformations(max_n=6):
    return st.integers(2, max_n).flatmap(
        lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(
            lambda img: Transformation(tuple(img))
        )
    )


class TestCompose:
    def test_identity_left_and_right(self):
        f = t(1, 1, 2, 3)
        e = perm.identity(4)
        assert perm.compose(e, f) == f
        assert perm.compose(f, e) == f

    def test_idempotent_from_collapse(self):
        # f(0) = f(1) = 1, fixes the rest
        f = t(1, 1, 2, 3, 4)
        assert perm.compose(f, f) == f

    def test_three_cycle_squared(self):
        g = perm.parse_cycles("(0 1 2)", 4)
        assert perm.compose(g, g) == t(2, 0, 1, 3)

    def test_right_applied_first(self):
        f = t(0, 0, 2)
        g = t(2, 1, 0)
        # (f o g)(0) = f(g(0)) = f(2) = 2
        assert perm.compose(f, g).image[0] == 2

    def test_degree_mismatch(self):
        with pytest.raises(perm.DegreeMismatchError, match="degree mismatch"):
            perm.compose(t(0, 1), t(0, 1, 2))


class TestRank:
    def test_identity(self):
        assert perm.rank(perm.identity(4)) == 4

    def test_one_collision(self):
        assert perm.rank(t(1, 1, 2, 3, 4)) == 4

    def test_constant(self):
        assert perm.rank(t(2, 2, 2)) == 1


class TestIdempotentPower:
    def test_already_idempotent(self):
        f = t(1, 1, 2, 3, 4)
        assert perm.idempotent_power(f) == f

    def test_involution(self):
        f = t(1, 0)
        assert perm.idempotent_power(f) == perm.identity(2)

    def test_cycle_with_collapse(self):
        # 3-cycle on {0,1,2}, collapses 4 -> 3; the cube is idempotent
        f = t(1, 2, 0, 3, 3)
        cube = perm.compose(f, perm.compose(f, f))
        assert cube == t(0, 1, 2, 3, 3)
        assert perm.idempotent_power(f) == cube

    @given(transformations())
    def test_result_is_idempotent(self, f):
        h = perm.idempotent_power(f)
        assert perm.compose(h, h) == h


class TestEnumerators:
    @pytest.mark.parametrize("n,count", [(2, 2), (3, 18), (4, 144)])
    def test_rank_n_minus_1_counts(self, n, count):
        maps = list(perm.enumerate_rank_n_minus_1(n))
        assert len(maps) == count
        # against exhaustive filtering of all n^n maps
        brute = [
            img
            for img in itertools.product(range(n), repeat=n)
            if len(set(img)) == n - 1
        ]
        assert [m.image for m in maps] == brute

    def test_rank_n_minus_1_degree_2(self):
        assert [m.image for m in perm.enumerate_rank_n_minus_1(2)] == [(0, 0), (1, 1)]

    def test_rank_n_minus_1_below_2(self):
        assert list(perm.enumerate_rank_n_minus_1(1)) == []

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_idempotent_counts_and_properties(self, n):
        maps = list(perm.enumerate_idempotents_rank_n_minus_1(n))
        assert len(maps) == n * (n - 1)
        for f in maps:
            assert perm.is_idempotent(f)
            assert perm.rank(f) == n - 1
        assert len(set(maps)) == len(maps)
        # exactly the idempotents among the rank n-1 maps
        brute = {f for f in perm.enumerate_rank_n_minus_1(n) if perm.is_idempotent(f)}
        assert set(maps) == brute

    def test_idempotents_degree_2(self):
        assert [m.image for m in perm.enumerate_idempotents_rank_n_minus_1(2)] == [
            (0, 0),
            (1, 1),
        ]

    def test_maps_of_rank(self):
        assert len(list(perm.enumerate_maps_of_rank(3, 3))) == 6
        assert [m.image for m in perm.enumerate_maps_of_rank(3, 1)] == [
            (0, 0, 0),
            (1, 1, 1),
            (2, 2, 2),
        ]
        assert len(list(perm.enumerate_maps_of_rank(4, 2))) == 84
        assert list(perm.enumerate_maps_of_rank(4, 0)) == []
        assert list(perm.enumerate_maps_of_rank(4, 5)) == []

    @pytest.mark.parametrize("n", range(1, 7))
    def test_codes_of_rank_decode_to_maps_of_rank(self, n):
        # ranks 0 and n + 1 hold no map, so their codes come back empty
        for r in range(n + 2):
            codes = perm.codes_of_rank(n, r)
            assert codes.dtype == np.int32
            decoded = [tuple(int(c) // n ** (n - 1 - i) % n for i in range(n)) for c in codes]
            assert decoded == [m.image for m in perm.enumerate_maps_of_rank(n, r)], r

    def test_rank_table_is_built_once_per_degree_and_read_only(self):
        perm._code_ranks.cache_clear()
        for r in range(2, 5):
            perm.codes_of_rank(5, r)
        info = perm._code_ranks.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        ranks = perm._code_ranks(5)
        assert not ranks.flags.writeable
        with pytest.raises(ValueError):
            ranks[0] = 3
        codes = perm.codes_of_rank(5, 3)
        codes[0] = -1  # the caller's own array
        assert perm.codes_of_rank(5, 3)[0] != -1

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_rank_partition_is_exhaustive(self, n):
        total = sum(
            len(list(perm.enumerate_maps_of_rank(n, r))) for r in range(1, n + 1)
        )
        assert total == n ** n


class TestInvariants:
    @given(st.integers(2, 5), st.data())
    @settings(max_examples=50)
    def test_associativity(self, n, data):
        img = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
        f, g, h = (Transformation(tuple(data.draw(img))) for _ in range(3))
        assert perm.compose(perm.compose(f, g), h) == perm.compose(f, perm.compose(g, h))

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=50)
    def test_rank_submultiplicative(self, n, data):
        img = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
        f, g = (Transformation(tuple(data.draw(img))) for _ in range(2))
        assert perm.rank(perm.compose(f, g)) <= min(perm.rank(f), perm.rank(g))

    @given(transformations(max_n=6))
    @settings(max_examples=40)
    def test_injectivity_lemma(self, f):
        # |f(S)| = |S| iff every fiber meets S at most once, all S exhaustively
        n = f.degree
        for mask in range(1 << n):
            S = [i for i in range(n) if mask >> i & 1]
            injective = len({f(i) for i in S}) == len(S)
            fibers_ok = all(
                sum(1 for s in S if f(s) == x) <= 1 for x in range(n)
            )
            assert injective == fibers_ok


class TestConstruction:
    def test_bad_entry(self):
        with pytest.raises(ValueError):
            Transformation((0, 3))
        with pytest.raises(ValueError):
            Transformation((-1, 0))

    def test_empty(self):
        with pytest.raises(ValueError):
            Transformation(())

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            Transformation(tuple(range(65)))

    def test_is_permutation(self):
        assert perm.is_permutation(perm.identity(5))
        assert not perm.is_permutation(t(0, 0, 1))

    def test_inverse(self):
        g = perm.parse_cycles("(0 1 2)", 4)
        assert perm.compose(g, perm.inverse(g)) == perm.identity(4)

    def test_apply_mask(self):
        f = t(1, 1, 2, 3)
        assert f.apply_mask(0b0011) == 0b0010
        assert f.apply_mask(0b1100) == 0b1100


class TestParsing:
    def test_image_roundtrip(self):
        f = perm.parse_image("1 1 2 3 4")
        assert f == t(1, 1, 2, 3, 4)
        assert perm.format_image(f) == "1 1 2 3 4"

    def test_image_bad_entry(self):
        with pytest.raises(perm.ParseError):
            perm.parse_image("0 5", 2)

    def test_cycles(self):
        g = perm.parse_cycles("(0 1 2)(3)", 4)
        assert g == t(1, 2, 0, 3)
        # fixed points may be omitted
        assert perm.parse_cycles("(0 1 2)", 4) == g

    def test_cycles_repeated_point(self):
        with pytest.raises(perm.ParseError, match="repeated"):
            perm.parse_cycles("(0 1)(1 2)", 3)

    def test_cycles_out_of_range(self):
        with pytest.raises(perm.ParseError):
            perm.parse_cycles("(0 4)", 3)

    def test_parse_permutation_rejects_non_bijection(self):
        with pytest.raises(perm.ParseError, match="not a permutation"):
            perm.parse_permutation("0 0 1", 3)

    def test_format_cycles(self):
        g = perm.parse_cycles("(0 1 2)(3 4)", 5)
        assert perm.format_cycles(g) == "(0 1 2)(3 4)"
        assert perm.format_cycles(perm.identity(3)) == "()"
