import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from overpart import (
    DominanceViolated,
    ModulusTooSmall,
    QLaurent,
    SumsNotDistinct,
    alpha_weight_sum,
    beta,
    build_system,
)


class TestBuildSystem:
    def test_flagship_system(self, sys7):
        assert sys7.alpha == (1, 2, 3, 4, 5, 6, 7)
        assert [sys7.w_table[a] for a in sys7.alpha] == [1, 1, 2, 1, 2, 2, 3]
        assert sys7.v_table[3] == 1
        assert sys7.v_table[5] == 1
        assert sys7.v_table[6] == 2
        assert sys7.v_table[7] == 1
        assert sys7.a_ext == 8
        assert sys7.r == 3

    def test_two_generator_system(self, sys3):
        assert sys3.alpha == (1, 2, 3)
        assert sys3.w_table[3] == 2
        assert sys3.v_table[3] == 1

    def test_colliding_sums_rejected(self):
        with pytest.raises(SumsNotDistinct):
            build_system([1, 2, 3], 20)

    def test_modulus_too_small(self):
        with pytest.raises(ModulusTooSmall):
            build_system([1, 2, 4], 6)

    def test_dominance_violated(self):
        # subset sums of {2,3,4} are all distinct, only dominance fails
        with pytest.raises(DominanceViolated):
            build_system([2, 3, 4], 20)

    @pytest.mark.parametrize("bad", [[], [0, 1], [-1, 2], [2, 2], [3, 1]])
    def test_malformed_generators(self, bad):
        with pytest.raises(ValueError):
            build_system(bad, 50)

    def test_generator_cap(self):
        with pytest.raises(ValueError):
            build_system([2 ** i for i in range(17)], 2 ** 18)

    def test_generator_positions(self, battery):
        # a(k+1) sits at 1-based position 2^k of the sorted subset sums
        for sys_ in battery:
            for k in range(sys_.r):
                assert sys_.alpha[2 ** k - 1] == sys_.a[k]

    def test_largest_summand_between_generators(self, battery):
        for sys_ in battery:
            gens = list(sys_.a) + [sys_.a_ext]
            for al in sys_.alpha:
                top = max(sys_.summands[al])
                for k in range(sys_.r):
                    if gens[k] < al < gens[k + 1]:
                        assert top == gens[k]

    def test_subset_decomposition(self, battery):
        for sys_ in battery:
            seen = set()
            for al in sys_.alpha:
                subset = sys_.summands[al]
                assert sum(subset) == al
                assert len(subset) == sys_.w_table[al]
                assert min(subset) == sys_.v_table[al]
                assert subset not in seen
                seen.add(subset)
            for g in sys_.a:
                assert sys_.w_table[g] == 1
                assert sys_.v_table[g] == g

    def test_equality_and_hash(self, sys7):
        clone = build_system((1, 2, 4), 7)
        assert clone == sys7
        assert hash(clone) == hash(sys7)
        assert build_system([1, 2, 4], 8) != sys7

    def test_immutable(self, sys7):
        with pytest.raises(AttributeError):
            sys7.N = 8
        with pytest.raises(AttributeError):
            del sys7.a
        assert (sys7.N, sys7.a) == (7, (1, 2, 4))
        assert repr(sys7) == "AlphaSystem(N=7, a=[1, 2, 4])"

    def test_copies_rebuild_every_table(self, sys7):
        for clone in (copy.copy(sys7), pickle.loads(pickle.dumps(sys7))):
            assert clone == sys7 and clone is not sys7
            assert [clone.alpha, clone.w_table, clone.v_table, clone.summands,
                    clone.a_ext] == [sys7.alpha, sys7.w_table, sys7.v_table,
                                     sys7.summands, sys7.a_ext]


class TestBeta:
    def test_negative(self, sys7):
        assert beta(sys7, -8) == 6

    def test_multiple_maps_to_modulus(self, sys7):
        assert beta(sys7, 7) == 7
        assert beta(sys7, -14) == 7

    def test_small_system(self, sys3):
        assert beta(sys3, 5) == 2

    @given(st.integers(min_value=-500, max_value=500))
    def test_least_positive_residue(self, m):
        sys_ = build_system([1, 2, 4], 7)
        b = beta(sys_, m)
        assert 1 <= b <= sys_.N
        assert (b - m) % sys_.N == 0


class TestAlphaWeightSum:
    def test_weight_one_below_third_generator(self, sys7):
        got = alpha_weight_sum(sys7, 3, 1)
        assert got == QLaurent.from_terms(0, [(-1, 0, 1), (-2, 0, 1)])

    def test_weight_zero_is_one(self, sys7):
        assert alpha_weight_sum(sys7, 3, 0) == QLaurent.one(0)

    def test_top_weight_full_range(self, sys7):
        got = alpha_weight_sum(sys7, sys7.r + 1, 3)
        assert got == QLaurent.monomial(0, -7)

    def test_weight_beyond_generators_is_zero(self, sys7):
        assert alpha_weight_sum(sys7, sys7.r, 3).is_zero()
        assert alpha_weight_sum(sys7, sys7.r + 1, 4).is_zero()

    def test_total_term_count(self, battery):
        # weights 0..r with no cutoff: the constant plus one monomial
        # per subset sum, 2^r terms in total
        for sys_ in battery:
            total = QLaurent.zero(0)
            for w in range(sys_.r + 1):
                total = total + alpha_weight_sum(sys_, sys_.r + 1, w)
            assert len(list(total.terms())) == 2 ** sys_.r

    def test_bad_indices(self, sys7):
        with pytest.raises(ValueError):
            alpha_weight_sum(sys7, 0, 1)
        with pytest.raises(ValueError):
            alpha_weight_sum(sys7, 5, 1)
        with pytest.raises(ValueError):
            alpha_weight_sum(sys7, 1, -1)
