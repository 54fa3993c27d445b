"""Set partitions, the coloring condition, minimal primes, heights, purity."""

import random
from collections import Counter
from math import comb

import pytest

from spechtideals.tableaux import Partition, enumerate_partitions
from spechtideals import varieties
from spechtideals.varieties import (
    ResourceLimitError,
    SetPartition,
    condition_star,
    evaluation_oracle,
    expected_minimal_primes,
    height_and_purity,
    minimal_primes,
    one_step_refinements,
    placement_feasible_dominance,
    placement_feasible_flow,
    set_partitions,
)

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877}


class TestSetPartition:
    def test_parse_canonical(self):
        pi = SetPartition.from_text("4,5|1,2,3|6")
        assert pi.blocks == ((1, 2, 3), (4, 5), (6,))
        assert pi.height == 3
        assert pi.text() == "1,2,3|4,5|6"

    def test_validation(self):
        with pytest.raises(ValueError):
            SetPartition(4, ((1, 2), (2, 3, 4)))
        with pytest.raises(ValueError):
            SetPartition(4, ((1, 2),))

    def test_enumeration_counts(self):
        for n, bell in BELL.items():
            if n <= 6:
                assert sum(1 for _ in set_partitions(n)) == bell

    def test_refinements(self):
        pi = SetPartition(3, ((1, 2, 3),))
        refs = {r.text() for r in one_step_refinements(pi)}
        assert refs == {"1|2,3", "1,2|3", "1,3|2"}


class TestConditionStar:
    def test_pigeonhole_block(self):
        assert condition_star(SetPartition(3, ((1, 2, 3),)), Partition((2, 1)))

    def test_two_pairs_escape(self):
        assert not condition_star(
            SetPartition(4, ((1, 2), (3, 4))), Partition((2, 2))
        )

    def test_two_block_pattern_point(self):
        assert condition_star(
            SetPartition(6, ((1, 2, 3), (4, 5, 6))), Partition((3, 2, 1))
        )

    def test_generic_point_escapes(self):
        pi = SetPartition(4, ((1,), (2,), (3,), (4,)))
        for lam in enumerate_partitions(4):
            if lam.is_trivial or lam.parts[0] < 2:
                continue
            assert not condition_star(pi, lam)

    def test_diagonal_always_in(self):
        pi = SetPartition(4, ((1, 2, 3, 4),))
        for lam in enumerate_partitions(4):
            if lam.is_trivial:
                continue
            assert condition_star(pi, lam)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            condition_star(SetPartition(3, ((1, 2, 3),)), Partition((2, 2)))

    def test_engines_and_oracle_agree_exhaustively(self):
        for n in range(1, 6):
            pis = list(set_partitions(n))
            for lam in enumerate_partitions(n):
                if lam.is_trivial:
                    continue
                for pi in pis:
                    a = condition_star(pi, lam, "dominance")
                    assert a == condition_star(pi, lam, "flow")
                    assert a == condition_star(pi, lam, "brute")
                    assert a == evaluation_oracle(pi, lam)

    def test_monotone_under_coarsening(self):
        # merging blocks preserves the condition (tested exhaustively small)
        for n in range(2, 6):
            for lam in enumerate_partitions(n):
                if lam.is_trivial:
                    continue
                for pi in set_partitions(n):
                    if condition_star(pi, lam):
                        continue
                    # every refinement of a failing partition fails too
                    for ref in one_step_refinements(pi):
                        assert not condition_star(ref, lam)

    def test_sampled_agreement_n7(self):
        rng = random.Random(77)
        pis = list(set_partitions(7))
        sample = rng.sample(pis, 40)
        shapes = [lam for lam in enumerate_partitions(7) if not lam.is_trivial]
        for pi in sample:
            for lam in shapes:
                a = condition_star(pi, lam, "dominance")
                assert a == condition_star(pi, lam, "flow")
                assert a == condition_star(pi, lam, "brute")
                assert a == evaluation_oracle(pi, lam)

    def test_dominance_vs_flow_random(self):
        rng = random.Random(2024)
        for _ in range(10_000):
            m = rng.randint(1, 6)
            counts = [rng.randint(1, 4) for _ in range(m)]
            caps = []
            total = sum(counts)
            while total > 0:
                c = rng.randint(1, min(4, total))
                caps.append(c)
                total -= c
            caps.sort(reverse=True)
            assert placement_feasible_dominance(
                counts, caps
            ) == placement_feasible_flow(counts, caps)


class TestMinimalPrimes:
    def test_two_two(self):
        got = {p.text() for p in minimal_primes(Partition((2, 2)))}
        exp = {p.text() for p in expected_minimal_primes(Partition((2, 2)))}
        assert got == exp and len(got) == 4

    def test_three_two_one(self):
        primes = minimal_primes(Partition((3, 2, 1)))
        by_text = {p.text(): p.height for p in primes}
        assert by_text.get("1,2,3,4|5|6") == 3
        assert by_text.get("1,2,3|4,5,6") == 4

    def test_hook_single_block(self):
        primes = minimal_primes(Partition((4, 1)))
        assert [p.text() for p in primes] == ["1,2,3,4,5"]

    def test_resource_cap(self):
        # one profile, (13, 1^11), with C(24, 13) set partitions: refused
        # from the closed form, before any listing
        with pytest.raises(ResourceLimitError):
            minimal_primes(Partition((12, 12)))

    def test_resource_cap_before_any_enumeration(self):
        # p(80) is about 1.6e7: the profile search refuses at the first
        # profile, (41, 1^39), with C(80, 41) set partitions
        with pytest.raises(ResourceLimitError):
            minimal_primes(Partition((40, 40)))

    @pytest.mark.parametrize("n", range(2, 14))
    def test_profiles_match_definition(self, n):
        # the prefix search against the definition over all p(n) profiles:
        # the coloring condition holds (Gale-Ryser), and fails for every
        # one-step refinement
        def star(mu, lam):
            return not placement_feasible_dominance(mu, lam.conjugate().parts)

        def refinements(mu):
            for j, b in enumerate(mu):
                for a in range(1, b // 2 + 1):
                    yield tuple(sorted(mu[:j] + mu[j + 1:] + (a, b - a), reverse=True))

        for lam in enumerate_partitions(n):
            if lam.is_trivial:
                continue
            found = list(varieties._minimal_profiles(lam))
            assert len(found) == len(set(found)), lam
            expected = {
                mu.parts
                for mu in enumerate_partitions(n)
                if len(mu.parts) < n
                and star(mu.parts, lam)
                and not any(star(r, lam) for r in refinements(mu.parts))
            }
            assert set(found) == expected, lam

    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_bell_definition_in_order(self, n):
        # the definition over every set partition, in the enumeration order
        # the CLI prints
        for lam in enumerate_partitions(n):
            if lam.is_trivial:
                continue
            bell = [
                pi
                for pi in set_partitions(n)
                if condition_star(pi, lam)
                and not any(condition_star(r, lam) for r in one_step_refinements(pi))
            ]
            assert minimal_primes(lam) == bell, lam

    def test_counts_n9(self):
        assert len(minimal_primes(Partition((4, 4, 1)))) == 126
        assert len(minimal_primes(Partition((5, 3, 1)))) == 210

    @pytest.mark.parametrize("n", [8, 9])
    def test_listing_matches_closed_form(self, n):
        # per profile, the listing holds n! / (prod b_i! prod m_k!) set
        # partitions, and nothing of any other profile
        for lam in enumerate_partitions(n):
            if lam.is_trivial:
                continue
            profiles = varieties._minimal_profiles(lam)
            listed = Counter(tuple(p.block_sizes()) for p in minimal_primes(lam))
            assert listed == {mu: varieties._profile_count(mu) for mu in profiles}, lam

    def test_profile_count_small(self):
        assert varieties._profile_count((3, 1)) == 4
        assert varieties._profile_count((2, 2)) == 3
        assert varieties._profile_count((2, 1, 1)) == 6
        assert varieties._profile_count((1, 1, 1, 1)) == 1
        # all profiles of n sum to Bell(n)
        for n, bell in BELL.items():
            total = sum(varieties._profile_count(mu.parts) for mu in enumerate_partitions(n))
            assert total == bell

    @pytest.mark.parametrize("n", range(4, 11))
    def test_top_orbit_when_rows_equal(self, n):
        # next-to-last part equal to lambda_1: the minimal primes are the
        # C(n, lambda_1 + 1) partitions P_F, so e(V) = C(n, lambda_1 + 1)
        for lam in enumerate_partitions(n):
            parts = lam.parts
            if lam.is_trivial or parts[-2] != parts[0]:
                continue
            primes = minimal_primes(lam)
            assert len(primes) == comb(n, parts[0] + 1), lam
            assert {p.height for p in primes} == {parts[0]}, lam
            assert set(primes) == set(expected_minimal_primes(lam)), lam


class TestHeightPurity:
    def test_examples(self):
        rep = height_and_purity(Partition((4, 2, 1)))
        assert rep.height == 4 and not rep.pure
        rep = height_and_purity(Partition((3, 3)))
        assert rep.height == 3 and rep.pure
        rep = height_and_purity(Partition((5, 1, 1)))
        assert rep.height == 5 and rep.pure

    def test_height_is_lambda1_n_le_6(self):
        for n in range(2, 7):
            for lam in enumerate_partitions(n):
                if lam.is_trivial:
                    continue
                rep = height_and_purity(lam)
                assert rep.height == lam.parts[0]
                assert rep.pure == (lam.parts[-2] == lam.parts[0] or lam.parts[1] == 1)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_profiles_match_the_listing(self, n):
        # heights, purity and e(V) read off the profiles equal the
        # listing's, shape by shape
        for lam in enumerate_partitions(n):
            if lam.is_trivial:
                continue
            primes = minimal_primes(lam)
            heights = tuple(sorted({p.height for p in primes}))
            rep = height_and_purity(lam)
            assert (rep.height, rep.pure, rep.heights_seen) == (
                heights[0], len(heights) == 1, heights
            ), lam
            assert rep.top_primes == sum(p.height == lam.parts[0] for p in primes), lam

    def test_no_listing(self, monkeypatch):
        def refuse(shape):
            raise AssertionError("the minimal primes were listed")

        monkeypatch.setattr(varieties, "minimal_primes", refuse)
        rep = height_and_purity(Partition((12, 12)))  # its listing is refused
        assert (rep.height, rep.pure, rep.heights_seen) == (12, True, (12,))
        assert rep.top_primes == comb(24, 13)
        rep = height_and_purity(Partition((4, 2, 1)))
        assert (rep.height, rep.pure, rep.heights_seen) == (4, False, (4, 5))
        assert rep.top_primes == comb(7, 5)

    def test_equal_case_exact_prime_set(self):
        for parts in ((2, 2), (3, 3), (2, 2, 1), (2, 2, 2)):
            lam = Partition(parts)
            got = {p.text() for p in minimal_primes(lam)}
            exp = {p.text() for p in expected_minimal_primes(lam)}
            assert got == exp

    def test_nonpure_two_block_witness_height(self):
        # for (4,2,1): the two-block prime witnessing non-purity has height
        # m(lambda_1 - 1) + lambda_{m+1} = 5 > lambda_1
        lam = Partition((4, 2, 1))
        primes = minimal_primes(lam)
        witness = SetPartition(7, ((1, 2, 3, 4), (5, 6, 7)))
        assert any(p == witness for p in primes)
        assert witness.height == 1 * (4 - 1) + 2
