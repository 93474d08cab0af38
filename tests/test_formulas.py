"""Closed-form values, case dispatch, and lower-bound consistency."""

from itertools import permutations

import pytest

from isopath import (
    HammingSpec,
    InvalidSpecError,
    PartiteSpec,
    ip_hamming2,
    ip_hamming3,
    ip_lower_bound_hamming,
    ip_lower_bound_multipartite,
    ip_multipartite,
)
from isopath.formulas import ceil_div

from conftest import sorted_partitions


class TestOddPartCount:
    @pytest.mark.parametrize(
        "sizes,alpha", [((3, 3, 2), 2), ((5, 1), 2), ((2, 2), 0)]
    )
    def test_examples(self, sizes, alpha):
        assert PartiteSpec(sizes).alpha == alpha


class TestIpComplete:
    # K_n is the complete multipartite graph with n parts of size 1
    @pytest.mark.parametrize("n,value", [(2, 1), (5, 3)])
    def test_examples(self, n, value):
        result = ip_multipartite(PartiteSpec((1,) * n))
        assert (result.value, result.case_tag) == (value, "MANY_ODD")

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidSpecError):
            ip_multipartite(PartiteSpec((1,) * 0))


class TestIpMultipartite:
    @pytest.mark.parametrize(
        "sizes,value,case",
        [
            ((5, 1), 3, "DOMINANT_PART"),
            ((1, 1, 1, 1, 1), 3, "MANY_ODD"),
            ((3, 3, 2), 3, "BALANCED"),
            ((2, 1), 1, "BALANCED"),
        ],
    )
    def test_examples(self, sizes, value, case):
        result = ip_multipartite(PartiteSpec(sizes))
        assert (result.value, result.case_tag) == (value, case)

    def test_rejects_single_part(self):
        with pytest.raises(InvalidSpecError):
            ip_multipartite(PartiteSpec((4,)))

    def test_input_order_does_not_matter(self):
        a = ip_multipartite(PartiteSpec((2, 3, 3)))
        b = ip_multipartite(PartiteSpec((3, 2, 3)))
        assert a.value == b.value and a.case_tag == b.case_tag

    def test_overlapping_cases_agree_up_to_n_30(self):
        # where both the dominant-part and many-odd conditions hold the two
        # closed forms must coincide, otherwise dispatch would be ambiguous
        overlap = 0
        for sizes in sorted_partitions(30):
            spec = PartiteSpec(sizes)
            n, n1, alpha = spec.n, spec.sizes[0], spec.alpha
            if 3 * n1 > 2 * n and 3 * alpha > n:
                overlap += 1
                assert ceil_div(n1, 2) == ceil_div(n + alpha, 4), sizes
                # and dispatch must return without raising
                ip_multipartite(spec)
        assert overlap > 0  # the region is not empty, e.g. (3, 1)

    def test_cases_overlap_exactly_on_an_odd_part_and_ones(self):
        # both conditions hold iff the sizes are (2k+1, 1, ..., 1) with k ones
        overlap = 0
        for sizes in sorted_partitions(40):
            spec = PartiteSpec(sizes)
            n, n1, alpha = spec.n, spec.sizes[0], spec.alpha
            k = n1 // 2
            shape = n1 % 2 == 1 and k >= 1 and spec.sizes == (n1,) + (1,) * k
            assert (3 * n1 > 2 * n and 3 * alpha > n) == shape, sizes
            if shape:
                overlap += 1
                result = ip_multipartite(spec)
                assert (result.value, result.case_tag) == (k + 1, "DOMINANT_PART")
        assert overlap == 13

    def test_lower_bound_respected_with_equality_iff_balanced(self):
        for sizes in sorted_partitions(14):
            spec = PartiteSpec(sizes)
            result = ip_multipartite(spec)
            bound = ip_lower_bound_multipartite(spec)
            assert result.value >= bound
            if result.case_tag == "BALANCED":
                assert result.value == bound

    def test_dominant_value_consistency(self):
        for sizes in sorted_partitions(14):
            spec = PartiteSpec(sizes)
            n, n1 = spec.n, spec.sizes[0]
            if 3 * n1 > 2 * n:
                assert ceil_div(n1, 2) >= ceil_div(n, 3)


class TestIpHamming2:
    @pytest.mark.parametrize("pair,value", [((3, 3), 3), ((2, 4), 3), ((5, 5), 9)])
    def test_examples(self, pair, value):
        result = ip_hamming2(*pair)
        assert result.value == value
        assert result.case_tag == "HAMMING2"

    def test_rejects_small_factor(self):
        with pytest.raises(InvalidSpecError):
            ip_hamming2(1, 3)

    @pytest.mark.parametrize("factors", [(2.5, 3), (3, 2.5), ("x", 3)])
    def test_rejects_non_integer_factors(self, factors):
        # int would truncate 2.5 and raise a bare ValueError on "x"
        with pytest.raises(InvalidSpecError, match="factors must be integers"):
            ip_hamming2(*factors)


class TestIpHamming3:
    @pytest.mark.parametrize(
        "triple,value,case",
        [
            ((2, 2, 3), 4, "HAMMING3_EXCEPTIONAL"),
            ((2, 3, 2), 4, "HAMMING3_EXCEPTIONAL"),
            ((4, 4, 4), 16, "HAMMING3_MAIN"),
            ((3, 3, 3), 7, "HAMMING3_MAIN"),
            ((2, 2, 2), 2, "HAMMING3_MAIN"),
        ],
    )
    def test_examples(self, triple, value, case):
        result = ip_hamming3(*triple)
        assert (result.value, result.case_tag) == (value, case)

    def test_permutation_invariance(self):
        for triple in ((2, 2, 5), (2, 3, 4), (3, 4, 5), (2, 2, 2)):
            values = {ip_hamming3(*p).value for p in permutations(triple)}
            cases = {ip_hamming3(*p).case_tag for p in permutations(triple)}
            assert len(values) == 1 and len(cases) == 1

    def test_all_even_has_no_ceiling_slack(self):
        for a in range(2, 9, 2):
            for b in range(2, 9, 2):
                for c in range(2, 9, 2):
                    assert ip_hamming3(a, b, c).value * 4 == a * b * c

    def test_rejects_small_factor(self):
        with pytest.raises(InvalidSpecError):
            ip_hamming3(2, 1, 3)

    @pytest.mark.parametrize("factors", [(2.5, 2, 3), (2, 2, 2.5), ("x", 2, 3)])
    def test_rejects_non_integer_factors(self, factors):
        with pytest.raises(InvalidSpecError, match="factors must be integers"):
            ip_hamming3(*factors)


class TestLowerBounds:
    @pytest.mark.parametrize(
        "factors,value", [((2, 2, 2), 2), ((2, 2, 3), 3), ((3, 3), 3)]
    )
    def test_hamming_bound_examples(self, factors, value):
        assert ip_lower_bound_hamming(HammingSpec(factors)) == value

    def test_exceptional_case_exceeds_the_bound(self):
        assert ip_hamming3(2, 2, 3).value == 4 > 3 == ip_lower_bound_hamming(
            HammingSpec((2, 2, 3))
        )

    @pytest.mark.parametrize("sizes,value", [((2, 2), 2), ((3, 3, 2), 3), ((5, 1), 2)])
    def test_multipartite_bound_examples(self, sizes, value):
        assert ip_lower_bound_multipartite(PartiteSpec(sizes)) == value

    def test_multipartite_bound_rejects_a_single_part(self):
        with pytest.raises(InvalidSpecError):
            ip_lower_bound_multipartite(PartiteSpec((5,)))

    def test_dominant_case_exceeds_the_bound(self):
        assert ip_multipartite(PartiteSpec((5, 1))).value == 3 > 2
