"""GF(2) substrate: rank, kernels, code enumeration, cosets, universality."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_rank, brute_row_spaces
from paritylp.errors import BudgetError, RankDeficientError
from paritylp.f2lin import (
    F2Matrix,
    ParityCode,
    all_vectors,
    char_sum,
    codes_of_rank,
    coset_table,
    dot,
    dual_cosets,
    enumerate_all_codes,
    enumerate_codes,
    enumerate_identity_rows,
    gaussian_binomial,
    hamming_weight,
    identity,
    is_universal,
    kernel_generator,
    rank,
    rref,
    uncovered_affine_subspaces,
    vec_from_str,
    vec_str,
)


def mat(*rows: str) -> F2Matrix:
    return F2Matrix.from_strings(list(rows))


class TestRank:
    def test_identity(self):
        assert rank(identity(3)) == 3

    def test_duplicate_rows(self):
        assert rank(mat("11", "11")) == 1

    def test_zero_matrix(self):
        assert rank(F2Matrix(3, (0, 0))) == 0

    def test_empty(self):
        assert rank(F2Matrix(3, ())) == 0

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=60)
    def test_matches_span_size(self, n, data):
        n_rows = data.draw(st.integers(0, 4))
        rows = tuple(
            data.draw(st.integers(0, (1 << n) - 1)) for _ in range(n_rows)
        )
        m = F2Matrix(n, rows)
        assert rank(m) == brute_rank(m)


class TestKernel:
    def test_single_parity(self):
        g = kernel_generator(mat("10"))
        assert g.rows == (vec_from_str("01"),)

    def test_self_dual_line(self):
        g = kernel_generator(mat("11"))
        assert g.rows == (vec_from_str("11"),)

    def test_empty_parity_gives_identity(self):
        g = kernel_generator(F2Matrix(2, ()))
        assert g == identity(2)

    def test_full_parity_gives_empty(self):
        g = kernel_generator(identity(3))
        assert not g.rows

    def test_rejects_rank_deficient(self):
        with pytest.raises(RankDeficientError):
            kernel_generator(mat("11", "11"))

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=60)
    def test_orthogonality_and_rank_split(self, n, data):
        k = data.draw(st.integers(0, n))
        codes = enumerate_codes(n, k)
        code = codes[data.draw(st.integers(0, len(codes) - 1))]
        assert all(dot(h, g) == 0 for h in code.H.rows for g in code.G.rows)
        assert rank(code.H) + rank(code.G) == n


class TestEnumerateCodes:
    @pytest.mark.parametrize("n,k,count", [(2, 1, 3), (3, 1, 7), (3, 0, 1)])
    def test_known_counts(self, n, k, count):
        assert len(enumerate_codes(n, k)) == count
        assert gaussian_binomial(n, k) == count

    @pytest.mark.parametrize("n", range(1, 5))
    def test_matches_bruteforce_row_spaces(self, n):
        for k in range(n + 1):
            codes = enumerate_codes(n, k)
            spaces = {frozenset(c.H.row_space()) for c in codes}
            assert len(spaces) == len(codes)
            if n * k <= 12:
                assert spaces == brute_row_spaces(n, k)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_counts_match_gaussian_binomial(self, n):
        for k in range(n + 1):
            assert len(enumerate_codes(n, k)) == gaussian_binomial(n, k)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_codes_of_rank_slice_the_table(self, n):
        table = enumerate_all_codes(n)
        for k in range(n + 1):
            codes = codes_of_rank(n, k)
            assert list(codes) == enumerate_codes(n, k)
            assert all(any(c is t for t in table) for c in codes)

    def test_canonical_rref(self):
        for code in enumerate_codes(4, 2):
            reduced, _ = rref(code.H)
            assert reduced == code.H

    def test_budget(self):
        with pytest.raises(BudgetError):
            enumerate_codes(9, 2)

    def test_from_matrix_canonicalizes(self):
        a = ParityCode.from_matrix(mat("110", "011"))
        b = ParityCode.from_matrix(mat("101", "011"))
        assert a == b


class TestIdentityRows:
    def test_e_1_2(self):
        mats = enumerate_identity_rows(2, 1)
        assert [m.rows for m in mats] == [(1,), (2,)]

    def test_sizes(self):
        assert len(enumerate_identity_rows(3, 2)) == 3
        assert len(enumerate_identity_rows(5, 0)) == 1

    def test_rows_increasing(self):
        for m in enumerate_identity_rows(5, 3):
            assert list(m.rows) == sorted(m.rows)


class TestDualCosets:
    def test_single_parity_bit(self):
        code = ParityCode.from_matrix(mat("10"))
        cos = dual_cosets(code)
        assert cos[0].tolist() == [0, 1]
        assert cos[1].tolist() == [2, 3]
        assert code.leaders[0, 1] == 2 and code.leaders[1, 1] == 3
        assert np.array_equal(code.cosets, cos)

    def test_tie_break_smallest_integer(self):
        # D(1) of the xor parity is {01, 10}, both weight 1; the smaller
        # integer encoding (coordinate string 10) wins.
        code = ParityCode.from_matrix(mat("11"))
        assert set(code.cosets[1].tolist()) == {1, 2}
        assert code.leaders[0, 1] == 1
        assert vec_str(int(code.leaders[0, 1]), 2) == "10"

    def test_rank_zero_singletons(self):
        cos = ParityCode.bottom(2).cosets
        assert all(tuple(cos[s].tolist()) == (s,) for s in range(4))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_partition_properties(self, n):
        for k in range(n + 1):
            for code in enumerate_codes(n, k):
                cos = code.cosets
                seen = sorted(x for s in range(len(cos))
                              for x in cos[s].tolist())
                assert seen == list(all_vectors(n))
                assert all(len(cos[s]) == 1 << k
                           for s in range(len(cos)))

    def test_identity_row_leader_closed_form(self):
        # For a row-subset of the identity, the min leader is zero on the
        # selected coordinates and carries the syndrome on the rest.
        n = 4
        for k in range(n + 1):
            for m in enumerate_identity_rows(n, k):
                code = ParityCode.from_matrix(m)
                selected = set()
                for r in m.rows:
                    selected.add(r.bit_length() - 1)
                rest = [j for j in range(n) if j not in selected]
                for s in range(len(code.cosets)):
                    expected = 0
                    for pos, j in enumerate(rest):
                        if (s >> pos) & 1:
                            expected |= 1 << j
                    assert code.leaders[0, s] == expected


def bucket_cosets(code):
    """dual_cosets as a walk: each vector to the bucket of its syndrome, and
    the leaders by the smallest (weight, encoding) and (-weight, encoding)."""
    buckets = [[] for _ in range(1 << (code.n - code.k))]
    for x in all_vectors(code.n):
        buckets[code.G.mul_vec(x)].append(x)
    return (tuple(map(tuple, buckets)),
            tuple(min(b, key=lambda v: (hamming_weight(v), v)) for b in buckets),
            tuple(min(b, key=lambda v: (-hamming_weight(v), v)) for b in buckets))


def as_buckets(members, leaders):
    """Coset and leader arrays in the tuple form of bucket_cosets."""
    return (tuple(map(tuple, members.tolist())), *map(tuple, leaders.tolist()))


class TestCosetTable:
    """The per-n table and dual_cosets against the bucket walk."""

    @pytest.mark.parametrize("n", range(7))
    def test_matches_bucket_walk(self, n):
        table = coset_table(n)
        assert len(table.members) == len(table.syndromes) == n + 1
        assert len(table.keys) == sum(gaussian_binomial(n, k) << (n - k) for k in range(n + 1))
        # end to end, coset j is keys[j] and its members follow one another
        walk = [(code, s, members) for code in enumerate_all_codes(n)
                for s, members in enumerate(bucket_cosets(code)[0])]
        assert list(table.keys) == [(code, s) for code, s, _ in walk]
        assert table.ranks.tolist() == [code.k for code, _, _ in walk]
        assert [tuple(table.entries[start:start + (1 << k)].tolist()) for start, k
                in zip(table.starts.tolist(), table.ranks.tolist())] == [m for _, _, m in walk]
        assert len(table.entries) == table.starts[-1] + (1 << n)
        for k in range(n + 1):
            codes = codes_of_rank(n, k)
            members, syndromes = table.members[k], table.syndromes[k]
            assert members.shape == (len(codes), 1 << (n - k), 1 << k)
            assert syndromes.shape == (len(codes), 1 << n)
            # each member of coset s has syndrome s
            at_members = np.take_along_axis(syndromes, members.reshape(len(codes), -1), 1)
            assert (at_members.reshape(members.shape)
                    == np.arange(1 << (n - k))[:, None]).all()
            for code, row in zip(codes, members.tolist()):
                walk = bucket_cosets(code)
                assert tuple(map(tuple, row)) == walk[0]
                assert as_buckets(dual_cosets(code), code.leaders) == walk

    def test_single_code_at_n8(self):
        rng = random.Random("cosets/8")
        while rank(m := F2Matrix(8, tuple(rng.randrange(1, 256) for _ in range(3)))) < 3:
            pass
        code = ParityCode.from_matrix(m)
        cos = dual_cosets(code)
        assert as_buckets(cos, code.leaders) == bucket_cosets(code)
        assert np.array_equal(code.cosets, cos)
        for array in (cos, code.cosets, code.leaders):
            assert np.issubdtype(array.dtype, np.integer)
            assert array.flags.writeable is False

    def test_code_cosets_are_table_rows(self):
        table = coset_table(5)
        for k, codes in enumerate(table.codes):
            for code, members in zip(codes, table.members[k]):
                assert np.array_equal(code.cosets, members)

    def test_budget_refusal_builds_no_table(self, monkeypatch):
        import paritylp.f2lin as f2lin

        monkeypatch.setattr(f2lin, "coset_table", None)
        with pytest.raises(BudgetError):
            uncovered_affine_subspaces({0}, 1, 7)

    def test_dual_cosets_builds_no_table(self, monkeypatch):
        import paritylp.f2lin as f2lin

        monkeypatch.setattr(f2lin, "coset_table", None)
        assert dual_cosets(ParityCode.from_matrix(mat("1100110", "0101011"))).shape == (32, 4)


class TestCharSum:
    def test_dual_member(self):
        assert char_sum(mat("11"), vec_from_str("11")) == 2

    def test_non_dual_member(self):
        assert char_sum(mat("11"), vec_from_str("10")) == 0

    def test_full_space(self):
        assert char_sum(identity(2), vec_from_str("01")) == 0

    @pytest.mark.parametrize("n", range(1, 5))
    def test_all_subspaces_all_vectors(self, n):
        for k in range(n + 1):
            for code in enumerate_codes(n, k):
                gen = code.H
                size = 1 << rank(gen)
                for v in all_vectors(n):
                    expected = size if all(dot(v, r) == 0 for r in gen.rows) else 0
                    assert char_sum(gen, v) == expected


class TestUniversal:
    def test_three_of_four_is_1_universal(self):
        assert is_universal({0, 1, 2}, 1, 2)

    def test_missing_line(self):
        # {00, 01} misses the affine line {10, 11}.
        u = {vec_from_str("00"), vec_from_str("01")}
        assert not is_universal(u, 1, 2)

    def test_whole_space(self):
        for tau in (1, 2, 3):
            assert is_universal(set(all_vectors(3)), tau, 3)

    def test_budget(self):
        with pytest.raises(BudgetError):
            is_universal({0}, 1, 7)

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_complement_equivalence(self, n, data):
        tau = data.draw(st.integers(1, n))
        u = {
            v for v in all_vectors(n) if data.draw(st.booleans())
        }
        complement = set(all_vectors(n)) - u
        # U universal iff the complement contains no affine tau-subspace.
        contains = any(
            set(code.cosets[s].tolist()) <= complement
            for code in enumerate_codes(n, tau)
            for s in range(1 << (n - tau))
        )
        assert is_universal(u, tau, n) == (not contains)

    @pytest.mark.parametrize("tau", range(1, 7))
    def test_at_the_cap_against_brute_force(self, tau):
        # n = UNIVERSAL_MAX_N: a disjoint tau-subspace lies in the complement,
        # so it is t + rowspace(H) for some t there
        n = 6
        rng = random.Random(f"universal/{tau}")
        for size in (rng.randint(30, 44), 64 - (1 << (tau - 1)) - rng.randint(0, 2)):
            u = set(rng.sample(range(1 << n), size))
            complement = set(all_vectors(n)) - u
            want = []
            for code in codes_of_rank(n, tau):
                span = code.H.row_space()
                want += [(code, s) for s in sorted({
                    code.G.mul_vec(t) for t in complement
                    if all(t ^ v in complement for v in span)})]
            assert uncovered_affine_subspaces(u, tau, n) == want
            assert is_universal(u, tau, n) == (not want)

    def test_uncovered_listing(self):
        missed = uncovered_affine_subspaces({0, 1}, 1, 2)
        assert len(missed) == 1
        code, s = missed[0]
        assert set(code.cosets[s].tolist()) == {2, 3}


class TestVecStrings:
    @given(st.integers(1, 8), st.data())
    @settings(max_examples=30)
    def test_roundtrip(self, n, data):
        v = data.draw(st.integers(0, (1 << n) - 1))
        assert vec_from_str(vec_str(v, n)) == v

    def test_coordinate_order(self):
        # coordinate 1 is the least-significant bit
        assert vec_from_str("10") == 1
        assert vec_from_str("01") == 2
        assert hamming_weight(vec_from_str("0111")) == 3


class TestCachedKeys:
    """The cached hash, label and sort key of a code agree with the dataclass."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_code_table(self, n):
        table = enumerate_all_codes(n)
        assert sorted(table, key=lambda code: code.sort_key) == sorted(table)
        for code in table:
            rows = code.H.rows
            # row 0 added to every other row, then reversed: no longer reduced
            # once k >= 2, with the same row space
            m = F2Matrix(n, tuple(reversed(rows[:1] + tuple(r ^ rows[0] for r in rows[1:]))))
            assert code.k < 2 or rref(m)[0] != m
            fresh = ParityCode.from_matrix(m)
            assert fresh is not code and fresh == code
            assert hash(fresh) == hash(code) == hash((code.n, code.k, code.H))
            assert {code: 1}[fresh] == 1
            want = "bottom" if code.k == 0 else \
                "H[" + ";".join(vec_str(r, n) for r in rows) + "]"
            assert fresh.label() == code.label() == want
