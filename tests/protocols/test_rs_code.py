"""Property-based tests for the GF(256) Reed–Solomon erasure code."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols.rs_code import (cauchy_matrix, gf_div, gf_inv, gf_mul,
                                     rs_decode, rs_encode)

byte = st.integers(min_value=0, max_value=255)
nonzero_byte = st.integers(min_value=1, max_value=255)


class TestFieldArithmetic:
    @given(byte, byte, byte)
    def test_multiplication_associative(self, a, b, c):
        assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))

    @given(byte, byte)
    def test_multiplication_commutative(self, a, b):
        assert gf_mul(a, b) == gf_mul(b, a)

    @given(byte)
    def test_one_is_identity(self, a):
        assert gf_mul(a, 1) == a

    @given(byte)
    def test_zero_annihilates(self, a):
        assert gf_mul(a, 0) == 0

    @given(nonzero_byte)
    def test_inverse(self, a):
        assert gf_mul(a, gf_inv(a)) == 1

    @given(byte, nonzero_byte)
    def test_div_inverts_mul(self, a, b):
        assert gf_div(gf_mul(a, b), b) == a

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            gf_inv(0)

    @given(byte, byte, byte)
    def test_distributive_over_xor(self, a, b, c):
        """XOR is addition in GF(2^8); multiplication distributes over it."""
        assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)


class TestCauchyMatrix:
    def test_dimensions(self):
        matrix = cauchy_matrix(4, 3)
        assert len(matrix) == 4 and all(len(row) == 3 for row in matrix)

    def test_entries_nonzero(self):
        matrix = cauchy_matrix(8, 4)
        assert all(entry != 0 for row in matrix for entry in row)

    def test_parameter_bounds(self):
        with pytest.raises(ValueError):
            cauchy_matrix(200, 100)  # k + m > 256
        with pytest.raises(ValueError):
            cauchy_matrix(0, 3)


class TestEncodeDecode:
    def test_no_erasures_round_trip(self):
        data = [b"alpha", b"bravo", b"charlie"]
        parities = rs_encode(data, 2)
        pieces = {i: block for i, block in enumerate(data)}
        assert rs_decode(pieces, 3, 2, [5, 5, 7]) == data

    def test_single_erasure_recovered(self):
        data = [b"one", b"two", b"three", b"four"]
        parities = rs_encode(data, 2)
        pieces = {0: data[0], 2: data[2], 3: data[3],
                  4: parities[0]}
        lengths = [len(block) for block in data]
        assert rs_decode(pieces, 4, 2, lengths) == data

    def test_max_erasures_recovered(self):
        data = [b"aaaa", b"bbbb", b"cccc"]
        parities = rs_encode(data, 3)
        pieces = {3: parities[0], 4: parities[1], 5: parities[2]}
        assert rs_decode(pieces, 3, 3, [4, 4, 4]) == data

    def test_too_many_erasures_rejected(self):
        data = [b"x", b"y", b"z"]
        parities = rs_encode(data, 1)
        pieces = {0: data[0], 3: parities[0]}  # two data blocks missing
        with pytest.raises(ValueError, match="unrecoverable"):
            rs_decode(pieces, 3, 1, [1, 1, 1])

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            rs_decode({9: b"x"}, 3, 2)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(st.binary(min_size=0, max_size=40), min_size=1,
                      max_size=10),
        m=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_any_k_pieces_reconstruct(self, data, m, seed):
        """MDS property: any k of the k+m pieces reconstruct the data."""
        import random
        k = len(data)
        parities = rs_encode(data, m)
        all_pieces = {i: block for i, block in enumerate(data)}
        all_pieces.update({k + j: parity for j, parity in enumerate(parities)})
        rng = random.Random(seed)
        erased = rng.sample(range(k + m), k=min(m, k + m))
        surviving = {i: p for i, p in all_pieces.items() if i not in erased}
        lengths = [len(block) for block in data]
        assert rs_decode(surviving, k, m, lengths) == data

    @settings(max_examples=30, deadline=None)
    @given(data=st.lists(st.binary(min_size=1, max_size=20), min_size=2,
                         max_size=6))
    def test_parity_blocks_padded_to_widest(self, data):
        parities = rs_encode(data, 2)
        widest = max(len(block) for block in data)
        assert all(len(parity) == widest for parity in parities)


# -- the byte-loop reference -----------------------------------------------------
#
# The coder as it was written first, one GF(256) product per byte: the
# table-driven coder must produce the same parities and the same recovered
# blocks.


def _reference_encode(data, m):
    k = len(data)
    matrix = cauchy_matrix(k, m)
    width = max(len(block) for block in data)
    padded = [block.ljust(width, b"\0") for block in data]
    parities = []
    for j in range(m):
        parity = bytearray(width)
        for i, block in enumerate(padded):
            for offset, value in enumerate(block):
                if value:
                    parity[offset] ^= gf_mul(matrix[i][j], value)
        parities.append(bytes(parity))
    return parities


def _reference_decode(pieces, k, m, lengths):
    matrix = cauchy_matrix(k, m)
    width = max(len(piece) for piece in pieces.values())
    by_index = {i: piece.ljust(width, b"\0") for i, piece in pieces.items()}
    erased = [i for i in range(k) if i not in by_index]
    rows = [j for j in range(m) if k + j in by_index][:len(erased)]
    rhs = []
    for j in rows:
        adjusted = bytearray(by_index[k + j])
        for i in range(k):
            if i in by_index:
                for offset in range(width):
                    adjusted[offset] ^= gf_mul(matrix[i][j],
                                               by_index[i][offset])
        rhs.append(adjusted)
    a = [[matrix[i][j] for i in erased] for j in rows]
    e = len(erased)
    for col in range(e):
        pivot = next(row for row in range(col, e) if a[row][col])
        a[col], a[pivot] = a[pivot], a[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        inverse = gf_inv(a[col][col])
        a[col] = [gf_mul(value, inverse) for value in a[col]]
        rhs[col] = bytearray(gf_mul(value, inverse) for value in rhs[col])
        for row in range(e):
            if row != col and a[row][col]:
                factor = a[row][col]
                a[row] = [a[row][i] ^ gf_mul(factor, a[col][i])
                          for i in range(e)]
                for offset in range(width):
                    rhs[row][offset] ^= gf_mul(factor, rhs[col][offset])
    for position, block in zip(erased, rhs):
        by_index[position] = bytes(block)
    return [by_index[i][:length] for i, length in enumerate(lengths)]


class TestAgainstTheByteLoop:
    def test_k8_m2_every_erasure_pattern(self):
        import itertools
        import random
        rng = random.Random(8)
        k, m = 8, 2
        for _ in range(3):
            data = [rng.randbytes(rng.randint(0, 60)) for _ in range(k)]
            data[0] = rng.randbytes(60)  # the block width, never zero
            parities = rs_encode(data, m)
            assert parities == _reference_encode(data, m)
            pieces = dict(enumerate(data + parities))
            lengths = [len(block) for block in data]
            for count in range(m + 1):
                for erased in itertools.combinations(range(k + m), count):
                    surviving = {i: piece for i, piece in pieces.items()
                                 if i not in erased}
                    recovered = rs_decode(surviving, k, m, lengths)
                    assert recovered == data
                    assert recovered == _reference_decode(surviving, k, m,
                                                          lengths)
