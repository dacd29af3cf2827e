"""Systematic Reed–Solomon erasure coding over GF(256).

The forward-error-correction building block the paper points at (§2, citing
RFC 3452): for every ``k`` data blocks, ``m`` parity blocks are generated
such that *any* ``k`` of the ``k+m`` blocks reconstruct the data.

Construction: generator matrix ``[I | C]`` with ``C`` a Cauchy matrix —
every square submatrix of a Cauchy matrix over a field is invertible, which
makes the code MDS (maximum distance separable): up to ``m`` erasures are
always recoverable.

Pure-Python GF(256) arithmetic with exp/log tables (polynomial 0x11d, the
conventional choice).  A block is never walked byte by byte: scaling it by
a coefficient is one ``bytes.translate`` over that coefficient's 256-entry
product table, and adding blocks is one XOR of the integers they spell.
"""

from __future__ import annotations

from typing import Optional, Sequence

_PRIMITIVE_POLY = 0x11D

# --- field tables ------------------------------------------------------------

_EXP = [0] * 512
_LOG = [0] * 256
_value = 1
for _power in range(255):
    _EXP[_power] = _value
    _LOG[_value] = _power
    _value <<= 1
    if _value & 0x100:
        _value ^= _PRIMITIVE_POLY
for _power in range(255, 512):
    _EXP[_power] = _EXP[_power - 255]


def gf_mul(a: int, b: int) -> int:
    """Multiply in GF(256)."""
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def gf_inv(a: int) -> int:
    """Multiplicative inverse in GF(256)."""
    if a == 0:
        raise ZeroDivisionError("GF(256) inverse of zero")
    return _EXP[255 - _LOG[a]]


def gf_div(a: int, b: int) -> int:
    """Divide in GF(256)."""
    return gf_mul(a, gf_inv(b))


#: Product tables by coefficient, built on first use.
_MUL_TABLES: dict[int, bytes] = {}


def _scale(block: bytes, coefficient: int) -> bytes:
    """``block`` with every byte multiplied by ``coefficient``."""
    table = _MUL_TABLES.get(coefficient)
    if table is None:
        table = _MUL_TABLES[coefficient] = bytes(
            gf_mul(coefficient, byte) for byte in range(256))
    return block.translate(table)


# --- code construction ----------------------------------------------------------


def cauchy_matrix(k: int, m: int) -> list[list[int]]:
    """The ``k × m`` Cauchy parity matrix ``C[i][j] = 1 / (x_i ⊕ y_j)``.

    Evaluation points ``x_i = i`` and ``y_j = k + j`` are pairwise distinct
    for ``k + m <= 256``.
    """
    if k < 1 or m < 0 or k + m > 256:
        raise ValueError(f"unsupported code parameters k={k}, m={m}")
    return [[gf_inv(i ^ (k + j)) for j in range(m)] for i in range(k)]


def _pad(blocks: Sequence[bytes]) -> tuple[list[bytes], int]:
    width = max((len(block) for block in blocks), default=0)
    return [block.ljust(width, b"\0") for block in blocks], width


def rs_encode(data_blocks: Sequence[bytes], m: int) -> list[bytes]:
    """Compute ``m`` parity blocks over ``data_blocks`` (padded internally).

    Returns parity blocks of length ``max(len(block))``.
    """
    k = len(data_blocks)
    matrix = cauchy_matrix(k, m)
    padded, width = _pad(data_blocks)
    parities = []
    for j in range(m):
        parity = 0
        for i, block in enumerate(padded):
            coefficient = matrix[i][j]
            if coefficient:
                parity ^= int.from_bytes(_scale(block, coefficient), "big")
        parities.append(parity.to_bytes(width, "big"))
    return parities


def rs_decode(pieces: dict[int, bytes], k: int, m: int,
              lengths: Optional[Sequence[int]] = None) -> list[bytes]:
    """Reconstruct the ``k`` data blocks from any ``k`` surviving pieces.

    Args:
        pieces: mapping piece index → bytes.  Indices ``0..k-1`` are data
            blocks, ``k..k+m-1`` parity blocks.  At least ``k`` distinct
            pieces must be present.
        k, m: code parameters used at encode time.
        lengths: original data block lengths (for padding removal); when
            omitted, padded blocks are returned.

    Raises:
        ValueError: when fewer than ``k`` pieces survive, or indices are out
            of range.
    """
    for index in pieces:
        if not 0 <= index < k + m:
            raise ValueError(f"piece index {index} out of range")
    erased = [i for i in range(k) if i not in pieces]
    available_parity = [j for j in range(m) if (k + j) in pieces]
    if len(erased) > len(available_parity):
        raise ValueError(
            f"unrecoverable: {len(erased)} data blocks erased but only "
            f"{len(available_parity)} parity blocks survive")
    matrix = cauchy_matrix(k, m)
    present, width = _pad([pieces[i] for i in sorted(pieces)])
    by_index = dict(zip(sorted(pieces), present))
    data: list[Optional[bytes]] = [by_index.get(i) for i in range(k)]
    if erased:
        data = _solve_erasures(data, erased, available_parity[:len(erased)],
                               by_index, matrix, k, width)
    blocks = [block if block is not None else b"" for block in data]
    if lengths is not None:
        blocks = [block[:length] for block, length in zip(blocks, lengths)]
    return blocks


def _solve_erasures(data: list[Optional[bytes]], erased: list[int],
                    parity_rows: list[int], by_index: dict[int, bytes],
                    matrix: list[list[int]], k: int,
                    width: int) -> list[Optional[bytes]]:
    """Gaussian elimination for the erased positions, a whole block per step."""
    e = len(erased)
    # Right-hand side: parity bytes minus contributions of surviving data.
    rhs = []
    for j in parity_rows:
        adjusted = int.from_bytes(by_index[k + j], "big")
        for i in range(k):
            block = data[i]
            if block is None or i in erased:
                continue
            coefficient = matrix[i][j]
            if coefficient:
                adjusted ^= int.from_bytes(_scale(block, coefficient), "big")
        rhs.append(adjusted.to_bytes(width, "big"))
    # Coefficient matrix rows: parity j, columns: erased data i.
    coeffs = [[matrix[i][j] for i in erased] for j in parity_rows]
    solution = _gaussian_solve(coeffs, rhs, e, width)
    for position, block in zip(erased, solution):
        data[position] = block
    return data


def _gaussian_solve(coeffs: list[list[int]], rhs: list[bytes],
                    e: int, width: int) -> list[bytes]:
    """Solve ``coeffs · x = rhs`` over GF(256) for byte-vector unknowns."""
    a = [row[:] for row in coeffs]
    b = list(rhs)
    for col in range(e):
        pivot_row = next(row for row in range(col, e) if a[row][col] != 0)
        a[col], a[pivot_row] = a[pivot_row], a[col]
        b[col], b[pivot_row] = b[pivot_row], b[col]
        inverse = gf_inv(a[col][col])
        a[col] = [gf_mul(value, inverse) for value in a[col]]
        b[col] = _scale(b[col], inverse)
        for row in range(e):
            if row == col or a[row][col] == 0:
                continue
            factor = a[row][col]
            a[row] = [a[row][i] ^ gf_mul(factor, a[col][i])
                      for i in range(e)]
            b[row] = (int.from_bytes(b[row], "big") ^ int.from_bytes(
                _scale(b[col], factor), "big")).to_bytes(width, "big")
    return b
