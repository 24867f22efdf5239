import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listlbm import (
    LexBlocked,
    Morton,
    ParameterError,
    cell_index,
    parse_scheme,
    scheme_text,
)
from conftest import ALL_SCHEMES, SCHEME_IDS


def all_indices(scheme, dims):
    """Index of every cell, shaped (Z, Y, X)."""
    X, Y, Z = dims
    x = np.arange(X)[None, None, :]
    y = np.arange(Y)[None, :, None]
    z = np.arange(Z)[:, None, None]
    return cell_index(scheme, x, y, z, dims)


class TestSchemeText:
    @pytest.mark.parametrize("text,scheme", [
        ("lex:b=1", LexBlocked(1)),
        ("lex:b=100", LexBlocked(100)),
        ("morton:g=1", Morton(1)),
        ("morton:g=2", Morton(2)),
        ("lex:b=9223372036854775807", LexBlocked(2**63 - 1)),
    ])
    def test_round_trip(self, text, scheme):
        assert parse_scheme(text) == scheme
        assert scheme_text(scheme) == text
        assert parse_scheme(scheme_text(scheme)) == scheme

    @pytest.mark.parametrize("bad", [
        "", "lex", "lex:b=0", "lex:b=-3", "lex:b=x", "lex:c=1",
        "morton:g=0", "morton:g=3", "morton:g=", "hilbert:b=1",
        "lex:b=1 ", "LEX:b=1", "lex:b=007", "lex:b=9223372036854775808",
        "lex:b=99999999999999999999",
        "lex:b=\u0661",  # ARABIC-INDIC DIGIT ONE: str.isdigit() accepts it
        pytest.param("lex:b=" + "9" * 5000, id="lex:b=9x5000"),  # past int()'s digit limit
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ParameterError):
            parse_scheme(bad)

    def test_error_names_offending_token(self):
        with pytest.raises(ParameterError, match="'3'"):
            parse_scheme("morton:g=3")
        with pytest.raises(ParameterError, match="'hilbert'"):
            parse_scheme("hilbert:b=1")

    def test_constructor_validates(self):
        with pytest.raises(ParameterError):
            LexBlocked(0)
        with pytest.raises(ParameterError):
            Morton(3)


class TestWorkedValues:
    def test_plain_row_major(self):
        assert int(cell_index(LexBlocked(1), 1, 2, 3, (4, 4, 4))) == 1 + 2 * 4 + 3 * 16

    def test_morton_single_bit(self):
        assert int(cell_index(Morton(1), 2, 3, 1, (4, 4, 4))) == 30

    def test_morton_two_bit_groups(self):
        assert int(cell_index(Morton(2), 5, 2, 7, (8, 8, 8))) == 1145

    def test_blocked_traversal_order(self):
        # b=2 on a 4x2x1 domain: two 2x2 blocks, x fastest inside a block
        dims = (4, 2, 1)
        order = sorted(
            ((x, y) for x in range(4) for y in range(2)),
            key=lambda c: int(cell_index(LexBlocked(2), c[0], c[1], 0, dims)),
        )
        assert order == [(0, 0), (1, 0), (0, 1), (1, 1),
                         (2, 0), (3, 0), (2, 1), (3, 1)]
        assert_gapless = all_indices(LexBlocked(2), dims).ravel()
        assert sorted(assert_gapless) == list(range(8))
        assert int(cell_index(LexBlocked(2), 2, 1, 0, dims)) == 6


def lex_closed_form(b, x, y, z, dims):
    """Blocked lex code of one cell in Python integers: the cells of the
    blocks before its block, whose edge blocks keep their truncated
    widths, then its rank inside its own block."""
    X, Y, Z = dims
    bx, by, bz = x // b, y // b, z // b
    wx, wy, wz = min(b, X - bx * b), min(b, Y - by * b), min(b, Z - bz * b)
    before = bz * b * X * Y + wz * by * b * X + wz * wy * bx * b
    return before + (z % b) * wy * wx + (y % b) * wx + x % b


class TestLexProperties:
    @pytest.mark.parametrize("dims", [(6, 5, 4), (1, 1, 1), (7, 3, 2)])
    def test_b1_is_row_major(self, dims):
        X, Y, Z = dims
        idx = all_indices(LexBlocked(1), dims)
        x = np.arange(X)[None, None, :]
        y = np.arange(Y)[None, :, None]
        z = np.arange(Z)[:, None, None]
        expected = x + y * X + z * X * Y
        assert np.array_equal(idx, np.broadcast_to(expected, idx.shape))

    @pytest.mark.parametrize("dims", [(6, 5, 4), (3, 3, 3)])
    def test_large_block_degenerates_to_row_major(self, dims):
        big = max(dims)
        assert np.array_equal(
            all_indices(LexBlocked(big), dims), all_indices(LexBlocked(1), dims)
        )
        assert np.array_equal(
            all_indices(LexBlocked(100), dims), all_indices(LexBlocked(1), dims)
        )

    @pytest.mark.parametrize("b", [1, 2, 3, 4, 100])
    @pytest.mark.parametrize("dims", [(6, 5, 4), (8, 8, 8), (5, 1, 9)])
    def test_gapless(self, b, dims):
        idx = np.sort(all_indices(LexBlocked(b), dims).ravel())
        assert np.array_equal(idx, np.arange(idx.size))

    def test_matches_the_closed_formula(self):
        """The codes equal the closed formula in Python integers bit for
        bit, for random dims and b with partial edge blocks, over
        broadcast aranges and over 1-D point arrays, up to boxes whose
        codes reach 2^63."""
        rng = np.random.default_rng(26)
        for _ in range(40):
            dims = tuple(int(n) for n in rng.integers(1, 14, 3))
            b = int(rng.integers(1, 16))
            got = all_indices(LexBlocked(b), dims)
            assert got.dtype == np.uint64 and got.shape == dims[::-1]
            want = [[[lex_closed_form(b, x, y, z, dims) for x in range(dims[0])]
                     for y in range(dims[1])] for z in range(dims[2])]
            assert got.tolist() == want
        for dims in [(7, 5, 3), (2 ** 21, 2 ** 21, 2 ** 21 - 1), (3, 2 ** 40, 2 ** 21)]:
            for b in (1, 2, 5, 1000, 2 ** 63 - 1):
                x, y, z = (rng.integers(0, n, 50, dtype=np.int64) for n in dims)
                got = cell_index(LexBlocked(b), x, y, z, dims)
                assert got.dtype == np.uint64 and got.shape == (50,)
                assert got.tolist() == [lex_closed_form(b, *p, dims)
                                        for p in zip(x.tolist(), y.tolist(), z.tolist())]

    def test_overflow_guard(self):
        """A box of 2^63 or more cells has codes past int64; one cell
        fewer still numbers its last cell."""
        with pytest.raises(ParameterError, match="overflow"):
            cell_index(LexBlocked(4), 0, 0, 0, (2 ** 21, 2 ** 21, 2 ** 21))
        dims = (2 ** 21, 2 ** 21, 2 ** 21 - 1)
        last = int(cell_index(LexBlocked(1), *(n - 1 for n in dims), dims))
        assert last == 2 ** 63 - 2 ** 42 - 1


def classic_interleave(x, y, z, g):
    """Reference group interleave built digit by digit."""
    code = 0
    shift = 0
    pos = 0
    mask = (1 << g) - 1
    while (x >> pos) or (y >> pos) or (z >> pos):
        code |= ((x >> pos) & mask) << shift
        code |= ((y >> pos) & mask) << (shift + g)
        code |= ((z >> pos) & mask) << (shift + 2 * g)
        shift += 3 * g
        pos += g
    return code


class TestMortonProperties:
    @pytest.mark.parametrize("g", [1, 2])
    def test_matches_reference_interleave(self, g):
        dims = (16, 16, 16)
        rng = np.random.default_rng(7)
        for _ in range(200):
            x, y, z = (int(v) for v in rng.integers(0, 16, size=3))
            assert int(cell_index(Morton(g), x, y, z, dims)) == classic_interleave(x, y, z, g)

    @pytest.mark.parametrize("g,n", [(1, 2**21), (2, 2**20)])
    def test_widest_axes_match_reference_interleave(self, g, n):
        """2^21 and 2^20 are the widest axes 64-bit codes allow at g = 1
        and 2, so every byte of a coordinate is spread, here for arrays
        of coordinates as `check_links` passes them."""
        rng = np.random.default_rng(7)
        x, y, z = rng.integers(0, n, size=(3, 200))
        codes = cell_index(Morton(g), x, y, z, (n, n, n))
        assert codes.tolist() == [classic_interleave(*cell, g)
                                  for cell in zip(x.tolist(), y.tolist(), z.tolist())]

    @pytest.mark.parametrize("g", [1, 2])
    @pytest.mark.parametrize("dims", [(8, 8, 8), (5, 7, 3), (32, 2, 9)])
    def test_separable(self, g, dims):
        scheme = Morton(g)
        X, Y, Z = dims
        rng = np.random.default_rng(11)
        for _ in range(64):
            x = int(rng.integers(0, X))
            y = int(rng.integers(0, Y))
            z = int(rng.integers(0, Z))
            combined = int(cell_index(scheme, x, y, z, dims))
            parts = (int(cell_index(scheme, x, 0, 0, dims))
                     | int(cell_index(scheme, 0, y, 0, dims))
                     | int(cell_index(scheme, 0, 0, z, dims)))
            assert combined == parts

    @pytest.mark.parametrize("g", [1, 2])
    @pytest.mark.parametrize("dims", [(8, 8, 8), (5, 7, 3), (33, 2, 9)])
    def test_broadcast_axes_match_the_reference(self, g, dims):
        """Codes of broadcast aranges come out in the broadcast shape,
        each equal to the digit-by-digit interleave of its cell."""
        idx = all_indices(Morton(g), dims)
        X, Y, Z = dims
        assert idx.shape == (Z, Y, X) and idx.dtype == np.uint64
        want = [[[classic_interleave(x, y, z, g) for x in range(X)] for y in range(Y)]
                for z in range(Z)]
        assert np.array_equal(idx, np.array(want, dtype=np.uint64))

    def test_pow2_cube_is_bijective(self):
        idx = np.sort(all_indices(Morton(1), (8, 8, 8)).ravel())
        assert np.array_equal(idx, np.arange(512))

    def test_non_pow2_has_gaps_but_keeps_order(self):
        idx = np.sort(all_indices(Morton(1), (5, 3, 2)).ravel())
        assert idx[-1] >= idx.size  # gapped
        assert np.unique(idx).size == idx.size

    def test_overflow_guard(self):
        with pytest.raises(ParameterError):
            int(cell_index(Morton(2), 0, 0, 0, (2 ** 22, 1, 1)))


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=SCHEME_IDS)
@pytest.mark.parametrize("dims", [(32, 32, 32), (5, 3, 7), (1, 1, 1), (13, 2, 9)])
def test_injective_over_all_cells(scheme, dims):
    idx = all_indices(scheme, dims).ravel()
    assert np.unique(idx).size == idx.size


scheme_strategy = st.one_of(
    st.integers(min_value=1, max_value=500).map(LexBlocked),
    st.sampled_from([Morton(1), Morton(2)]),
)


@given(scheme_strategy)
def test_scheme_text_round_trips(scheme):
    assert parse_scheme(scheme_text(scheme)) == scheme


@settings(max_examples=60, deadline=None)
@given(
    scheme_strategy,
    st.tuples(*(st.integers(min_value=1, max_value=12),) * 3),
)
def test_indices_within_any_box_are_distinct(scheme, dims):
    idx = all_indices(scheme, dims).ravel()
    assert np.unique(idx).size == idx.size
