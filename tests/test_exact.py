"""Exact scalar and matrix arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natspec.exact import (
    DimensionError,
    Matrix,
    char_poly,
    format_scalar,
    parse_scalar,
    trace_powers,
)

from conftest import leibniz_char_poly


class TestScalarText:
    @given(st.integers(-10**6, 10**6), st.integers(1, 999))
    def test_round_trip(self, p, q):
        x = Fraction(p, q)
        y = parse_scalar(format_scalar(x))
        assert Fraction(y) == x

    def test_integers_stay_integers(self):
        assert parse_scalar("4/2") == 2
        assert isinstance(parse_scalar("4/2"), int)

    def test_past_the_int_str_digit_limit(self):
        import sys

        limit = sys.get_int_max_str_digits()
        big = 10**5000
        assert format_scalar(big) == "1" + "0" * 5000
        assert format_scalar(-big - 7) == "-1" + "0" * 4999 + "7"
        num = 3 * 10**4999 + 1  # 5,000 digits
        x = Fraction(num, 7)
        assert format_scalar(x) == "3" + "0" * 4998 + "1/7"
        assert format_scalar(-x) == "-" + format_scalar(x)
        den = 7**5917  # 5,001 digits, coprime to num
        for y in (big, -big - 7, x, -Fraction(num, den)):
            back = parse_scalar(format_scalar(y))
            assert back == y and type(back) is type(y)
        with pytest.raises(ValueError):
            parse_scalar("1" * 5000 + "x")
        assert sys.get_int_max_str_digits() == limit


def mat(rows):
    return Matrix(rows)


class TestMatrix:
    def test_must_be_square(self):
        with pytest.raises(DimensionError):
            Matrix([[1, 2]])

    def test_product_identities(self):
        a = mat([[1, 2], [3, 4]])
        i = Matrix.identity(2)
        j = Matrix.ones(2)
        assert a.matmul(i) == a
        assert i.matmul(a) == a
        assert a.hadamard(j) == a

    def test_matmul_example(self):
        a = mat([[1, 2], [3, 4]])
        b = mat([[0, 1], [1, 0]])
        assert a.matmul(b) == mat([[2, 1], [4, 3]])

    def test_hadamard_is_entrywise(self):
        a = mat([[1, 2], [3, 4]])
        assert a.hadamard(a) == mat([[1, 4], [9, 16]])

    def test_transpose_involution(self):
        a = mat([[1, 2], [3, 4]])
        assert a.transpose().transpose() == a

    def test_transpose_antihomomorphism(self):
        a = mat([[1, 2], [3, 4]])
        b = mat([[0, 1], [2, 5]])
        assert a.matmul(b).transpose() == b.transpose().matmul(a.transpose())

    def test_eq_across_int_and_fraction(self):
        assert mat([[1]]) == mat([[Fraction(2, 2)]])
        assert hash(mat([[1]])) == hash(mat([[Fraction(2, 2)]]))

    def test_json_round_trip(self):
        a = mat([[Fraction(1, 3), 2], [0, -5]])
        assert Matrix.loads(a.dumps()) == a

    def test_zero_one_predicate(self):
        assert mat([[0, 1], [1, 0]]).is_zero_one()
        assert not mat([[0, 2], [1, 0]]).is_zero_one()


class TestCharPoly:
    def test_k2(self):
        a = mat([[0, 1], [1, 0]])
        assert char_poly(a) == (1, 0, -1)

    def test_matches_determinant_oracle(self, rng):
        for _ in range(30):
            n = rng.randint(1, 5)
            a = Matrix(
                [
                    [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                    for _ in range(n)
                ]
            )
            got = tuple(Fraction(c) for c in char_poly(a))
            assert got == leibniz_char_poly(a)

    def test_petersen_factored_form(self):
        # (t-3)(t-1)^5 (t+2)^4, multiplied out independently
        from natspec.graphs import petersen_graph

        coeffs = [Fraction(1)]
        for root, mult in ((3, 1), (1, 5), (-2, 4)):
            for _ in range(mult):
                nxt = [Fraction(0)] * (len(coeffs) + 1)
                for i, c in enumerate(coeffs):
                    nxt[i] += c
                    nxt[i + 1] -= c * root
                coeffs = nxt
        a = petersen_graph().adjacency_matrix()
        assert tuple(Fraction(c) for c in char_poly(a)) == tuple(coeffs)

    def test_trace_powers(self):
        a = mat([[0, 1], [1, 0]])
        assert trace_powers(a, 4) == (0, 2, 0, 2)
