"""Shell and ball counting, generating functions, and the norm bijection."""

import math
import sys
import time

import pytest

from broadcastdom import (
    CapExceeded,
    SignedTuple,
    ball_bijection,
    ball_size,
    delannoy,
    genfunc_coefficients,
    shell_enumerate,
    shell_size,
    tuple_decode,
    tuple_encode,
)
from broadcastdom.lattice_geometry import GENFUNC_KINDS, _ball_walk

from _cases import (
    SHELL_POLYNOMIALS,
    brute_ball,
    brute_shell,
    delannoy_reference,
)


def test_shell_size_matches_enumeration():
    for n in range(0, 5):
        for d in range(0, 7):
            assert shell_size(n, d) == len(brute_shell(n, d)), (n, d)


def test_ball_size_matches_enumeration():
    for n in range(0, 5):
        for d in range(0, 7):
            assert ball_size(n, d) == len(brute_ball(n, d)), (n, d)


def test_shell_size_boundaries():
    assert shell_size(0, 0) == 1
    assert shell_size(0, 3) == 0
    assert shell_size(4, 0) == 1
    assert shell_size(1, 9) == 2


def test_shell_size_rejects_negative_arguments():
    with pytest.raises(ValueError):
        shell_size(-1, 2)
    with pytest.raises(ValueError):
        shell_size(2, -1)
    with pytest.raises(ValueError):
        ball_size(-1, 0)


def test_ball_recursion():
    # |B_n(d)| = |B_{n-1}(d)| + |B_n(d-1)| + |B_{n-1}(d-1)|
    for n in range(1, 9):
        for d in range(1, 9):
            assert ball_size(n, d) == (
                ball_size(n - 1, d)
                + ball_size(n, d - 1)
                + ball_size(n - 1, d - 1)
            ), (n, d)


def test_ball_size_matches_binomial_sum_at_scale():
    # ball_size steps from term to term by an exact ratio; here every term
    # C(n, i) C(d, i) 2^i is computed on its own. shell_size is a difference
    # of balls; here it counts points by their i zero coordinates: choose
    # them, sign the rest, and compose d into the nonzero magnitudes.
    for n, d in ((200, 300), (300, 200), (1000, 1000), (1, 10**6), (37, 7000)):
        expected = sum(
            math.comb(n, i) * math.comb(d, i) * 2**i for i in range(min(n, d) + 1)
        )
        assert ball_size(n, d) == expected, (n, d)
        shell = sum(
            math.comb(n, i) * 2 ** (n - i) * math.comb(d - 1, n - i - 1)
            for i in range(n)
        )
        assert shell_size(n, d) == shell, (n, d)
    assert ball_size(150, 200) == delannoy(150, 200)


def test_delannoy_matches_reference_and_symmetry():
    for m in range(0, 11):
        for k in range(0, 11):
            value = delannoy(m, k)
            assert value == delannoy_reference(m, k), (m, k)
            assert value == delannoy(k, m), (m, k)
            assert value == ball_size(m, k) == ball_size(k, m), (m, k)
    for k in (0, 1, 12, 40):
        assert ball_size(0, k) == ball_size(k, 0) == delannoy(0, k) == 1, k


def test_delannoy_at_scale():
    # One term of a series, not 5,000 rows of the table: 8 s when walked.
    start = time.perf_counter()
    assert delannoy(5000, 5000) == ball_size(5000, 5000)
    assert time.perf_counter() - start < 1


def test_shell_polynomials():
    for n in range(1, 8):
        poly = SHELL_POLYNOMIALS[n]
        for d in range(1, 9):
            value = poly(d)
            assert value.denominator == 1, (n, d)
            assert shell_size(n, d) == value, (n, d)


def test_shell_enumerate_content_and_order():
    # brute_shell filters itertools.product, which is lexicographic.
    for n in range(0, 5):
        for d in range(0, 7):
            points = shell_enumerate(n, d)
            assert len(points) == shell_size(n, d), (n, d)
            assert points == brute_shell(n, d), (n, d)


def test_ball_walk_order_and_what_is_left():
    # brute_ball filters itertools.product, which is lexicographic.
    for n in range(0, 5):
        for d in range(0, 6):
            assert list(_ball_walk(n, d)) == [
                (y, d - sum(map(abs, y))) for y in brute_ball(n, d)
            ], (n, d)


def test_shell_enumerate_beyond_the_recursion_limit():
    # One coordinate per dimension would take a frame each; the walk keeps
    # an explicit stack, so 1,200 dimensions need no frames.
    assert sys.getrecursionlimit() < 1200
    points = shell_enumerate(1200, 1)
    units = [(0,) * i + (s,) + (0,) * (1199 - i) for i in range(1200) for s in (-1, 1)]
    assert len(points) == 2400
    assert points == sorted(units)


def test_shell_enumerate_cap():
    # cap is on the ball size, not the shell size
    with pytest.raises(CapExceeded):
        shell_enumerate(3, 3, cap=ball_size(3, 3) - 1)
    assert len(shell_enumerate(3, 3, cap=ball_size(3, 3))) == shell_size(3, 3)
    # The refusal names the first term of the rising ball series past the
    # cap, which the ball holds at least; a million squared stops at term 2.
    with pytest.raises(CapExceeded, match=r"^ball \(3, 3\) has at least 25 points, "
                       r"above the cap of 10$"):
        shell_enumerate(3, 3, cap=10)
    with pytest.raises(CapExceeded, match=r"^ball \(2, 2\) has at least 13 points"):
        shell_enumerate(2, 2, cap=12)
    with pytest.raises(CapExceeded, match=f" {ball_size(10**6, 2)} points"):
        shell_enumerate(10**6, 10**6)
    # a negative cap is a bad argument; 0 is a cap that every ball exceeds
    with pytest.raises(ValueError, match="^cap must be nonnegative$"):
        shell_enumerate(2, 3, cap=-1)
    with pytest.raises(CapExceeded):
        shell_enumerate(0, 0, cap=0)


def test_genfunc_bivariate_tables():
    balls = genfunc_coefficients("B_bivariate", 40)
    shells = genfunc_coefficients("S_bivariate", 40)
    for i in range(41):
        for j in range(41):
            assert balls[i][j] == ball_size(i, j), (i, j)
            assert shells[i][j] == shell_size(i, j), (i, j)


# Coefficient k of each univariate kind at fixed.
UNIVARIATE = {
    "B_fixed_d": lambda fixed, k: ball_size(k, fixed),
    "B_fixed_n": lambda fixed, k: ball_size(fixed, k),
    "S_fixed_d": lambda fixed, k: shell_size(k, fixed),
    "S_fixed_n": lambda fixed, k: shell_size(fixed, k),
}


def test_genfunc_univariate_kinds():
    grid = [(f, m) for f in range(31) for m in range(31)] + [(300, 40), (40, 300)]
    for kind, count in UNIVARIATE.items():
        for fixed, max_index in grid:
            assert genfunc_coefficients(kind, max_index, fixed=fixed) == [
                count(fixed, k) for k in range(max_index + 1)
            ], (kind, fixed, max_index)


def test_genfunc_builds_only_the_printed_terms():
    # 2,001 coefficients at fixed = 16,000 take 2,001 steps of the series;
    # dividing by (1 - x)^16001 in running sums took 4.4 s per kind.
    fixed = 16_000
    for kind, count in UNIVARIATE.items():
        start = time.perf_counter()
        coeffs = genfunc_coefficients(kind, 2000, fixed=fixed)
        assert time.perf_counter() - start < 1, kind
        assert len(coeffs) == 2001, kind
        for k in (0, 1, 2, 2000):
            assert coeffs[k] == count(fixed, k), (kind, k)


def test_shell_gf_denominator_sign():
    # The shell series for fixed d expands 2x(1+x)^(d-1) over (1-x)^(d+1).
    # The sibling form with (1+x)^(d+1) below the bar simplifies to
    # 2x/(1+x)^2 and already disagrees at the second coefficient.
    coeffs = genfunc_coefficients("S_fixed_d", 4, fixed=3)
    assert coeffs == [shell_size(i, 3) for i in range(5)]
    # 2x/(1+x)^2 = 2x - 4x^2 + 6x^3 - ...
    assert coeffs[2] == 12 != -4


def test_genfunc_validation():
    with pytest.raises(ValueError):
        genfunc_coefficients("B_cubed", 3)
    with pytest.raises(ValueError):
        genfunc_coefficients("B_fixed_d", 3)
    with pytest.raises(ValueError):
        genfunc_coefficients("B_bivariate", 3, fixed=2)
    with pytest.raises(ValueError):
        genfunc_coefficients("S_fixed_n", -1, fixed=2)
    with pytest.raises(ValueError):
        genfunc_coefficients("S_fixed_n", 3, fixed=-2)
    assert set(GENFUNC_KINDS) == {
        "B_bivariate", "S_bivariate", "B_fixed_d", "B_fixed_n",
        "S_fixed_d", "S_fixed_n",
    }


def test_tuple_encode_decode_roundtrip():
    for n in range(1, 5):
        for d in range(0, 5):
            for p in brute_ball(n, d):
                seq = tuple_encode(p)
                assert seq.dimension_sum <= n
                assert seq.distance_sum == sum(abs(x) for x in p)
                assert tuple_decode(seq, n) == p


def test_tuple_decode_rejects_short_dimension():
    seq = tuple_encode((1, 0, 2))
    with pytest.raises(ValueError):
        tuple_decode(seq, 2)


@pytest.mark.parametrize("fn, args, message", [
    (delannoy, (-1, 0), "indices must be nonnegative"),
    (shell_enumerate, (-1, 2), "dimension must be nonnegative"),
    (shell_enumerate, (2, -1), "distance must be nonnegative"),
    (tuple_decode, (tuple_encode(()), -1), "dimension must be nonnegative"),
    (SignedTuple, (0, 1, 1), "sign must be +1 or -1"),
    (SignedTuple, (1, 0, 1), "gap must be at least 1"),
    (SignedTuple, (-1, 1, 0), "magnitude must be at least 1"),
])
def test_validation_raises(fn, args, message):
    with pytest.raises(ValueError) as err:
        fn(*args)
    assert str(err.value) == message


def test_bijection_worked_examples():
    assert ball_bijection((2, 0, -1, 0), 4, 3) == (0, 1, -2)
    assert ball_bijection((-1, 0, 1, -1), 4, 3) == (-1, 2, -1)
    assert ball_bijection((0, 0, 0, 0), 4, 3) == (0, 0, 0)


def test_bijection_exhaustive():
    for n in range(1, 6):
        for d in range(0, 6):
            domain = brute_ball(n, d)
            images = [ball_bijection(p, n, d) for p in domain]
            target = set(brute_ball(d, n))
            assert len(images) == len(domain)
            assert set(images) == target, (n, d)
            assert len(set(images)) == len(images), (n, d)
            # applying the map back from B_d(n) recovers the point
            for p, q in zip(domain, images):
                assert ball_bijection(q, d, n) == p, (n, d, p)


def test_bijection_validation():
    with pytest.raises(ValueError):
        ball_bijection((3, 0), 2, 2)
    with pytest.raises(ValueError):
        ball_bijection((1, 0, 0), 2, 2)
