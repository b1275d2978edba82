"""Tower and sublattice pattern verification against windowed oracles."""

import itertools
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from broadcastdom import (
    DEFAULT_INDEX_CAP,
    IndexCapExceeded,
    Params,
    SublatticePattern,
    TowerPattern,
    hermite_normal_form,
    is_dominating_lattice,
    is_dominating_tower,
    lattice_receptions,
    lattice_search_3d,
    min_density_search,
    reception_table,
    tower_reception,
)
from broadcastdom.pattern_engine import _shift_vectors

from _cases import (
    MIN_TOWER_PERIODS,
    TOWER_18_5_ROWS,
    TOWER_18_5_SUM,
    TOWER_CASES,
    brute_lattice_receptions,
    brute_min_tower,
    brute_min_tower_3d,
    window_tower_receptions,
    window_tower_rows,
)

# Property tests draw the same examples on every run and keep no database.
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def test_tower_pattern_validation():
    TowerPattern(1, 0)
    with pytest.raises(ValueError):
        TowerPattern(0, 0)
    with pytest.raises(ValueError):
        TowerPattern(3, 3)
    with pytest.raises(ValueError):
        TowerPattern(3, -1)
    assert str(TowerPattern(18, 5)) == "T(18,5)"


def test_tower_reception_matches_window_oracle():
    for t, r, d, e in TOWER_CASES:
        params = Params(t, r)
        pattern = TowerPattern(d, e)
        expected = window_tower_receptions(t, r, d, e)
        got = [tower_reception(params, pattern, i) for i in range(d)]
        assert got == expected, (t, r, d, e)
        assert is_dominating_tower(params, pattern) == all(
            v >= r for v in expected
        ), (t, r, d, e)


def test_tower_reception_index_bounds():
    with pytest.raises(ValueError):
        tower_reception(Params(2, 1), TowerPattern(5, 2), 5)
    with pytest.raises(ValueError):
        tower_reception(Params(2, 1), TowerPattern(5, 2), -1)


def test_reception_table_rows():
    profile = reception_table(Params(4, 2), TowerPattern(18, 5))
    assert profile.rows == TOWER_18_5_ROWS
    assert profile.receptions == TOWER_18_5_SUM
    # the sum row really is the columnwise sum of the row contributions
    for i, total in enumerate(profile.receptions):
        assert total == sum(vec[i] for _, vec in profile.rows)


def test_reception_table_row_span():
    profile = reception_table(Params(3, 1), TowerPattern(4, 1))
    assert [y for y, _ in profile.rows] == [2, 1, 0, -1, -2]


def test_known_domination_verdicts():
    assert is_dominating_tower(Params(2, 1), TowerPattern(5, 2))
    assert not is_dominating_tower(Params(2, 1), TowerPattern(6, 2))
    assert is_dominating_tower(Params(4, 2), TowerPattern(18, 5))
    # period 19 would meet the coverage ceiling but no offset works
    for e in range(19):
        assert not is_dominating_tower(Params(4, 2), TowerPattern(19, e))


def test_min_density_search_frozen_results():
    assert min_density_search(Params(1, 1)) == TowerPattern(1, 0)
    assert min_density_search(Params(2, 1)) == TowerPattern(5, 2)
    assert min_density_search(Params(3, 1)) == TowerPattern(13, 5)
    assert min_density_search(Params(4, 2)) == TowerPattern(18, 5)
    assert min_density_search(Params(9, 9)) == TowerPattern(49, 18)


def test_min_density_search_prefers_smallest_offset():
    pattern = min_density_search(Params(4, 2))
    for e in range(pattern.e):
        assert not is_dominating_tower(Params(4, 2), TowerPattern(pattern.d, e))


def test_min_density_full_table():
    for (t, r), d in MIN_TOWER_PERIODS.items():
        assert min_density_search(Params(t, r)).d == d, (t, r)


def test_min_density_search_matches_unskipped_brute_search():
    # The search skips mirrored and axis-swapped shifts; the brute search
    # tries every e, so equal answers pin the smallest-e tie-break too.
    for t in range(1, 8):
        for r in range(1, t + 1):
            pattern = min_density_search(Params(t, r))
            assert (pattern.d, pattern.e) == brute_min_tower(t, r), (t, r)


def test_plane_shift_walk_keeps_the_mirror_and_axis_swap_skips():
    # In Z^2 the walk tries e <= d // 2 and drops each unit e whose inverse,
    # or the inverse's mirror, is smaller: T(d, e^-1) is its axis swap.
    for d in range(1, 61):
        expected = [
            e for e in range(d // 2 + 1)
            if math.gcd(e, d) != 1 or min(pow(e, -1, d), -pow(e, -1, d) % d) >= e
        ]
        assert [e for (e,) in _shift_vectors(2, d)] == expected, d


def test_space_shift_walk_drops_exactly_the_earlier_axis_swap_images():
    # Swapping x with y_j maps the tower lattice onto another lattice; when
    # gcd(e_j, d) = 1 its Hermite form is again a tower, whose shifts sorted
    # up to sign give the image's least vector. The walk keeps a
    # nondecreasing e <= d // 2 exactly when no such image comes first.
    for d in range(1, 26):
        kept = []
        for e in itertools.combinations_with_replacement(range(d // 2 + 1), 2):
            images = []
            for j in (1, 2):
                if math.gcd(e[j - 1], d) != 1:
                    continue
                order = [0, 1, 2]
                order[0], order[j] = j, 0
                columns = [(d, 0, 0), (e[0], 1, 0), (e[1], 0, 1)]
                basis = hermite_normal_form([[c[k] for k in order] for c in columns])
                assert [basis[k][k] for k in range(3)] == [d, 1, 1]
                images.append(sorted(min(v, d - v) for v in (basis[1][0], basis[2][0])))
            if all(image >= list(e) for image in images):
                kept.append(e)
        assert list(_shift_vectors(3, d)) == kept, d


def test_hermite_normal_form():
    ident = ((1, 0), (0, 1))
    assert hermite_normal_form(ident) == ident
    assert hermite_normal_form(((0, 1), (1, 0))) == ident
    tower = ((18, 0), (5, 1))
    assert hermite_normal_form(tower) == tower
    # adding one column to another leaves the lattice unchanged
    assert hermite_normal_form(((23, 1), (5, 1))) == tower
    assert hermite_normal_form(((-18, 0), (5, 1))) == tower
    assert hermite_normal_form(((18, 0), (23, 1))) == tower


def test_hermite_normal_form_rejects_bad_input():
    with pytest.raises(ValueError):
        hermite_normal_form(())
    with pytest.raises(ValueError):
        hermite_normal_form(((1, 0, 0), (0, 1, 0)))
    with pytest.raises(ValueError):
        hermite_normal_form(((2, 4), (1, 2)))


def test_sublattice_pattern_basics():
    pat = SublatticePattern(((18, 0), (5, 1)))
    assert pat.n == 2
    assert pat.index == 18
    assert str(pat) == "T(18,5)"
    reps = pat.coset_representatives()
    assert len(reps) == 18
    assert pat.contains((0, 0))
    assert pat.contains((5, 1))
    assert pat.contains((18, 0))
    assert pat.contains((23, 1))
    assert pat.contains((-13, 1))
    assert not pat.contains((6, 1))
    assert not pat.contains((1, 0))
    with pytest.raises(ValueError):
        pat.contains((1, 0, 0))


def test_sublattice_equality_after_normalization():
    a = SublatticePattern(((18, 0), (5, 1)))
    b = SublatticePattern(((23, 1), (5, 1)))
    assert a == b
    assert a.basis == b.basis


def test_lattice_receptions_match_tower():
    for t, r, d, e in [(2, 1, 5, 2), (4, 2, 18, 5), (3, 2, 3, 2)]:
        params = Params(t, r)
        tower = TowerPattern(d, e)
        lattice = SublatticePattern(((d, 0), (e, 1)))
        recs = lattice_receptions(params, lattice)
        assert set(recs) == {(i, 0) for i in range(d)}
        for i in range(d):
            assert recs[(i, 0)] == tower_reception(params, tower, i)
        assert is_dominating_lattice(params, lattice) == is_dominating_tower(
            params, tower
        )


def test_lattice_index_cap():
    pat = SublatticePattern(((18, 0), (5, 1)))
    with pytest.raises(IndexCapExceeded):
        is_dominating_lattice(Params(4, 2), pat, index_cap=17)
    with pytest.raises(IndexCapExceeded):
        lattice_receptions(Params(4, 2), pat, index_cap=17)
    assert len(lattice_receptions(Params(4, 2), pat, index_cap=18)) == 18


def test_lattice_search_3d_frozen_results():
    assert lattice_search_3d(Params(1, 1), index_cap=10).basis == (
        (1, 0, 0), (0, 1, 0), (0, 0, 1),
    )
    assert lattice_search_3d(Params(2, 1), index_cap=10).basis == (
        (7, 0, 0), (2, 1, 0), (3, 0, 1),
    )
    assert lattice_search_3d(Params(2, 2), index_cap=10).basis == (
        (4, 0, 0), (1, 1, 0), (2, 0, 1),
    )


def test_lattice_search_3d_frozen_results_at_larger_t():
    expected = {
        (3, 1): "L(21,0,0; 2,1,0; 8,0,1)",
        (4, 3): "L(27,0,0; 4,1,0; 10,0,1)",
        (4, 4): "L(22,0,0; 5,1,0; 8,0,1)",
        (4, 1): "L(55,0,0; 5,1,0; 21,0,1)",
        (5, 3): "L(60,0,0; 9,1,0; 22,0,1)",
    }
    for (t, r), pattern in expected.items():
        assert str(lattice_search_3d(Params(t, r))) == pattern, (t, r)


def test_lattice_search_3d_matches_unskipped_brute_search():
    # (3, 1) takes seconds in the oracle; it is pinned uncapped above.
    cells = [(t, r) for t in range(1, 4) for r in range(1, t + 1)]
    cases = [(t, r, None) for t, r in cells if (t, r) != (3, 1)]
    cases += [(t, r, cap) for t, r in cells for cap in (5, 10)]
    for t, r, cap in cases:
        kwargs = {} if cap is None else {"index_cap": cap}
        basis = lattice_search_3d(Params(t, r), **kwargs).basis
        d, e1, e2 = brute_min_tower_3d(t, r, cap)
        assert basis == ((d, 0, 0), (e1, 1, 0), (e2, 0, 1)), (t, r, cap)


def test_lattice_search_3d_perfect_code():
    # (2,1) admits an index-7 pattern: radius-1 balls of size 7 tile Z^3,
    # so the center coset receives 2 and every other coset exactly 1.
    pat = lattice_search_3d(Params(2, 1), index_cap=10)
    recs = lattice_receptions(Params(2, 1), pat)
    assert sorted(recs.values()) == [1, 1, 1, 1, 1, 1, 2]


def test_lattice_search_3d_half_reuse():
    # (2,2) at index 4: every coset accumulates exactly r = 2, the center
    # from its own broadcast and each other coset from two neighbors.
    pat = lattice_search_3d(Params(2, 2), index_cap=10)
    recs = lattice_receptions(Params(2, 2), pat)
    assert sorted(recs.values()) == [2, 2, 2, 2]


def test_lattice_search_3d_cap_validation():
    with pytest.raises(ValueError):
        lattice_search_3d(Params(2, 1), index_cap=0)


def test_tower_index_cap():
    params, pattern = Params(4, 2), TowerPattern(DEFAULT_INDEX_CAP + 1, 5)
    with pytest.raises(IndexCapExceeded):
        tower_reception(params, pattern, 0)
    with pytest.raises(IndexCapExceeded):
        reception_table(params, pattern)
    with pytest.raises(IndexCapExceeded):
        is_dominating_tower(params, pattern)


def test_tower_reception_memory_does_not_grow_with_d():
    params, pattern = Params(30, 10), TowerPattern(200_000, 5)
    tracemalloc.start()
    try:
        value = tower_reception(params, pattern, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    # Rows |y| < 30 put broadcasts at 5y + m*d; for every d > 181 only m = 0
    # comes within reach of column 7, so d = 401 receives the same there.
    assert value == window_tower_receptions(30, 10, 401, 5)[7]
    small = TowerPattern(59, 5)
    assert [
        tower_reception(params, small, i) for i in range(small.d)
    ] == window_tower_receptions(30, 10, small.d, small.e)


def test_is_dominating_tower_memory_does_not_grow_with_t_times_d():
    params, pattern = Params(30, 10), TowerPattern(200_000, 5)
    tracemalloc.start()
    try:
        value = is_dominating_tower(params, pattern)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The one list of d totals takes 1.6 MB.
    assert peak < 8_000_000
    # The 1,741 offsets of B(29) cannot reach 200,000 columns.
    assert value is False


@st.composite
def hermite_bases(draw):
    """Column Hermite bases of Z^n, n in {2, 3, 4}, with index at most 16."""
    n = draw(st.sampled_from([2, 3, 4]))
    diag = draw(
        st.lists(st.integers(1, 4), min_size=n, max_size=n).filter(
            lambda ds: math.prod(ds) <= 16
        )
    )
    cols = []
    for j in range(n):
        above = [draw(st.integers(0, diag[i] - 1)) for i in range(j)]
        cols.append(tuple(above + [diag[j]] + [0] * (n - 1 - j)))
    return tuple(cols)


@PROPERTY
@given(hermite_bases(), st.integers(1, 5), st.data())
def test_lattice_kernel_matches_brute_oracle(basis, t, data):
    r = data.draw(st.integers(1, t), label="r")
    # adding a multiple of one column to another leaves the lattice alone
    k = data.draw(st.integers(-2, 2), label="k")
    mixed = (tuple(a + k * b for a, b in zip(basis[0], basis[1])), *basis[1:])
    params, pattern = Params(t, r), SublatticePattern(mixed)
    assert pattern.basis == basis
    expected = brute_lattice_receptions(t, basis)
    assert list(lattice_receptions(params, pattern).items()) == list(expected.items())
    assert is_dominating_lattice(params, pattern) == (min(expected.values()) >= r)


@PROPERTY
@given(st.integers(1, 7), st.data())
def test_tower_kernel_matches_window_oracle(t, data):
    r = data.draw(st.integers(1, t), label="r")
    d = data.draw(st.integers(1, 60), label="d")
    e = data.draw(st.integers(0, d - 1), label="e")
    params, pattern = Params(t, r), TowerPattern(d, e)
    expected = window_tower_receptions(t, r, d, e)
    assert [tower_reception(params, pattern, i) for i in range(d)] == expected
    profile = reception_table(params, pattern)
    assert list(profile.receptions) == expected
    assert [y for y, _ in profile.rows] == list(range(t - 1, -t, -1))
    assert list(profile.rows) == window_tower_rows(t, d, e)
    assert is_dominating_tower(params, pattern) == (min(expected) >= r)
    # Negation fixes the tower, so column d - i receives what column i does.
    assert expected == [expected[-i % d] for i in range(d)]


@PROPERTY
@given(st.integers(1, 7), st.data())
def test_tower_mirror_reverses_columns(t, data):
    # Reflecting x -> -x maps T(d, e) onto T(d, -e mod d).
    d = data.draw(st.integers(1, 60), label="d")
    e = data.draw(st.integers(0, d - 1), label="e")
    params = Params(t, 1)
    got = reception_table(params, TowerPattern(d, e)).receptions
    mirrored = reception_table(params, TowerPattern(d, (d - e) % d)).receptions
    assert list(mirrored) == [got[-i % d] for i in range(d)]


@PROPERTY
@given(st.integers(1, 7), st.data())
def test_tower_axis_swap_keeps_receptions(t, data):
    # Swapping x and y maps T(d, e) onto T(d, e^-1 mod d) when gcd(e, d) = 1.
    d = data.draw(st.integers(1, 60), label="d")
    units = [e for e in range(d) if math.gcd(e, d) == 1]
    e = data.draw(st.sampled_from(units), label="e")
    params = Params(t, 1)
    got = reception_table(params, TowerPattern(d, e)).receptions
    swapped = reception_table(params, TowerPattern(d, pow(e, -1, d))).receptions
    assert sorted(swapped) == sorted(got)


@PROPERTY
@given(st.integers(1, 5), st.data())
def test_tower_3d_symmetries_keep_receptions(t, data):
    # Sign flips and permutations of the transverse axes, and swapping x with
    # y_j when gcd(e_j, d) = 1, are isometries of Z^3 that carry the tower
    # with shifts (e1, e2) onto another tower, so the receptions only move.
    # Negation fixes the tower, so column d - i matches column i.
    d = data.draw(st.integers(1, 40), label="d")
    e = [data.draw(st.integers(0, d - 1), label=f"e{j + 1}") for j in range(2)]
    params = Params(t, 1)

    def receptions(e1, e2):
        pattern = SublatticePattern(((d, 0, 0), (e1, 1, 0), (e2, 0, 1)))
        return sorted(lattice_receptions(params, pattern).values())

    basis = ((d, 0, 0), (e[0], 1, 0), (e[1], 0, 1))
    columns = lattice_receptions(params, SublatticePattern(basis))
    assert all(columns[(i, 0, 0)] == columns[(-i % d, 0, 0)] for i in range(d))
    expected = receptions(*e)
    assert receptions(-e[0] % d, e[1]) == expected
    assert receptions(e[0], -e[1] % d) == expected
    assert receptions(e[1], e[0]) == expected
    for j, v in enumerate(e):
        if math.gcd(v, d) == 1:
            inverse = pow(v, -1, d)
            image = [-inverse * u % d for u in e]
            image[j] = inverse
            assert receptions(*image) == expected, (j, image)
