"""Tower and sublattice pattern verification against windowed oracles."""

import itertools
import math
import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from broadcastdom import (
    DEFAULT_INDEX_CAP,
    CapExceeded,
    Params,
    SublatticePattern,
    TowerPattern,
    ball_size,
    hermite_normal_form,
    is_dominating_lattice,
    is_dominating_tower,
    lattice_receptions,
    lattice_search_3d,
    max_potential_d,
    min_density_search,
    reception_table,
    tower_reception,
)
from broadcastdom.lattice_geometry import _ball_walk
from broadcastdom.pattern_engine import (
    _PROFILE_SLOT_CAP,
    _check_profiles,
    _coset_histogram,
    _middle_column,
    _row_profiles,
    _shift_vectors,
    _step_profiles,
    _tower_search,
)

from _cases import (
    MIN_TOWERS,
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
    # (d, e) for the 91 table3 cells with t <= 13; the pinned towers
    # dominate by the window oracle, which shares no code with the search.
    for (t, r), (d, e) in MIN_TOWERS.items():
        assert min_density_search(Params(t, r)) == TowerPattern(d, e), (t, r)
        assert min(window_tower_receptions(t, r, d, e)) >= r, (t, r)


def test_min_density_search_matches_unskipped_brute_search():
    # The search skips mirrored and axis-swapped shifts; the brute search
    # tries every e, so equal answers pin the smallest-e tie-break too.
    for t in range(1, 8):
        for r in range(1, t + 1):
            pattern = min_density_search(Params(t, r))
            assert (pattern.d, pattern.e) == brute_min_tower(t, r), (t, r)


def test_tower_search_matches_plain_walk_below_every_top():
    # Each top starts the search at a different level, so the dead levels
    # above each answer, where the column order decides the work, are all
    # walked. The plain walk tries every e < d by the window oracle.
    for t in range(1, 6):
        for r in range(1, t + 1):
            params = Params(t, r)
            least_e, ceiling = {}, max_potential_d(2, params)
            for top in range(ceiling, 0, -1):
                for d in range(top, 0, -1):
                    if d not in least_e:
                        least_e[d] = next(
                            (e for e in range(d)
                             if min(window_tower_receptions(t, r, d, e)) >= r),
                            None,
                        )
                    if least_e[d] is not None:
                        break
                got = _tower_search(2, params, cap=top)
                assert got == (d, (least_e[d],)), (t, r, top)
            # a cap above the ceiling leaves the search as it is uncapped
            for cap in (ceiling + 1, 2 * ceiling, DEFAULT_INDEX_CAP):
                assert _tower_search(2, params, cap) == _tower_search(2, params)


def test_tower_search_3d_matches_brute_search_below_every_top():
    # Each top starts the Z^3 search at a different level. The brute search
    # tries every (e1, e2) in range(d)^2 from its cap down; its answer at d
    # also answers every top from its cap down to d.
    for t in range(1, 4):
        for r in range(1, t + 1):
            params = Params(t, r)
            top = ceiling = max_potential_d(3, params)
            while top:
                d, e1, e2 = brute_min_tower_3d(t, r, top)
                for cap in range(top, d - 1, -1):
                    assert _tower_search(3, params, cap) == (d, (e1, e2)), (t, r, cap)
                top = d - 1
            # a cap above the ceiling leaves the search as it is uncapped
            for cap in (ceiling + 1, 2 * ceiling, DEFAULT_INDEX_CAP):
                assert _tower_search(3, params, cap) == _tower_search(3, params)


def level_rows(t, d, ball):
    # The level's row profiles in ball order: profile |y|_1 for each y.
    profiles = _row_profiles(t, d)
    return [profiles[t - 1 - left] for _, left in ball]


def test_middle_column_matches_plane_window_oracle():
    # Every level the Z^2 search can walk for t <= 6 (r = 1 starts highest):
    # entry l is column d // 2 of T(d, l) by explicit broadcast enumeration.
    for t in range(1, 7):
        ball = list(_ball_walk(1, t - 1))
        for d in range(max_potential_d(2, Params(t, 1)), 0, -1):
            expected = [
                window_tower_receptions(t, 1, d, l)[d // 2] for l in range(d // 2 + 1)
            ]
            rows = level_rows(t, d, ball)
            assert _middle_column(d, ball, rows)(()) == expected, (t, d)


def test_middle_column_matches_space_lattice_oracle():
    # In Z^3 the prefix is e1; entry l is the reception of the coset
    # (d // 2, 0, 0) of the basis ((d,0,0), (e1,1,0), (l,0,1)).
    for t in range(1, 5):
        ball = list(_ball_walk(2, t - 1))
        for d in range(1, 31):
            rows = level_rows(t, d, ball)
            column, middle = _middle_column(d, ball, rows), (d // 2, 0, 0)
            for e1 in range(d // 2 + 1):
                expected = [
                    brute_lattice_receptions(
                        t, ((d, 0, 0), (e1, 1, 0), (l, 0, 1)), [middle]
                    )[middle]
                    for l in range(d // 2 + 1)
                ]
                assert column((e1,)) == expected, (t, d, e1)


def test_step_profiles_match_a_fresh_build_at_every_level():
    # Stepping in place from above 2t down to 1 crosses both the levels
    # where no profile wraps and those where the widest ones do; lists that
    # alias a profile see each step.
    for t in range(1, 9):
        profiles = _row_profiles(t, 2 * t + 3)
        alias = list(profiles)
        for d in range(2 * t + 3, 1, -1):
            _step_profiles(profiles, d)
            assert profiles == _row_profiles(t, d - 1), (t, d - 1)
            assert all(a is b for a, b in zip(alias, profiles)), (t, d - 1)


def test_row_profiles_match_offset_sums():
    # Profile a sends t - a - |x| from offset x to column x mod d; d from 1
    # to 2t + 1 covers rows that wrap onto themselves and rows that do not.
    for t in range(1, 9):
        for d in range(1, 2 * t + 2):
            expected = []
            for a in range(t):
                row = [0] * d
                for x in range(a + 1 - t, t - a):
                    row[x % d] += t - a - abs(x)
                expected.append(row)
            assert _row_profiles(t, d) == expected, (t, d)


def test_plane_shift_walk_keeps_the_mirror_and_axis_swap_skips():
    # In Z^2 the walk tries e <= d // 2 and drops each unit e whose inverse,
    # or the inverse's mirror, is smaller: T(d, e^-1) is its axis swap.
    # tower-search reaches d = 313 at (13, 1).
    for d in range(1, 321):
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


@PROPERTY
@given(st.sampled_from([3, 4]), st.data())
def test_hermite_normal_form_undoes_unimodular_mixing(n, data):
    # Swapping two columns, negating one and adding k times one to another
    # keep the lattice, so any sequence of them leads back to the same basis.
    diag = [data.draw(st.integers(1, 9), label="diagonal") for _ in range(n)]
    basis = tuple(
        tuple([data.draw(st.integers(0, diag[i] - 1)) for i in range(j)]
              + [diag[j]] + [0] * (n - 1 - j))
        for j in range(n)
    )
    step = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-3, 3))
    cols = [list(c) for c in basis]
    for a, b, k in data.draw(st.lists(step, max_size=24), label="steps"):
        if a == b:
            cols[a] = [-x for x in cols[a]]
        elif k == 0:
            cols[a], cols[b] = cols[b], cols[a]
        else:
            cols[b] = [y + k * x for x, y in zip(cols[a], cols[b])]
    assert hermite_normal_form(cols) == basis


def _det(rows) -> int:
    # Bareiss elimination: exact integer determinant.
    m, sign, prev = [list(row) for row in rows], 1, 1
    for k in range(len(m) - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, len(m)) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def test_hermite_normal_form_of_a_dense_basis_is_fast():
    # The least nonzero entry pivots each row. Folding each column into the
    # next by pairwise Euclid instead lets the entries blow up: a dense 30x30
    # basis then takes more than 20 s.
    rng = random.Random(40)
    cols = [[rng.randint(-9, 9) for _ in range(40)] for _ in range(40)]
    start = time.perf_counter()
    basis = hermite_normal_form(cols)
    assert time.perf_counter() - start < 1
    for j, col in enumerate(basis):
        assert col[j] > 0
        assert all(0 <= col[i] < basis[i][i] for i in range(j))
        assert not any(col[j + 1:])
    # Every input column lies on the lattice, and both bases span volume |det|.
    for col in cols:
        residue = list(col)
        for i in range(39, -1, -1):
            q, rem = divmod(residue[i], basis[i][i])
            assert rem == 0
            residue = [a - q * b for a, b in zip(residue, basis[i])]
    assert math.prod(basis[i][i] for i in range(40)) == abs(_det(cols))


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


@pytest.mark.parametrize("d, e", [(1, 0), (5, 2), (18, 5), (1262, 495)])
def test_tower_repr_evaluates_back(d, e):
    tower = TowerPattern(d, e)
    assert repr(tower) == f"TowerPattern(d={d}, e={e})"
    assert eval(repr(tower)) == tower


@pytest.mark.parametrize("basis, text", [
    (((18, 0), (5, 1)), "SublatticePattern(basis=((18, 0), (5, 1)))"),
    (((3, 0, 0), (1, 2, 0), (0, 1, 4)),
     "SublatticePattern(basis=((3, 0, 0), (1, 2, 0), (0, 1, 4)))"),
])
def test_sublattice_repr_is_the_dataclass_repr(basis, text):
    pattern = SublatticePattern(basis)
    assert repr(pattern) == text
    assert eval(repr(pattern)) == pattern


def test_lattice_receptions_beyond_the_recursion_limit():
    # The histogram walks B_(n-1)(t-1) on an explicit stack, not one frame
    # per coordinate, so the index-1 lattice of 1,100 dimensions is read.
    n = 1100
    assert sys.getrecursionlimit() < n
    identity = SublatticePattern(
        tuple(tuple(int(i == j) for i in range(n)) for j in range(n))
    )
    assert lattice_receptions(Params(1, 1), identity) == {(0,) * n: 1}
    # At t = 2 a point hears itself (2) and each of its 2n neighbours (1).
    assert lattice_receptions(Params(2, 1), identity) == {(0,) * n: 2 + 2 * n}


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
        # A tower is the sublattice with basis ((d,0),(e,1)), checked by the
        # lattice's own function under a second name.
        assert is_dominating_tower is is_dominating_lattice
        assert isinstance(tower, SublatticePattern)
        assert tower.basis == ((d, 0), (e, 1))
        assert tower.index == d
        assert lattice_receptions(params, tower) == recs
        # Towers compare by basis; a tower stays unequal to the plain lattice.
        assert tower == TowerPattern(d, e)
        assert hash(tower) == hash(TowerPattern(d, e))
        assert tower != TowerPattern(d + 1, e)
        assert tower != lattice


def test_lattice_index_cap():
    pat = SublatticePattern(((18, 0), (5, 1)))
    with pytest.raises(CapExceeded):
        is_dominating_lattice(Params(4, 2), pat, index_cap=17)
    with pytest.raises(CapExceeded):
        lattice_receptions(Params(4, 2), pat, index_cap=17)
    assert len(lattice_receptions(Params(4, 2), pat, index_cap=18)) == 18
    # a cap below 1 is a bad argument, as in lattice_search_3d
    for cap in (0, -1):
        with pytest.raises(ValueError, match="^index_cap must be at least 1$"):
            is_dominating_lattice(Params(4, 2), pat, index_cap=cap)
        with pytest.raises(ValueError, match="^index_cap must be at least 1$"):
            lattice_receptions(Params(4, 2), pat, index_cap=cap)


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
    with pytest.raises(CapExceeded):
        tower_reception(params, pattern, 0)
    with pytest.raises(CapExceeded):
        reception_table(params, pattern)
    with pytest.raises(CapExceeded):
        is_dominating_tower(params, pattern)


@pytest.mark.parametrize("search, n, params, cap", [
    (min_density_search, 2, Params(2000, 1), None),
    (lattice_search_3d, 3, Params(95, 1), 2 * 10**6),
])
def test_tower_search_refuses_a_top_above_the_cap_before_allocating(
    search, n, params, cap
):
    # The top is the ceiling (below the cap, when one is given) and above
    # DEFAULT_INDEX_CAP: it is refused before the ball, the walking order
    # or any profile is built.
    top = max_potential_d(n, params)
    assert DEFAULT_INDEX_CAP < top < (cap or math.inf)
    message = f"^pattern has {top} cosets, above the cap of {DEFAULT_INDEX_CAP}$"
    kwargs = {} if cap is None else {"index_cap": cap}
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match=message):
            search(params, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("refuse, t, top", [
    (lambda: min_density_search(Params(700, 1)), 700,
     max_potential_d(2, Params(700, 1))),
    (lambda: lattice_search_3d(Params(95, 1)), 95, DEFAULT_INDEX_CAP),
    (lambda: _row_profiles(95, DEFAULT_INDEX_CAP), 95, DEFAULT_INDEX_CAP),
    (lambda: reception_table(Params(1000, 1), TowerPattern(999_999, 0)),
     1000, 999_999),
], ids=["min_density_search", "lattice_search_3d", "_row_profiles",
        "reception_table"])
def test_row_profiles_refuse_their_slots_before_allocating(refuse, t, top):
    # The top is within the coset cap, but t profiles of top slots each are
    # not: they are refused before one of them is built.
    assert top <= DEFAULT_INDEX_CAP and t * top > _PROFILE_SLOT_CAP
    message = (
        f"^row profiles have {t * top} slots, above the cap of {_PROFILE_SLOT_CAP}$"
    )
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match=message):
            refuse()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_check_profiles_sizes_the_largest_table3_cell():
    # Cell (tmax, 1) has the largest t and the largest ceiling of its table.
    for tmax in range(1, 25):
        slots = [t * max_potential_d(2, Params(t, r))
                 for t in range(1, tmax + 1) for r in range(1, t + 1)]
        assert max(slots) == tmax * max_potential_d(2, Params(tmax, 1))
    # What still fits is accepted without a search: nothing is allocated.
    assert 171 * max_potential_d(2, Params(171, 1)) == 9_942_111
    tracemalloc.start()
    try:
        for t, r in ((171, 1), (100, 50), (200, 100)):
            assert _check_profiles(t, max_potential_d(2, Params(t, r))) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    # The coset cap comes first, so its message is the one that a top above
    # both caps gets.
    with pytest.raises(CapExceeded, match="^row profiles have 10117900 slots"):
        _check_profiles(172, max_potential_d(2, Params(172, 1)))
    with pytest.raises(CapExceeded, match="^pattern has 1001113 cosets"):
        _check_profiles(708, max_potential_d(2, Params(708, 1)))


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
    # The histogram holds only the cosets that B(29) reaches, not d totals.
    assert peak < 1_000_000
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
    # The histogram keeps only reached cosets, at most one per offset.
    assert len(_coset_histogram(t, basis)) <= ball_size(len(basis), t - 1)


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
