"""Coverage of a single broadcast and the grid lower bound built on it."""

import ast
import inspect
import time

import pytest

from broadcastdom import (
    GridDims,
    Params,
    coverage,
    coverage_closed_form,
    domination_lower_bound,
    max_potential_d,
)

from _cases import SHELL_POLYNOMIALS, window_coverage


def test_params_validation():
    Params(3, 3)
    with pytest.raises(ValueError):
        Params(3, 0)
    with pytest.raises(ValueError):
        Params(2, 3)


def test_grid_dims_validation():
    g = GridDims((5, 4))
    assert g.n == 2 and g.volume == 20
    with pytest.raises(ValueError):
        GridDims(())
    with pytest.raises(ValueError):
        GridDims((5, 0))


def test_coverage_matches_window_simulation():
    for n in range(1, 4):
        for t in range(1, 6):
            for r in range(1, t + 1):
                assert coverage(n, Params(t, r)) == window_coverage(n, t, r), (
                    n, t, r,
                )


def test_coverage_known_values():
    # (4,3) on the plane: center 3, four at distance 1 give min(3,3) each,
    # eight at distance 2 give 2, twelve at distance 3 give 1:
    # 3 + 12 + 16 + 12 = 43.
    assert coverage(2, Params(4, 3)) == 43
    assert coverage(2, Params(4, 2)) == 38
    assert coverage(2, Params(2, 1)) == 5
    assert coverage(1, Params(3, 2)) == 8  # 2*3*2 - 2*2


def test_coverage_r_equals_t_collapses_to_weighted_shells():
    # Each shell d < t counts min(t - d, r) per point, so with r = t nothing
    # is clipped except the center. Shell sizes come from the closed forms.
    for n in range(1, 7):
        for t in range(1, 21):
            for r in range(1, t + 1):
                expected = r + sum(
                    min(t - d, r) * SHELL_POLYNOMIALS[n](d) for d in range(1, t)
                )
                assert coverage(n, Params(t, r)) == expected, (n, t, r)
                assert coverage_closed_form(n, Params(t, r)) == expected, (n, t, r)


def test_closed_forms_match_sum():
    for n in range(1, 9):
        for t in range(1, 13):
            for r in range(1, t + 1):
                p = Params(t, r)
                assert coverage_closed_form(n, p) == coverage(n, p), (n, t, r)


@pytest.mark.parametrize("n, params", [
    (3, Params(10**9, 7)),
    # Every term with i >= t is zero: 2,000,004,000,002.
    (10**6, Params(3, 2)),
])
def test_closed_form_at_large_arguments(n, params):
    start = time.perf_counter()
    value = coverage_closed_form(n, params)
    elapsed = time.perf_counter() - start
    assert value == coverage(n, params)
    assert elapsed < 0.1, elapsed


def test_closed_form_shares_no_code_with_coverage():
    tree = ast.parse(inspect.getsource(coverage_closed_form))
    called = {
        ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)
    }
    assert not called & {"coverage", "ball_size"}, called


@pytest.mark.parametrize("fn, args, message", [
    (coverage, (0, Params(2, 1)), "dimension must be at least 1"),
    (coverage, (-1, Params(2, 1)), "dimension must be at least 1"),
    (coverage_closed_form, (0, Params(3, 2)), "dimension must be at least 1"),
    (coverage_closed_form, (-1, Params(3, 2)), "dimension must be at least 1"),
])
def test_validation_raises(fn, args, message):
    with pytest.raises(ValueError) as err:
        fn(*args)
    assert str(err.value) == message


def test_domination_lower_bound_rounds_up():
    # 18x18 under (4,2): ceil(2 * 324 / 38) = ceil(17.05...) = 18
    assert domination_lower_bound(GridDims((18, 18)), Params(4, 2)) == 18
    # 5x5 under (2,1): coverage 5 divides 25 exactly
    assert domination_lower_bound(GridDims((5, 5)), Params(2, 1)) == 5
    # single vertex: one broadcast always suffices and is always needed
    assert domination_lower_bound(GridDims((1,)), Params(7, 3)) == 1


def test_max_potential_d_values():
    assert max_potential_d(2, Params(2, 1)) == 5
    assert max_potential_d(2, Params(3, 1)) == 13
    assert max_potential_d(2, Params(4, 2)) == 19
    assert max_potential_d(2, Params(9, 9)) == 54
    assert max_potential_d(3, Params(2, 1)) == 7
    assert max_potential_d(3, Params(2, 2)) == 4


def test_coverage_monotone_in_t_and_r():
    for n in range(1, 4):
        for t in range(1, 8):
            for r in range(1, t + 1):
                c = coverage(n, Params(t, r))
                assert coverage(n, Params(t + 1, r)) > c
                if r < t:
                    assert coverage(n, Params(t, r + 1)) > c
