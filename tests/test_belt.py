"""Symbolic belt recursion: periodicity, half-period permutation, censuses."""

import pytest
import sympy

import zamobelt.belt as belt
import zamobelt.bigraph as bg
from zamobelt.errors import (
    ClaimViolation,
    InputError,
    LaurentPhenomenonViolation,
    NoPermutationMatch,
)
from zamobelt.laurent import Laurent, variables


def to_sympy(value: Laurent, symbols: list) -> sympy.Expr:
    total = sympy.Integer(0)
    for exps, coeff in value.terms.items():
        term = sympy.Integer(coeff)
        for sym, e in zip(symbols, exps):
            term *= sym**e
        total += term
    return sympy.together(total)


def sympy_belt_oracle(g, steps: int) -> list:
    """Re-run the recursion on sympy rational functions, independently."""
    n = g.n
    symbols = sympy.symbols("x1:%d" % (n + 1), positive=True)
    values = list(symbols)
    trace = [tuple(values)]
    for c in range(steps):
        nxt = list(values)
        for k in range(n):
            if g.eta(k) != c % 2:
                continue
            top = sympy.Integer(1)
            for i in range(n):
                top_gamma = values[i] ** g.gamma[i][k] if g.gamma[i][k] else 1
                top *= top_gamma
            alt = sympy.Integer(1)
            for j in range(n):
                alt_delta = values[j] ** g.delta[j][k] if g.delta[j][k] else 1
                alt *= alt_delta
            nxt[k] = sympy.cancel((top + alt) / values[k])
        values = nxt
        trace.append(tuple(values))
    return [symbols, trace]


# -- the golden rank two trace -----------------------------------------------


def test_a2_trace_goldens():
    g = bg.catalog("A2")
    x1, x2 = variables(2)
    states = belt.run_belt(g, 5)
    assert states[0].values == (x1, x2)
    assert states[1].values == ((x2 + 1).divexact(x1), x2)
    assert states[2].values[1] == (x1 + x2 + 1).divexact(x1 * x2)
    assert states[3].values[0] == (x1 + 1).divexact(x2)
    assert states[4].values[1] == x1
    assert states[5].values == (x2, x1)  # half period: sigma swaps the labels


def test_agrees_with_sympy_oracle():
    for name in ("A2", "A3", "B2", "A2xA2"):
        g = bg.catalog(name)
        steps = g.half_period
        states = belt.run_belt(g, steps)
        symbols, trace = sympy_belt_oracle(g, steps)
        for state, expected in zip(states, trace):
            for mine, theirs in zip(state.values, expected):
                diff = sympy.simplify(to_sympy(mine, symbols) - theirs)
                assert diff == 0, (name, state.t)


def test_laurent_positivity_along_the_run():
    # every produced polynomial has strictly positive coefficients
    for name in ("A2", "A3", "G2", "A2xA2"):
        g = bg.catalog(name)
        for state in belt.run_belt(g, 2 * g.half_period):
            for value in state.values:
                assert all(c > 0 for c in value.terms.values()), name


# -- the run's memo of exact quotients --------------------------------------------


def memo_free_trajectory(g, steps):
    """Step from a hand-built copy of each state, so every step starts
    with an empty memo and no quotient carries over from an earlier one."""
    out = [belt.initial_state(g)]
    for _ in range(steps):
        state = out[-1]
        out.append(belt.step(belt.BeltState(g=state.g, t=state.t, values=state.values)))
    return out


@pytest.mark.parametrize(
    "name", [name for name in bg.catalog_names() if name != "fig2-F4xA2"]
)
def test_memo_changes_no_value(name):
    g = bg.catalog(name)
    states = belt.run_belt(g, 2 * g.half_period)
    reference = memo_free_trajectory(g, 2 * g.half_period)
    for state, expected in zip(states, reference):
        assert state == expected, (name, state.t)


@pytest.mark.parametrize("name", bg.catalog_names())
def test_second_half_replays_the_first_relabeled_by_sigma(name):
    # the reason a 2N run is served by memo hits from t = N on
    g = bg.catalog(name)
    n_steps = g.half_period
    states = belt.run_belt(g, 2 * n_steps)
    sigma = belt.read_half_period(g, states).sigma
    for t in range(n_steps + 1):
        later, earlier = states[n_steps + t].values, states[t].values
        for k in range(g.n):
            assert later[k] == earlier[sigma(k)], (name, t, k)


def test_belt_state_equality_and_hash_ignore_the_memo():
    g = bg.catalog("A3")
    states = belt.run_belt(g, 4)
    bare = belt.BeltState(g=g, t=4, values=states[4].values)
    assert bare.done == {} and states[4].done
    assert bare == states[4] and hash(bare) == hash(states[4])
    assert "done" not in repr(bare)


def test_memo_is_shared_within_a_run_and_fresh_for_each_run():
    g = bg.catalog("A3")
    first, second = belt.run_belt(g, 3), belt.run_belt(g, 3)
    assert all(state.done is first[0].done for state in first)
    assert first[0].done is not second[0].done
    assert belt.initial_state(g).done == {}
    assert belt.BeltState(g=g, t=0, values=first[0].values).done is not first[0].done


def test_exchange_key_counts_repeated_factors():
    x1, x2 = variables(2)
    square, single = [(x1, 1), (x1, 1)], [(x1, 1)]
    # a plain frozenset of the pairs would make x1 * x1 and x1 collide
    assert frozenset(square) == frozenset(single)
    assert belt._exchange_key([square, []], x2) != belt._exchange_key([single, []], x2)
    assert belt._exchange_key([[], square], x2) != belt._exchange_key([[], single], x2)


def test_exchange_key_reads_each_monomial_as_a_multiset_in_order():
    x1, x2, x3 = variables(3)
    ab, ba = [(x1, 1), (x2, 2)], [(x2, 2), (x1, 1)]
    assert belt._exchange_key([ab, [(x3, 1)]], x3) == belt._exchange_key(
        [ba, [(x3, 1)]], x3
    )
    # two equal monomials stay two: the sum is 2 * monomial, not monomial
    twice = belt._exchange_key([ab, ab], x3)
    assert twice != belt._exchange_key([ab, []], x3)
    assert twice != belt._exchange_key([ab], x3)
    assert belt._exchange_key([ab, []], x2) != belt._exchange_key([ab, []], x3)


def test_failed_exchange_is_not_stored():
    # vertex 1 of A2 moves first: (x2 + 1) / (x1 + 1) is not a Laurent polynomial
    g = bg.catalog("A2")
    x1, x2 = variables(2)
    state = belt.BeltState(g=g, t=0, values=(x1 + 1, x2))
    texts = []
    for _ in range(2):
        with pytest.raises(LaurentPhenomenonViolation) as info:
            belt.step(state)
        texts.append(str(info.value))
        assert state.done == {}
    assert texts[0] == texts[1] and texts[0].startswith("vertex 1 at time 2: ")


# -- periodicity ---------------------------------------------------------------


def test_detect_period_goldens():
    cases = {"A2": 10, "A3": 12, "D4": 8, "B2xB2": 8, "fig1-A5starD4": 20}
    for name, expected in cases.items():
        g = bg.catalog(name)
        assert belt.detect_period(g, 2 * g.half_period) == expected, name


def test_detect_period_none_when_budget_too_small():
    g = bg.catalog("A2")
    assert belt.detect_period(g, 8) is None


def test_period_divides_twice_half_period():
    for name in ("A4", "C3", "G2xG2", "A2xA3"):
        g = bg.catalog(name)
        period = belt.detect_period(g, 2 * g.half_period)
        assert period is not None and (2 * g.half_period) % period == 0, name


# -- half period reports ---------------------------------------------------------


def test_half_period_a2():
    rep = belt.half_period(bg.catalog("A2"))
    assert rep.N == 5
    assert rep.sigma.cycles() == "(1 2)"
    assert rep.color_behavior == "reversing"
    assert rep.order == 2 and not rep.identity


def test_half_period_figure_one():
    rep = belt.half_period(bg.catalog("fig1-A5starD4"))
    assert rep.N == 10
    assert rep.sigma.cycles() == "(8 9)"
    assert rep.color_behavior == "preserving"


def test_half_period_identity_cases():
    for name in ("B2", "D4", "G2", "B2xB2"):
        rep = belt.half_period(bg.catalog(name))
        assert rep.identity and rep.sigma.is_identity, name
        assert rep.color_behavior == "preserving"


def test_half_period_parity_rule():
    # reversing sigma appears exactly when N is odd
    for name in bg.catalog_names():
        g = bg.catalog(name)
        rep = belt.half_period(g)
        expected = "preserving" if rep.N % 2 == 0 else "reversing"
        assert rep.color_behavior == expected, name


def relabeled_run(g, perm):
    """A run whose cluster at t = N is the initial one relabeled by perm;
    `read_half_period` reads only that state."""
    values = tuple(Laurent.variable(perm[i], g.n) for i in range(g.n))
    at_n = belt.BeltState(g=g, t=g.half_period, values=values)
    return [None] * g.half_period + [at_n]


def test_read_half_period_checks_in_order():
    g = bg.catalog("D4")
    center = next(k for k in range(g.n) if sum(map(bool, g.gamma[k])) == 3)
    a, b, c = (k for k in range(g.n) if k != center)

    def read(mapping):
        perm = tuple(mapping.get(i, i) for i in range(g.n))
        return belt.read_half_period(g, relabeled_run(g, perm))

    # a 3-cycle through the center breaks Gamma before its order is read
    with pytest.raises(ClaimViolation, match="does not preserve"):
        read({center: a, a: b, b: center})
    with pytest.raises(
        ClaimViolation, match="^half-period permutation has order above two$"
    ):
        read({a: b, b: c, c: a})
    swap = read({a: b, b: a})
    assert (swap.order, swap.identity, swap.color_behavior) == (2, False, "preserving")
    assert swap.sigma(a) == b and swap.sigma(b) == a and swap.sigma(c) == c
    same = read({})
    assert (same.order, same.identity, same.sigma.cycles()) == (1, True, "id")
    a2 = bg.catalog("A2")
    with pytest.raises(
        ClaimViolation, match="^color behavior preserving does not match parity of N=5$"
    ):
        belt.read_half_period(a2, relabeled_run(a2, (0, 1)))


def test_sigma_from_cluster_error_paths():
    x1, x2 = variables(2)
    with pytest.raises(NoPermutationMatch):
        belt.sigma_from_cluster((2 * x2, x1))  # scalar multiple is not a match
    with pytest.raises(NoPermutationMatch):
        belt.sigma_from_cluster((x1 + 1, x2))
    with pytest.raises(NoPermutationMatch):
        belt.sigma_from_cluster((x1, x1))  # not injective


# -- cluster variable census ----------------------------------------------------


def test_census_sizes_match_almost_positive_roots():
    sizes = {"A1": 2, "A2": 5, "A3": 9, "D4": 16, "B2": 6, "G2": 8}
    for name, expected in sizes.items():
        census = belt.cluster_variable_census(bg.catalog(name))
        assert len(census) == expected, name
        assert set(census.values()) == {2}, name


def test_census_requires_empty_delta():
    with pytest.raises(InputError):
        belt.cluster_variable_census(bg.catalog("A2xA2"))


def test_denominator_bijection_sweep():
    for name in ("A1", "A2", "A3", "A4", "B2", "B3", "C2", "C3", "D4", "G2"):
        assert belt.denominator_bijection_check(bg.catalog(name)), name


def test_denominator_vectors_of_a2_window():
    g = bg.catalog("A2")
    states = belt.run_belt(g, 3)
    seen = {v.denominator_vector() for s in states for v in s.values}
    assert seen == {(-1, 0), (0, -1), (1, 0), (1, 1), (0, 1)}
