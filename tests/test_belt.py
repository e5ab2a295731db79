"""Symbolic belt recursion: periodicity, half-period permutation, censuses."""

import importlib.util
import pathlib

import pytest
import sympy

import zamobelt.belt as belt
import zamobelt.bigraph as bg
from zamobelt.errors import (
    ClaimViolation,
    InputError,
    LaurentPhenomenonViolation,
    NoPermutationMatch,
    NotAdmissibleBigraph,
    SearchBoundExceeded,
)
from zamobelt.laurent import Laurent, variables

ROOT = pathlib.Path(__file__).resolve().parent.parent


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
    assert states[0] == (x1, x2)
    assert states[1] == ((x2 + 1).divexact(x1), x2)
    assert states[2][1] == (x1 + x2 + 1).divexact(x1 * x2)
    assert states[3][0] == (x1 + 1).divexact(x2)
    assert states[4][1] == x1
    assert states[5] == (x2, x1)  # half period: sigma swaps the labels


def test_agrees_with_sympy_oracle():
    for name in ("A2", "A3", "B2", "A2xA2"):
        g = bg.catalog(name)
        steps = g.half_period
        states = belt.run_belt(g, steps)
        symbols, trace = sympy_belt_oracle(g, steps)
        for t, (state, expected) in enumerate(zip(states, trace)):
            for mine, theirs in zip(state, expected):
                diff = sympy.simplify(to_sympy(mine, symbols) - theirs)
                assert diff == 0, (name, t)


def test_laurent_positivity_along_the_run():
    # every produced polynomial has strictly positive coefficients
    for name in ("A2", "A3", "G2", "A2xA2"):
        g = bg.catalog(name)
        for state in belt.run_belt(g, 2 * g.half_period):
            for value in state:
                assert all(c > 0 for c in value.terms.values()), name


# -- derived states against forward steps --------------------------------------


def _sweep_targets():
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "bench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SWEEP_TARGETS


def forward_trajectory(g, steps):
    """Step from the initial cluster with `belt.step` alone: no state
    is derived."""
    out = [belt.initial_state(g)]
    for c in range(steps):
        out.append(belt.step(g, c, out[-1]))
    return out


def midpoint(g):
    return g.half_period - g.half_period // 2


@pytest.mark.parametrize(
    "name", list(dict.fromkeys(bg.catalog_names() + _sweep_targets()))
)
def test_derived_run_matches_forward_steps(name):
    g = bg.catalog(name)
    n_steps = g.half_period
    mid = midpoint(g)
    reference = forward_trajectory(g, 2 * n_steps + 3)
    for steps in (mid, mid + 1, n_steps, 2 * n_steps, 2 * n_steps + 3):
        states = belt.run_belt(g, steps)
        assert states == reference[: steps + 1], (name, steps)


@pytest.mark.parametrize("name", bg.catalog_names())
def test_memo_changes_no_value(name):
    # no cache of exchanges stands between a run and its values: a 2N run,
    # half of it re-indexed by sigma, equals and hashes like the forward steps
    g = bg.catalog(name)
    states = belt.run_belt(g, 2 * g.half_period)
    reference = forward_trajectory(g, 2 * g.half_period)
    assert len(states) == len(reference)
    for t, (state, expected) in enumerate(zip(states, reference)):
        assert state == expected, (name, t)
        assert hash(state) == hash(expected), (name, t)


@pytest.mark.parametrize("name", bg.catalog_names())
def test_second_half_replays_the_first_relabeled_by_sigma(name):
    # the identity a 2N run re-indexes its states by from t = N on
    g = bg.catalog(name)
    n_steps = g.half_period
    states = belt.run_belt(g, 2 * n_steps)
    sigma = belt.read_half_period(g, states).sigma
    for t in range(n_steps + 1):
        later, earlier = states[n_steps + t], states[t]
        for k in range(g.n):
            assert later[k] == earlier[sigma(k)], (name, t, k)


def count_steps(monkeypatch):
    calls = []
    real_step = belt.step

    def counting_step(g, c, values):
        calls.append(c)
        return real_step(g, c, values)

    monkeypatch.setattr(belt, "step", counting_step)
    return calls


@pytest.mark.parametrize("name", ["A2", "A2xA2", "fig2-F4xA2"])
def test_mirror_steps_only_to_the_midpoint(name, monkeypatch):
    # odd N (A2, fig2) mirrors with pi = id; even N (A2xA2) with a
    # colour-reversing pi
    g = bg.catalog(name)
    calls = count_steps(monkeypatch)
    belt.run_belt(g, 2 * g.half_period)
    assert calls == list(range(midpoint(g)))


@pytest.mark.parametrize("name", ["A3", "E6"])
def test_even_n_without_a_colour_reversing_automorphism_steps_to_n(name, monkeypatch):
    g = bg.catalog(name)
    assert g.half_period % 2 == 0
    assert list(bg.automorphism_search(g, "colorReversing")) == []
    assert belt.mirror_candidates(g, g.half_period) is None
    calls = count_steps(monkeypatch)
    states = belt.run_belt(g, 2 * g.half_period)
    assert calls == list(range(g.half_period))
    assert states == forward_trajectory(g, 2 * g.half_period)


def test_mirror_check_rejects_a_perturbed_midpoint_value():
    for name in ("A4", "A2xA2"):
        g = bg.catalog(name)
        n_steps, mid = g.half_period, midpoint(g)
        states = forward_trajectory(g, mid)
        at_mid = list(states[mid])
        for k in range(g.n):
            perturbed = at_mid[:k] + [at_mid[k] + 1] + at_mid[k + 1 :]
            run = states[:mid] + [tuple(perturbed)]
            belt._mirror(g, run, n_steps, n_steps)
            assert len(run) == mid + 1, (name, k)
        derived = list(states)
        belt._mirror(g, derived, n_steps, n_steps)
        assert derived == forward_trajectory(g, n_steps), name


def test_mirror_check_rejects_a_wrong_rho_and_the_run_steps(monkeypatch):
    g = bg.catalog("A4")
    n_steps = g.half_period
    pi, rhos = belt.mirror_candidates(g, n_steps)
    rhos = list(rhos)
    wrong = tuple(range(g.n))  # colour-preserving: never the mirror's rho
    monkeypatch.setattr(belt, "mirror_candidates", lambda *_: (pi, [wrong]))
    calls = count_steps(monkeypatch)
    states = belt.run_belt(g, 2 * n_steps)
    assert calls == list(range(n_steps))
    assert states == forward_trajectory(g, 2 * n_steps)
    # a wrong candidate ahead of the right one is passed over
    monkeypatch.setattr(belt, "mirror_candidates", lambda *_: (pi, [wrong, *rhos]))
    calls.clear()
    assert belt.run_belt(g, 2 * n_steps) == states
    assert calls == list(range(midpoint(g)))


def test_mirror_tries_at_most_a_fixed_number_of_rhos(monkeypatch):
    # the right rho behind MIRROR_TRIES wrong ones is never reached
    g = bg.catalog("A4")
    n_steps = g.half_period
    right = list(bg.automorphism_search(g, "colorReversing"))
    wrong = [tuple(range(g.n))] * belt.MIRROR_TRIES
    monkeypatch.setattr(belt, "automorphism_search", lambda *_: iter(wrong + right))
    reference = forward_trajectory(g, 2 * n_steps)
    calls = count_steps(monkeypatch)
    assert belt.run_belt(g, 2 * n_steps) == reference
    assert calls == list(range(n_steps))
    # one fewer wrong rho, and the right one is reached
    monkeypatch.setattr(belt, "automorphism_search", lambda *_: iter(wrong[1:] + right))
    calls.clear()
    assert belt.run_belt(g, 2 * n_steps) == reference
    assert calls == list(range(midpoint(g)))


def test_mirror_candidates():
    a2 = bg.catalog("A2")  # N = 5: pi is the identity
    pi, rhos = belt.mirror_candidates(a2, a2.half_period)
    assert (pi, list(rhos)) == (bg.Automorphism((0, 1)), [bg.Automorphism((1, 0))])
    g = bg.catalog("A2xA2")  # N = 6: pi is the first colour-reversing one
    pi, rhos = belt.mirror_candidates(g, g.half_period)
    rhos = list(rhos)
    assert rhos == list(bg.automorphism_search(g, "colorReversing"))
    assert pi == rhos[0] and len(rhos) == 2


def test_mirror_candidates_none_beyond_the_search_bound():
    g = bg.catalog("A9xA2")
    assert g.n == 18 and g.half_period % 2 == 1
    with pytest.raises(SearchBoundExceeded):
        bg.automorphism_search(g, "colorReversing")
    assert belt.mirror_candidates(g, g.half_period) is None


def disjoint_a2s(copies):
    # whites first, then blacks: copy c joins vertex c to vertex copies + c
    n = 2 * copies
    b = [[0] * n for _ in range(n)]
    for c in range(copies):
        b[c][copies + c], b[copies + c][c] = 1, -1
    return bg.from_json({"n": n, "b": b, "epsilon": ["w"] * copies + ["b"] * copies})


def zero_bigraph(n):
    b = [[0] * n for _ in range(n)]
    return bg.from_json({"n": n, "b": b, "epsilon": ["w", "b"] * (n // 2)})


@pytest.mark.parametrize(
    "g", [disjoint_a2s(8), zero_bigraph(12)], ids=["8xA2", "zero-b-12"]
)
def test_mirror_on_a_large_symmetry_group_draws_one_candidate(g, monkeypatch):
    # 8! and 6!^2 colour-reversing automorphisms; the first passes
    drawn = []
    search = bg.automorphism_search

    def counting_search(*args):
        for perm in search(*args):
            drawn.append(perm)
            yield perm

    monkeypatch.setattr(belt, "automorphism_search", counting_search)
    n_steps = g.half_period
    for steps in (n_steps, 2 * n_steps + 3):
        drawn.clear()
        assert belt.run_belt(g, steps) == forward_trajectory(g, steps)
        assert len(drawn) == 1, steps


def test_belt_outside_the_theorem_steps_forward():
    # the Kronecker bigraph is recurrent but affine: it has no half period
    g = bg.from_json({"n": 2, "b": [[0, 2], [-2, 0]], "epsilon": ["w", "b"]})
    with pytest.raises(NotAdmissibleBigraph):
        g.half_period
    assert belt.run_belt(g, 9) == forward_trajectory(g, 9)
    # and one state at a time
    assert belt.state_at(g, 9) == forward_trajectory(g, 9)[-1]


@pytest.mark.parametrize("name", ["A2", "A3", "B2", "D4", "A2xA2", "fig1-A5starD4"])
def test_state_at_is_the_state_a_stepped_run_reaches(name, monkeypatch):
    # B2 returns at 6 < 2N = 12; past 2N the run holds 2N + 1 states only
    g = bg.catalog(name)
    two_n = 2 * g.half_period
    stepped = forward_trajectory(g, 2 * two_n + 3)
    lengths = []
    run_belt = belt.run_belt

    def recording_run_belt(g, steps):
        lengths.append(steps)
        return run_belt(g, steps)

    monkeypatch.setattr(belt, "run_belt", recording_run_belt)
    for steps in (0, 3, two_n, two_n + 1, 2 * two_n + 3):
        lengths.clear()
        assert belt.state_at(g, steps) == stepped[steps], steps
        assert lengths == [min(steps, two_n)], steps
    with pytest.raises(InputError, match="steps must be nonnegative"):
        belt.state_at(g, -1)


def test_failed_exchange_names_its_vertex_and_time():
    # vertex 1 of A2 moves first: (x2 + 1) / (x1 + 1) is not a Laurent polynomial
    g = bg.catalog("A2")
    x1, x2 = variables(2)
    state = (x1 + 1, x2)
    with pytest.raises(LaurentPhenomenonViolation) as info:
        belt.step(g, 0, state)
    assert str(info.value).startswith("vertex 1 at time 2: ")


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
    return [None] * g.half_period + [values]


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
    seen = {v.denominator_vector() for s in states for v in s}
    assert seen == {(-1, 0), (0, -1), (1, 0), (1, 1), (0, 1)}


def test_replay_needs_an_automorphism_with_the_colour_behaviour_of_n():
    a2 = bg.catalog("A2")  # N = 5: sigma must reverse colours
    run = relabeled_run(a2, (0, 1))
    belt._replay(a2, run, 5, 10)
    assert len(run) == 6
    # A5 has N = 8; swapping an end with the middle vertex keeps the
    # colours but breaks Gamma
    a5 = bg.catalog("A5")
    ends = [k for k in range(a5.n) if sum(map(bool, a5.gamma[k])) == 1]
    middle = next(k for k in range(a5.n) if sum(map(bool, a5.gamma[k])) == 2
                  and a5.eta(k) == a5.eta(ends[0]))
    perm = tuple({ends[0]: middle, middle: ends[0]}.get(i, i) for i in range(a5.n))
    assert bg.classify_color_behavior(a5, bg.Automorphism(perm)) == "preserving"
    run = relabeled_run(a5, perm)
    belt._replay(a5, run, 8, 16)
    assert len(run) == 9
    x1, x2 = variables(2)
    run = relabeled_run(a2, (1, 0))
    run[-1] = (x2, x1 + 1)
    belt._replay(a2, run, 5, 10)
    assert len(run) == 6
    run = forward_trajectory(a2, 5)
    belt._replay(a2, run, 5, 12)
    assert run == forward_trajectory(a2, 12)
