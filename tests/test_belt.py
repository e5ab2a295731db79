"""Symbolic belt recursion: periodicity, half-period permutation, censuses."""

import hashlib
import importlib.util
import json
import pathlib

import pytest
import sympy

import zamobelt.belt as belt
import zamobelt.bigraph as bg
import zamobelt.cli as cli
import zamobelt.green as green
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


def forbid_automorphism_search(monkeypatch):
    def no_search(*_):
        raise AssertionError("a run searched for automorphisms")

    monkeypatch.setattr(bg, "automorphism_search", no_search)


@pytest.mark.parametrize("name", ["A2", "A2xA3", "fig2-F4xA2"])
def test_mirror_steps_only_to_the_midpoint(name, monkeypatch):
    # odd N mirrors
    g = bg.catalog(name)
    assert g.half_period % 2 == 1
    calls = count_steps(monkeypatch)
    belt.run_belt(g, 2 * g.half_period)
    assert calls == list(range(midpoint(g)))


EVEN_N = ["A3", "E6", "A2xA2", "A2xA4"]


@pytest.mark.parametrize(
    "g",
    [bg.catalog(name) for name in EVEN_N] + [zero_bigraph(12)],
    ids=EVEN_N + ["zero-b-12"],
)
def test_an_even_n_run_steps_to_n(g, monkeypatch):
    # A3 and E6 have no colour-reversing automorphism; A2xA2, A2xA4 and
    # zero-b-12 have one, and the run still neither searches nor mirrors
    assert g.half_period % 2 == 0
    forbid_automorphism_search(monkeypatch)
    calls = count_steps(monkeypatch)
    states = belt.run_belt(g, 2 * g.half_period)
    assert calls == list(range(g.half_period))
    assert states == forward_trajectory(g, 2 * g.half_period)


def test_mirror_check_rejects_a_perturbed_midpoint_value():
    for name in ("A4", "A2xA3"):
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
    reference = forward_trajectory(g, 2 * n_steps)
    calls = count_steps(monkeypatch)
    assert belt.run_belt(g, 2 * n_steps) == reference
    assert calls == list(range(midpoint(g)))
    # colour-preserving: never the mirror's rho; and no rho at all
    for planted in (bg.Automorphism.identity(g.n), None):
        monkeypatch.setattr(belt, "_renaming", lambda *_: planted)
        calls.clear()
        assert belt.run_belt(g, 2 * n_steps) == reference
        assert calls == list(range(n_steps)), planted


def read_rhos(g, monkeypatch):
    """The rhos the mirror reads on a run of g to N, each with whether
    it passed the exact check."""
    read = []
    reader = belt._renaming

    def recording(before, after):
        rho = reader(before, after)
        passed = rho is not None and all(
            a == b.rename(rho) for a, b in zip(after, before)
        )
        read.append((rho, passed))
        return rho

    monkeypatch.setattr(belt, "_renaming", recording)
    belt.run_belt(g, g.half_period)
    return read


@pytest.mark.parametrize(
    "name", list(dict.fromkeys(bg.catalog_names() + _sweep_targets()))
)
def test_the_read_rho_is_the_green_sigma(name, monkeypatch):
    # odd N reads rho = sigma and passes; even N reads no rho
    g = bg.catalog(name)
    read = read_rhos(g, monkeypatch)
    if g.half_period % 2:
        assert read == [(green.frozen_isomorphism_check(g), True)]
    else:
        assert read == []


def test_an_odd_n_bigraph_beyond_the_search_bound_mirrors(monkeypatch):
    g = bg.catalog("A9xA2")
    assert g.n == 18 and g.half_period % 2 == 1
    with pytest.raises(SearchBoundExceeded):
        bg.automorphism_search(g, "colorReversing")
    reference = forward_trajectory(g, g.half_period)
    calls = count_steps(monkeypatch)
    assert belt.run_belt(g, g.half_period) == reference
    assert calls == list(range(midpoint(g)))


@pytest.mark.parametrize("name", ["A2", "D4xA2", "fig2-F4xA2", "A9xA2"])
def test_an_odd_n_run_mirrors_without_an_automorphism_search(name, monkeypatch):
    forbid_automorphism_search(monkeypatch)
    g = bg.catalog(name)
    calls = count_steps(monkeypatch)
    belt.run_belt(g, g.half_period)
    assert calls == list(range(midpoint(g)))


# One SHA-256 over json.dumps([target, text, code]) of `halfperiod` on
# each catalog and sweep target, pinned while even-N runs still drew a
# colour-reversing pi from the automorphism search.
HALFPERIOD_DIGEST = "14676c9bdb9b0e5b"


def test_no_halfperiod_run_searches_and_every_report_stays(monkeypatch):
    forbid_automorphism_search(monkeypatch)
    digest, codes = hashlib.sha256(), set()
    for name in dict.fromkeys(bg.catalog_names() + _sweep_targets()):
        text, code = cli.run_experiment({"command": "halfperiod", "target": name})
        codes.add(code)
        digest.update(json.dumps([name, text, code]).encode())
    assert codes == {0}
    assert digest.hexdigest()[:16] == HALFPERIOD_DIGEST


def test_renaming_recovers_a_planted_permutation():
    g = bg.catalog("D4xA2")
    state = belt.run_belt(g, 3)[3]
    columns = list(zip(*(v.denominator_vector() for v in state)))
    assert len(set(columns)) == g.n  # no tie: the reader has one answer
    planted = bg.Automorphism((3, 0, 7, 1, 6, 2, 5, 4))
    renamed = tuple(v.rename(planted) for v in state)
    assert belt._renaming(state, renamed) == planted
    assert belt._renaming(renamed, state) == planted.inverse


def test_renaming_is_none_on_a_column_with_no_partner():
    x1, x2 = variables(2)
    # columns (-1, 0), (0, -1) against (-1, -1), (0, 1)
    assert belt._renaming((x1, x2), (x1, Laurent.monomial((1, -1)))) is None


def test_renaming_breaks_a_tie_by_the_lowest_free_column():
    x1, x2, x3 = variables(3)
    # before's columns 0 and 1 are equal, so a renaming by (2, 0, 1) is
    # read as (0, 2, 1): the first tied column takes the lowest partner
    before = (x1 * x2, x1 * x2 + x3, x3)
    after = tuple(v.rename((2, 0, 1)) for v in before)
    assert belt._renaming(before, after) == bg.Automorphism((0, 2, 1))


@pytest.mark.parametrize(
    "g", [disjoint_a2s(8), zero_bigraph(12)], ids=["8xA2", "zero-b-12"]
)
def test_mirror_on_a_large_symmetry_group_draws_one_candidate(g, monkeypatch):
    # 8! and 6!^2 colour-reversing automorphisms, and no search: 8xA2 has
    # odd N, reads one rho and steps to M; zero-b-12 has even N, reads
    # none and steps to N
    forbid_automorphism_search(monkeypatch)
    n_steps = g.half_period
    odd = n_steps % 2 == 1
    read = []
    reader = belt._renaming

    def recording(*args):
        read.append(args)
        return reader(*args)

    monkeypatch.setattr(belt, "_renaming", recording)
    calls = count_steps(monkeypatch)
    for steps in (n_steps, 2 * n_steps + 3):
        reference = forward_trajectory(g, steps)
        read.clear()
        calls.clear()
        assert belt.run_belt(g, steps) == reference
        assert len(read) == odd, steps
        assert calls == list(range(midpoint(g) if odd else n_steps)), steps


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


# -- planted wrong derived states ------------------------------------------------


def swapped(state):
    """state with its first two entries swapped."""
    return (state[1], state[0], *state[2:])


def test_a_wrong_mirrored_state_at_n_fails_halfperiod(monkeypatch):
    # fig2 has N = 15 and M = 8: the mirror derives S_9 .. S_15 from
    # the states before M, and a wrong S_N is read as a permutation that
    # is no automorphism
    g = bg.catalog("fig2-F4xA2")
    n_steps = g.half_period
    assert (n_steps, midpoint(g)) == (15, 8)
    config = {"command": "halfperiod", "target": "fig2-F4xA2"}
    assert cli.run_experiment(config)[1] == 0
    real = belt._mirror

    def wrong(g, states, n_steps, last):
        real(g, states, n_steps, last)
        states[n_steps] = swapped(states[n_steps])

    monkeypatch.setattr(belt, "_mirror", wrong)
    calls = count_steps(monkeypatch)
    assert cli.run_experiment(config) == (
        "falsified: half-period permutation does not preserve (Gamma, Delta)\n",
        1,
    )
    # S_N was derived, not stepped; the replay refuses it, and the run
    # steps on from it to 2N
    assert calls == list(range(midpoint(g))) + list(range(n_steps, 2 * n_steps))


def test_a_wrong_replayed_state_at_2n_fails_halfperiod(monkeypatch):
    # A3 has N = 6: the replay re-indexes S_7 .. S_12 by sigma, and a
    # wrong S_2N is no return to S_0
    g = bg.catalog("A3")
    config = {"command": "halfperiod", "target": "A3"}
    assert cli.run_experiment(config)[1] == 0
    real = belt.replay

    def wrong(states, sigma, shift, last):
        real(states, sigma, shift, last)
        states[last] = swapped(states[last])

    monkeypatch.setattr(belt, "replay", wrong)
    calls = count_steps(monkeypatch)
    assert cli.run_experiment(config) == (
        "falsified: no recurrence within 2N = 12 steps\n",
        1,
    )
    assert calls == list(range(g.half_period))
