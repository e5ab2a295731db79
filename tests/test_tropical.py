"""Max-plus belt on scaled ints: periods, shifts, duals, colored counts."""

import json
import random
import re
import time
from collections import Counter
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zamobelt.belt as belt
import zamobelt.bigraph as bg
import zamobelt.cli as cli
import zamobelt.green as green
import zamobelt.tropical as tr
from zamobelt.errors import (
    ClaimViolation,
    InputError,
    InvalidLabeling,
    InvalidPermutation,
    NoGammaNeighbour,
)


def rationals() -> st.SearchStrategy:
    return st.fractions(
        min_value=Fraction(-20), max_value=Fraction(20), max_denominator=8
    )


# -- the recursion itself -----------------------------------------------------


def test_a2_run_at_minus_one():
    g = bg.catalog("A2")
    lam = tr.constant_labeling(2, -1)
    states = tr.run_states(g, lam, 10)
    assert states[0] == (-1, -1)
    # T1(2) accounts for max(T2(1), 0) - T1(0) = max(-1, 0) + 1 = 1
    assert states[1][0] == 1
    assert states[10] == states[0]


def test_events_record_exact_sums():
    g = bg.catalog("A2")
    events = []
    tr.run_states(g, tr.constant_labeling(2, -1), 10, events)
    assert len(events) == 10
    assert all(isinstance(e.gamma_sum, Fraction) for e in events)
    first = events[0]
    assert first.t == 2 and first.k == 0
    assert first.gamma_sum == -1 and first.delta_sum == 0
    assert first.color == "blue"


@given(values=st.tuples(rationals(), rationals()))
@settings(max_examples=60)
def test_involution_two_steps_back(values):
    # stepping twice and solving back recovers the input exactly
    g = bg.catalog("A2")
    states = tr.run_states(g, values, 10)
    assert states[10] == states[0]


# -- the step against its formula ------------------------------------------------


@st.composite
def movers_and_values(draw):
    """A random two-colour timetable in the shape of `Bigraph.movers`:
    each vertex moves at the parity of its colour, in vertex order, with
    Gamma and Delta in-edges of weight 1 to 3 from vertices of the other
    colour.  Some Delta lists are empty.  Values are ints of any sign."""
    n = draw(st.integers(min_value=1, max_value=7))
    colour = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    weight = st.integers(min_value=1, max_value=3)
    by_parity = ([], [])
    for k in range(n):
        others = [i for i in range(n) if colour[i] != colour[k]]
        gamma = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
        rest = [i for i in others if i not in gamma]
        delta = []
        if rest and draw(st.booleans()):
            delta = draw(st.lists(st.sampled_from(rest), unique=True))
        by_parity[colour[k]].append(
            (
                k,
                tuple((i, draw(weight)) for i in sorted(gamma)),
                tuple((j, draw(weight)) for j in sorted(delta)),
            )
        )
    values = tuple(draw(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n)))
    c = draw(st.integers(min_value=0, max_value=9))
    scale = draw(st.integers(min_value=1, max_value=12))
    return n, tuple(map(tuple, by_parity)), c, values, scale


def dense_step(n, movers, c, values, scale, events):
    """step_values by its formula: dense Gamma and Delta columns, the
    max of the two weighted sums, less the old value."""
    gamma = [[0] * n for _ in range(n)]
    delta = [[0] * n for _ in range(n)]
    for k, gamma_in, delta_in in movers[c % 2]:
        for i, w in gamma_in:
            gamma[i][k] = w
        for j, w in delta_in:
            delta[j][k] = w
    out = list(values)
    for k, _, _ in movers[c % 2]:
        gamma_sum = sum(gamma[i][k] * values[i] for i in range(n))
        delta_sum = sum(delta[j][k] * values[j] for j in range(n))
        out[k] = max(gamma_sum, delta_sum) - values[k]
        if gamma_sum > delta_sum:
            color = tr.RED
        elif delta_sum > gamma_sum:
            color = tr.BLUE
        else:
            color = tr.TIE
        events.append(
            (c + 2, k, color, Fraction(gamma_sum, scale), Fraction(delta_sum, scale))
        )
    return tuple(out)


@settings(max_examples=200, deadline=None)
@given(movers_and_values())
def test_step_values_matches_its_dense_formula(case):
    n, movers, c, values, scale = case
    expected_events = []
    expected = dense_step(n, movers, c, values, scale, expected_events)
    assert tr.step_values(movers, c, values, scale) == expected
    events = []
    assert tr.step_values(movers, c, values, scale, events) == expected
    assert [(e.t, e.k, e.color, e.gamma_sum, e.delta_sum) for e in events] == (
        expected_events
    )
    assert all(
        type(e.gamma_sum) is Fraction and type(e.delta_sum) is Fraction for e in events
    )


# -- which labeling entries are read ------------------------------------------------


REFUSED_ENTRIES = pytest.mark.parametrize(
    "entry, shown",
    [
        (0.1, "0.1 (float)"),
        ("1/2", "'1/2' (str)"),
        (True, "True (bool)"),
        (float("nan"), "nan (float)"),
    ],
    ids=["float", "str", "bool", "nan"],
)


@REFUSED_ENTRIES
def test_a_labeling_entry_neither_int_nor_fraction_is_refused(
    monkeypatch, entry, shown
):
    # each was read through Fraction: 0.1 at scale 2**55, "1/2" as a
    # half, True as 1, and NaN with a bare ValueError
    g = bg.catalog("A2")
    lam = (-1, entry)
    sigma = green.frozen_isomorphism_check(g)
    steps = []
    real = tr.step_values

    def counting(*args):
        steps.append(args)
        return real(*args)

    monkeypatch.setattr(tr, "step_values", counting)
    message = "^labeling entry 2 is %s, not an int or a Fraction$" % re.escape(shown)
    for call in (
        lambda: tr.scaled_labeling(lam),
        lambda: tr.scaled_states(g, lam, 10),
        lambda: tr.run_states(g, lam, 10),
        lambda: tr.tropical_period(g, lam, 10),
        lambda: tr.tropical_half_period(g, lam, sigma),
        lambda: tr.dual_transfer_check(g, lam),
        lambda: tr.colored_census(g, lam),
    ):
        with pytest.raises(InvalidLabeling, match=message):
            call()
    assert steps == []
    assert issubclass(InvalidLabeling, InputError)


@REFUSED_ENTRIES
def test_a_constant_labeling_of_an_entry_neither_int_nor_fraction_is_refused(
    entry, shown
):
    message = "^labeling entry 1 is %s, not an int or a Fraction$" % re.escape(shown)
    with pytest.raises(InvalidLabeling, match=message):
        tr.constant_labeling(3, entry)


def test_int_and_fraction_entries_are_read_alike():
    g = bg.catalog("A3")
    as_ints = (-3, 2, 0)
    as_fractions = tuple(map(Fraction, as_ints))
    assert tr.scaled_labeling(as_ints) == tr.scaled_labeling(as_fractions)
    assert tr.run_states(g, as_ints, 12) == tr.run_states(g, as_fractions, 12)
    # a constant labeling is its entry as given, checked
    assert tr.constant_labeling(3, -1) == (-1, -1, -1)
    assert tr.constant_labeling(2, Fraction(-1, 3)) == (Fraction(-1, 3),) * 2
    negative = (-1, -2, -3)
    assert tr.colored_census(g, negative) == tr.colored_census(
        g, tuple(map(Fraction, negative))
    )
    # a long entry is named in bounded text
    with pytest.raises(InvalidLabeling) as error:
        tr.scaled_labeling((1, "9" * 10_000))
    assert len(str(error.value)) < 100


# -- periodicity ----------------------------------------------------------------


def test_zero_labeling_has_period_two():
    for name in ("A2", "A3", "fig1-A5starD4"):
        g = bg.catalog(name)
        lam = tr.constant_labeling(g.n, 0)
        assert tr.tropical_period(g, lam, 2 * g.half_period) == 2, name


def test_tropical_period_goldens():
    g = bg.catalog("A2")
    assert tr.tropical_period(g, tr.constant_labeling(2, -1), 10) == 10
    d4 = bg.catalog("D4")
    assert tr.tropical_period(d4, tr.constant_labeling(4, -1), 16) == 8


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_random_labelings_divide_two_n(seed: int):
    rng = tr.make_rng(seed)
    for name in ("A3", "B2", "A2xA2"):
        g = bg.catalog(name)
        lam = tr.random_labeling(rng, g.n)
        period = tr.tropical_period(g, lam, 2 * g.half_period)
        assert period is not None and (2 * g.half_period) % period == 0, name


def test_figure_two_tropical_period_over_many_labelings():
    g = bg.catalog("fig2-F4xA2")
    rng = tr.make_rng(7)
    for _ in range(100):
        lam = tr.random_labeling(rng, g.n)
        period = tr.tropical_period(g, lam, 30)
        assert period is not None and 30 % period == 0


# -- the half period shift --------------------------------------------------------


def test_half_period_shift_with_frozen_sigma():
    for name in ("A2", "A4", "fig1-A5starD4", "fig2-F4xA2", "D4"):
        g = bg.catalog(name)
        sigma = green.frozen_isomorphism_check(g)
        rng = tr.make_rng(3)
        for _ in range(20):
            lam = tr.random_labeling(rng, g.n)
            assert tr.tropical_half_period(g, lam, sigma), name


PARITY_A2 = "^color behavior preserving does not match parity of N=5$"


def test_half_period_shift_rejects_wrong_sigma():
    g = bg.catalog("A2")
    lam = (Fraction(-3), Fraction(5))  # asymmetric so the swap is visible
    identity = bg.Automorphism((0, 1))
    swap = bg.Automorphism((1, 0))
    assert tr.tropical_half_period(g, lam, swap)
    # N = 5 is odd, so a colour-preserving sigma breaks the rules
    with pytest.raises(ClaimViolation, match=PARITY_A2):
        tr.tropical_half_period(g, lam, identity)


def test_half_period_shift_trivial_at_zero():
    # the all-zero labeling is fixed by the swap, and the identity is
    # refused before any step, though it too fixes that labeling
    g = bg.catalog("A2")
    lam = tr.constant_labeling(2, 0)
    assert tr.tropical_half_period(g, lam, bg.Automorphism((1, 0)))
    with pytest.raises(ClaimViolation, match=PARITY_A2):
        tr.tropical_half_period(g, lam, bg.Automorphism((0, 1)))


def _counted_runs(monkeypatch, g, lam, sigma):
    """The one run of half_period_runs on lam, and how many steps it made."""
    steps = []
    real = tr.step_values

    def counting(*args):
        steps.append(args)
        return real(*args)

    monkeypatch.setattr(tr, "step_values", counting)
    states, shifted = next(tr.half_period_runs(g, [lam], sigma))
    monkeypatch.setattr(tr, "step_values", real)
    return states, shifted, len(steps)


def _labelings(n):
    rng = tr.make_rng(11)
    return [
        tr.constant_labeling(n, 0),
        tr.constant_labeling(n, -1),
        tuple(Fraction(i + 1, 2) * (-1) ** i for i in range(n)),
    ] + [tr.random_labeling(rng, n) for _ in range(3)]


@pytest.mark.parametrize("name", bg.catalog_names() + ["E6", "E7", "E8"])
def test_replayed_states_equal_a_stepped_3n_run(monkeypatch, name):
    # a run holds times 0..2N, in N steps; replayed on past it to 3N, it
    # still equals a stepped run, as the replay holds at every t >= 0
    g = bg.catalog(name)
    n_half = g.half_period
    sigma = green.frozen_isomorphism_check(g)
    for lam in _labelings(g.n):
        states, shifted, steps = _counted_runs(monkeypatch, g, lam, sigma)
        assert steps == n_half, (name, lam)
        assert shifted
        assert len(states) == 2 * n_half + 1
        bg.replay(states, sigma, n_half, 3 * n_half)
        stepped = tr.scaled_states(g, lam, 3 * n_half)[1]
        assert len(states) == len(stepped)
        for t, (state, expected) in enumerate(zip(states, stepped)):
            assert state == expected, (name, lam, t)


@pytest.mark.parametrize(
    "name, perm, lam, message",
    [
        # not an automorphism; the zero labeling matches any map at N
        ("A3", (1, 0, 2), (0, 0, 0), "does not preserve"),
        ("A3", (1, 0, 2), (-1, 2, Fraction(1, 3)), "does not preserve"),
        # an automorphism that preserves colours, though N = 5 is odd
        ("A2", (0, 1), (0, 0), "does not match parity of N=5"),
    ],
    ids=["A3-perm0-lam0", "A3-perm1-lam1", "A2-perm2-lam2"],
)
def test_a_sigma_outside_the_rules_is_refused_before_any_step(
    monkeypatch, name, perm, lam, message
):
    g = bg.catalog(name)
    steps = []
    real = tr.step_values

    def counting(*args):
        steps.append(args)
        return real(*args)

    monkeypatch.setattr(tr, "step_values", counting)
    with pytest.raises(ClaimViolation, match=message):
        next(tr.half_period_runs(g, [lam], bg.Automorphism(perm)))
    assert steps == []


@pytest.mark.parametrize(
    "name, perm, lam",
    [
        # automorphisms that fit every rule but are not sigma
        ("A3", (0, 1, 2), (-1, 2, Fraction(1, 3))),
        ("D4", (0, 1, 3, 2), (-1, 2, Fraction(1, 3), 5)),
    ],
    ids=["A3-perm3-lam3", "D4-perm4-lam4"],
)
def test_a_wrong_sigma_within_the_rules_steps_to_2n(monkeypatch, name, perm, lam):
    g = bg.catalog(name)
    n_half = g.half_period
    lam = tuple(Fraction(x) for x in lam)
    sigma = bg.Automorphism(perm)
    bg.classify_sigma(g, sigma)
    states, shifted, steps = _counted_runs(monkeypatch, g, lam, sigma)
    assert steps == 2 * n_half
    assert states == tr.scaled_states(g, lam, 2 * n_half)[1]
    assert not shifted
    assert not tr.tropical_half_period(g, lam, sigma)


def test_a_list_sigma_is_refused_before_any_step(monkeypatch):
    # sigma must be an Automorphism; a list is not wrapped silently
    g = bg.catalog("A2")
    lam = (Fraction(-3), Fraction(5))
    steps = []
    real = tr.step_values

    def counting(*args):
        steps.append(args)
        return real(*args)

    monkeypatch.setattr(tr, "step_values", counting)
    with pytest.raises(InvalidPermutation, match="'list' object"):
        tr.tropical_half_period(g, lam, [1, 0])
    with pytest.raises(InvalidPermutation, match="'list' object"):
        next(tr.half_period_runs(g, [lam], [1, 0]))
    assert steps == []


# -- duals -------------------------------------------------------------------------


def test_dual_transfer_simply_laced_is_trivial_scaling():
    g = bg.catalog("A3")
    lam = (Fraction(-1), Fraction(2), Fraction(-5))
    assert tr.dual_transfer_check(g, lam)


def test_dual_transfer_on_multiply_laced_entries():
    rng = tr.make_rng(11)
    for name in ("B2", "C2", "G2", "B3", "C3", "B2xB2", "G2xG2"):
        g = bg.catalog(name)
        for _ in range(10):
            assert tr.dual_transfer_check(g, tr.random_labeling(rng, g.n)), name


# -- colored censuses ---------------------------------------------------------------


def test_census_goldens():
    expected = {
        "A2": (6, 4),
        "A3": (12, 6),
        "A4": (20, 8),
        "D4": (24, 8),
        "B2": (8, 4),
        "G2": (12, 4),
    }
    for name, (red, blue) in expected.items():
        g = bg.catalog(name)
        census = tr.colored_census(g, tr.constant_labeling(g.n, -1))
        assert (census.red, census.blue) == (red, blue), name
        assert census.ties == 0, name


def test_census_blue_times_of_a2():
    census = tr.colored_census(bg.catalog("A2"), tr.constant_labeling(2, -1))
    assert census.blue_times == (2, 6, 7, 11)
    assert tr.blue_times_admissible(census, 5)


def test_blue_times_admissible_windows():
    for name in ("A3", "A4", "B3", "D4", "G2"):
        g = bg.catalog(name)
        census = tr.colored_census(g, tr.constant_labeling(g.n, -1))
        assert tr.blue_times_admissible(census, g.half_period), name


def test_census_guards():
    with pytest.raises(InputError):
        tr.colored_census(bg.catalog("A2xA2"), tr.constant_labeling(4, -1))
    with pytest.raises(InputError):
        tr.colored_census(bg.catalog("A2"), (Fraction(-1), Fraction(0)))
    # signs are read on the scaled ints, which a positive scale keeps
    g = bg.catalog("A2")
    with pytest.raises(InputError, match="all-negative"):
        tr.colored_census(g, (Fraction(-1, 7), Fraction(1, 1000)))
    assert tr.colored_census(g, (Fraction(-1, 7), Fraction(-1, 1000))).ties == 0
    with pytest.raises(InputError, match="^labeling length 3, expected 2$"):
        tr.colored_census(g, (-1, -1, -1))


def test_tie_policy_rejects_vertex_without_gamma_neighbour():
    # the census's one tie policy: a single vertex with no edges compares
    # two empty sums, so every event ties at every labeling, and the
    # census refuses it as an input it cannot judge
    g = bg.catalog("A1")
    for lam in (tr.constant_labeling(1, -1), (Fraction(-3, 7),)):
        with pytest.raises(NoGammaNeighbour, match=r"vertices \[1\]"):
            tr.colored_census(g, lam)


# every plain catalog entry with an edge, and the Dynkin types up to
# rank 8 the catalog builds on demand
CENSUS_ENTRIES = sorted(
    {name for name in bg.catalog_names() if bg.catalog(name).plain and name != "A1"}
    | {"A%d" % r for r in range(2, 9)}
    | {"B%d" % r for r in range(2, 7)}
    | {"C%d" % r for r in range(2, 7)}
    | {"D%d" % r for r in range(4, 8)}
    | {"E6", "E7", "E8", "F4", "G2"}
)


@pytest.mark.parametrize("name", CENSUS_ENTRIES)
def test_census_events_are_blue_exactly_at_the_initial_slices(name):
    # the lemma in colored_census's docstring: at any all-negative
    # labeling an event is blue exactly when its inputs sit at a time
    # 0, 1, N or N+1 (mod 2N), red otherwise, and never ties
    g = bg.catalog(name)
    n_half = g.half_period
    rng = tr.make_rng(13)
    labelings = [tr.constant_labeling(g.n, -1)]
    labelings += [
        tuple(Fraction(-rng.randint(1, 1000), rng.randint(1, 100)) for _ in range(g.n))
        for _ in range(20)
    ]
    for lam in labelings:
        events = []
        tr.scaled_states(g, lam, 2 * n_half, events)
        assert len(events) == n_half * g.n
        for e in events:
            expected = tr.BLUE if (e.t - 1) % n_half in (0, 1) else tr.RED
            assert e.color == expected, (name, lam, e)
        census = tr.colored_census(g, lam)
        assert census.ties == 0
        assert (census.red, census.blue) == (g.h_gamma * g.n, 2 * g.n), name


# -- the scaled-int run against a Fraction reference --------------------------
#
# The reference below is the stepping the engine did before it moved to
# scaled ints: Fraction sums over a rescan of every row at every active
# vertex.  The engine must agree with it exactly.


def reference_step(g, c, values, events):
    out = list(values)
    for k in range(g.n):
        if g.eta(k) % 2 != c % 2:
            continue
        gamma_sum = sum(
            (g.gamma[i][k] * values[i] for i in range(g.n) if g.gamma[i][k]),
            Fraction(0),
        )
        delta_sum = sum(
            (g.delta[j][k] * values[j] for j in range(g.n) if g.delta[j][k]),
            Fraction(0),
        )
        out[k] = max(gamma_sum, delta_sum) - values[k]
        if gamma_sum > delta_sum:
            color = tr.RED
        elif delta_sum > gamma_sum:
            color = tr.BLUE
        else:
            color = tr.TIE
        events.append((c + 2, k, color, gamma_sum, delta_sum))
    return tuple(out)


def reference_run(g, lam, steps, events):
    states = [tuple(Fraction(x) for x in lam)]
    for c in range(steps):
        states.append(reference_step(g, c, states[-1], events))
    return states


def reference_dual_check(g, lam):
    c = g.base.c
    lam_tilde = tuple(ci * Fraction(x) for ci, x in zip(c, lam))
    steps = 2 * g.half_period
    dual_states = reference_run(bg.dual_bigraph(g), lam, steps, [])
    primal_states = reference_run(g, lam_tilde, steps, [])
    return all(
        d[i] * c[i] == p[i]
        for d, p in zip(dual_states, primal_states)
        for i in range(g.n)
    )


@st.composite
def entries_and_labelings(draw):
    """A catalog entry and a labeling whose entries have mixed denominators."""
    g = bg.catalog(draw(st.sampled_from(bg.catalog_names())))
    entry = st.builds(
        Fraction, st.integers(-60, 60), st.sampled_from((1, 2, 3, 4, 6, 7, 9, 25))
    )
    lam = tuple(draw(st.lists(entry, min_size=g.n, max_size=g.n)))
    return g, lam


@settings(max_examples=60, deadline=None)
@given(entries_and_labelings())
def test_scaled_run_matches_fraction_reference(case):
    g, lam = case
    steps = 2 * g.half_period
    expected_events = []
    expected = reference_run(g, lam, steps, expected_events)
    events = []
    states = tr.run_states(g, lam, steps, events)
    assert states == expected
    assert all(isinstance(x, Fraction) for state in states for x in state)
    assert [(e.t, e.k, e.color, e.gamma_sum, e.delta_sum) for e in events] == (
        expected_events
    )
    assert all(
        isinstance(e.gamma_sum, Fraction) and isinstance(e.delta_sum, Fraction)
        for e in events
    )


@settings(max_examples=40, deadline=None)
@given(entries_and_labelings())
def test_scaled_dual_check_matches_fraction_reference(case):
    g, lam = case
    assert tr.dual_transfer_check(g, lam) == reference_dual_check(g, lam)


def test_scaled_states_carry_the_lcm_of_the_denominators():
    g = bg.catalog("A2")
    lam = (Fraction(-1, 4), Fraction(5, 6))
    scale, states = tr.scaled_states(g, lam, 10)
    assert scale == 12
    assert states[0] == (-3, 10)
    assert all(type(x) is int for state in states for x in state)
    assert [tuple(Fraction(x, 12) for x in s) for s in states] == tr.run_states(
        g, lam, 10
    )


@pytest.mark.parametrize(
    "run",
    [tr.scaled_states, tr.run_states, tr.tropical_period],
    ids=lambda f: f.__name__,
)
@pytest.mark.parametrize("steps", [-1, -2, -3])
def test_a_negative_step_count_is_refused(run, steps):
    # as `belt.run_belt` refuses it: no run holds the states of a
    # negative number of steps
    with pytest.raises(InputError, match="^steps must be nonnegative$"):
        run(bg.catalog("A2"), (-1, -1), steps)


# -- trials on drawn ints -----------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_int_draws_are_a_hundred_times_the_fraction_labeling(seed):
    # the draws the trials always made, in the same order: the
    # generators end in one state
    as_ints, as_fractions, by_hand = (tr.make_rng(seed) for _ in range(3))
    for n in (1, 3, 8, 49):
        drawn = tr.random_int_labeling(as_ints, n)
        lam = tr.random_labeling(as_fractions, n)
        assert drawn == tuple(by_hand.randint(-1000, 1000) for _ in range(n))
        assert all(type(x) is int for x in drawn)
        assert drawn == tuple(100 * x for x in lam)
        assert as_ints.getstate() == as_fractions.getstate() == by_hand.getstate()


class NoFraction:
    """Stands in for Fraction where a run on ints must build none."""

    def __new__(cls, *args):
        raise AssertionError("a Fraction was built from %r" % (args,))


@pytest.mark.parametrize("name", bg.catalog_names() + ["E6", "E7", "E8"])
def test_both_forms_of_a_labeling_give_one_verdict(monkeypatch, name):
    # half_period_runs and dual_transfer_check on the drawn ints and on
    # the same draws over 100: the scaled states agree up to the factor
    # 100 / scale, so every period, shift and dual verdict does; the ints
    # are read with no Fraction built
    g = bg.catalog(name)
    n_half = g.half_period
    sigma = green.frozen_isomorphism_check(g)
    rng = tr.make_rng(17)
    drawn = [tr.random_int_labeling(rng, g.n) for _ in range(5)]
    drawn.append((0,) * g.n)
    fractions = [tuple(Fraction(x, 100) for x in lam) for lam in drawn]
    runs = list(tr.half_period_runs(g, fractions, sigma))
    duals = [tr.dual_transfer_check(g, lam) for lam in fractions]
    monkeypatch.setattr(tr, "Fraction", NoFraction)
    int_runs = list(tr.half_period_runs(g, drawn, sigma))
    assert [tr.dual_transfer_check(g, lam) for lam in drawn] == duals == [True] * 6
    monkeypatch.undo()
    for lam, (states, shifted), (int_states, int_shifted) in zip(
        fractions, runs, int_runs
    ):
        grow = 100 // tr.scaled_labeling(lam)[0]
        assert int_states == [tuple(grow * x for x in state) for state in states]
        assert int_shifted == shifted
        assert bg.first_return(int_states[: 2 * n_half + 1]) == bg.first_return(
            states[: 2 * n_half + 1]
        )


def test_scaled_labeling_reads_ints_as_they_are_and_clears_each_denominator():
    assert tr.scaled_labeling((-3, 0, 7)) == (1, (-3, 0, 7))
    lam = (2, Fraction(-1, 4), 3, Fraction(5, 6), Fraction(1, 3))
    scale, ints = tr.scaled_labeling(lam)
    assert scale == 12
    assert ints == tuple(int(12 * x) for x in lam) == (24, -3, 36, 10, 4)
    assert all(type(x) is int for x in ints)
    with pytest.raises(InputError, match="^labeling length 2, expected 3$"):
        tr.dual_transfer_check(bg.catalog("A3"), (1, 2))


@pytest.mark.parametrize(
    "t, planted",
    [
        # state(0) at an even time that does not divide 2N = 12
        (8, "initial"),
        (10, "initial"),
        # a wrong state at 2N: the run never returns
        (12, "shifted"),
    ],
)
def test_a_wrong_replayed_state_fails_the_tropical_command(monkeypatch, t, planted):
    # the trial labeling of seed 7 on A3 has period 2N; the replayed
    # state at t is planted wrong, after the shift was judged at N, and
    # the period read over the replayed states fails the command
    g = bg.catalog("A3")
    n_half = g.half_period
    lam = tr.random_int_labeling(tr.make_rng(7), g.n)
    assert tr.tropical_period(g, lam, 2 * n_half) == 2 * n_half == 12
    config = {"command": "tropical", "target": "A3", "seed": 7, "trials": 1}
    assert cli.run_experiment(config)[1] == 0
    real = tr.replay

    def wrong(states, sigma, shift, last):
        real(states, sigma, shift, last)
        if planted == "initial":
            states[t] = states[0]
        else:
            states[t] = tuple(x + 1 for x in states[t])

    monkeypatch.setattr(tr, "replay", wrong)
    text, code = cli.run_experiment(config)
    report = json.loads(text)
    assert code == 1
    assert report["periodsDivide2N"] is False and report["halfPeriodShiftOk"] is True


def test_a_planted_wrong_frozen_sigma_fails_the_tropical_command(monkeypatch):
    # the identity passes A3's rules (N = 6 is even) but is not its
    # sigma: each of the 3 trials fails the shift at t = 0 and steps to
    # 2N, where its period is read
    g = bg.catalog("A3")
    identity = bg.Automorphism.identity(g.n)
    monkeypatch.setattr(green, "frozen_isomorphism_check", lambda g: identity)
    steps = []
    real = tr.step_values

    def counting(*args):
        steps.append(args)
        return real(*args)

    monkeypatch.setattr(tr, "step_values", counting)
    config = {"command": "tropical", "target": "A3", "seed": 7, "trials": 3}
    text, code = cli.run_experiment(config)
    report = json.loads(text)
    assert code == 1
    assert report["periodsDivide2N"] is True and report["halfPeriodShiftOk"] is False
    assert report["sigma"] == "id"
    assert len(steps) == 3 * 2 * g.half_period == 36


# -- one reader per labeling --------------------------------------------------


def test_every_entry_point_reads_each_labeling_once(monkeypatch):
    # scaled_labeling is the one reader; each entry point calls it once
    # per labeling and carries the scale it returns
    g = bg.catalog("A3")
    sigma = green.frozen_isomorphism_check(g)
    lam = (Fraction(-1, 4), -2, Fraction(-5, 6))
    others = [(-1, 2, 3), (0, 0, 0)]
    read = []
    real = tr.scaled_labeling

    def spy(labeling):
        read.append(labeling)
        return real(labeling)

    monkeypatch.setattr(tr, "scaled_labeling", spy)
    for name, call in (
        ("run_states", lambda: tr.run_states(g, lam, 12)),
        ("tropical_period", lambda: tr.tropical_period(g, lam, 12)),
        ("colored_census", lambda: tr.colored_census(g, lam)),
        ("tropical_half_period", lambda: tr.tropical_half_period(g, lam, sigma)),
        ("dual_transfer_check", lambda: tr.dual_transfer_check(g, lam)),
    ):
        read.clear()
        call()
        assert read == [lam], name
    read.clear()
    list(tr.half_period_runs(g, [lam] + others, sigma))
    assert read == [lam] + others


# -- the bridge to the symbolic track -------------------------------------------
#
# Every belt value is a Laurent polynomial with positive coefficients and
# the exchange relation is subtraction-free, so no term ever cancels: the
# max-plus run at lambda is, at every time and vertex, max <e, lambda>
# over the value's exponents e, the support function of its Newton
# polytope.  The two tracks are computed apart.

SUPPORT_TARGETS = [
    "A3", "B3", "C3", "G2", "D4", "E6", "A2xA3", "B2xB2", "G2xG2",
    "fig1-A5starD4", "fig2-F4xA2",
]


def support_labelings(n, seed):
    """Every +-e_i, then 5 seeded int vectors with entries in [-9, 9]."""
    rng = random.Random(seed)
    units = [
        tuple(sign * (j == i) for j in range(n)) for i in range(n) for sign in (1, -1)
    ]
    return units + [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(5)]


@pytest.mark.parametrize("name", SUPPORT_TARGETS)
def test_the_tropical_run_is_the_support_function_of_the_belt_values(name):
    g = bg.catalog(name)
    steps = 2 * g.half_period
    exponents = []
    for state in belt.run_belt(g, steps):
        row = []
        for value in state:
            terms = value.terms
            assert min(terms.values()) > 0
            row.append(tuple(terms))
        exponents.append(row)
    for lam in support_labelings(g.n, name):
        scale, states = tr.scaled_states(g, lam, steps)
        assert len(states) == len(exponents) == steps + 1
        for t, (row, values) in enumerate(zip(exponents, states)):
            for i, (es, x) in enumerate(zip(row, values)):
                top = max(sum(map(mul, e, lam)) for e in es)
                assert scale * top == x, (lam, t, i + 1)


# -- d-vectors off the tropical runs ------------------------------------------
#
# By the support function above, the run at lambda = -e_i gives entry i
# of every value's d-vector: minus its least exponent of x_i.  The Laurent
# route (`Laurent.denominator_vector` over the belt's values) stays here
# as the reference the tropical check is compared with.

DENOMINATOR_TARGETS = [
    name for name in bg.catalog_names() if bg.catalog(name).plain
] + ["F4", "E6", "D5"]


def tropical_d_vectors(g):
    """The d-vectors of the values up to N - 2, read off n tropical runs."""
    runs = []
    for i in range(g.n):
        lam = tuple(-1 if j == i else 0 for j in range(g.n))
        runs.append(bg.produced(g, tr.scaled_states(g, lam, g.half_period - 2)[1]))
    return Counter(zip(*runs))


@pytest.mark.parametrize("name", DENOMINATOR_TARGETS)
def test_the_tropical_d_vectors_are_the_laurent_ones(name):
    g = bg.catalog(name)
    states = belt.run_belt(g, g.half_period - 2)
    laurent_side = Counter(v.denominator_vector() for v in bg.produced(g, states))
    assert laurent_side == tropical_d_vectors(g)
    assert sum(laurent_side.values()) == g.n * g.half_period // 2
    assert tr.denominator_bijection_check(g)


@pytest.mark.parametrize("name", ["E7", "E8"])
def test_the_denominator_bijection_holds_where_the_laurent_belt_is_out_of_reach(name):
    g = bg.catalog(name)
    start = time.perf_counter()
    assert tr.denominator_bijection_check(g)
    assert time.perf_counter() - start < 1.0


def test_the_denominator_bijection_sees_a_missing_root(monkeypatch):
    g = bg.catalog("D4")
    roots = tr.dynkin.positive_roots
    monkeypatch.setattr(tr.dynkin, "positive_roots", lambda cartan: roots(cartan)[1:])
    assert not tr.denominator_bijection_check(g)


def test_the_denominator_bijection_needs_a_plain_entry():
    text = r"^denominator bijection needs an empty Delta \(a plain Dynkin entry\)$"
    with pytest.raises(InputError, match=text):
        tr.denominator_bijection_check(bg.catalog("A2xA2"))
