"""Max-plus belt on scaled ints: periods, shifts, duals, colored counts."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zamobelt.bigraph as bg
import zamobelt.green as green
import zamobelt.tropical as tr
from zamobelt.errors import InputError, NoGammaNeighbour


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


def test_half_period_shift_rejects_wrong_sigma():
    g = bg.catalog("A2")
    lam = (Fraction(-3), Fraction(5))  # asymmetric so the swap is visible
    identity = bg.Automorphism((0, 1))
    swap = bg.Automorphism((1, 0))
    assert tr.tropical_half_period(g, lam, swap)
    assert not tr.tropical_half_period(g, lam, identity)


def test_half_period_shift_trivial_at_zero():
    # the all-zero labeling is fixed by every candidate shift
    g = bg.catalog("A2")
    lam = tr.constant_labeling(2, 0)
    for perm in ((0, 1), (1, 0)):
        sigma = bg.Automorphism(perm)
        assert tr.tropical_half_period(g, lam, sigma)


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
    g = bg.catalog(name)
    n_half = g.half_period
    sigma = green.frozen_isomorphism_check(g)
    for lam in _labelings(g.n):
        states, shifted, steps = _counted_runs(monkeypatch, g, lam, sigma)
        assert steps == n_half, (name, lam)
        assert shifted
        stepped = tr.scaled_states(g, lam, tr.scale_of(lam), 3 * n_half)
        assert len(states) == len(stepped)
        for t, (state, expected) in enumerate(zip(states, stepped)):
            assert state == expected, (name, lam, t)


@pytest.mark.parametrize(
    "name, perm, lam",
    [
        # not an automorphism; the zero labeling matches any map at N
        ("A3", (1, 0, 2), (0, 0, 0)),
        ("A3", (1, 0, 2), (-1, 2, Fraction(1, 3))),
        # an automorphism that preserves colours, though N = 5 is odd
        ("A2", (0, 1), (0, 0)),
        # an automorphism that fits every rule but is not sigma
        ("A3", (0, 1, 2), (-1, 2, Fraction(1, 3))),
        ("D4", (0, 1, 3, 2), (-1, 2, Fraction(1, 3), 5)),
    ],
)
def test_a_planted_bad_sigma_steps_to_3n(monkeypatch, name, perm, lam):
    g = bg.catalog(name)
    n_half = g.half_period
    lam = tuple(Fraction(x) for x in lam)
    sigma = bg.Automorphism(perm)
    states, shifted, steps = _counted_runs(monkeypatch, g, lam, sigma)
    stepped = tr.scaled_states(g, lam, tr.scale_of(lam), 3 * n_half)
    assert steps == 3 * n_half
    assert states == stepped
    assert shifted == tr.read_half_period_shift(g, stepped, sigma)
    assert tr.tropical_half_period(g, lam, sigma) == shifted


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
    with pytest.raises(AttributeError, match="'list' object"):
        tr.tropical_half_period(g, lam, [1, 0])
    with pytest.raises(AttributeError, match="'list' object"):
        next(tr.half_period_runs(g, [lam], [1, 0]))
    assert steps == []
    states = tr.scaled_states(g, lam, tr.scale_of(lam), 3 * g.half_period)
    assert tr.read_half_period_shift(g, states, bg.Automorphism((1, 0)))
    with pytest.raises(AttributeError, match="'list' object"):
        tr.read_half_period_shift(g, states, [1, 0])


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
        tr.scaled_states(g, lam, tr.scale_of(lam), 2 * n_half, events)
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
    assert tr.scale_of(lam) == 12
    states = tr.scaled_states(g, lam, 12, 10)
    assert states[0] == (-3, 10)
    assert all(type(x) is int for state in states for x in state)
    assert [tuple(Fraction(x, 12) for x in s) for s in states] == tr.run_states(
        g, lam, 10
    )
