"""Framed mutation: c-vectors, green sequences, frozen isomorphisms.

The engine's derived shortcuts, each with the tests that make one
premise fail and get the stepped answer (or, where nothing is stepped,
the named failure), and the ones that plant a wrong derived answer and
get exit 1.  The green track's are tested here; the mirror and the
replays, in test_belt and test_tropical, as the row says:

| shortcut | a premise fails: the stepped answer | a wrong answer: exit 1 |
|---|---|---|
| frozen state read off the certificates the bigraph holds, as (block, packed c-vectors) relabeled where they are held: the only sigma route, with no coframed walk | no walk to fall back to: a broken premise exits 1 naming it, `test_a_broken_premise_raises_no_isomorphism_naming_it`, and a bigraph not recurrent exits 2, `test_a_bigraph_not_known_recurrent_is_not_recurrent`; `test_the_derived_final_state_is_the_walked_one` (the pair equals the coframed belt's end stepped by the tests' dense rule), `test_the_derive_reads_the_certificates_rows_as_they_are_held` (no n x 2n ext is built, no walk runs) | `test_a_planted_order_three_sigma_is_a_claim_violation` (a planted pair), `test_a_derived_state_with_a_broken_c_raises_the_walks_text`, `test_a_derived_state_with_a_broken_block_is_no_relabeling` |
| checks on the moved rows only, found as the pivot's index entry and k, confirmed by one compare per track | `test_incoherent_row_the_mutation_leaves_alone_still_raises` (a state with an incoherent row is refused when it is built); `test_the_moved_rows_are_the_rows_the_identity_scan_finds` (at every mutation of both certificates and of the coframed belt the test steps, the rows equal the old scan's, kept as the oracle) | `test_a_row_changed_off_the_pivots_entry_takes_the_scan` (a changed row off the pivot's entry, in each track, fails the compare and is found by the scan), `test_mutate_y_changing_a_row_it_should_leave_raises`, `test_mutate_rows_off_the_local_mutation_in_a_moved_row_raises` |
| the index every state holds, read by the one mutation rule | `test_a_walk_from_a_state_with_no_index_gives_the_stepped_answer` (a hand-built state builds its own); a state the index cannot serve is refused when it is built: `test_a_block_that_is_not_skew_symmetrizable_is_never_indexed`, `test_a_hand_built_state_with_an_incoherent_c_vector_is_refused` | `test_a_stale_index_that_drops_a_pivot_entry_fails_the_green_command`, `test_a_dropped_other_part_pivot_entry_fails_green_at_every_gamma_step` (an entry between parts, seen only by the check that the block is +-B where each factor ends) |
| packed c-vector and y rows | `test_the_index_is_the_support_of_every_state_and_a_hand_built_state_agrees` (every state unpacks to the stepped rows), `test_an_entry_just_under_the_bound_gives_the_dense_answer` | past the bound the run exits 2, not 1: `test_an_entry_past_the_bound_exits_2_under_its_name` |
| symbolic mirror past M (test_belt) | `test_mirror_check_rejects_a_wrong_rho_and_the_run_steps`, `test_mirror_check_rejects_a_perturbed_midpoint_value`, `test_even_n_without_a_colour_reversing_automorphism_steps_to_n`, `test_mirror_tries_at_most_a_fixed_number_of_rhos` | `test_a_wrong_mirrored_state_at_n_fails_halfperiod` (a wrong derived S_N; a wrong state strictly between M and N is caught by no check) |
| symbolic replay past N (test_belt) | `test_replay_needs_an_automorphism_with_the_colour_behaviour_of_n` | `test_a_wrong_replayed_state_at_2n_fails_halfperiod` |
| tropical replay past N (test_tropical) | `test_a_wrong_sigma_within_the_rules_steps_to_2n` (a sigma outside the rules is refused before any step, `test_a_sigma_outside_the_rules_is_refused_before_any_step`) | `test_a_wrong_replayed_state_fails_the_tropical_command` |
"""

import copy
import dataclasses
import json
import pathlib
import pickle
import random
import re
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zamobelt.belt as belt
import zamobelt.bigraph as bg
import zamobelt.cli as cli
import zamobelt.green as green
from matrix_rules import dense_mutate_rows, skew_symmetrizable
from zamobelt.errors import (
    ClaimViolation,
    CoefficientMismatch,
    EntryOverflow,
    FrozenVertex,
    InputError,
    InvalidPermutation,
    InvalidVertex,
    MismatchWithSymbolicSigma,
    NoIsomorphism,
    NotComponentPreserving,
    NotGreenAtStep,
    NotMaximal,
    NotPermutation,
    NotRecurrent,
    NotSkewSymmetrizable,
    SignCoherenceViolation,
)


def framed_of(name: str) -> green.FramedState:
    return green.framed(bg.catalog(name).base)


def packed(row):
    """row, an int tuple, as one packed row."""
    return green._codec(len(row)).pack(row)


def unpacked(key, n):
    """The int tuple of a packed row of n entries."""
    return green._codec(n).unpack(key)


def pack_rows(rows):
    """n rows of n entries each as packed rows."""
    return tuple(map(green._codec(len(rows)).pack, rows))


def unpack_rows(keys):
    """n packed rows of n entries each as int tuples."""
    return tuple(map(green._codec(len(keys)).unpack, keys))


def plant(ext, history=()):
    """A state of the n x 2n ext built as a walk builds one, unchecked:
    how a test plants a state the public constructor refuses."""
    n = len(ext)
    trail = ()
    for k in history:
        trail = (trail, k)
    block = tuple(row[:n] for row in ext)
    c = tuple(packed(row[n:]) for row in ext)
    return green._state(n, trail, block, c, tuple(map(bg.support, block)), len(history))


# -- framed mutation goldens -----------------------------------------------


def test_framed_initial_c_is_identity():
    state = framed_of("A2")
    assert state.c_matrix() == ((1, 0), (0, 1))
    assert green.vertex_status(state, 0) == "green"
    assert green.vertex_status(state, 1) == "green"


def test_framed_a2_golden_trace_black_first():
    state = framed_of("A2")
    state = green.mutate_framed(state, 1)
    assert state.ext == ((0, -1, 1, 1), (1, 0, 0, -1))
    state = green.mutate_framed(state, 0)
    assert state.c_matrix() == ((-1, -1), (1, 0))


def test_framed_a2_full_sequences():
    # mu2 mu1 mu2 ends at minus the swap; mu1 mu2 ends at minus identity
    state = framed_of("A2")
    for k in (1, 0, 1):
        state = green.mutate_framed(state, k)
    assert state.c_matrix() == ((0, -1), (-1, 0))
    state = framed_of("A2")
    for k in (0, 1):
        state = green.mutate_framed(state, k)
    assert state.c_matrix() == ((-1, 0), (0, -1))


def test_mutation_is_involutive_and_coherent():
    state = framed_of("fig1-A5starD4")
    for k in (0, 5, 3):
        once = green.mutate_framed(state, k)
        again = green.mutate_framed(once, k)
        assert again.ext == state.ext
        state = once


def test_mutate_framed_rejects_frozen_index():
    state = framed_of("A2")
    with pytest.raises(FrozenVertex):
        green.mutate_framed(state, 2)
    with pytest.raises(FrozenVertex):
        green.vertex_status(state, 5)


@pytest.mark.parametrize("k", [True, False], ids=["True", "False"])
def test_a_bool_vertex_is_refused_as_bigraph_mutate_refuses_it(k):
    # a bool is an int to Python: True was read as vertex 2 and recorded
    # as (True,) in the history
    state = framed_of("A3")
    text = "vertex %s is bool, not an int" % k
    for call in (
        lambda: green.mutate_framed(state, k),
        lambda: green.vertex_status(state, k),
        lambda: bg.mutate(bg.catalog("A3").base, k),
    ):
        with pytest.raises(InvalidVertex) as error:
            call()
        assert str(error.value) == text


def test_incoherent_row_the_mutation_leaves_alone_still_raises():
    # on the A3 path, mutation at vertex 1 leaves row 3 untouched (b_31 = 0),
    # and the check after it reads the changed rows only: planted, the
    # incoherent c-vector there passes it, so the state is refused built
    ext = (
        (0, 1, 0, 1, 0, 0),
        (-1, 0, 1, 0, 1, 0),
        (0, -1, 0, 1, -1, 0),
    )
    assert dense_mutate_rows(ext, 0)[2] == ext[2]
    state = plant(ext)
    assert green.mutate_framed(state, 0).c[2] is state.c[2]
    with pytest.raises(
        SignCoherenceViolation, match=r"^c-vector 3 is \(1, -1, 0\) at the start$"
    ):
        green.FramedState(n=3, ext=ext, history=())


# -- y-vector track (tropical semifield coefficients) -------------------------


def test_y_vectors_track_c_matrix_rows():
    g = bg.catalog("A2")
    state = green.framed(g.base)
    y = pack_rows(green.initial_y(2))
    for k in (1, 0, 1):
        y = green.mutate_y(y, state.ext, k)
        state = green.mutate_framed(state, k)
        assert unpack_rows(y) == state.c_matrix()


def test_y_vs_c_on_figure_entry():
    g = bg.catalog("fig1-A5starD4")
    state = green.framed(g.base)
    y = pack_rows(green.initial_y(g.n))
    for k in (0, 2, 4, 6, 1, 3):
        y = green.mutate_y(y, state.ext, k)
        state = green.mutate_framed(state, k)
        assert unpack_rows(y) == state.c_matrix()


def dense_mutate_y(y, ext, k):
    """Coefficient mutation by the dense formula: every entry of every row."""
    floor_k = [min(0, x) for x in y[k]]
    out = []
    for i, row in enumerate(y):
        if i == k:
            out.append(tuple(-x for x in row))
            continue
        b_ik = ext[i][k]
        out.append(
            tuple(
                a + max(b_ik, 0) * ak - b_ik * fk
                for a, ak, fk in zip(row, y[k], floor_k)
            )
        )
    return tuple(out)


@st.composite
def rectangles_with_y(draw):
    """An m x n' int rectangle, m int y-rows of m entries (the width a
    packed y row of the walk has), and a row to mutate at; y_k is all
    zero in about half the cases."""
    m = draw(st.integers(min_value=1, max_value=6))
    width = m + draw(st.integers(min_value=0, max_value=6))

    def rows(w):
        row = st.lists(st.integers(-4, 4), min_size=w, max_size=w)
        return tuple(tuple(r) for r in draw(st.lists(row, min_size=m, max_size=m)))

    ext, y = rows(width), rows(m)
    k = draw(st.integers(0, m - 1))
    if draw(st.booleans()):
        y = y[:k] + ((0,) * m,) + y[k + 1:]
    return ext, y, k


@settings(max_examples=300)
@given(rectangles_with_y())
def test_sparse_mutate_y_matches_dense_formula_and_keeps_untouched_rows(case):
    ext, rows, k = case
    y = pack_rows(rows)
    y_after = green.mutate_y(y, ext, k)
    assert unpack_rows(y_after) == dense_mutate_y(rows, ext, k)
    for i, row in enumerate(ext):
        if i != k and row[k] == 0:
            assert y_after[i] is y[i]
    # the rule reading an index leaves exactly the rows mutate_y leaves,
    # on a skew-symmetrizable square, where the walk gives it one
    m = len(ext)
    square = tuple(row[:m] for row in skew_symmetrizable(ext))
    y_after = green.mutate_y(y, square, k)
    assert unpack_rows(y_after) == dense_mutate_y(rows, square, k)
    after = bg.mutate_rows(square, k, [bg.support(row) for row in square])
    for i, row in enumerate(square):
        assert (after[i] is row) == (y_after[i] is y[i]) == (i != k and row[k] == 0)


# -- component preserving restriction ------------------------------------------


def test_is_component_preserving_goldens():
    # a green pivot points negatively only inside its own part
    state = framed_of("A2")
    assert green._points_inside(state, 0, (0,))
    assert not green._points_inside(state, 1, (1,))
    assert green._points_inside(state, 1, (0, 1))


def test_a_pivot_pointing_out_of_its_part_names_its_vertex_and_position():
    # on A2, green vertex 2 has b_21 = -1, which points at vertex 1, in
    # another part: the walk's first mutation is refused
    with pytest.raises(NotComponentPreserving) as info:
        green._certify(
            bg.catalog("A2"), first=[1], second=[0], factors=1, partition=[(0,), (1,)]
        )
    assert str(info.value) == "vertex 2 at position 1"


def test_a_hand_built_state_with_an_incoherent_c_vector_is_refused():
    # red vertex 1 whose c-vector (1, -1) also points positively: no state
    # holds one, so _points_inside reads no frozen column
    ext = ((0, 1, 1, -1), (-1, 0, 0, 1))
    text = r"^c-vector 1 is \(1, -1\) %s$"
    with pytest.raises(SignCoherenceViolation, match=text % "at the start"):
        green.FramedState(n=2, ext=ext, history=())
    with pytest.raises(SignCoherenceViolation, match=text % "after step 2 at vertex 1"):
        green.FramedState(n=2, ext=ext, history=(1, 0))


# -- maximal green certification -------------------------------------------------


def test_certificates_on_a2():
    g = bg.catalog("A2")
    cert_gamma, cert_delta = green.verify_bipartite_belt_mgs(g)
    assert [k + 1 for k in cert_gamma.sequence] == [2, 1, 2]
    assert cert_gamma.factors == 3
    assert cert_gamma.permutation.cycles() == "(1 2)"
    assert [k + 1 for k in cert_delta.sequence] == [1, 2]
    assert cert_delta.factors == 2
    assert cert_delta.permutation.is_identity


def test_certificate_lengths_follow_coxeter_numbers():
    for name in ("B2", "A3", "G2", "A2xA2", "fig1-A5starD4", "fig2-F4xA2"):
        g = bg.catalog(name)
        cert_gamma, cert_delta = green.verify_bipartite_belt_mgs(g)
        assert len(cert_gamma.sequence) == g.h_gamma * g.n // 2, name
        assert len(cert_delta.sequence) == g.h_delta * g.n // 2, name
        assert cert_gamma.factors == g.h_gamma
        assert cert_delta.factors == g.h_delta


def test_certificate_permutations_compose_to_frozen_sigma():
    for name in ("A2", "A2xA2", "fig1-A5starD4", "fig2-F4xA2"):
        g = bg.catalog(name)
        cert_gamma, cert_delta = green.verify_bipartite_belt_mgs(g)
        sigma = green.frozen_isomorphism_check(g)
        composed = tuple(
            cert_gamma.permutation.perm[cert_delta.permutation.perm[i]]
            for i in range(g.n)
        )
        assert composed == sigma.perm, name


def test_not_green_error_when_mutating_red_vertex():
    g = bg.catalog("A2")
    state = green.framed(g.base)
    state = green.mutate_framed(state, 1)
    assert green.vertex_status(state, 1) == "red"
    # a second mutation at the now red vertex cannot extend a green sequence
    with pytest.raises(NotGreenAtStep):
        green._certify(
            g,
            first=[1],
            second=[1],
            factors=2,
            partition=[(0, 1)],
        )


def test_not_green_error_names_its_position_in_the_history():
    g = bg.catalog("A3")
    with pytest.raises(NotGreenAtStep) as info:
        green._certify(g, first=[0, 2], second=[1, 0], factors=2, partition=[(0, 1, 2)])
    assert (info.value.step, info.value.vertex) == (4, 0)
    assert str(info.value) == "vertex 1 red at step 4"


def test_a_vertex_out_of_range_is_frozen_before_the_coefficient_track_runs():
    # mutate_framed rejects k >= n before mutate_y could index y[k]
    g = bg.catalog("A2")
    with pytest.raises(FrozenVertex, match="vertex 3 is not mutable"):
        green._certify(g, first=[g.n], second=[0], factors=1, partition=[(0, 1)])


def test_a_walk_cut_short_leaves_vertices_green():
    # one factor of A3's Gamma belt, the blacks, leaves the whites green
    g = bg.catalog("A3")
    gamma = tuple(comp.vertices for comp in g.gamma_components)
    with pytest.raises(NotMaximal, match=r"^vertices \[1, 3\] still green$"):
        green._certify(g, g.blacks, g.whites, 1, gamma, "the Gamma certificate")


def test_certificate_sequence_is_the_mutation_history():
    g = bg.catalog("A2xA3")
    for cert, (first, second) in zip(
        green.verify_bipartite_belt_mgs(g), ((g.blacks, g.whites), (g.whites, g.blacks))
    ):
        expected = [
            k for f in range(cert.factors) for k in (first if f % 2 == 0 else second)
        ]
        assert cert.sequence == tuple(expected)


# -- frozen isomorphism -----------------------------------------------------------


def test_frozen_isomorphism_goldens():
    assert green.frozen_isomorphism_check(bg.catalog("A2")).cycles() == "(1 2)"
    assert green.frozen_isomorphism_check(bg.catalog("fig1-A5starD4")).cycles() == "(8 9)"
    assert green.frozen_isomorphism_check(bg.catalog("B2xB2")).is_identity


def test_frozen_isomorphism_matches_symbolic_sigma():
    import zamobelt.belt as belt

    for name in ("A2", "A3", "A2xA3", "fig1-A5starD4"):
        g = bg.catalog(name)
        symbolic = belt.half_period(g).sigma
        frozen = green.frozen_isomorphism_check(g, symbolic)
        assert frozen.perm == symbolic.perm, name


def test_a_symbolic_sigma_unlike_the_frozen_one_is_a_mismatch(monkeypatch):
    g = bg.catalog("A3")
    identity = bg.Automorphism.identity(3)
    message = r"^frozen \(2, 1, 0\) vs symbolic \(0, 1, 2\)$"
    with pytest.raises(MismatchWithSymbolicSigma, match=message):
        green.frozen_isomorphism_check(g, identity)
    # the green command compares with the symbolic sigma and exits 1
    real = belt.half_period
    monkeypatch.setattr(
        belt, "half_period", lambda g: dataclasses.replace(real(g), sigma=identity)
    )
    assert cli.run_experiment({"command": "green", "target": "A3"}) == (
        "falsified: frozen (2, 1, 0) vs symbolic (0, 1, 2)\n",
        1,
    )


# -- the frozen state derived from the two certificates --------------------------

# entries with n >= 3, so that a permutation need not be an involution;
# B3, C3 and fig2-F4xA2 are not simply laced
LEMMA_TARGETS = (
    "A3", "B3", "C3", "D4", "A2xA2", "A2xA3", "fig1-A5starD4", "fig2-F4xA2",
)


def relabel(rows, p):
    """R_p by its definition: entry (i, j) is rows[p(i)][p(j)] for a
    mutable column j, rows[p(i)][j] for a frozen one."""
    n, width = len(p), len(rows[0])
    return tuple(
        tuple(rows[p[i]][p[j]] if j < n else rows[p[i]][j] for j in range(width))
        for i in range(n)
    )


def start_y(n, sign=1):
    """The packed y track of the framed (sign 1) or coframed (sign -1) start."""
    return pack_rows(tuple(tuple(sign * x for x in row) for row in green.initial_y(n)))


@st.composite
def reachable_states(draw):
    """(ext, y, k): a framed or coframed state of a catalog bigraph after
    up to 8 mutations, its packed y track, and a vertex to mutate at."""
    g = bg.catalog(draw(st.sampled_from(LEMMA_TARGETS)))
    sign = draw(st.sampled_from((1, -1)))
    ext, y = green.framed(g.base, sign).ext, start_y(g.n, sign)
    for k in draw(st.lists(st.integers(0, g.n - 1), max_size=8)):
        ext, y = dense_mutate_rows(ext, k), green.mutate_y(y, ext, k)
    return ext, y, draw(st.integers(0, g.n - 1))


def framed_step(ext, k):
    """The ext `mutate_framed` gives at k from a state built of ext."""
    state = green.FramedState(n=len(ext), ext=ext, history=())
    return green.mutate_framed(state, k).ext


@settings(max_examples=200)
@given(reachable_states())
def test_both_mutations_are_involutions(case):
    ext, y, k = case
    once = dense_mutate_rows(ext, k)
    assert dense_mutate_rows(once, k) == ext
    assert framed_step(ext, k) == once and framed_step(once, k) == ext
    # each y mutation reads the exchange entries from before it
    assert green.mutate_y(green.mutate_y(y, ext, k), once, k) == y


@settings(max_examples=200)
@given(reachable_states(), st.data())
def test_both_mutations_commute_with_relabeling(case, data):
    # mu_k(R_p X) == R_p(mu_p(k) X); p is not an involution, so a
    # relabeling by p^-1 where p belongs would not pass
    ext, y, k = case
    n = len(y)
    p = tuple(
        data.draw(
            st.permutations(range(n)).filter(
                lambda p: any(p[p[i]] != i for i in range(n))
            )
        )
    )
    # the engine relabels the block at p in both indices and the packed
    # c-vectors at p in the row only
    state = plant(ext)
    assert green._relabeled(state.block, bg.Automorphism(p)) == relabel(state.block, p)
    assert bg.Automorphism(p).relabel(state.c) == plant(relabel(ext, p)).c
    after = relabel(dense_mutate_rows(ext, p[k]), p)
    assert dense_mutate_rows(relabel(ext, p), k) == after
    assert framed_step(relabel(ext, p), k) == after
    # the columns of y are all frozen: R_p only reorders its rows
    y_after = green.mutate_y(y, ext, p[k])
    assert green.mutate_y(tuple(y[i] for i in p), relabel(ext, p), k) == tuple(
        y_after[i] for i in p
    )


# every catalog entry, and larger entries of each kind
DERIVED_TARGETS = tuple(bg.catalog_names()) + (
    "E6", "E7", "E8", "E6xE6", "E7xE7", "E7xA2", "D6xA3",
)


def stepped(ext, ks):
    """The rows after mutating ext at each k of ks by the dense rule."""
    for k in ks:
        ext = dense_mutate_rows(ext, k)
    return ext


def coframed_end(g):
    """The coframed belt's end after N factors, stepped by the dense rule
    from the coframed matrix, as (block, packed c-vectors)."""
    ks = green._sequence(g.whites, g.blacks, g.half_period)
    ext = stepped(green.framed(g.base, -1).ext, ks)
    return tuple(row[: g.n] for row in ext), pack_rows(tuple(row[g.n:] for row in ext))


@pytest.mark.parametrize("name", DERIVED_TARGETS)
def test_the_derived_final_state_is_the_walked_one(name):
    # the walk is the tests' own: no engine walk steps the coframed belt
    g = bg.catalog(name)
    assert green._derived_final(g) == coframed_end(g)


@pytest.mark.parametrize("name", ["E7xE7", "fig2-F4xA2"])
def test_the_derive_reads_the_certificates_rows_as_they_are_held(monkeypatch, name):
    # the block and the packed c-vectors: no n x 2n ext is built, and
    # no walk runs for the frozen state
    g = bg.catalog(name)
    certificates = g.certificates
    walks = spy_on_walks(monkeypatch)
    green.frozen_isomorphism_check(g)
    assert walks == []
    assert not any("ext" in vars(cert.final) for cert in certificates)


def spy_on_walks(monkeypatch):
    """The name of each walk run from now on."""
    real, walks = green._certify, []

    def spy(g, first, second, factors, partition, name):
        walks.append(name)
        return real(g, first, second, factors, partition, name)

    monkeypatch.setattr(green, "_certify", spy)
    return walks


CERTIFICATE_WALKS = ["the Gamma certificate", "the Delta certificate"]


def test_a_list_symbolic_sigma_is_refused_before_any_walk(monkeypatch):
    # the symbolic sigma must be an Automorphism; a list is refused at
    # once, before the certificates are read or built
    walks = spy_on_walks(monkeypatch)
    g = bg.catalog("A2")
    with pytest.raises(InvalidPermutation, match="'list' object is not an"):
        green.frozen_isomorphism_check(g, [1, 0])
    assert walks == [] and "certificates" not in vars(g)
    assert green.frozen_isomorphism_check(g, bg.Automorphism((1, 0))).cycles() == "(1 2)"
    assert walks == CERTIFICATE_WALKS


RELABELED_TARGETS = bg.catalog_names() + ["D5", "E6", "A2xA4", "C3xA2"]


def relabeled_target(g, pi):
    """g read back through `from_json` with vertex v renamed pi[v]: b and
    epsilon permuted alike."""
    old = bg.Automorphism(pi).inverse
    return bg.from_json({
        "n": g.n,
        "b": [list(row) for row in relabel(g.base.b, old.perm)],
        "epsilon": list(old.relabel(g.epsilon)),
    })


@pytest.mark.parametrize("name", RELABELED_TARGETS)
def test_a_relabeled_target_conjugates_sigma(name):
    # renaming vertex v to pi(v) leaves N alone and conjugates the
    # half-period sigma: pi sigma pi^-1, on the green track and on the
    # symbolic one, which every target here (n <= 9) runs in tier-1 time.
    # It keeps the period, the census size, the Coxeter numbers and both
    # certificates' lengths.
    g = bg.catalog(name)
    sigma = green.frozen_isomorphism_check(g)
    kept = relabeling_invariants(g)
    rng = random.Random(name)
    for _ in range(3):
        pi = tuple(rng.sample(range(g.n), g.n))
        h = relabeled_target(g, pi)
        want = bg.Automorphism(tuple(pi[sigma(v)] for v in bg.Automorphism(pi).inverse))
        assert h.half_period == g.half_period, pi
        assert green.frozen_isomorphism_check(h) == want, pi
        states = belt.run_belt(h, 2 * h.half_period)
        assert belt.read_half_period(h, states).sigma == want, pi
        assert relabeling_invariants(h, states) == kept, pi


def relabeling_invariants(g, states=None):
    """The period of a 2N belt run, the census size on a plain target,
    [h_Gamma, h_Delta] and the certificates' sequence lengths."""
    if states is None:
        states = belt.run_belt(g, 2 * g.half_period)
    return (
        bg.first_return(states),
        len(belt.read_census(g, states)) if g.plain else None,
        [g.h_gamma, g.h_delta],
        [len(cert.sequence) for cert in g.certificates],
    )


def test_the_green_command_derives_the_frozen_state(monkeypatch):
    walks = spy_on_walks(monkeypatch)
    _, code = cli.run_experiment(
        {"command": "green", "target": "E7xE7", "skipSymbolic": True}
    )
    assert code == 0 and walks == CERTIFICATE_WALKS


def test_a_planted_order_three_sigma_is_a_claim_violation(monkeypatch):
    # the final C is -P and the block is B relabeled, by the triality of
    # D4: every check but the half-period rules passes
    g = bg.catalog("D4")
    triality = bg.Automorphism((2, 1, 3, 0))
    assert triality.cycles() == "(1 3 4)"
    ext = relabel(green.framed(g.base, -1).ext, triality.perm)
    planted = green.FramedState(n=g.n, ext=ext, history=())
    monkeypatch.setattr(green, "_derived_final", lambda g: (planted.block, planted.c))
    with pytest.raises(ClaimViolation, match="^half-period permutation has order"):
        green.frozen_isomorphism_check(g)
    for config in (
        {"command": "tropical", "target": "D4"},
        {"command": "green", "target": "D4", "skipSymbolic": True},
    ):
        assert cli.run_experiment(config) == (
            "falsified: half-period permutation has order above two\n", 1
        )


def with_certificates(g, certificates):
    """g holding certificates as the pair its `certificates` gives."""
    vars(g)["certificates"] = certificates
    return g


def with_final(cert, ext):
    """cert with its final state planted at ext, as the certificate's
    own walk would have built it: a block that is no longer
    skew-symmetrizable is the fault, so the constructor must not refuse it."""
    final = plant(ext, cert.final.history)
    return dataclasses.replace(cert, final=final)


def doubled_entry(cert):
    """cert with the first nonzero entry of its final mutable block doubled."""
    ext = cert.final.ext
    n = len(ext)
    i, j = next((i, j) for i in range(n) for j in range(n) if ext[i][j])
    row = list(ext[i])
    row[j] *= 2
    return with_final(cert, ext[:i] + (tuple(row),) + ext[i + 1:])


def planted_q(g, cert, q):
    """A Gamma certificate that ends at R_q(coframed B) exactly."""
    q = tuple(q)
    ext = relabel(green.framed(g.base, -1).ext, q)
    return dataclasses.replace(with_final(cert, ext), permutation=bg.Automorphism(q))


SEQUENCES = "the certificates' sequences are the belts'"
GAMMA_END = "the Gamma certificate ends at R_q(coframed B)"
LAST_FACTOR = "q maps the last factor onto the whites"


@pytest.mark.parametrize(
    "name, broken, premise",
    [
        # the Gamma certificate's final block is not B relabeled by q
        ("A2xA3", lambda g, gamma, delta: (doubled_entry(gamma), delta), GAMMA_END),
        ("E6xE6", lambda g, gamma, delta: (doubled_entry(gamma), delta), GAMMA_END),
        # the certificates in the wrong order, or the Gamma one twice
        ("B2xB2", lambda g, gamma, delta: (delta, gamma), SEQUENCES),
        ("A2xA3", lambda g, gamma, delta: (gamma, gamma), SEQUENCES),
        # h_Gamma = 3 is odd, but q = id keeps the colours; h_Gamma = 4 is
        # even, but q swaps them.  Both pass every other premise, and
        # derived past this one they give a sigma the walk does not.
        ("A2xA3", lambda g, gamma, delta: (planted_q(g, gamma, range(6)), delta),
         LAST_FACTOR),
        ("B2xB2", lambda g, gamma, delta: (planted_q(g, gamma, (1, 0, 3, 2)), delta),
         LAST_FACTOR),
    ],
    ids=["block", "block-E6xE6", "order", "twice", "colour-kept", "colour-swapped"],
)
def test_a_broken_premise_raises_no_isomorphism_naming_it(
    monkeypatch, name, broken, premise
):
    # no walk runs in its place: the failed premise is a claim violation
    g = bg.catalog(name)
    with_certificates(g, broken(g, *green.verify_bipartite_belt_mgs(g)))
    walks = spy_on_walks(monkeypatch)
    with pytest.raises(NoIsomorphism) as info:
        green.frozen_isomorphism_check(g)
    assert str(info.value) == "premise failed: " + premise
    assert cli._failure(info.value) == ("falsified: premise failed: %s\n" % premise, 1)
    assert walks == []


def test_a_bigraph_not_known_recurrent_is_not_recurrent(monkeypatch):
    # the certificates read the gate before their first mutation, so none
    # is built and none is kept
    g = bg.catalog("A2xA3")
    vars(g)["recurrent"] = False
    text = (
        "^the bigraph is not recurrent: mutating every white vertex, or every "
        "black one, does not negate its exchange matrix$"
    )
    with pytest.raises(NotRecurrent, match=text) as info:
        green.frozen_isomorphism_check(g)
    assert cli._failure(info.value)[1] == 2
    assert "certificates" not in vars(g)


# -- checks narrowed to the rows a mutation changed ------------------------------

CHECKS = ("verify_bipartite_belt_mgs", "frozen_isomorphism_check")


def test_framed_state_equality_ignores_the_index():
    # a hand-built state is indexed as it is built, and equals the framed
    # one; a planted index that differs changes no equality either
    state = framed_of("A3")
    by_hand = green.FramedState(n=state.n, ext=state.ext, history=())
    assert by_hand.index == state.index and by_hand.index is not state.index
    assert state == by_hand and hash(state) == hash(by_hand)
    assert green.mutate_framed(by_hand, 0) == green.mutate_framed(state, 0)
    stale = green._state(state.n, (), state.block, state.c, ({},) * state.n)
    assert stale == state and hash(stale) == hash(state)


@pytest.mark.parametrize("name", ["n", "block", "c", "ext", "history"])
def test_a_framed_state_is_read_only(name):
    # a walk state and a hand-built one alike: neither an assignment nor
    # a deletion takes, and the state still equals its twin
    state = green.mutate_framed(framed_of("A3"), 0)
    by_hand = green.FramedState(n=state.n, ext=state.ext, history=state.history)
    for s in (state, by_hand):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(s, name, getattr(s, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(s, name)
    assert state == by_hand


def test_a_walk_state_holds_its_history_as_a_trail_and_no_earlier_state():
    # a mutation adds one (previous trail, k) pair to the trail it shares
    # with the state before, and keeps that state alive through nothing;
    # history is read back from the trail, and the state equals one built
    # by hand with that history, which mutates on from its own trail
    g = bg.catalog("E6xE6")
    ks = green._sequence(g.blacks, g.whites, 3)
    state = green.framed(g.base)
    earlier = []
    for k in ks:
        after = green.mutate_framed(state, k)
        assert after.trail[0] is state.trail and after.trail[1] == k
        assert after.steps == state.steps + 1
        assert "history" not in vars(after)  # built only when read
        earlier.append(weakref.ref(state))
        state = after
    assert [ref() for ref in earlier] == [None] * len(ks)
    assert state.history == ks and state.steps == len(ks)
    by_hand = green.FramedState(n=g.n, ext=state.ext, history=state.history)
    assert by_hand == state and hash(by_hand) == hash(state)
    assert by_hand.steps == len(ks)
    k = ks[0]
    assert green.mutate_framed(by_hand, k) == green.mutate_framed(state, k)
    assert green.mutate_framed(by_hand, k).history == ks + (k,)


def test_a_state_of_a_long_walk_copies_and_pickles():
    # its trail nests 2 000 pairs deep; copy and pickle take the history
    state = framed_of("A2")
    for k in (0, 1) * 1000:
        state = green.mutate_framed(state, k)
    for again in (copy.deepcopy(state), pickle.loads(pickle.dumps(state))):
        assert again == state and again.steps == 2000
        assert (again.block, again.c, again.index) == (state.block, state.c, state.index)
        assert green.mutate_framed(again, 0) == green.mutate_framed(state, 0)


@pytest.mark.parametrize("check", CHECKS)
def test_mutate_y_changing_a_row_it_should_leave_raises(monkeypatch, check):
    real = green.mutate_y

    def faulty(y, ext, k):
        out = list(real(y, ext, k))
        i = next(i for i in range(len(y)) if i != k and ext[i][k] == 0)
        out[i] = packed(tuple(x + 1 for x in unpacked(out[i], len(y))))
        return tuple(out)

    monkeypatch.setattr(green, "mutate_y", faulty)
    with pytest.raises(CoefficientMismatch, match="after step 1 at vertex"):
        getattr(green, check)(bg.catalog("A2xA3"))


@pytest.mark.parametrize(
    "check, error, match",
    [("verify_bipartite_belt_mgs", NotComponentPreserving, "leaked into part")],
)
def test_mutate_rows_leaking_into_another_part_raises(monkeypatch, check, error, match):
    g = bg.catalog("A2xA3")
    part_of = {v: comp.vertices for comp in g.gamma_components for v in comp.vertices}
    _leak_into(
        monkeypatch,
        g.n,
        lambda rows, k: next(
            i for i in range(g.n) if rows[i][k] == 0 and i not in part_of[k]
        ),
    )
    with pytest.raises(error, match=match):
        getattr(green, check)(g)


def test_mutate_rows_off_the_local_mutation_in_its_own_part_raises(monkeypatch):
    g = bg.catalog("A2xA3")
    part_of = {v: comp.vertices for comp in g.gamma_components for v in comp.vertices}
    _leak_into(monkeypatch, g.n, lambda rows, k: next(i for i in part_of[k] if i != k))
    with pytest.raises(NotComponentPreserving, match="does not commute"):
        green.verify_bipartite_belt_mgs(g)


@pytest.mark.parametrize(
    "name, moved_row",
    [
        # the pivot row, in the column of another vertex of its part
        ("A2xA3", lambda rows, k, own: k),
        # a row of the pivot's part that the mutation rebuilds
        ("E6xE6", lambda rows, k, own: next(i for i in own if i != k and rows[i][k])),
    ],
)
def test_mutate_rows_off_the_local_mutation_in_a_moved_row_raises(
    monkeypatch, name, moved_row
):
    g = bg.catalog(name)
    part_of = {v: comp.vertices for comp in g.gamma_components for v in comp.vertices}
    real = green.mutate_rows
    faults = []

    def faulty(rows, k, index):
        done = real(rows, k, index)
        out = list(done)
        own = part_of[k]
        i = moved_row(rows, k, own)
        j = next(j for j in own if j != i)
        row = list(out[i])
        row[j] += 1
        out[i] = tuple(row)
        faults.append(i)
        return _in_step(done, tuple(out), index)

    monkeypatch.setattr(green, "mutate_rows", faulty)
    with pytest.raises(NotComponentPreserving, match="does not commute"):
        green.verify_bipartite_belt_mgs(g)
    assert len(faults) == 1


def _leak_into(monkeypatch, n, pick_row):
    """Make the c-vector rule also shift one nonzero c-vector entry, away
    from zero, in the row pick_row(rows, k) names, rows being the
    mutable block before the mutation."""
    real = green.mutate_c

    def leaky(c, rows, k, movers):
        out = list(real(c, rows, k, movers))
        i = pick_row(rows, k)
        row = list(unpacked(out[i], n))
        j = next(j for j in range(n) if row[j] != 0)
        row[j] += 1 if row[j] > 0 else -1  # still sign-coherent
        out[i] = packed(tuple(row))
        return tuple(out)

    monkeypatch.setattr(green, "mutate_c", leaky)


def _in_step(done, faulted, index):
    """The rows a faulty mutate_rows returns, faulted from the rows done
    it computed, with the index it was given kept in step with them, as
    the real rule keeps it: the fault is in the arithmetic."""
    for i, (row, was) in enumerate(zip(faulted, done)):
        if row is not was:
            index[i] = bg.support(row)
    return faulted


@pytest.mark.parametrize("check", CHECKS)
def test_initial_y_disagreeing_with_c_block_raises_before_any_mutation(
    monkeypatch, check
):
    real_y, real_mutate = green.initial_y, green.mutate_framed
    calls = []

    def wrong_y(n):
        y = list(real_y(n))
        y[-1] = tuple(2 * x for x in y[-1])
        return tuple(y)

    def counting(state, k):
        calls.append(k)
        return real_mutate(state, k)

    monkeypatch.setattr(green, "initial_y", wrong_y)
    monkeypatch.setattr(green, "mutate_framed", counting)
    with pytest.raises(CoefficientMismatch, match="row 6: .* at the start$"):
        getattr(green, check)(bg.catalog("A2xA3"))
    assert calls == []


# -- the index each walk state keeps ---------------------------------------------

INDEX_TARGETS = tuple(bg.catalog_names()) + ("E6xE6",)


# -- the rows a mutation moved ---------------------------------------------------


def scanned(*tracks):
    """The rows where some track's new tuple holds another object than
    its old one, each track an (old, new) pair: the three-way identity
    scan the walk once ran at every mutation, kept as the oracle."""
    return sorted(
        {i for old, new in tracks for i, (a, b) in enumerate(zip(old, new)) if a is not b}
    )


@pytest.mark.parametrize("name", INDEX_TARGETS)
def test_the_moved_rows_are_the_rows_the_identity_scan_finds(monkeypatch, name):
    # at every mutation of both certificates and of the coframed belt,
    # stepped here: the rows _moved returns are the oracle's over the
    # block, the c-vectors and the y rows, and the c-vectors
    # mutate_framed checks for coherence are the oracle's over the
    # c-vectors; on a sound walk every compare holds, so no scan runs
    g = bg.catalog(name)
    real_moved, real_mutate = green._moved, green.mutate_framed
    real_checked, real_only = green._checked, green._only
    checked, compares, seen = [], [], []

    def spy_checked(state, rows):
        checked.append(list(rows))
        return real_checked(state, checked[-1])

    def spy_only(rows, old, new):
        compares.append(real_only(rows, old, new))
        return compares[-1]

    def spy_mutate(state, k):
        after = real_mutate(state, k)
        assert checked[-1] == scanned((state.c, after.c))
        return after

    def spy_moved(before, after, y_before, y_after, k):
        rows = real_moved(before, after, y_before, y_after, k)
        tracks = (before.block, after.block), (before.c, after.c), (y_before, y_after)
        assert rows == scanned(*tracks)
        seen.append(k)
        return rows

    monkeypatch.setattr(green, "_checked", spy_checked)
    monkeypatch.setattr(green, "_only", spy_only)
    monkeypatch.setattr(green, "mutate_framed", spy_mutate)
    monkeypatch.setattr(green, "_moved", spy_moved)
    cert_gamma, cert_delta = green.verify_bipartite_belt_mgs(g)
    # no engine walk steps the coframed belt: its states are stepped here
    ks = green._sequence(g.whites, g.blacks, g.half_period)
    state, y = green.framed(g.base, -1), start_y(g.n, -1)
    for k in ks:
        after = green.mutate_framed(state, k)
        y_after = green.mutate_y(y, state.block, k)
        green._moved(state, after, y, y_after, k)
        state, y = after, y_after
    assert state.ext == stepped(green.framed(g.base, -1).ext, ks)
    assert seen == list(cert_gamma.sequence + cert_delta.sequence + ks)
    # one compare in mutate_framed and three in _moved per mutation
    assert compares == [True] * (4 * len(seen))


@pytest.mark.parametrize("track", ["block", "c", "y"])
def test_a_row_changed_off_the_pivots_entry_takes_the_scan(monkeypatch, track):
    # a rule that changes a row with b_ik = 0 fails that track's compare,
    # and the scan of all three finds the row with the others; a c-vector
    # changed there is checked for coherence by mutate_framed's own scan
    g = bg.catalog("A2xA3")
    state = green.framed(g.base)
    y = pack_rows(green.initial_y(g.n))
    k = 0
    after = green.mutate_framed(state, k)
    y_after = green.mutate_y(y, state.block, k)
    i = next(i for i in range(g.n) if i != k and not state.block[i][k])
    assert i not in green._moved(state, after, y, y_after, k)
    block, c = list(after.block), list(after.c)
    incoherent = (1,) + (-1,) * (g.n - 1)
    if track == "block":
        j = next(j for j in range(g.n) if j != i and not block[i][j] and not block[j][i])
        block[i] = tuple(x + (col == j) for col, x in enumerate(block[i]))
    elif track == "c":
        c[i] = packed(incoherent)
    else:
        y_after = y_after[:i] + (packed((2,) * g.n),) + y_after[i + 1:]
    planted = plant(tuple(row + unpacked(x, g.n) for row, x in zip(block, c)), (k,))
    tracks = (state.block, planted.block), (state.c, planted.c), (y, y_after)
    moved = green._moved(state, planted, y, y_after, k)
    assert i in moved and moved == scanned(*tracks)
    if track == "c":
        real = green.mutate_c

        def leaky(*args):
            out = real(*args)
            return out[:i] + (c[i],) + out[i + 1:]

        monkeypatch.setattr(green, "mutate_c", leaky)
        text = "c-vector %d is %s after step 1 at vertex 1" % (i + 1, incoherent)
        with pytest.raises(SignCoherenceViolation, match="^%s$" % re.escape(text)):
            green.mutate_framed(state, k)


@pytest.mark.parametrize("name", INDEX_TARGETS)
def test_the_index_is_the_support_of_every_state_and_a_hand_built_state_agrees(
    monkeypatch, name
):
    # after every mutation the index is the support of each row of the
    # mutable block, and the block and the unpacked c-vectors are the
    # dense stepped rows; a hand-built copy of the state before packs to
    # the same rows and mutates to the same state
    g = bg.catalog(name)
    real = green.mutate_framed
    steps = []

    def spy(state, k):
        after = real(state, k)
        assert after.index == tuple(bg.support(row) for row in after.block)
        unpacked_rows = tuple(
            row + c for row, c in zip(after.block, unpack_rows(after.c))
        )
        assert unpacked_rows == dense_mutate_rows(state.ext, k)
        by_hand = green.FramedState(n=state.n, ext=state.ext, history=state.history)
        assert (by_hand.block, by_hand.c) == (state.block, state.c)
        again = real(by_hand, k)
        assert (again.ext, again.history, again.index, again.c) == (
            after.ext, after.history, after.index, after.c
        )
        steps.append(k)
        return after

    monkeypatch.setattr(green, "mutate_framed", spy)
    cert_gamma, cert_delta = green.verify_bipartite_belt_mgs(g)
    assert steps == list(cert_gamma.sequence + cert_delta.sequence)


def test_a_walk_from_a_state_with_no_index_gives_the_stepped_answer(monkeypatch):
    # premise: the state has an index.  A hand-built framed matrix is given
    # none and builds its own as it is built; the walks from it give the
    # framed walks' certificates and final states, the dense stepped rows
    g = bg.catalog("A2xA3")
    indexed = green.verify_bipartite_belt_mgs(g)
    real_framed = green.framed
    built = []

    def by_hand(m, sign=1):
        state = real_framed(m, sign)
        built.append(green.FramedState(n=state.n, ext=state.ext, history=()))
        assert built[-1].index == state.index
        return built[-1]

    monkeypatch.setattr(green, "framed", by_hand)
    assert green.verify_bipartite_belt_mgs(g) == indexed
    for cert in indexed:
        assert cert.final.ext == stepped(real_framed(g.base).ext, cert.sequence)
    # a hand-built start for each walk: the certificates' two
    assert len(built) == 2


def test_a_block_that_is_not_skew_symmetrizable_is_never_indexed():
    # sign-skew-symmetric, but the ratios around the triangle disagree:
    # the state is refused as it is built, so no index is made of it
    block = ((0, 1, -1), (-2, 0, 1), (1, -1, 0))
    ext = tuple(row + tuple(int(j == i) for j in range(3)) for i, row in enumerate(block))
    with pytest.raises(NotSkewSymmetrizable, match="^inconsistent ratio cycle"):
        green.FramedState(n=3, ext=ext, history=())
    # the first mutation breaks even the symmetry of its zero pattern: there
    # b_23 != 0 = b_32, and read through an index the rule at vertex 3
    # would miss row 2
    block = tuple(row[:3] for row in stepped(ext, (0,)))
    index = [bg.support(row) for row in block]
    assert bg.mutate_rows(block, 2, index)[1] == block[1]
    assert dense_mutate_rows(block, 2)[1] != block[1]


def first_own_mutable(g, k, mutable):
    own = next(c.vertices for c in g.gamma_components if k in c.vertices)
    return next(j for j in mutable if j in own)


def first_other_mutable(g, k, mutable):
    own = next(c.vertices for c in g.gamma_components if k in c.vertices)
    return next(j for j in mutable if j not in own)


def _drop_pivot_entry(monkeypatch, g, step, dropped):
    """At the step-th mutation, drop one nonzero entry of the pivot row
    from what the rule reads: a mutable one from the state's own index,
    or a c-vector entry from its packed row, which is what the rule reads
    of the c-vectors.  The rule and the checks read it alike; mutate_y
    reads column k from the rows and has y rows of its own.  Returns the
    list of vertices mutated so far."""
    real = green.mutate_framed
    calls = []

    def stale(state, k):
        calls.append(k)
        if len(calls) == step:
            mutable = state.index[k]
            c_k = unpacked(state.c[k], g.n)
            frozen = {g.n + j: x for j, x in enumerate(c_k) if x}
            j = dropped(g, k, mutable, frozen)
            if j < g.n:
                index = list(state.index)
                index[k] = {c: x for c, x in mutable.items() if c != j}
                object.__setattr__(state, "index", tuple(index))
            else:
                c = list(state.c)
                c[k] = packed(c_k[: j - g.n] + (0,) + c_k[j - g.n + 1:])
                object.__setattr__(state, "c", tuple(c))
        return real(state, k)

    monkeypatch.setattr(green, "mutate_framed", stale)
    return calls


@pytest.mark.parametrize("name", ["A2xA3", "E6xE6"])
@pytest.mark.parametrize("step", [1, 2, 6])
@pytest.mark.parametrize(
    "dropped",
    [
        lambda g, k, mutable, frozen: next(iter(frozen)),
        lambda g, k, mutable, frozen: first_own_mutable(g, k, mutable),
        lambda g, k, mutable, frozen: first_other_mutable(g, k, mutable),
    ],
    ids=["frozen", "own-part", "other-part"],
)
def test_a_stale_index_that_drops_a_pivot_entry_fails_the_green_command(
    monkeypatch, name, step, dropped
):
    # the pivot row loses one nonzero entry where the rule reads it, so
    # the rule and the checks read it alike; mutate_y reads column k from
    # the rows themselves, and the run exits 1 and never with a certificate
    g = bg.catalog(name)
    calls = _drop_pivot_entry(monkeypatch, g, step, dropped)
    with pytest.raises((CoefficientMismatch, NotComponentPreserving)):
        green.verify_bipartite_belt_mgs(g)
    assert len(calls) >= step
    calls.clear()
    text, code = cli.run_experiment({"command": "green", "target": name, "skipSymbolic": True})
    assert code == 1 and text.startswith("falsified: ")


def drop_other_part(g, k, mutable, frozen):
    return first_other_mutable(g, k, mutable)


@pytest.mark.parametrize("step", range(1, 10))
def test_a_dropped_other_part_pivot_entry_fails_green_at_every_gamma_step(
    monkeypatch, step
):
    # an entry b_kj with j in another part of the partition is read by no
    # restriction check; dropped in the last factor (steps 7-9) it is read
    # by no later mutation either, and only the check that the mutable
    # block is -B where the factor ends sees it
    g = bg.catalog("A2xA3")
    assert len(g.blacks) * g.h_gamma == 9
    calls = _drop_pivot_entry(monkeypatch, g, step, drop_other_part)
    with pytest.raises(ClaimViolation):
        green.verify_bipartite_belt_mgs(g)
    assert len(calls) >= step
    calls.clear()
    config = {"command": "green", "target": "A2xA3", "skipSymbolic": True}
    text, code = cli.run_experiment(config)
    assert code == 1 and text.startswith("falsified: ")


def test_the_boundary_check_names_the_walk_the_factor_and_the_entry(monkeypatch):
    g = bg.catalog("A2xA3")
    _drop_pivot_entry(monkeypatch, g, 9, drop_other_part)
    with pytest.raises(ClaimViolation) as info:
        green.verify_bipartite_belt_mgs(g)
    assert re.fullmatch(
        r"the Gamma certificate: the mutable block is not -B after factor 3: "
        r"entry \(\d,\d\) is -?\d, not -?\d",
        str(info.value),
    )


def test_a_walk_on_a_bigraph_not_known_recurrent_is_refused_before_any_mutation(
    monkeypatch,
):
    # the boundary check's premise is recurrence: without it no walk runs
    g = bg.catalog("A2xA3")
    vars(g)["recurrent"] = False
    calls = _drop_pivot_entry(monkeypatch, g, 9, drop_other_part)
    with pytest.raises(NotRecurrent, match="^the bigraph is not recurrent: "):
        green.verify_bipartite_belt_mgs(g)
    assert calls == []


# -- the bound on the entries of packed rows ----------------------------------------


def a2_state(c_row, s=1):
    """A hand-built state with b_12 = s, b_21 = -s and c-vectors c_row
    and s * e_2."""
    return green.FramedState(n=2, ext=((0, s) + c_row, (-s, 0, 0, s)), history=())


@pytest.mark.parametrize("entry", [green.BOUND, -green.BOUND - 1])
def test_a_hand_built_state_with_an_entry_at_the_bound_raises(entry):
    text = r"^an entry of a packed row is %d, outside \[-128, 128\)$" % entry
    with pytest.raises(EntryOverflow, match=text):
        a2_state((entry, 0))


@pytest.mark.parametrize("entry, s", [(green.BOUND - 1, 1), (-green.BOUND, -1)])
def test_an_entry_just_under_the_bound_gives_the_dense_answer(entry, s):
    # mutation at vertex 2 moves row 1 by b_12 * c_2 = e_2 and negates row 2
    state = a2_state((entry, 0), s)
    after = green.mutate_framed(state, 1)
    assert after.ext == dense_mutate_rows(state.ext, 1)
    assert after.c_matrix() == ((entry, s), (0, -s))


def test_a_row_operation_past_the_bound_raises():
    # row 1 gains b_12 * c_2 = 100 * (1, 0): from 27 its first entry
    # reaches 127, from 28 it would reach 128
    def state(entry):
        ext = ((0, 100, entry, 0), (-1, 0, 1, 0))
        return green.FramedState(n=2, ext=ext, history=())

    assert green.mutate_framed(state(27), 1).c_matrix() == ((127, 0), (-1, 0))
    text = "an entry of row 1 after mutation at 2 is 128, outside"
    with pytest.raises(EntryOverflow, match=text):
        green.mutate_framed(state(28), 1)
    # the y track checks its own rows
    y = pack_rows(((28, 0), (1, 0)))
    with pytest.raises(EntryOverflow, match=text):
        green.mutate_y(y, state(28).ext, 1)


@pytest.mark.parametrize("b", [green.BOUND, -green.BOUND - 1])
def test_a_multiplier_at_the_bound_raises(b):
    # b_12 = b multiplies c_2 into row 1; b_21 = 1 or -1 keeps the block
    # skew-symmetrizable
    def state(b):
        ext = ((0, b, 1, 0), (-b // abs(b), 0, 0, 1))
        return green.FramedState(n=2, ext=ext, history=())

    text = "multiplier b_1,2 is %d, outside" % b
    with pytest.raises(EntryOverflow, match=text):
        green.mutate_framed(state(b), 1)
    with pytest.raises(EntryOverflow, match=text):
        green.mutate_y(pack_rows(((1, 0), (0, 1))), state(b).ext, 1)
    b -= 1 if b > 0 else -1
    assert green.mutate_framed(state(b), 1).ext == dense_mutate_rows(state(b).ext, 1)


def test_an_entry_past_the_bound_exits_2_under_its_name(monkeypatch):
    def far(m, sign=1):
        ext = tuple(row + (green.BOUND,) * m.n for row in m.b)
        return green.FramedState(n=m.n, ext=ext, history=())

    monkeypatch.setattr(green, "framed", far)
    config = {"command": "green", "target": "A2", "skipSymbolic": True}
    text = "error: an entry of a packed row is 128, outside [-128, 128)\n"
    assert cli.run_experiment(config) == (text, 2)
    assert issubclass(EntryOverflow, InputError)


@st.composite
def packed_cases(draw):
    """n, n rows of n entries inside the bound, a block whose column k
    holds multipliers inside it, and k.  Entries and multipliers lie in
    [-limit, limit) for a drawn limit, so both in-bound and overflowing
    results come up, and a row is made nonnegative or nonpositive in
    about two draws of three."""
    n = draw(st.integers(1, 7))
    limit = draw(st.sampled_from((3, 12, green.BOUND)))
    entry = st.integers(-limit, limit - 1)
    rows = []
    for _ in range(n):
        row = draw(st.lists(entry, min_size=n, max_size=n))
        sign = draw(st.sampled_from((1, -1, 0)))
        rows.append(tuple(min(sign * abs(x), limit - 1) if sign else x for x in row))
    limit = draw(st.sampled_from((2, 12, green.BOUND)))
    column = draw(st.lists(st.integers(-limit, limit - 1), min_size=n, max_size=n))
    k = draw(st.integers(0, n - 1))
    block = tuple(tuple(column[i] if j == k else 0 for j in range(n)) for i in range(n))
    return n, tuple(rows), block, k


@settings(max_examples=400)
@given(packed_cases())
def test_packed_row_operations_match_the_tuple_formulas(case):
    n, rows, block, k = case
    c = pack_rows(rows)
    assert unpack_rows(c) == rows
    # the sign tests: green status, and sign coherence of every row, on a
    # planted state, as the constructor refuses an incoherent row
    state = plant(tuple(b + row for b, row in zip(block, rows)))
    assert (green.vertex_status(state, k) == "green") == (min(rows[k]) >= 0)
    for i, row in enumerate(rows):
        if min(row) >= 0 or max(row) <= 0:
            green._checked(state, [i])
        else:
            with pytest.raises(SignCoherenceViolation, match="c-vector %d is" % (i + 1)):
                green._checked(state, [i])
    # add a multiple: row i gains |b_ik| times the part of row k with
    # b_ik's sign; row k is negated; the range test raises past the bound
    pivot = rows[k]
    want = list(rows)
    for i in range(n):
        a = block[i][k]
        if i != k and a:
            want[i] = tuple(
                x + abs(a) * p if a * p > 0 else x for x, p in zip(rows[i], pivot)
            )
    want[k] = tuple(-x for x in pivot)
    movers = [i for i in range(n) if block[i][k]]
    if all(-green.BOUND <= x < green.BOUND for row in want for x in row):
        out = green.mutate_c(c, block, k, movers)
        assert unpack_rows(out) == tuple(want)
        assert all(out[i] is c[i] for i in range(n) if i != k and not block[i][k])
        # the y track's own formula gives the same rows
        assert green.mutate_y(c, block, k) == out
    else:
        with pytest.raises(EntryOverflow, match="outside"):
            green.mutate_c(c, block, k, movers)
        with pytest.raises(EntryOverflow, match="outside"):
            green.mutate_y(c, block, k)


# -- bounded error text ---------------------------------------------------------


NON_PERMUTATION_C = pytest.mark.parametrize(
    "c_row, offending",
    [
        # every entry -1: every row offends
        (lambda n: (-1,) * n, "49 offending rows, row 1 = (-1, -1,"),
        # minus e_1 in every row: the rows after the first repeat its column
        (lambda n: (-1,) + (0,) * (n - 1), "48 offending rows, row 2 = (-1, 0,"),
    ],
    ids=["all-minus-one", "repeated-column"],
)


@pytest.mark.parametrize(
    "check, error, name", [("verify_bipartite_belt_mgs", NotPermutation, "final C")]
)
@NON_PERMUTATION_C
def test_non_permutation_text_names_shape_and_first_rows(
    monkeypatch, check, error, name, c_row, offending
):
    # start both tracks at an all-red C and mutate nothing
    g = bg.catalog("E7xE7")
    n = g.n
    ext = ((0,) * n + c_row(n),) * n
    monkeypatch.setattr(
        green, "framed", lambda m, sign=1: green.FramedState(n=n, ext=ext, history=())
    )
    monkeypatch.setattr(green, "initial_y", lambda n: tuple(r[n:] for r in ext))
    monkeypatch.setattr(green, "_sequence", lambda first, second, factors: ())
    with pytest.raises(error) as info:
        getattr(green, check)(g)
    text = str(info.value)
    assert text.startswith(
        "%s (49 x 49) is not minus a permutation matrix: %s" % (name, offending)
    )
    assert text.count("row ") == green.SHOWN_ROWS and text.endswith(", ...")
    assert len(text) < 1000  # the whole block would print about 9 800


@NON_PERMUTATION_C
def test_a_derived_state_with_a_broken_c_raises_the_walks_text(
    monkeypatch, c_row, offending
):
    # the Delta certificate's final C enters the derived state relabeled
    g = bg.catalog("E7xE7")
    n = g.n
    gamma, delta = g.certificates
    broken = with_final(delta, tuple(row[:n] + c_row(n) for row in delta.final.ext))
    with_certificates(g, (gamma, broken))
    walks = spy_on_walks(monkeypatch)
    with pytest.raises(NoIsomorphism) as info:
        green.frozen_isomorphism_check(g)
    assert walks == []
    assert str(info.value).startswith(
        "frozen block (49 x 49) is not minus a permutation matrix: %s" % offending
    )


def test_a_derived_state_with_a_broken_block_is_no_relabeling(monkeypatch):
    g = bg.catalog("E6xE6")
    gamma, delta = g.certificates
    with_certificates(g, (gamma, doubled_entry(delta)))
    walks = spy_on_walks(monkeypatch)
    with pytest.raises(NoIsomorphism, match="mutable block is not a relabeling"):
        green.frozen_isomorphism_check(g)
    assert walks == []


def _fault_at_step(real, step, fault):
    """real, mutate_c(c, rows, k, movers) or mutate_y(y, ext, k), with
    fault applied to the packed rows it returns on its step-th call."""
    calls = []

    def faulty(*args):
        out = real(*args)
        calls.append(args[2])
        if len(calls) == step:
            out = fault(out, args[2])
        return out

    return faulty, calls


def test_sign_coherence_text_names_step_and_vertex(monkeypatch):
    g = bg.catalog("E7xE7")
    n = g.n

    def incoherent(out, k):
        pivot = packed((1,) + (-1,) * (n - 1))
        return out[:k] + (pivot,) + out[k + 1:]

    faulty, calls = _fault_at_step(green.mutate_c, 300, incoherent)
    monkeypatch.setattr(green, "mutate_c", faulty)
    with pytest.raises(SignCoherenceViolation) as info:
        green.verify_bipartite_belt_mgs(g)
    text = str(info.value)
    assert text.startswith("c-vector %d is (1, -1," % (calls[-1] + 1))
    assert text.endswith("after step 300 at vertex %d" % (calls[-1] + 1))
    assert len(text) < 400  # the history alone would print 300 entries


def test_coefficient_mismatch_text_names_step_and_vertex(monkeypatch):
    g = bg.catalog("E7xE7")

    def shifted(out, k):
        row = packed(tuple(x + 1 for x in unpacked(out[k], g.n)))
        return out[:k] + (row,) + out[k + 1:]

    faulty, calls = _fault_at_step(green.mutate_y, 300, shifted)
    monkeypatch.setattr(green, "mutate_y", faulty)
    with pytest.raises(CoefficientMismatch) as info:
        green.frozen_isomorphism_check(g)
    text = str(info.value)
    assert text.startswith("row %d: c-vector (" % (calls[-1] + 1))
    assert text.endswith("after step 300 at vertex %d" % (calls[-1] + 1))
    assert len(text) < 600


# -- byte-identical reports -------------------------------------------------------

# `run_experiment` results of `green` on every catalog entry and E6xE6
# without the symbolic cross-check, and on fig2-F4xA2 with it, as the
# checks over every row of every state gave them.  A faster green track
# must give the same text and exit code; only a deliberate change to a
# report (such as a new catalogVersion) may rewrite this file.
GOLDEN_REPORTS = json.loads(
    (pathlib.Path(__file__).with_name("green_reports.json")).read_text()
)


@pytest.mark.parametrize(
    "golden",
    GOLDEN_REPORTS,
    ids=lambda r: r["config"]["target"]
    + ("" if r["config"].get("skipSymbolic") else "-symbolic"),
)
def test_green_report_is_byte_identical(golden):
    assert cli.run_experiment(golden["config"]) == (golden["text"], golden["exitCode"])
