"""Framed mutation: c-vectors, green sequences, frozen isomorphisms."""

import dataclasses
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zamobelt.bigraph as bg
import zamobelt.cli as cli
import zamobelt.green as green
from zamobelt.errors import (
    ClaimViolation,
    CoefficientMismatch,
    FrozenVertex,
    NoIsomorphism,
    NotComponentPreserving,
    NotGreenAtStep,
    NotPermutation,
    SignCoherenceViolation,
)


def framed_of(name: str) -> green.FramedState:
    return green.framed(bg.catalog(name).base)


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


def test_incoherent_row_the_mutation_leaves_alone_still_raises():
    # on the A3 path, mutation at vertex 1 leaves row 3 untouched (b_31 = 0);
    # a check of changed rows only would miss the incoherent c-vector there
    ext = (
        (0, 1, 0, 1, 0, 0),
        (-1, 0, 1, 0, 1, 0),
        (0, -1, 0, 1, -1, 0),
    )
    state = green.FramedState(n=3, ext=ext, history=())
    assert bg.mutate_rows(ext, 0)[2] == ext[2]
    with pytest.raises(SignCoherenceViolation, match="c-vector 3"):
        green.mutate_framed(state, 0)


# -- y-vector track (tropical semifield coefficients) -------------------------


def test_y_vectors_track_c_matrix_rows():
    g = bg.catalog("A2")
    state = green.framed(g.base)
    y = green.initial_y(2)
    for k in (1, 0, 1):
        y = green.mutate_y(y, state.ext, k)
        state = green.mutate_framed(state, k)
        assert tuple(y) == state.c_matrix()


def test_y_vs_c_on_figure_entry():
    g = bg.catalog("fig1-A5starD4")
    state = green.framed(g.base)
    y = green.initial_y(g.n)
    for k in (0, 2, 4, 6, 1, 3):
        y = green.mutate_y(y, state.ext, k)
        state = green.mutate_framed(state, k)
        assert tuple(y) == state.c_matrix()


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
    """An m x n' int rectangle, m int y-rows, and a row to mutate at;
    y_k is all zero in about half the cases."""
    m = draw(st.integers(min_value=1, max_value=6))
    width = m + draw(st.integers(min_value=0, max_value=6))
    y_width = draw(st.integers(min_value=1, max_value=8))

    def rows(w):
        row = st.lists(st.integers(-4, 4), min_size=w, max_size=w)
        return tuple(tuple(r) for r in draw(st.lists(row, min_size=m, max_size=m)))

    ext, y = rows(width), rows(y_width)
    k = draw(st.integers(0, m - 1))
    if draw(st.booleans()):
        y = y[:k] + ((0,) * y_width,) + y[k + 1:]
    return ext, y, k


@settings(max_examples=300)
@given(rectangles_with_y())
def test_sparse_mutate_y_matches_dense_formula_and_keeps_untouched_rows(case):
    ext, y, k = case
    y_after = green.mutate_y(y, ext, k)
    assert y_after == dense_mutate_y(y, ext, k)
    ext_after = bg.mutate_rows(ext, k)
    for i, row in enumerate(ext):
        if i != k and row[k] == 0:
            assert ext_after[i] is row
            assert y_after[i] is y[i]


# -- component preserving restriction ------------------------------------------


def test_is_component_preserving_goldens():
    state = framed_of("A2")
    assert green.is_component_preserving(state, ({0}, {1}), 0)
    assert not green.is_component_preserving(state, ({0}, {1}), 1)
    assert green.is_component_preserving(state, ({0, 1},), 1)


def test_is_component_preserving_on_a_red_vertex():
    # after mu_2 on A2, row 2 is (1, 0 | 0, -1): red, and it points
    # positively at vertex 1
    state = green.mutate_framed(framed_of("A2"), 1)
    assert green.vertex_status(state, 1) == "red"
    assert not green.is_component_preserving(state, ({0}, {1}), 1)
    assert green.is_component_preserving(state, ({0, 1},), 1)


def test_is_component_preserving_rejects_a_frozen_entry_of_the_wrong_sign():
    # red vertex 1 whose c-vector (1, -1) also points positively
    state = green.FramedState(n=2, ext=((0, 1, 1, -1), (-1, 0, 0, 1)), history=())
    with pytest.raises(SignCoherenceViolation, match="frozen column 3"):
        green.is_component_preserving(state, ({0, 1},), 0)


def test_is_component_preserving_rejects_frozen_index():
    with pytest.raises(FrozenVertex):
        green.is_component_preserving(framed_of("A2"), ({0}, {1}), 2)


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
    with pytest.raises(FrozenVertex, match="vertex 3 is not mutable"):
        green._walk(g, -1, [g.n], [0], 1)


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


@st.composite
def reachable_states(draw):
    """(ext, y, k): a framed or coframed state of a catalog bigraph after
    up to 8 mutations, its y track, and a vertex to mutate at."""
    g = bg.catalog(draw(st.sampled_from(LEMMA_TARGETS)))
    sign = draw(st.sampled_from((1, -1)))
    ext, y = green.framed(g.base, sign).ext, green.initial_y(g.n, sign)
    for k in draw(st.lists(st.integers(0, g.n - 1), max_size=8)):
        ext, y = bg.mutate_rows(ext, k), green.mutate_y(y, ext, k)
    return ext, y, draw(st.integers(0, g.n - 1))


@settings(max_examples=200)
@given(reachable_states())
def test_both_mutations_are_involutions(case):
    ext, y, k = case
    once = bg.mutate_rows(ext, k)
    assert bg.mutate_rows(once, k) == ext
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
    assert green._relabeled(ext, bg.Automorphism(p)) == relabel(ext, p)
    assert bg.mutate_rows(relabel(ext, p), k) == relabel(bg.mutate_rows(ext, p[k]), p)
    # the columns of y are all frozen: R_p only reorders its rows
    y_after = green.mutate_y(y, ext, p[k])
    assert green.mutate_y(tuple(y[i] for i in p), relabel(ext, p), k) == tuple(
        y_after[i] for i in p
    )


# every catalog entry, and larger entries of each kind
DERIVED_TARGETS = tuple(bg.catalog_names()) + (
    "E6", "E7", "E8", "E6xE6", "E7xE7", "E7xA2", "D6xA3",
)


@pytest.mark.parametrize("name", DERIVED_TARGETS)
def test_the_derived_final_state_is_the_walked_one(name):
    g = bg.catalog(name)
    certificates = green.verify_bipartite_belt_mgs(g)
    derived = green._derived_final(g, *certificates)
    walked = green._walk(g, -1, g.whites, g.blacks, g.half_period)
    assert derived is not None
    assert (derived.ext, derived.history) == (walked.ext, walked.history)
    assert green.frozen_isomorphism_check(g, certificates=certificates) == (
        green.frozen_isomorphism_check(g)
    )


def spy_on_walks(monkeypatch):
    """The sign of each walk run from now on: 1 framed, -1 coframed."""
    real, signs = green._walk, []

    def spy(g, sign, *args, **kwargs):
        signs.append(sign)
        return real(g, sign, *args, **kwargs)

    monkeypatch.setattr(green, "_walk", spy)
    return signs


def test_the_green_command_derives_the_frozen_state(monkeypatch):
    signs = spy_on_walks(monkeypatch)
    _, code = cli.run_experiment(
        {"command": "green", "target": "E7xE7", "skipSymbolic": True}
    )
    assert code == 0 and signs == [1, 1]


def test_a_planted_order_three_sigma_is_a_claim_violation(monkeypatch):
    # the final C is -P and the block is B relabeled, by the triality of
    # D4: every check but the half-period rules passes
    g = bg.catalog("D4")
    triality = bg.Automorphism((2, 1, 3, 0))
    assert triality.cycles() == "(1 3 4)"
    planted = green.FramedState(
        n=g.n, ext=green._relabeled(green.framed(g.base, -1).ext, triality), history=()
    )
    real = green._walk
    monkeypatch.setattr(
        green, "_walk", lambda g, sign, *a: planted if sign == -1 else real(g, sign, *a)
    )
    monkeypatch.setattr(green, "_derived_final", lambda *certificates: planted)
    with pytest.raises(ClaimViolation, match="^half-period permutation has order"):
        green.frozen_isomorphism_check(g)
    for config in (
        {"command": "tropical", "target": "D4"},
        {"command": "green", "target": "D4", "skipSymbolic": True},
    ):
        assert cli.run_experiment(config) == (
            "falsified: half-period permutation has order above two\n", 1
        )


def with_final(cert, ext):
    return dataclasses.replace(cert, final=dataclasses.replace(cert.final, ext=ext))


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
    q = bg.Automorphism(tuple(q))
    ext = green._relabeled(green.framed(g.base, -1).ext, q)
    return dataclasses.replace(with_final(cert, ext), permutation=q)


@pytest.mark.parametrize(
    "name, broken",
    [
        # the Gamma certificate's final block is not B relabeled by q
        ("A2xA3", lambda g, gamma, delta: (doubled_entry(gamma), delta)),
        ("E6xE6", lambda g, gamma, delta: (doubled_entry(gamma), delta)),
        # the certificates in the wrong order, or the Gamma one twice
        ("B2xB2", lambda g, gamma, delta: (delta, gamma)),
        ("A2xA3", lambda g, gamma, delta: (gamma, gamma)),
        # h_Gamma = 3 is odd, but q = id keeps the colours; h_Gamma = 4 is
        # even, but q swaps them.  Both pass every other premise, and
        # derived past this one they give a sigma the walk does not.
        ("A2xA3", lambda g, gamma, delta: (planted_q(g, gamma, range(6)), delta)),
        ("B2xB2", lambda g, gamma, delta: (planted_q(g, gamma, (1, 0, 3, 2)), delta)),
    ],
    ids=["block", "block-E6xE6", "order", "twice", "colour-kept", "colour-swapped"],
)
def test_a_broken_premise_falls_back_to_the_walk(monkeypatch, name, broken):
    g = bg.catalog(name)
    sigma = green.frozen_isomorphism_check(g)
    certificates = broken(g, *green.verify_bipartite_belt_mgs(g))
    assert green._derived_final(g, *certificates) is None
    signs = spy_on_walks(monkeypatch)
    assert green.frozen_isomorphism_check(g, certificates=certificates) == sigma
    assert signs == [-1]


def test_a_bigraph_not_known_recurrent_falls_back_to_the_walk(monkeypatch):
    g = bg.catalog("A2xA3")
    certificates = green.verify_bipartite_belt_mgs(g)
    monkeypatch.setattr(green, "is_recurrent", lambda g: False)
    assert green._derived_final(g, *certificates) is None


# -- checks narrowed to the rows a mutation changed ------------------------------

CHECKS = ("verify_bipartite_belt_mgs", "frozen_isomorphism_check")


def test_framed_state_equality_ignores_checked():
    state = framed_of("A3")
    by_hand = green.FramedState(n=state.n, ext=state.ext, history=())
    assert state.checked and not by_hand.checked
    assert state == by_hand and hash(state) == hash(by_hand)
    assert not dataclasses.replace(state).checked
    assert green.mutate_framed(by_hand, 0).checked


@pytest.mark.parametrize("check", CHECKS)
def test_mutate_y_changing_a_row_it_should_leave_raises(monkeypatch, check):
    real = green.mutate_y

    def faulty(y, ext, k):
        out = list(real(y, ext, k))
        i = next(i for i in range(len(y)) if i != k and ext[i][k] == 0)
        out[i] = tuple(x + 1 for x in out[i])
        return tuple(out)

    monkeypatch.setattr(green, "mutate_y", faulty)
    with pytest.raises(CoefficientMismatch, match="after step 1 at vertex"):
        getattr(green, check)(bg.catalog("A2xA3"))


@pytest.mark.parametrize(
    "check, error, match",
    [
        ("verify_bipartite_belt_mgs", NotComponentPreserving, "leaked into part"),
        # the coframed belt is checked against no partition; the leaked
        # c-vector still shows against the coefficient track
        ("frozen_isomorphism_check", CoefficientMismatch, "after step 1 at"),
    ],
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

    def faulty(rows, k):
        out = list(real(rows, k))
        if len(rows) == g.n:  # the full matrix, not a restriction to one part
            own = part_of[k]
            i = moved_row(rows, k, own)
            j = next(j for j in own if j != i)
            row = list(out[i])
            row[j] += 1
            out[i] = tuple(row)
            faults.append(i)
        return tuple(out)

    monkeypatch.setattr(green, "mutate_rows", faulty)
    with pytest.raises(NotComponentPreserving, match="does not commute"):
        green.verify_bipartite_belt_mgs(g)
    assert len(faults) == 1


def _leak_into(monkeypatch, n, pick_row):
    """Make mutation of the full n rows also shift one nonzero c-vector
    entry, away from zero, in the row pick_row(rows, k) names."""
    real = green.mutate_rows

    def leaky(rows, k):
        out = list(real(rows, k))
        if len(rows) == n:  # the full matrix, not a restriction to one part
            i = pick_row(rows, k)
            row = list(out[i])
            j = next(j for j in range(n, 2 * n) if row[j] != 0)
            row[j] += 1 if row[j] > 0 else -1  # still sign-coherent
            out[i] = tuple(row)
        return tuple(out)

    monkeypatch.setattr(green, "mutate_rows", leaky)


@pytest.mark.parametrize("check", CHECKS)
def test_initial_y_disagreeing_with_c_block_raises_before_any_mutation(
    monkeypatch, check
):
    real_y, real_mutate = green.initial_y, green.mutate_framed
    calls = []

    def wrong_y(n, sign=1):
        y = list(real_y(n, sign))
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
    "check, error, name",
    [
        ("verify_bipartite_belt_mgs", NotPermutation, "final C"),
        ("frozen_isomorphism_check", NoIsomorphism, "frozen block"),
    ],
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
    monkeypatch.setattr(green, "initial_y", lambda n, sign=1: tuple(r[n:] for r in ext))
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
    gamma, delta = green.verify_bipartite_belt_mgs(g)
    broken = with_final(delta, tuple(row[:n] + c_row(n) for row in delta.final.ext))
    signs = spy_on_walks(monkeypatch)
    with pytest.raises(NoIsomorphism) as info:
        green.frozen_isomorphism_check(g, certificates=(gamma, broken))
    assert signs == []
    assert str(info.value).startswith(
        "frozen block (49 x 49) is not minus a permutation matrix: %s" % offending
    )


def test_a_derived_state_with_a_broken_block_is_no_relabeling(monkeypatch):
    g = bg.catalog("E6xE6")
    gamma, delta = green.verify_bipartite_belt_mgs(g)
    signs = spy_on_walks(monkeypatch)
    with pytest.raises(NoIsomorphism, match="mutable block is not a relabeling"):
        green.frozen_isomorphism_check(g, certificates=(gamma, doubled_entry(delta)))
    assert signs == []


def _fault_at_step(real, n, step, fault):
    """real (mutate_rows or mutate_y, whose last argument is the vertex),
    with fault applied to its result on its step-th call over the full n
    rows; restrictions to one part pass through."""
    calls = []

    def faulty(*args):
        out = real(*args)
        if len(args[0]) == n:
            calls.append(args[-1])
            if len(calls) == step:
                out = fault(out, args[-1])
        return out

    return faulty, calls


def test_sign_coherence_text_names_step_and_vertex(monkeypatch):
    g = bg.catalog("E7xE7")
    n = g.n

    def incoherent(out, k):
        pivot = out[k][:n] + (1,) + (-1,) * (n - 1)
        return out[:k] + (pivot,) + out[k + 1:]

    faulty, calls = _fault_at_step(green.mutate_rows, n, 300, incoherent)
    monkeypatch.setattr(green, "mutate_rows", faulty)
    with pytest.raises(SignCoherenceViolation) as info:
        green.verify_bipartite_belt_mgs(g)
    text = str(info.value)
    assert text.startswith("c-vector %d is (1, -1," % (calls[-1] + 1))
    assert text.endswith("after step 300 at vertex %d" % (calls[-1] + 1))
    assert len(text) < 400  # the history alone would print 300 entries


def test_coefficient_mismatch_text_names_step_and_vertex(monkeypatch):
    g = bg.catalog("E7xE7")

    def shifted(out, k):
        return out[:k] + (tuple(x + 1 for x in out[k]),) + out[k + 1:]

    faulty, calls = _fault_at_step(green.mutate_y, g.n, 300, shifted)
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
