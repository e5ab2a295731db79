"""Framed mutation: c-vectors, green sequences, frozen isomorphisms."""

import pytest

import zamobelt.bigraph as bg
import zamobelt.green as green
from zamobelt.errors import (
    CoefficientMismatch,
    FrozenVertex,
    NotGreenAtStep,
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


# -- component preserving restriction ------------------------------------------


def test_is_component_preserving_goldens():
    state = framed_of("A2")
    assert green.is_component_preserving(state, ({0}, {1}), 0)
    assert not green.is_component_preserving(state, ({0}, {1}), 1)
    assert green.is_component_preserving(state, ({0, 1},), 1)


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
