"""Exchange matrices, bipartition, recurrence, tensors, duals, folding."""

import functools
import hashlib
import itertools
import json
import pathlib
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zamobelt.bigraph as bg
import zamobelt.dynkin as dynkin
from matrix_rules import dense_mutate_rows, skew_symmetrizable
from zamobelt.errors import (
    InputError,
    InvalidPermutation,
    InvalidVertex,
    NotAdmissible,
    NotAdmissibleBigraph,
    NotBipartite,
    NotIntegerMatrix,
    NotSkewSymmetrizable,
    UnknownName,
)

WHITE, BLACK = bg.WHITE, bg.BLACK


def matrix_of(name: str) -> tuple:
    return bg.catalog(name).base.b


# -- symmetrizer and matrix validation --------------------------------------


def test_symmetrizer_goldens():
    assert bg.symmetrizer(((0, 1), (-1, 0))) == (1, 1)
    assert bg.symmetrizer(((0, 2), (-1, 0))) == (1, 2)
    assert bg.symmetrizer(((0, 1), (-3, 0))) == (3, 1)


def test_symmetrizer_rejects_sign_mismatch():
    with pytest.raises(NotSkewSymmetrizable):
        bg.symmetrizer(((0, 1), (1, 0)))
    with pytest.raises(NotSkewSymmetrizable):
        bg.symmetrizer(((0, 1), (0, 0)))
    with pytest.raises(NotSkewSymmetrizable):
        bg.symmetrizer(((1, 0), (0, 1)))


def test_symmetrizer_rejects_inconsistent_cycle():
    # triangle with ratios that cannot close up
    rows = (
        (0, 1, -2),
        (-2, 0, 1),
        (1, -2, 0),
    )
    with pytest.raises(NotSkewSymmetrizable):
        bg.symmetrizer(rows)


@pytest.mark.parametrize(
    "rows, bad_row",
    [
        ([[0, 1, 5], [-1, 0]], 1),  # a dropped 5 would leave an A2
        ([[0, 1, 0], [-1, 0, 0]], 1),  # 2 x 3
        ([[0, 1], [-1]], 2),  # once an IndexError
        ([[0, 1.5], [-1]], 2),  # the shape is read before the entries
    ],
)
def test_exchange_matrix_refuses_a_matrix_that_is_not_square(rows, bad_row):
    with pytest.raises(NotSkewSymmetrizable, match="^row %d has length " % bad_row):
        bg.exchange_matrix(rows)


@pytest.mark.parametrize(
    "rows, what",
    [
        ([[0, 1], 5], "row 2 is 5 (int)"),  # once a bare TypeError
        ([[0, 1], None], "row 2 is None (NoneType)"),
        (5, "the matrix is 5 (int)"),
        ([[0, 1], {-1: "x", 0: "y"}], "row 2 is {-1: 'x', 0: 'y'} (dict)"),  # read as (-1, 0)
        (([0, 1], range(-1, 1)), "row 2 is range(-1, 1) (range)"),
    ],
)
def test_exchange_matrix_refuses_a_row_that_is_not_a_list_or_a_tuple(rows, what):
    with pytest.raises(NotIntegerMatrix) as info:
        bg.exchange_matrix(rows)
    assert str(info.value) == what + ", not a list or a tuple"


# -- single mutation ---------------------------------------------------------


def test_mutation_golden_rank_two():
    m = bg.exchange_matrix([[0, 1], [-1, 0]])
    out = bg.mutate(m, 0)
    assert out.b == ((0, -1), (1, 0))


def test_mutation_golden_a3_interior():
    m = bg.exchange_matrix([[0, 1, 0], [-1, 0, 1], [0, -1, 0]])
    out = bg.mutate(m, 1)
    assert out.b == ((0, -1, 1), (1, 0, -1), (-1, 1, 0))


@given(k=st.integers(min_value=0, max_value=3), j=st.integers(min_value=0, max_value=3))
def test_mutation_is_an_involution(k: int, j: int):
    m = bg.catalog("fig1-A5starD4").base
    once = bg.mutate(m, k)
    assert bg.mutate(once, k).b == m.b
    twice = bg.mutate(bg.mutate(m, k), j)
    assert bg.mutate(bg.mutate(twice, j), k).b == m.b


def test_mutation_preserves_symmetrizer():
    m = bg.catalog("fig2-F4xA2").base
    for k in range(m.n):
        assert bg.mutate(m, k).c == m.c


@st.composite
def framed_rectangles(draw):
    """An m x n' int matrix whose top m x m square is skew-symmetrizable:
    b_ij = a_ij c_j with a skew-symmetric and c positive."""
    m = draw(st.integers(min_value=1, max_value=5))
    extra = draw(st.integers(min_value=0, max_value=5))
    c = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    a = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            a[i][j] = draw(st.integers(-3, 3))
            a[j][i] = -a[i][j]
    frozen = st.lists(st.integers(-3, 3), min_size=extra, max_size=extra)
    rows = tuple(
        tuple(a[i][j] * c[j] for j in range(m)) + tuple(draw(frozen))
        for i in range(m)
    )
    k = draw(st.integers(0, m - 1))
    part = draw(st.sets(st.integers(0, m - 1))) | {k}
    return rows, k, sorted(part)


def restrict(rows, part, m):
    """The rows and columns of part, and the frozen columns, m on."""
    cols = part + list(range(m, len(rows[0])))
    return tuple(tuple(rows[i][j] for j in cols) for i in part)


@settings(max_examples=200)
@given(framed_rectangles())
def test_mutate_rows_is_an_involution_that_commutes_with_restriction(case):
    # the indexed rule on the square, and the dense rule the tests step by
    # on the whole rectangle, frozen columns included
    rows, k, part = case
    m = len(rows)
    once = dense_mutate_rows(rows, k)
    assert dense_mutate_rows(once, k) == rows
    assert dense_mutate_rows(restrict(rows, part, m), part.index(k)) == restrict(
        once, part, m
    )
    square = tuple(row[:m] for row in rows)
    index = [bg.support(row) for row in square]
    once_square = bg.mutate_rows(square, k, index)
    assert once_square == tuple(row[:m] for row in once)
    assert bg.mutate_rows(once_square, k, index) == square
    assert index == [bg.support(row) for row in square]
    sub = restrict(square, part, m)
    local = bg.mutate_rows(sub, part.index(k), [bg.support(row) for row in sub])
    assert local == restrict(once_square, part, m)


@st.composite
def int_rectangles(draw):
    """Any m x n' int matrix with n' >= m, and a row to mutate at."""
    m = draw(st.integers(min_value=1, max_value=6))
    width = m + draw(st.integers(min_value=0, max_value=6))
    row = st.lists(st.integers(-4, 4), min_size=width, max_size=width)
    rows = tuple(tuple(r) for r in draw(st.lists(row, min_size=m, max_size=m)))
    return rows, draw(st.integers(0, m - 1))


@settings(max_examples=300)
@given(int_rectangles())
def test_sparse_mutate_rows_matches_dense_formula(case):
    # on the skew-symmetrizable top square of the rectangle: the dense
    # rows, the index kept equal to their supports, and every row with
    # b_ik = 0 and its index entry left as the very same objects
    rows, k = case
    m = len(rows)
    square = tuple(row[:m] for row in skew_symmetrizable(rows))
    bg.symmetrizer(square)
    index = [bg.support(row) for row in square]
    before = list(index)
    out = bg.mutate_rows(square, k, index)
    assert out == dense_mutate_rows(square, k)
    assert index == [bg.support(row) for row in out]
    for i, row in enumerate(square):
        if i != k and row[k] == 0:
            assert out[i] is row and index[i] is before[i]


@st.composite
def squares_and_sequences(draw):
    """A skew-symmetrizable square and up to 6 vertices to mutate at."""
    rows, _ = draw(int_rectangles())
    m = len(rows)
    square = tuple(row[:m] for row in skew_symmetrizable(rows))
    return square, draw(st.lists(st.integers(0, m - 1), max_size=6))


@settings(max_examples=300)
@given(squares_and_sequences())
def test_composite_mutation_threads_one_index_to_the_dense_answer(case):
    # one index, built once, carried through every mutation: the dense
    # rows vertex by vertex, and every row no mutation moved, b_ik = 0 at
    # each k, the very same object
    square, ks = case
    m = bg.exchange_matrix(square)
    rows, moved = m.b, set()
    for k in ks:
        moved.update(i for i, row in enumerate(rows) if i == k or row[k])
        rows = dense_mutate_rows(rows, k)
    out = bg.composite_mutation(m, ks)
    assert out.b == rows and out.c == m.c
    for i in set(range(m.n)) - moved:
        assert out.b[i] is m.b[i]


def test_composite_mutation_of_disconnected_set_commutes():
    m = bg.catalog("A3").base
    # vertices 0 and 2 are not adjacent, so the order cannot matter
    a = bg.mutate(bg.mutate(m, 0), 2)
    b = bg.mutate(bg.mutate(m, 2), 0)
    assert a.b == b.b
    assert bg.composite_mutation(m, (0, 2)).b == a.b


@pytest.mark.parametrize(
    "k, text",
    [
        (3, "vertex 4 is not one of 1..3"),
        (-1, "vertex 0 is not one of 1..3"),
        # a bool is an int to Python; read as vertex 2 it once mutated there
        (True, "vertex True is bool, not an int"),
    ],
    ids=["n", "minus-one", "True"],
)
def test_a_mutation_at_a_vertex_the_matrix_lacks_is_an_input_error(k, text):
    m = bg.catalog("A3").base
    for call in (lambda: bg.mutate(m, k), lambda: bg.composite_mutation(m, (0, k))):
        with pytest.raises(InvalidVertex) as error:
            call()
        assert str(error.value) == text
    assert issubclass(InvalidVertex, InputError)


# -- bipartition and decomposition -------------------------------------------


def test_detect_epsilon_goldens():
    assert bg.detect_epsilon(matrix_of("A2")) == (WHITE, BLACK)
    assert bg.detect_epsilon(matrix_of("A3")) == (WHITE, BLACK, WHITE)


def test_detect_epsilon_rejects_odd_cycle():
    rows = (
        (0, 1, -1),
        (-1, 0, 1),
        (1, -1, 0),
    )
    with pytest.raises(NotBipartite):
        bg.detect_epsilon(rows)


def test_decompose_a2():
    g = bg.catalog("A2")
    assert g.gamma == ((0, 1), (1, 0))
    assert g.delta == ((0, 0), (0, 0))
    assert [c.name for c in g.gamma_components] == ["A2"]
    assert [c.name for c in g.delta_components] == ["A1", "A1"]
    assert g.h_gamma == 3 and g.h_delta == 2 and g.half_period == 5


def test_decompose_recomposes_to_b():
    for name in ("A3", "B2", "A2xA3", "fig1-A5starD4", "fig2-F4xA2"):
        g = bg.catalog(name)
        assert bg._compose(g.gamma, g.delta, g.epsilon) == g.base.b, name
    # written out by hand, so the round trip does not start from _compose:
    # a Gamma edge 1-2 of weights 2 and 1, a Delta edge 1-3, vertex 1 white
    b = [[0, 2, -1], [-1, 0, 0], [1, 0, 0]]
    g = bg.from_json({"n": 3, "b": b, "epsilon": ["w", "b", "b"]})
    assert g.gamma == ((0, 2, 0), (1, 0, 0), (0, 0, 0))
    assert g.delta == ((0, 0, 1), (0, 0, 0), (1, 0, 0))
    assert bg._compose(g.gamma, g.delta, g.epsilon) == g.base.b == bg._freeze(b)


def test_figure_one_decomposition():
    g = bg.catalog("fig1-A5starD4")
    assert g.n == 9
    assert sorted(c.name for c in g.gamma_components) == ["A5", "D4"]
    assert [c.name for c in g.delta_components] == ["A3", "A3", "A3"]
    assert g.h_gamma == 6 and g.h_delta == 4 and g.half_period == 10


def test_figure_two_decomposition():
    g = bg.catalog("fig2-F4xA2")
    assert g.n == 8
    assert [c.name for c in g.gamma_components] == ["F4", "F4"]
    assert [c.name for c in g.delta_components] == ["A2"] * 4
    assert g.h_gamma == 12 and g.h_delta == 3 and g.half_period == 15


def test_mixed_coxeter_numbers_are_rejected():
    # gamma components A2 (h=3) and A1 (h=2) cannot share a belt
    rows = [[0] * 5 for _ in range(5)]
    for i, j in ((0, 1), (2, 3), (3, 4)):
        rows[i][j] = 1
        rows[j][i] = -1
    g = bg.decompose(bg.exchange_matrix(rows), (WHITE, BLACK, WHITE, BLACK, WHITE))
    with pytest.raises(NotAdmissibleBigraph):
        g.h_gamma


def test_mixed_dynkin_and_non_dynkin_components_are_rejected():
    # Gamma holds an A2 and a doubled edge, which is not of finite type
    doc = {
        "n": 4,
        "b": [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 2], [0, 0, -2, 0]],
        "epsilon": ["w", "b", "w", "b"],
    }
    g = bg.from_json(doc)
    with pytest.raises(NotAdmissibleBigraph, match=r"\[3, '\?'\]"):
        g.h_gamma


@pytest.mark.parametrize("entry", [1.9, 1.0, True, "1"])
def test_non_integer_entries_are_rejected(entry):
    with pytest.raises(NotIntegerMatrix):
        bg.from_json({"n": 2, "b": [[0, entry], [-1, 0]]})


# -- recurrence ---------------------------------------------------------------


def test_catalog_entries_are_recurrent():
    for name in bg.catalog_names():
        assert bg.catalog(name).recurrent


def test_recurrence_needs_both_color_composites():
    rows = ((0, 1, 0), (-1, 0, -1), (0, 1, 0))
    good = bg.decompose(bg.exchange_matrix(rows))
    assert good.recurrent
    # flipping one edge keeps the coloring but breaks recurrence: the
    # white composite still negates the matrix while the black one does not,
    # so checking a single color would wrongly accept this bigraph
    bad = bg.decompose(bg.exchange_matrix(((0, 1, 0), (-1, 0, 1), (0, -1, 0))))
    minus = tuple(tuple(-x for x in row) for row in bad.base.b)
    assert bg.composite_mutation(bad.base, bad.whites).b == minus
    assert bg.composite_mutation(bad.base, bad.blacks).b != minus
    assert not bad.recurrent


def test_the_recurrence_verdict_is_computed_once_per_bigraph(monkeypatch):
    composites = []
    real = bg.composite_mutation

    def counting(m, vertices):
        composites.append(vertices)
        return real(m, vertices)

    monkeypatch.setattr(bg, "composite_mutation", counting)
    g = bg.catalog("A3")
    assert g.recurrent and g.recurrent
    assert composites == [g.whites, g.blacks]
    # the cached verdict is no field: a fresh build is still equal
    assert g == bg.catalog("A3") and hash(g) == hash(bg.catalog("A3"))


# -- Dynkin components ----------------------------------------------------------

KRONECKER = {"n": 2, "b": [[0, 2], [-2, 0]], "epsilon": ["w", "b"]}


def _component_alone(weights, vertices):
    """The Component of one vertex set, recognized on its own."""
    cartan = tuple(
        tuple(2 if u == v else -weights[u][v] for v in vertices) for u in vertices
    )
    hit = dynkin.recognize(cartan)
    if hit is None:
        return bg.Component(vertices, None, len(vertices), None), cartan
    return bg.Component(vertices, *hit, dynkin.coxeter_number(*hit)), cartan


@pytest.mark.parametrize("name", bg.catalog_names() + ["E7xE7", "Kronecker"])
def test_component_data_recognizes_each_distinct_matrix_once(monkeypatch, name):
    g = bg.from_json(KRONECKER) if name == "Kronecker" else bg.catalog(name)
    real = dynkin.recognize
    for weights in (g.gamma, g.delta):
        alone = [
            _component_alone(weights, vertices)
            for vertices in bg._connected_components(weights)
        ]
        recognized = []

        def counting(cartan):
            recognized.append(cartan)
            return real(cartan)

        monkeypatch.setattr(dynkin, "recognize", counting)
        assert bg._component_data(weights) == tuple(comp for comp, _ in alone)
        monkeypatch.setattr(dynkin, "recognize", real)
        assert recognized == list(dict.fromkeys(cartan for _, cartan in alone))
    if name == "E7xE7":
        # seven E7 components on each side, each side one recognition
        names = [c.name for c in g.gamma_components + g.delta_components]
        assert names == ["E7"] * 14
    if name == "Kronecker":
        # the affine doubled edge keeps family None; Delta is two points
        assert g.gamma_components == (bg.Component((0, 1), None, 2, None),)
        assert [c.name for c in g.delta_components] == ["A1", "A1"]


# -- tensor products ----------------------------------------------------------


def test_tensor_a2_a2_golden():
    g = bg.tensor_product("A", 2, "A", 2)
    assert g.n == 4
    assert sorted(c.name for c in g.gamma_components) == ["A2", "A2"]
    assert sorted(c.name for c in g.delta_components) == ["A2", "A2"]
    assert g.half_period == 6
    assert g.recurrent


def test_tensor_with_point_matches_plain_dynkin():
    g = bg.tensor_product("B", 3, "A", 1)
    assert g.base.b == matrix_of("B3")
    assert all(not any(row) for row in g.delta)


def test_tensor_figure_two_matches_catalog():
    g = bg.tensor_product("F", 4, "A", 2)
    ref = bg.catalog("fig2-F4xA2")
    assert g.n == ref.n
    assert sorted(c.name for c in g.gamma_components) == sorted(
        c.name for c in ref.gamma_components
    )
    assert sorted(c.name for c in g.delta_components) == sorted(
        c.name for c in ref.delta_components
    )
    assert g.half_period == ref.half_period


# -- duals ---------------------------------------------------------------------


def test_langlands_dual_goldens():
    c2 = bg.catalog("C2").base
    dual = bg.langlands_dual(c2)
    assert dual.b == matrix_of("B2")
    assert bg.langlands_dual(dual).b == c2.b
    a3 = bg.catalog("A3").base
    assert bg.langlands_dual(a3).b == a3.b  # simply laced is self dual


def test_dual_bigraph_swaps_multiplicity_sides():
    g = bg.catalog("G2")
    dual = bg.dual_bigraph(g)
    assert dual.base.b == ((0, 3), (-1, 0))
    assert dual.epsilon == g.epsilon
    # the bigraph holds its dual, built when first read
    assert isinstance(vars(bg.Bigraph)["dual"], functools.cached_property)
    assert g.dual is g.dual and g.dual == dual


# -- automorphisms and folding --------------------------------------------------


def test_automorphism_group_of_figure_one():
    g = bg.catalog("fig1-A5starD4")
    autos = list(bg.automorphism_search(g))
    assert sorted(a.cycles() for a in autos) == [
        "(1 5)(2 4)",
        "(1 5)(2 4)(8 9)",
        "(8 9)",
        "id",
    ]
    assert all(a.order in (1, 2) for a in autos)


@pytest.mark.parametrize("name", bg.catalog_names() + ["A2xA4", "D4xA2", "E6xA2"])
def test_colour_kinds_are_the_colour_classes_of_all_automorphisms(name):
    # the search yields each automorphism of (Gamma, Delta) once, the
    # identity first and the rest in lex order; a colour kind is a class
    # of classify_color_behavior, and the classes split what it yields
    g = bg.catalog(name)
    every = list(bg.automorphism_search(g))
    assert every[0] == bg.Automorphism.identity(g.n)
    perms = [a.perm for a in every]
    assert perms == sorted(set(perms))
    classes = {}
    for a in every:
        assert all(bg.unmatched_entry(a, m, m) is None for m in (g.gamma, g.delta))
        classes.setdefault(bg.classify_color_behavior(g, a), []).append(a)
    # each target is connected: no automorphism mixes colours, the
    # colour-preserving ones are a subgroup and the reversing ones are
    # none or its other coset
    preserving = classes.pop("preserving")
    reversing = classes.pop("reversing", [])
    assert classes == {}
    assert len(reversing) in (0, len(preserving))
    for a in every:
        for b in preserving:
            composite = bg.Automorphism(a.relabel(b.perm))
            assert composite in (preserving if a in preserving else reversing)


def test_automorphism_search_is_lazy():
    # 12 isolated vertices: 12! automorphisms, of which the first two
    # come without enumerating the rest
    n = 12
    g = bg.from_json(
        {"n": n, "b": [[0] * n for _ in range(n)], "epsilon": ["w", "b"] * 6}
    )
    search = bg.automorphism_search(g)
    assert next(search) == bg.Automorphism.identity(n)
    assert next(search) == bg.Automorphism((0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 10))
    e7 = bg.catalog("E7")
    assert list(bg.automorphism_search(e7)) == [bg.Automorphism.identity(e7.n)]


def test_automorphism_search_has_no_vertex_bound():
    # 18 vertices: the identity, the flip of A9 along each A2 row, and
    # two colour-reversing ones, the swap of the A2 copies with and
    # without that flip
    g = bg.catalog("A9xA2")
    every = list(bg.automorphism_search(g))
    assert len(every) == 4
    behaviors = [bg.classify_color_behavior(g, a) for a in every]
    assert sorted(behaviors) == ["preserving"] * 2 + ["reversing"] * 2


def test_fold_a3_by_flip_gives_rank_two_doubled_edge():
    g = bg.catalog("A3")
    flip = next(a for a in bg.automorphism_search(g) if not a.is_identity)
    folded = bg.fold(g, flip)
    assert folded.base.b == ((0, 2), (-1, 0))
    assert folded.base.c == (1, 2)


def test_fold_d4_by_rotation_gives_triple_edge():
    g = bg.catalog("D4")
    rot = next(a for a in bg.automorphism_search(g) if a.order == 3)
    folded = bg.fold(g, rot)
    assert folded.base.b == ((0, 3), (-1, 0))


def test_fold_e6xa2_by_its_colour_preserving_automorphism_gives_f4xa2():
    # the one colour-preserving tau besides the identity is omega_E6 x id,
    # omega_E6 = (1 6)(3 5) being E6's diagram flip
    g = bg.catalog("E6xA2")
    taus = [
        a for a in bg.automorphism_search(g)
        if not a.is_identity and bg.classify_color_behavior(g, a) == "preserving"
    ]
    assert [tau.cycles() for tau in taus] == ["(1 6)(3 5)(7 12)(9 11)"]
    folded = bg.fold(g, taus[0])
    assert folded.n == 8 and folded.recurrent
    assert [c.name for c in folded.gamma_components] == ["F4", "F4"]
    assert [c.name for c in folded.delta_components] == ["A2"] * 4
    assert (folded.h_gamma, folded.h_delta) == (12, 3)

    def marked(h):
        # (Gamma, Delta) entry pairs with each vertex's colour on the diagonal
        return tuple(
            tuple(
                (gv, dv, h.eta(i) if i == j else -1)
                for j, (gv, dv) in enumerate(zip(gamma_row, delta_row))
            )
            for i, (gamma_row, delta_row) in enumerate(zip(h.gamma, h.delta))
        )

    f4xa2 = bg.catalog("F4xA2")
    onto = bg.Automorphism(next(dynkin.relabelings(marked(folded), marked(f4xa2))))
    assert bg.unmatched_entry(onto, folded.base.b, f4xa2.base.b) is None


def test_fold_commutes_with_orbit_mutation():
    g = bg.catalog("A3")
    flip = next(a for a in bg.automorphism_search(g) if not a.is_identity)
    orbits = bg.check_bicolored(g, flip)
    folded = bg.fold(g, flip)
    for which, orbit in enumerate(orbits):
        mutated_up = bg.composite_mutation(g.base, orbit)
        lifted = bg.fold(bg.decompose(mutated_up, g.epsilon), flip)
        mutated_down = bg.mutate(folded.base, which)
        assert lifted.base.b == mutated_down.b, orbit


def test_fold_rejects_color_swapping_flip():
    g = bg.catalog("A2")
    # the flip exchanges the two adjacent vertices, which differ in color
    with pytest.raises(NotAdmissible):
        bg.fold(g, bg.Automorphism((1, 0)))


@pytest.mark.parametrize(
    "name",
    [name for name in bg.catalog_names() if bg.catalog(name).n <= 6]
    + ["D4xA2", "A2xA4"],
)
def test_fold_checks_conditions_i_to_iii_and_the_rest_follow(name):
    # every permutation folds or is refused under (i), (ii) or (iii);
    # where a permutation preserves colours and b, the two conditions
    # fold does not check hold: no orbit holds two adjacent vertices,
    # and a folded entry is the same whichever column of its orbit is read
    g = bg.catalog(name)
    b = g.base.b
    for perm in itertools.permutations(range(g.n)):
        auto = bg.Automorphism(perm)
        try:
            folded = bg.fold(g, auto)
        except NotAdmissible as refused:
            assert refused.condition in ("i", "ii", "iii"), (name, perm)
            folded = None
        preserving = all(g.epsilon[perm[i]] == g.epsilon[i] for i in range(g.n))
        if not (preserving and bg.unmatched_entry(auto, b, b) is None):
            assert folded is None, (name, perm)
            continue
        orbits = [tuple(sorted(cycle)) for cycle in auto._cycles()]
        for orbit in orbits:
            assert all(b[i][j] == 0 for i in orbit for j in orbit), (name, perm)
        mixed = any(
            {b[i][j] > 0 for i in orbit if b[i][j]} == {True, False}
            for orbit in orbits
            for j in range(g.n)
        )
        assert (folded is None) == mixed, (name, perm)
        sums = [
            [{sum(b[i][j] for i in orbit_i) for j in orbit_j} for orbit_j in orbits]
            for orbit_i in orbits
        ]
        assert all(len(entry) == 1 for row in sums for entry in row), (name, perm)
        if folded is not None:
            assert folded.base.b == tuple(
                tuple(entry.pop() for entry in row) for row in sums
            ), (name, perm)


def test_fold_rejects_color_mixing_permutation():
    g = bg.catalog("A3")
    with pytest.raises(NotAdmissible):
        bg.fold(g, bg.Automorphism((1, 0, 2)))  # white <-> black swap is not bicolored


def test_fold_refuses_a_list():
    # a permutation reaches fold as an Automorphism, never wrapped there
    g = bg.catalog("A3")
    assert bg.fold(g, bg.Automorphism((2, 1, 0))).n == 2
    with pytest.raises(InvalidPermutation, match="'list' object"):
        bg.fold(g, [2, 1, 0])


@pytest.mark.parametrize("sigma", [[1, 0], (1, 0)], ids=["list", "tuple"])
def test_the_half_period_rules_and_replay_refuse_a_sigma_not_an_automorphism(
    sigma,
):
    # classify_sigma, replay and check_bicolored take an Automorphism
    # only; a list or a tuple is named, never wrapped or half read
    g = bg.catalog("A2")
    kind = type(sigma).__name__
    with pytest.raises(InvalidPermutation, match="'%s' object is not an" % kind):
        bg.classify_sigma(g, sigma)
    states = [(0, 1), (1, 0)]
    with pytest.raises(InvalidPermutation, match="'%s' object is not an" % kind):
        bg.replay(states, sigma, 1, 3)
    assert states == [(0, 1), (1, 0)]
    with pytest.raises(InvalidPermutation, match="'%s' object is not an" % kind):
        bg.check_bicolored(g, sigma)
    assert bg.classify_sigma(g, bg.Automorphism((1, 0))).color_behavior == "reversing"


def _within(seconds, call):
    """call(), or TimeoutError once seconds pass: a hang fails the test.
    A hung cycle walk grows its cycle without end, so keep seconds short."""

    def stop(signum, frame):
        raise TimeoutError("no answer within %d s" % seconds)

    old = signal.signal(signal.SIGALRM, stop)
    signal.alarm(seconds)
    try:
        return call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


REPEAT = "vertices 1 and 3 both map to vertex 1"


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: bg.Automorphism((0, 1, 0)).cycles(), REPEAT),
        (lambda: bg.Automorphism((0, 1, 0)).order, REPEAT),
        (lambda: bg.fold(bg.catalog("A3"), bg.Automorphism((0, 1, 0))), REPEAT),
        (lambda: bg.Automorphism((0, 3, 1)).order, "vertex 2 maps outside 1..3"),
        (
            lambda: bg.check_bicolored(bg.catalog("A2"), bg.Automorphism((1, -1))),
            "vertex 2 maps outside 1..2",
        ),
        (
            lambda: bg.fold(bg.catalog("A3"), bg.Automorphism((0, 5, 1))),
            "vertex 2 maps outside 1..3",
        ),
    ],
    ids=["cycles", "order", "fold", "out-of-range", "orbits", "fold-out-of-range"],
)
def test_a_map_that_is_not_a_permutation_is_rejected_at_once(call, match):
    # a cycle walk on such a map never closes; each map is refused
    # where its Automorphism is made, before any walk or fold
    with pytest.raises(InvalidPermutation, match=match):
        _within(1, call)
    assert issubclass(InvalidPermutation, InputError)


def test_an_automorphism_is_validated_at_construction():
    with pytest.raises(InvalidPermutation, match=REPEAT):
        bg.Automorphism((0, 1, 0))
    # a bool is an int to Python, but no vertex: True is not read as 1
    with pytest.raises(InvalidPermutation, match="vertex 1 maps to True, not a"):
        bg.Automorphism((True, False))
    with pytest.raises(InvalidPermutation, match="vertex 2 maps to False, not a"):
        bg.Automorphism((1, False, 2))
    # a list is not coerced: kept as given it would be unhashable, and
    # unequal to the tuple, which is the identity
    with pytest.raises(InvalidPermutation, match="a permutation is a tuple, got list"):
        bg.Automorphism([0, 1, 2])
    assert bg.Automorphism((0, 1, 2)).is_identity


def test_relabel_inverse_and_replay():
    sigma = bg.Automorphism((2, 0, 1))
    assert sigma.relabel("abc") == ("c", "a", "b")  # entry i is seq[sigma(i)]
    assert sigma.inverse == bg.Automorphism((1, 2, 0))
    assert sigma.inverse.relabel(sigma.relabel((5, 6, 7))) == (5, 6, 7)
    # the state at shift + t is the state at t relabeled
    states = [(0, 1, 2), (3, 4, 5)]
    bg.replay(states, sigma, 1, 4)
    assert states == [(0, 1, 2), (3, 4, 5), (5, 3, 4), (4, 5, 3), (3, 4, 5)]


# -- catalog and serialization ---------------------------------------------------


def test_catalog_rejects_unknown_names():
    for bad in ("Q7", "A0", "E9", "fig3", "A2xx", ""):
        with pytest.raises(UnknownName):
            bg.catalog(bad)


@pytest.mark.parametrize("name", [5, None, b"A2", ["A2"]], ids=repr)
def test_catalog_refuses_a_name_that_is_not_a_string(name):
    with pytest.raises(UnknownName) as err:
        bg.catalog(name)
    assert str(err.value).startswith(
        "%r is not a catalog name; try one of A1, A2, " % (name,)
    )


def test_catalog_reads_a_dynkin_name_as_its_tensor_with_a_point():
    for name in ("A1", "A3", "B3", "C2", "D4", "G2", "E6"):
        assert bg.catalog(name) == bg.catalog(name + "xA1"), name


@pytest.mark.parametrize(
    "name, text",
    [
        ("A0", "A0: rank 0 invalid for family A"),
        ("E9", "E9: rank 9 invalid for family E"),
        ("A2xE9", "A2xE9: rank 9 invalid for family E"),
    ],
)
def test_catalog_names_the_bad_rank_under_the_name_given(name, text):
    with pytest.raises(UnknownName) as err:
        bg.catalog(name)
    assert str(err.value) == text


def test_catalog_takes_the_whole_name():
    # a trailing newline is not silently dropped from a name
    for bad in ("A2\n", "A2xA3\n", " A2", "A2xA3xA1"):
        with pytest.raises(UnknownName):
            bg.catalog(bad)


def test_catalog_accepts_tensor_spellings():
    g = bg.catalog("B2xB2")
    assert g.n == 4
    assert g.half_period == 8


def test_catalog_version_is_stable_across_calls():
    assert bg.catalog_version() == bg.catalog_version()
    assert len(bg.catalog_version()) == 12


@pytest.mark.parametrize(
    "golden", ["belt_tropical_reports.json", "green_reports.json"]
)
def test_catalog_version_is_the_one_the_golden_reports_pin(golden):
    reports = json.loads((pathlib.Path(__file__).with_name(golden)).read_text())
    pinned = {
        json.loads(report["text"])["catalogVersion"]
        for report in reports
        if report["exitCode"] == 0 and report["text"].startswith("{")
    }
    assert pinned == {bg.catalog_version()}


# The Coxeter table as the catalog version spells it, and each series
# formula read at rank n.
COXETER_SPELLED = {
    "A": "n+1", "B": "2n", "C": "2n", "D": "2n-2",
    "E6": 12, "E7": 18, "E8": 30, "F4": 12, "G2": 6,
}
SERIES = {"n+1": lambda n: n + 1, "2n": lambda n: 2 * n, "2n-2": lambda n: 2 * n - 2}


def test_the_spelled_coxeter_table_is_dynkins():
    for key, value in COXETER_SPELLED.items():
        if isinstance(value, int):
            assert dynkin.coxeter_number(key[0], int(key[1:])) == value, key
        else:
            low = {"A": 1, "B": 2, "C": 2, "D": 4}[key]
            for n in range(low, 20):
                assert dynkin.coxeter_number(key, n) == SERIES[value](n), (key, n)
    assert {key[0] for key in COXETER_SPELLED} == set("ABCDEFG")


def test_catalog_version_is_the_digest_of_the_figures_and_the_coxeter_table():
    # the version is a literal; an edit to the figure data or the table
    # must come with a bump to the digest named here
    payload = {
        "fig1": {
            "gamma": bg._FIG1_GAMMA_EDGES,
            "delta": bg._FIG1_DELTA_EDGES,
            "epsilon": bg._FIG1_EPSILON,
        },
        "fig2": {"b": bg._figure_two_rows(), "epsilon": bg._FIG2_EPSILON},
        "coxeter": COXETER_SPELLED,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    digest = hashlib.sha256(blob).hexdigest()[:12]
    assert bg.catalog_version() == digest, (
        "the figures or the Coxeter table changed: set catalog_version to %r"
        % digest
    )


def test_from_json_round_trip():
    g = bg.catalog("A2xA3")
    doc = {"n": g.n, "b": [list(r) for r in g.base.b], "epsilon": list(g.epsilon)}
    back = bg.from_json(json.loads(json.dumps(doc)))
    assert back.base.b == g.base.b
    assert back.epsilon == g.epsilon


def test_load_bigraph_reads_a_file(tmp_path):
    g = bg.catalog("B2xB2")
    path = tmp_path / "b2b2.json"
    path.write_text(json.dumps({"n": g.n, "b": [list(r) for r in g.base.b]}))
    assert bg.load_bigraph(str(path)) == g


def test_load_bigraph_names_a_missing_or_malformed_file(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(InputError) as err:
        bg.load_bigraph(str(missing))
    assert str(err.value) == "no such file: %s" % missing
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(InputError) as err:
        bg.load_bigraph(str(bad))
    assert str(err.value).startswith("bad JSON in %s: " % bad)
    with pytest.raises(InputError) as err:
        bg.load_bigraph(str(tmp_path))
    assert str(err.value).startswith("cannot read %s: " % tmp_path)


def test_from_json_validates_shape():
    with pytest.raises(NotBipartite):
        bg.from_json({"n": 2, "b": [[0, 1]]})
    with pytest.raises(NotBipartite):
        bg.from_json({"n": 2})
    with pytest.raises(NotBipartite):
        bg.from_json({"n": 2, "b": [[0, 1], [-1, 0]], "epsilon": ["x", "y"]})


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 2, "b": 5},
        {"n": 2, "b": [5, 6]},
        {"n": 2, "b": "ab"},
        {"n": "2", "b": [[0, 1], [-1, 0]]},
        {"n": 2.0, "b": [[0, 1], [-1, 0]]},
        {"n": 2, "b": [[0, 1], [-1, 0]], "epsilon": "wb"},
    ],
)
def test_from_json_checks_types_before_shape(doc):
    with pytest.raises(NotBipartite):
        bg.from_json(doc)


def test_epsilon_must_alternate_along_edges():
    with pytest.raises(NotBipartite):
        bg.decompose(bg.exchange_matrix([[0, 1], [-1, 0]]), (WHITE, WHITE))


@pytest.mark.parametrize(
    "epsilon, text",
    [
        (("x", "w"), "epsilon entries must be 'w' or 'b'"),
        (["w", None], "epsilon entries must be 'w' or 'b'"),
        ("wb", "'epsilon' must be a list of 'w' and 'b'"),
        (5, "'epsilon' must be a list of 'w' and 'b'"),
    ],
)
def test_decompose_refuses_a_colouring_not_of_w_and_b(epsilon, text):
    # decompose holds the colouring rule, and from_json reads it there
    m = bg.exchange_matrix([[0, 1], [-1, 0]])
    with pytest.raises(NotBipartite) as err:
        bg.decompose(m, epsilon)
    assert str(err.value) == text
    doc = {"n": 2, "b": [[0, 1], [-1, 0]], "epsilon": epsilon}
    with pytest.raises(NotBipartite) as err:
        bg.from_json(doc)
    assert str(err.value) == text


def test_decompose_takes_a_colouring_as_a_list_or_a_tuple():
    m = bg.exchange_matrix([[0, 1], [-1, 0]])
    g = bg.decompose(m, [WHITE, BLACK])
    assert g == bg.decompose(m, (WHITE, BLACK))
    assert g.epsilon == (WHITE, BLACK)
    assert (g.gamma, g.delta) == (((0, 1), (1, 0)), ((0, 0), (0, 0)))


# -- the belt timetable -----------------------------------------------------------


@pytest.mark.parametrize("name", bg.catalog_names() + ["E6xA2", "A3xD4"])
def test_movers_is_the_belt_timetable(name):
    g = bg.catalog(name)
    whites, blacks = g.movers
    assert [k for k, _, _ in whites] == g.whites
    assert [k for k, _, _ in blacks] == g.blacks
    # the in-edges of the movers rebuild Gamma and Delta column by column
    rebuilt = ([[0] * g.n for _ in range(g.n)], [[0] * g.n for _ in range(g.n)])
    for k, gamma_in, delta_in in whites + blacks:
        for m, edges in zip(rebuilt, (gamma_in, delta_in)):
            assert [i for i, _ in edges] == sorted({i for i, _ in edges})
            for i, weight in edges:
                assert weight != 0
                m[i][k] = weight
    assert tuple(map(tuple, rebuilt[0])) == g.gamma
    assert tuple(map(tuple, rebuilt[1])) == g.delta


def test_movers_is_built_once_and_leaves_equality_alone():
    g = bg.catalog("A2xA3")
    assert g.movers is g.movers
    fresh = bg.catalog("A2xA3")
    assert g == fresh and hash(g) == hash(fresh)
