"""Exchange matrices, bipartition, recurrence, tensors, duals, folding."""

import hashlib
import json
import pathlib
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zamobelt.bigraph as bg
import zamobelt.dynkin as dynkin
from zamobelt.errors import (
    InputError,
    InvalidPermutation,
    NotAdmissible,
    NotAdmissibleBigraph,
    NotBipartite,
    NotIntegerMatrix,
    NotSkewSymmetrizable,
    OrbitAdjacency,
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


@settings(max_examples=200)
@given(framed_rectangles())
def test_mutate_rows_is_an_involution_that_commutes_with_restriction(case):
    rows, k, part = case
    m, width = len(rows), len(rows[0])
    once = bg.mutate_rows(rows, k)
    assert bg.mutate_rows(once, k) == rows
    cols = part + list(range(m, width))

    def restrict(mat):
        return tuple(tuple(mat[i][j] for j in cols) for i in part)

    assert bg.mutate_rows(restrict(rows), part.index(k)) == restrict(once)


def dense_mutate_rows(rows, k):
    """Matrix mutation by the dense formula: every entry of every row."""
    pivot = rows[k]
    out = []
    for i, row in enumerate(rows):
        a = row[k]
        if i == k:
            out.append(tuple(-x for x in row))
            continue
        new = [
            x + abs(a) * y if a * y > 0 else x for x, y in zip(row, pivot)
        ]
        new[k] = -a
        out.append(tuple(new))
    return tuple(out)


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
    rows, k = case
    assert bg.mutate_rows(rows, k) == dense_mutate_rows(rows, k)


def test_composite_mutation_of_disconnected_set_commutes():
    m = bg.catalog("A3").base
    # vertices 0 and 2 are not adjacent, so the order cannot matter
    a = bg.mutate(bg.mutate(m, 0), 2)
    b = bg.mutate(bg.mutate(m, 2), 0)
    assert a.b == b.b
    assert bg.composite_mutation(m, (0, 2)).b == a.b


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
        assert bg.is_recurrent(bg.catalog(name))


def test_recurrence_needs_both_color_composites():
    rows = ((0, 1, 0), (-1, 0, -1), (0, 1, 0))
    good = bg.decompose(bg.exchange_matrix(rows))
    assert bg.is_recurrent(good)
    # flipping one edge keeps the coloring but breaks recurrence: the
    # white composite still negates the matrix while the black one does not,
    # so checking a single color would wrongly accept this bigraph
    bad = bg.decompose(bg.exchange_matrix(((0, 1, 0), (-1, 0, 1), (0, -1, 0))))
    minus = tuple(tuple(-x for x in row) for row in bad.base.b)
    assert bg.composite_mutation(bad.base, bad.whites).b == minus
    assert bg.composite_mutation(bad.base, bad.blacks).b != minus
    assert not bg.is_recurrent(bad)


def test_the_recurrence_verdict_is_computed_once_per_bigraph(monkeypatch):
    composites = []
    real = bg.composite_mutation

    def counting(m, vertices):
        composites.append(vertices)
        return real(m, vertices)

    monkeypatch.setattr(bg, "composite_mutation", counting)
    g = bg.catalog("A3")
    assert bg.is_recurrent(g) and bg.is_recurrent(g) and g.recurrent
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
    assert bg.is_recurrent(g)


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
    # colour is a placement condition of the search; it must keep exactly
    # the automorphisms a filter on "all" keeps, in the same order
    g = bg.catalog(name)
    every = list(bg.automorphism_search(g))
    for kind, behavior in (("colorPreserving", "preserving"),
                           ("colorReversing", "reversing")):
        assert list(bg.automorphism_search(g, kind)) == [
            a for a in every if bg.classify_color_behavior(g, a) == behavior
        ]


def test_automorphism_search_is_lazy():
    # 12 isolated vertices, 6 of each colour: 6!^2 colour-reversing
    # automorphisms, of which the first comes without enumerating the rest
    n = 12
    g = bg.from_json(
        {"n": n, "b": [[0] * n for _ in range(n)], "epsilon": ["w", "b"] * 6}
    )
    search = bg.automorphism_search(g, "colorReversing")
    assert next(search) == bg.Automorphism((1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10))
    assert next(search) == bg.Automorphism((1, 0, 3, 2, 5, 4, 7, 6, 9, 10, 11, 8))
    assert list(bg.automorphism_search(bg.catalog("E7"), "colorReversing")) == []


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
    # orbit adjacency is reported through the same admissibility family
    assert issubclass(OrbitAdjacency, NotAdmissible)


def test_fold_rejects_color_mixing_permutation():
    g = bg.catalog("A3")
    with pytest.raises(NotAdmissible):
        bg.fold(g, bg.Automorphism((1, 0, 2)))  # white <-> black swap is not bicolored


def test_fold_refuses_a_list():
    # a permutation reaches fold as an Automorphism, never wrapped there
    g = bg.catalog("A3")
    assert bg.fold(g, bg.Automorphism((2, 1, 0))).n == 2
    with pytest.raises(AttributeError, match="'list' object"):
        bg.fold(g, [2, 1, 0])


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
