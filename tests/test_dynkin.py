"""Cartan matrices, root enumeration, Coxeter numbers, shape recognition."""

import os
import pathlib
import subprocess
import sys

import pytest

import zamobelt
from zamobelt.dynkin import (
    cartan_matrix,
    coxeter_number,
    positive_roots,
    recognize,
)
from zamobelt.errors import InvalidRank

ALL_FAMILIES = (
    [("A", n) for n in range(1, 8)]
    + [("B", n) for n in range(2, 7)]
    + [("C", n) for n in range(2, 7)]
    + [("D", n) for n in range(4, 8)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def test_cartan_goldens():
    assert cartan_matrix("A", 2) == ((2, -1), (-1, 2))
    assert cartan_matrix("B", 2) == ((2, -1), (-2, 2))
    assert cartan_matrix("C", 2) == ((2, -2), (-1, 2))
    assert cartan_matrix("G", 2) == ((2, -1), (-3, 2))
    f4 = cartan_matrix("F", 4)
    assert f4[1][2] == -1 and f4[2][1] == -2
    d4 = cartan_matrix("D", 4)
    assert sum(row.count(-1) for row in d4) == 6  # three edges, star shaped
    e8 = cartan_matrix("E", 8)
    assert all(e8[i][i] == 2 for i in range(8))


def test_cartan_rejects_bad_rank():
    with pytest.raises(InvalidRank):
        cartan_matrix("E", 9)
    with pytest.raises(InvalidRank):
        cartan_matrix("D", 3)
    with pytest.raises(InvalidRank):
        cartan_matrix("F", 3)
    with pytest.raises(InvalidRank):
        cartan_matrix("X", 2)
    with pytest.raises(InvalidRank):
        cartan_matrix("A", 0)


def test_root_count_goldens():
    # total roots, positives and negatives together
    assert 2 * len(positive_roots(cartan_matrix("A", 2))) == 6
    assert 2 * len(positive_roots(cartan_matrix("B", 2))) == 8
    assert 2 * len(positive_roots(cartan_matrix("D", 4))) == 24
    assert 2 * len(positive_roots(cartan_matrix("G", 2))) == 12
    assert 2 * len(positive_roots(cartan_matrix("F", 4))) == 48
    assert 2 * len(positive_roots(cartan_matrix("E", 8))) == 240


def test_coxeter_number_table_vs_root_enumeration():
    # h * rank == number of roots for every family
    for family, rank in ALL_FAMILIES:
        cartan = cartan_matrix(family, rank)
        h = coxeter_number(family, rank)
        assert h * rank == 2 * len(positive_roots(cartan)), (family, rank)


PACKAGE_ROOT = pathlib.Path(zamobelt.__file__).parent.parent

# run in a fresh interpreter, where no earlier call can have used the
# table: it must answer without enumerating a root
NO_ROOTS = """
import zamobelt.dynkin as dynkin

def refuse(cartan):
    raise AssertionError("roots enumerated")

dynkin.positive_roots = refuse
import zamobelt.bigraph as bg

print(bg.catalog("E8").half_period)
print(*(dynkin.coxeter_number(family, rank) for family, rank in %r))
"""


def test_coxeter_numbers_need_no_root_enumeration():
    done = subprocess.run(
        [sys.executable, "-c", NO_ROOTS % (ALL_FAMILIES,)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT)),
    )
    assert done.returncode == 0, done.stderr
    e8, table = done.stdout.splitlines()
    assert e8 == "32"  # h(E8) + h(A1)
    assert table.split() == [str(coxeter_number(*fr)) for fr in ALL_FAMILIES]


def test_positive_roots_contain_simples_and_highest():
    roots = positive_roots(cartan_matrix("A", 3))
    assert (1, 0, 0) in roots
    assert (0, 1, 0) in roots
    assert (1, 1, 1) in roots
    assert len(set(roots)) == len(roots)


def test_recognize_identity_cases():
    for family, rank in ALL_FAMILIES:
        got = recognize(cartan_matrix(family, rank))
        if (family, rank) in (("B", 2), ("C", 2)):
            assert got == ("B", 2)
        else:
            assert got == (family, rank), (family, rank)


def test_recognize_under_permutation():
    # relabel D4 so the branch vertex moves; recognition is label free
    d4 = cartan_matrix("D", 4)
    perm = (3, 0, 2, 1)
    shuffled = tuple(
        tuple(d4[perm[i]][perm[j]] for j in range(4)) for i in range(4)
    )
    assert recognize(shuffled) == ("D", 4)


def test_recognize_distinguishes_b_and_c_at_rank_three():
    assert recognize(cartan_matrix("B", 3)) == ("B", 3)
    assert recognize(cartan_matrix("C", 3)) == ("C", 3)


def test_recognize_rejects_non_dynkin():
    affine = ((2, -2), (-2, 2))  # affine A1, not finite type
    assert recognize(affine) is None
    cycle = (
        (2, -1, -1),
        (-1, 2, -1),
        (-1, -1, 2),
    )  # affine A2 cycle
    assert recognize(cycle) is None
