import json
import math
import time
from fractions import Fraction

import pytest

from gcdlab import cli, families
from gcdlab.arith import is_squarefree
from gcdlab.families import (
    remark2_family,
    remark3_family,
    sec5_family,
    squarefree_instance,
)
from gcdlab.instance import InstanceError, count_pairs_geq_naive


def test_remark2_examples():
    A, B, rep = remark2_family(10, 10, 3)
    assert A == [12, 15, 18] and rep.measured_delta == 1

    D = 7
    A, B, rep = remark2_family(D, D, D)
    assert A == [D, 2 * D]

    A, B, rep = remark2_family(100, 50, 10)
    assert (len(A), len(B)) == (11, 6)
    assert rep.measured_delta == 1
    assert "delta-equals-1" in rep.checks_passed


def test_remark2_size_window():
    for X, D in [(10, 3), (100, 7), (1000, 13), (50, 50)]:
        A, _, rep = remark2_family(X, X, D)
        assert X - D <= len(A) * D <= X + D
        assert "size-window-A" in rep.checks_passed


def test_remark2_rejects_large_d():
    with pytest.raises(ValueError):
        remark2_family(10, 10, 11)


def test_families_read_their_integer_parameters():
    # int() would read the text and the bool and round the float
    for call, message in (
        (lambda: remark2_family("10", 10, 3), "field X: '10' is not an integer"),
        (lambda: remark2_family(10.5, 10, 3), "field X: 10.5 is not an integer"),
        (lambda: remark2_family(10, True, 3), "field Y: True is not an integer"),
        (lambda: remark2_family(10, 10, 3.0), "field D: 3.0 is not an integer"),
        (lambda: remark3_family(40, "10", 0.3), "field D: '10' is not an integer"),
        (lambda: remark3_family(40.0, 10, 0.3), "field X: 40.0 is not an integer"),
        (lambda: remark3_family(False, 10, 0.3), "field X: False is not an integer"),
        (lambda: sec5_family(True), "field X: True is not an integer"),
        (lambda: sec5_family(7.0), "field X: 7.0 is not an integer"),
        (lambda: sec5_family("7"), "field X: '7' is not an integer"),
        (lambda: squarefree_instance("6", 6), "field n: '6' is not an integer"),
    ):
        with pytest.raises(InstanceError) as exc:
            call()
        assert str(exc.value) == message


def test_remark3_examples():
    A, B, rep = remark3_family(40, 4, Fraction(1, 2))
    assert rep.parameters["D0"] == 2
    assert A == list(range(40, 81, 2)) and len(A) == 21

    # delta = 1 reduces to the multiples-of-D family elementwise
    A3, B3, _ = remark3_family(60, 5, Fraction(1))
    A2, B2, _ = remark2_family(60, 60, 5)
    assert A3 == A2 and B3 == B2

    A, B, rep = remark3_family(10**4, 9, Fraction(1, 3))
    assert rep.parameters["D0"] == 3
    assert rep.measured_delta >= Fraction(1, 6)  # the density law at m = 3


def test_remark3_density_is_the_naive_census():
    # each window has pairs with gcd exactly D, so a count of gcd > D fails
    for X, D, delta in [
        (40, 4, Fraction(1, 2)),
        (60, 5, Fraction(1)),
        (1000, 30, Fraction(1, 3)),
        (3000, 40, Fraction(1, 4)),
        (800, 21, Fraction(1, 3)),
        (1000, 9, Fraction(1, 3)),
    ]:
        A, B, rep = remark3_family(X, D, delta)
        assert rep.measured_delta == Fraction(count_pairs_geq_naive(A, A, D), len(A) ** 2)
        assert any(math.gcd(a, b) == D for a in A for b in A), (X, D, delta)


def test_remark3_reads_delta_as_the_cli_does(capsys):
    # the float 0.3 is 3/10, as the flag reads it, so D0 = floor(3/10 * 10) = 3
    A, B, rep = remark3_family(40, 10, 0.3)
    assert remark3_family(40, 10, "3/10") == (A, B, rep)
    assert rep.parameters == {"X": 40, "D": 10, "delta": "3/10", "D0": 3}
    assert cli.main(["family", "remark3", "--X", "40", "--D", "10", "--delta", "0.3"]) == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["parameters"] == rep.parameters
    assert summary["measured_delta"] == str(rep.measured_delta)
    assert summary["extremal_ratio"] == rep.extremal_ratio
    for bad, message in ((True, "True is not a number"), (" 3/10 ", "' 3/10 ' is not a number")):
        with pytest.raises(InstanceError) as exc:
            remark3_family(40, 10, bad)
        assert str(exc.value) == f"field delta: {message}"


def test_remark3_rejects_small_d():
    with pytest.raises(ValueError):
        remark3_family(100, 2, Fraction(1, 3))


def test_sec5_examples():
    A, rep = sec5_family(2)
    assert A == [1, 2, 4] and len(A) == 3
    assert rep.details["max_pair_ratio"] == "4"

    A, rep = sec5_family(4)
    assert A == [2, 3, 6, 12, 18] and len(A) == 5
    assert "pair-ratio-cap" in rep.checks_passed

    A, rep = sec5_family(7)
    assert len(A) == 13


def test_sec5_invariants_small_range():
    for X in range(2, 17):
        A, rep = sec5_family(X)
        assert "pair-ratio-cap" in rep.checks_passed
        assert "size-at-least-X" in rep.checks_passed
        if X >= 3:
            # 12 = 4 * 3 enters at X = 3 via (m, n) = (2, 1)
            assert not rep.details["all_squarefree"]


def test_sec5_rejects_tiny():
    with pytest.raises(ValueError):
        sec5_family(1)


def test_squarefree_instance_examples():
    A, B, rep = squarefree_instance(6, 6)
    assert A == [1, 2, 3, 5, 6]
    good = sum(
        1
        for a in A
        for b in A
        if Fraction(a * b, math.gcd(a, b) ** 2) <= 6
    )
    assert rep.measured_delta == Fraction(good, len(A) ** 2)

    A, B, rep = squarefree_instance(5, 25)  # Q >= n^2 makes every pair good
    assert rep.measured_delta == 1

    A, B, rep = squarefree_instance(5, Fraction(1, 2))  # ratios are >= 1
    assert rep.measured_delta == 0

    A, B, rep = squarefree_instance(7, 1)  # only the diagonal pairs
    assert rep.measured_delta == Fraction(1, len(A))


def test_squarefree_instance_reads_q_once_by_its_field_reader():
    with pytest.raises(InstanceError) as exc:
        squarefree_instance(5, "6_0")
    assert str(exc.value) == "field Q: '6_0' is not a number"
    # a float Q is its decimal text, as the report echoes it
    assert squarefree_instance(5, 0.5)[2].parameters["Q"] == "1/2"


def test_squarefree_sets_are_squarefree():
    A, _, _ = squarefree_instance(50, 10)
    assert all(is_squarefree(a) for a in A)


def test_remark2_census_against_naive():
    A, B, rep = remark2_family(30, 20, 5)
    assert count_pairs_geq_naive(A, B, 5) == len(A) * len(B)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["remark2", "--X", "10000", "--D", "1"], "field X: [10000, 20000] holds 10001 multiples"),
        (["remark2", "--X", "8", "--Y", "70000", "--D", "7"], "field Y: [70000, 140000]"),
        (["remark3", "--X", "10000", "--D", "2", "--delta", "1/2"], "field X: [10000, 20000]"),
        (["sec5", "--X", "601"], "field X: 601 is above SEC5_X_MAX = 600"),
        (
            ["squarefree", "--n", "4001", "--Q", "100"],
            "field n: 4001 is above SQUAREFREE_N_MAX = 4000",
        ),
    ],
)
def test_a_family_past_its_limit_exits_2_before_building(argv, message, capsys):
    start = time.perf_counter()
    code = cli.main(["family", *argv])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert out.err.startswith("error: " + message) and out.err.count("\n") == 1
    assert elapsed < 0.25  # refused before any element is listed


def test_family_limits_are_inclusive(monkeypatch, capsys):
    # the count of multiples of d in [X, 2X] is exact at each side of the limit
    monkeypatch.setattr(families, "FAMILY_WINDOW_MAX", 5)
    monkeypatch.setattr(families, "SEC5_X_MAX", 7)
    monkeypatch.setattr(families, "SQUAREFREE_N_MAX", 7)
    assert cli.main(["family", "squarefree", "--n", "7", "--Q", "100"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["parameters"]["n"] == 7
    A, B, _ = remark2_family(4, 4, 1)
    assert len(A) == len(B) == 5
    assert len(remark3_family(9, 4, Fraction(1, 2))[0]) == 5  # D0 = 2 over [9, 18]
    assert sec5_family(7)[1].parameters == {"X": 7}
    for call in (
        lambda: remark2_family(5, 4, 1),
        lambda: remark2_family(4, 5, 1),
        lambda: remark3_family(10, 4, Fraction(1, 2)),
        lambda: sec5_family(8),
        lambda: squarefree_instance(8, 100),
    ):
        with pytest.raises(ValueError, match="above"):
            call()
