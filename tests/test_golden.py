"""Report bytes of `stats`, `structure` and `defect` against golden copies.

The files under tests/golden/ were written by the CLI on five small
deterministic instances and three defect arguments; any byte that changes
is a report change.  The bigint instance has 12x12 elements in
[10^12, 2*10^12], most with two or three prime factors above 2^11 (and one
prime, one square and one cube of such primes), so its `stats` primes check
factorization past the trial-division bound.  The exact modulus search
keeps 7 of the sparse instance's 49 pairs (N = 7) and 4 of the bigint
instance's 35 (N = 2053).  remark2_greedy is the 51x61 structure-dense rung
of perfbench/gen.py at seed 1 (multiples of D = 52 with a tenth of each side
swapped for non-multiples); the search keeps 638 of its 2538 pairs, the
count a per-prime greedy choice also reached.  The `measure` goldens are
the concentration reports of remark2's valuation measures at p = 2 and
p = 5, with their certified c_interval, of a point mass off the diagonal
(c_min = 1/lambda exactly) and of a seeded random sweep, whose extremes
come from exact integer comparisons.
"""

from pathlib import Path

import pytest

import gcdlab.cli as cli
import gcdlab.instance

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", ["stats", "structure"])
@pytest.mark.parametrize(
    "name", ["remark2", "remark2_swapped", "remark2_greedy", "sparse", "bigint"]
)
def test_report_bytes_match_golden(name, command, fmt, capsys, monkeypatch):
    if command == "stats":
        # stats counts the rows of Omega one by one and never holds all of them
        def build_omega_gcd(inst):
            raise AssertionError("stats built the whole pair set")

        for module in (gcdlab.instance, cli):  # cli holds its own name for it
            monkeypatch.setattr(module, "build_omega_gcd", build_omega_gcd)
    code = cli.main([command, str(GOLDEN / f"{name}.instance.json"), "--format", fmt])
    out = capsys.readouterr()
    assert code == 0 and out.err == ""
    assert out.out.encode() == (GOLDEN / f"{name}.{command}.{fmt}").read_bytes()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("args", [(12, 6, 18), (14, 6, 21), (3, 6)])
def test_defect_report_bytes_match_golden(args, fmt, capsys):
    argv = ["defect", "--a", str(args[0]), "--n", str(args[1]), "--format", fmt]
    if len(args) == 3:
        argv += ["--b", str(args[2])]
    code = cli.main(argv)
    out = capsys.readouterr()
    assert code == 0 and out.err == ""
    name = "defect_" + "_".join(map(str, args))
    assert out.out.encode() == (GOLDEN / f"{name}.{fmt}").read_bytes()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("prime", [2, 5])
def test_measure_report_bytes_match_golden(prime, fmt, capsys):
    instance = str(GOLDEN / "remark2.instance.json")
    code = cli.main(["measure", "--instance", instance, "--prime", str(prime), "--format", fmt])
    out = capsys.readouterr()
    assert code == 0 and out.err == ""
    assert out.out.encode() == (GOLDEN / f"remark2.measure_p{prime}.{fmt}").read_bytes()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "name, argv",
    [
        ("point_mass_0_1", ["--point-mass", "0", "1", "--lambda", "0.5"]),
        ("random_20_seed_3", ["--random", "20", "--seed", "3"]),
    ],
)
def test_measure_sweep_and_point_mass_bytes_match_golden(name, argv, fmt, capsys):
    code = cli.main(["measure", *argv, "--format", fmt])
    out = capsys.readouterr()
    assert code == 0 and out.err == ""
    assert out.out.encode() == (GOLDEN / f"{name}.measure.{fmt}").read_bytes()
