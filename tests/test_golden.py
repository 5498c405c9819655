"""Report bytes of `stats`, `structure` and `defect` against golden copies.

The files under tests/golden/ were written by the CLI on three small
deterministic instances and three defect arguments; any byte that changes
is a report change.  The sparse instance keeps no pivotal pair, so
`structure` exits 2 on it.
"""

from pathlib import Path

import pytest

import gcdlab.cli as cli

GOLDEN = Path(__file__).resolve().parent / "golden"
EXIT_2 = {("sparse", "structure"): "error: omega_prime is empty: no witnesses exist\n"}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", ["stats", "structure"])
@pytest.mark.parametrize("name", ["remark2", "remark2_swapped", "sparse"])
def test_report_bytes_match_golden(name, command, fmt, capsys):
    code = cli.main([command, str(GOLDEN / f"{name}.instance.json"), "--format", fmt])
    out = capsys.readouterr()
    if (name, command) in EXIT_2:
        assert (code, out.out, out.err) == (2, "", EXIT_2[name, command])
    else:
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
