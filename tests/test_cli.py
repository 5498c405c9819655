import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gcdlab.cli as cli
import gcdlab.instance
import gcdlab.search
import gcdlab.verify
from gcdlab.arith import is_squarefree
from gcdlab.instance import theorem51_bound
from gcdlab.reports import to_canonical_json
from gcdlab.search import Violation
from gcdlab.verify import CheckResult

GOLDEN_INSTANCE = str(Path(__file__).resolve().parent / "golden" / "remark2.instance.json")
SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_argv(argv, capsys):
    """run_cli, with an argparse usage error read as its exit code."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_one_error_line(code, out, err):
    assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1, err


@pytest.fixture()
def remark2_file(tmp_path, capsys):
    path = tmp_path / "r2.json"
    code, _, _ = run_cli(
        ["family", "remark2", "--X", "100", "--Y", "50", "--D", "10",
         "--emit-set", str(path)],
        capsys,
    )
    assert code == 0
    return str(path)


def test_stats_remark2(remark2_file, capsys):
    code, out, err = run_cli(["stats", remark2_file], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "stats"
    assert doc["summary"]["delta"] == "1"
    assert doc["summary"]["holds"] is True
    assert doc["summary"]["n_a"] == 11 and doc["summary"]["n_b"] == 6


def test_stats_empty_pair_set(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(
        json.dumps({"A": ["5", "7"], "B": ["9", "11"], "D": "4",
                    "X": "5", "Y": "9", "epsilon": 0.5, "p0": 100})
    )
    code, out, _ = run_cli(["stats", str(path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["delta"] == "0"
    assert doc["summary"]["holds"] is None
    assert "skipped" in doc["summary"]["notice"]


def test_exit_2_on_bad_range(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"A": ["5", "30"], "B": ["7"], "D": "2",
                    "X": "5", "Y": "7", "epsilon": 0.5, "p0": 100})
    )
    code, out, err = run_cli(["stats", str(path)], capsys)
    assert code == 2
    assert "A[1]" in err and not out


def test_exit_2_on_macro_garbage(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("definitely not json")
    code, _, err = run_cli(["stats", str(path)], capsys)
    assert code == 2
    assert "JSON" in err


@pytest.mark.parametrize("subcommand", ["stats", "structure"])
@pytest.mark.parametrize("field", ["D", "X", "Y"])
@pytest.mark.parametrize("number", ["1e400", "-1e400", "true"])
def test_exit_2_on_a_number_beyond_float_range(subcommand, field, number, tmp_path, capsys):
    # json reads 1e400 as an infinite float, which has no exact fraction, and
    # true as a bool, which is not a number
    doc = json.loads(Path(GOLDEN_INSTANCE).read_text())
    doc.pop(field)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc)[:-1] + f', "{field}": {number}}}')
    code, out, err = run_cli([subcommand, str(path)], capsys)
    assert code == 2 and not out
    assert err.startswith(f"error: field {field}: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_json_floats_for_d_x_y_are_read_by_their_decimal_text(tmp_path, capsys):
    doc = json.loads(Path(GOLDEN_INSTANCE).read_text())
    path = tmp_path / "float.json"
    path.write_text(json.dumps({**doc, "D": 2.3, "X": 60.0}))
    code, out, _ = run_cli(["stats", str(path)], capsys)
    assert code == 0
    summary = json.loads(out)["summary"]
    assert (summary["D"], summary["X"]) == ("23/10", "60")


def test_exit_1_on_violation(monkeypatch, capsys):
    fake = [Violation("diagonal-gap-bound", {"X": 4, "D": 2, "set": [1], "allowed": 0})]
    monkeypatch.setattr(gcdlab.search, "hunt_violations", lambda *a, **k: fake)
    code, out, _ = run_cli(["search", "hunt", "--scale-limit", "2", "--structured", "1"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["summary"]["violations_found"] == 1
    assert doc["records"][0]["kind"] == "diagonal-gap-bound"


def test_structure_report(remark2_file, capsys):
    code, out, _ = run_cli(["structure", remark2_file], capsys)
    assert code == 0
    doc = json.loads(out)
    s = doc["summary"]
    assert s["holds"] is True
    assert s["witness"]["chain_ok"] is True
    assert s["N_factors"]
    assert any(r["side"] == "A" for r in doc["records"])
    # this instance lands below the 1/2 pivotal fraction: warn, still exit 0
    assert "warning" in s


def test_emit_set_non_dyadic_documented(tmp_path, capsys):
    path = tmp_path / "sec5.json"
    code, _, _ = run_cli(["family", "sec5", "--X", "4", "--emit-set", str(path)], capsys)
    assert code == 0
    doc = json.loads(path.read_text())
    assert "X" not in doc and doc["A"]
    # loading reports the genuine range failure
    code, _, err = run_cli(["stats", str(path)], capsys)
    assert code == 2 and "dyadic" in err


def test_defect_subcommand(capsys):
    code, out, _ = run_cli(["defect", "--a", "12", "--n", "6", "--b", "18"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["a_star"] == "2"
    assert doc["summary"]["pivotal"] is True
    assert doc["summary"]["quad_identity"] is True
    assert all(r["ok"] for r in doc["records"])


def test_defect_subcommand_rejects_invalid(capsys):
    code, _, err = run_cli(["defect", "--a", "24", "--n", "6"], capsys)
    assert code == 2
    assert "outside" in err


def test_measure_point_mass(capsys):
    code, out, _ = run_cli(["measure", "--point-mass", "0", "0", "--lambda", "0.5"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["tail"] == 0.0
    assert doc["summary"]["c_min"] == 1.0


def test_measure_point_mass_far_off_the_diagonal_keeps_its_exact_verdict(capsys):
    # c_min = 20^300 = 10^390 is past the float range; 0.05**300 underflowing
    # to 0.0 once made this report "hypothesis unsatisfiable"
    code, out, err = run_cli(["measure", "--point-mass", "0", "300", "--lambda", "0.05"], capsys)
    assert (code, err) == (0, "")
    summary = json.loads(out)["summary"]
    assert summary["c_lower_ok"] is True
    assert summary["c_interval"] == [1.7976931348623157e308, None]
    assert summary["c_min"] is None


def test_measure_exact_work_budget_boundary(capsys):
    # lambda = 1/2 counts 2 bits and n = 5, so |i - j| = 10000 counts 10^5 bits
    code, out, _ = run_cli(["measure", "--point-mass", "0", "10000", "--lambda", "0.5"], capsys)
    assert code == 0 and json.loads(out)["summary"]["c_lower_ok"] is True
    code, out, err = run_cli(["measure", "--point-mass", "0", "10001", "--lambda", "0.5"], capsys)
    assert (code, out) == (2, "")
    assert err == (
        "error: lambda^(n|i - j|) at |i - j| = 10001 takes 100010 bits of exact work,"
        " above EXACT_BITS_MAX = 100000\n"
    )


def test_measure_from_instance(remark2_file, capsys):
    code, out, _ = run_cli(["measure", "--instance", remark2_file, "--prime", "5"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["c_lower_ok"] is True
    assert doc["summary"]["c_interval"] is not None
    assert doc["records"]


def test_family_remark3_and_squarefree(capsys):
    code, out, _ = run_cli(["family", "remark3", "--X", "60", "--D", "4", "--delta", "1/2"], capsys)
    assert code == 0
    assert json.loads(out)["summary"]["parameters"]["D0"] == 2

    code, out, _ = run_cli(["family", "squarefree", "--n", "6", "--Q", "6"], capsys)
    assert code == 0
    assert json.loads(out)["summary"]["n_a"] == 5

    code, out, _ = run_cli(["family", "sec5", "--X", "4"], capsys)
    assert code == 0
    assert json.loads(out)["summary"]["n_a"] == 5


def test_search_exhaustive(capsys):
    code, out, _ = run_cli(["search", "exhaustive", "--X", "4", "--D", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["max_product"] == 9
    assert doc["summary"]["best_a"] == ["4", "6", "8"]


def test_search_exhaustive_config_echoes_no_seed(capsys):
    # the search is deterministic, so it takes no seed
    argv = ["search", "exhaustive", "--X", "4", "--D", "2"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert json.loads(out)["config"] == {"exhaustive_limit": 20, "format": "json"}
    assert_one_error_line(*run_argv(argv + ["--seed", "7"], capsys))
    code, out, _ = run_cli(["search", "hunt", "--scale-limit", "2", "--structured", "1",
                            "--seed", "7"], capsys)
    assert code == 0 and json.loads(out)["config"]["seed"] == 7


_SHARED_FLAGS = {"--epsilon": "0.25", "--p0": "7", "--seed": "3", "--format": "json"}


@pytest.mark.parametrize(
    "argv, options",
    [
        (["stats", GOLDEN_INSTANCE], {"epsilon", "p0", "format"}),
        (["structure", GOLDEN_INSTANCE], {"format"}),
        (["defect", "--a", "12", "--n", "6"], {"format"}),
        (["measure", "--point-mass", "0", "1", "--lambda", "0.5"], {"epsilon", "format"}),
        (["measure", "--instance", GOLDEN_INSTANCE, "--prime", "2"], {"epsilon", "format"}),
        (["measure", "--random", "3"], {"epsilon", "seed", "format"}),
        (["family", "remark2", "--X", "8", "--D", "2"], {"epsilon", "p0", "format"}),
        (["family", "remark3", "--X", "60", "--D", "4", "--delta", "1/2"],
         {"epsilon", "p0", "format"}),
        (["family", "sec5", "--X", "4"], {"epsilon", "p0", "format"}),
        (["family", "squarefree", "--n", "6", "--Q", "6"], {"epsilon", "p0", "format"}),
        (["search", "exhaustive", "--X", "4", "--D", "2"], {"format"}),
        (["search", "hunt", "--scale-limit", "2", "--structured", "1"], {"seed", "format"}),
        (["verify", "all", "--quick"], {"seed", "format"}),
    ],
)
def test_config_echoes_exactly_the_shared_options_a_leaf_takes(
    argv, options, monkeypatch, capsys
):
    monkeypatch.setattr(
        gcdlab.verify, "run_all", lambda **kwargs: [CheckResult("stub", True, 0.0, {})]
    )
    extra = ["exhaustive_limit"] if argv[:2] == ["search", "exhaustive"] else []
    taken = [a for f in sorted(options) for a in (f"--{f}", _SHARED_FLAGS[f"--{f}"])]
    code, out, _ = run_cli(argv + taken, capsys)
    assert code == 0
    config = json.loads(out)["config"]
    assert sorted(config) == sorted([*options, *extra])
    assert all(str(config[f]) == _SHARED_FLAGS[f"--{f}"] for f in options)
    for flag in sorted(set(_SHARED_FLAGS) - {f"--{f}" for f in options}):
        assert_one_error_line(*run_argv(argv + [flag, _SHARED_FLAGS[flag]], capsys))


def test_family_squarefree_bound_follows_epsilon_and_p0(capsys):
    A = [m for m in range(1, 31) if is_squarefree(m)]
    bounds = set()
    for flags, (eps, p0) in (([], (0.5, 100)), (["--epsilon", "0.3", "--p0", "2"], (0.3, 2))):
        code, out, _ = run_cli(["family", "squarefree", "--n", "30", "--Q", "20", *flags], capsys)
        assert code == 0
        doc = json.loads(out)
        assert (doc["config"]["epsilon"], doc["config"]["p0"]) == (eps, p0)
        bound = doc["summary"]["details"]["bound"]
        assert bound == theorem51_bound(A, A, 20, eps, p0)[1]
        bounds.add(bound)
    assert len(bounds) == 2


def test_stats_scans_for_primes_once(monkeypatch, capsys):
    calls = []
    real = gcdlab.instance.prime_sets

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(gcdlab.instance, "prime_sets", counting)
    monkeypatch.setattr(cli, "prime_sets", counting)
    code, out, _ = run_cli(["stats", GOLDEN_INSTANCE], capsys)
    assert code == 0 and json.loads(out)["summary"]["holds"] is True
    assert len(calls) == 1


def test_defect_of_a_large_prime_square_ends():
    # a = (2^61 - 1)^2 once sent the factorization into a rho walk of about
    # 2^30 steps; v_p(a/1) = 2 is an input fault, v_p(a/p) = 1 a defect
    p = 2**61 - 1
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    argv = [sys.executable, "-m", "gcdlab", "defect", "--a", str(p * p)]
    proc = subprocess.run(argv + ["--n", "1"], capture_output=True, text=True, env=env, timeout=20)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and f"v_{p}" in proc.stderr
    proc = subprocess.run(argv + ["--n", str(p)], capture_output=True, text=True, env=env, timeout=20)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["summary"]["a_plus"] == str(p)


def test_exhaustive_limit_is_a_search_exhaustive_option(capsys):
    argv = ["search", "exhaustive", "--X", "4", "--D", "2"]
    code, out, _ = run_cli(argv + ["--exhaustive-limit", "6"], capsys)
    assert code == 0 and json.loads(out)["config"]["exhaustive_limit"] == 6
    code, out, err = run_cli(argv + ["--exhaustive-limit", "3"], capsys)
    assert (code, out) == (2, "") and "exhaustive limit" in err
    code, out, _ = run_cli(["stats", GOLDEN_INSTANCE], capsys)
    assert code == 0 and "exhaustive_limit" not in json.loads(out)["config"]
    with pytest.raises(SystemExit) as exc:
        cli.main(["stats", GOLDEN_INSTANCE, "--exhaustive-limit", "5"])
    assert exc.value.code == 2


def test_search_hunt_clean(capsys):
    code, out, _ = run_cli(
        ["search", "hunt", "--scale-limit", "6", "--structured", "25", "--seed", "3"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["summary"]["violations_found"] == 0


def test_json_roundtrip_byte_identical(remark2_file, capsys):
    _, out, _ = run_cli(["stats", remark2_file], capsys)
    assert to_canonical_json(json.loads(out)) == out


def test_csv_roundtrip_byte_identical(remark2_file, capsys):
    _, out, _ = run_cli(["stats", remark2_file, "--format", "csv"], capsys)
    rows = list(csv.reader(io.StringIO(out)))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    assert buf.getvalue() == out


def test_same_seed_byte_identical(capsys):
    argv = ["search", "hunt", "--scale-limit", "5", "--structured", "20", "--seed", "9"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second

    argv = ["measure", "--random", "40", "--seed", "13"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second


def test_epsilon_domain_rejected(capsys):
    code, _, err = run_cli(
        ["measure", "--point-mass", "0", "0", "--lambda", "0.5", "--epsilon", "1.0"],
        capsys,
    )
    assert code == 2
    assert "epsilon" in err


def test_an_instance_epsilon_past_the_denominator_cap_exits_2(tmp_path, capsys):
    path = tmp_path / "eps.json"
    path.write_text(json.dumps({**json.loads(Path(GOLDEN_INSTANCE).read_text()), "epsilon": 0.1234}))
    for argv in (["stats", str(path)], ["measure", "--instance", str(path), "--prime", "2"]):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, ""), argv
        assert err == "error: field epsilon: 0.1234 has denominator 5000 above 1000\n", argv
    # 0.999 = 999/1000 is the largest denominator allowed
    code, _, _ = run_cli(["stats", GOLDEN_INSTANCE, "--epsilon", "0.999"], capsys)
    assert code == 0


def test_bad_arguments_exit_2(capsys):
    # argparse usage errors print one line, not the usage block
    for argv in (
        ["search", "exhaustive", "--X", "nope", "--D", "2"],
        ["measure", "--random", "x"],
        ["stats"],
        ["no-such-command"],
        # the group parsers take no options, so no value given there is dropped
        ["family", "--epsilon", "0.3", "--seed", "7", "remark2", "--X", "8", "--D", "2"],
        ["family", "--p0", "3", "squarefree", "--n", "6", "--Q", "6"],
        ["search", "--seed", "5", "hunt", "--scale-limit", "2", "--structured", "1"],
        ["search", "--format", "csv", "exhaustive", "--X", "4", "--D", "2"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: gcdlab") and out.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "squarefree", "--n", "5", "--Q", "1/0"],
        ["family", "remark3", "--X", "10", "--D", "4", "--delta", "1/0"],
        ["search", "exhaustive", "--X", "4", "--D", "2", "--mode", "threshold-delta",
         "--delta-target", "1/0"],
        ["measure", "--instance", GOLDEN_INSTANCE, "--prime", "0"],
        ["measure", "--instance", GOLDEN_INSTANCE, "--prime", "4"],
        ["stats", "{tmp}"],
        ["search", "hunt", "--structured", "-3", "--scale-limit", "2"],
        ["search", "hunt", "--structured", "0", "--scale-limit", "-1"],
        ["measure", "--random", "-3"],
        ["search", "exhaustive", "--X", "-3", "--D", "1"],
        ["search", "exhaustive", "--X", "4", "--Y", "-1", "--D", "1"],
        # threshold-delta mode is exact only up to X, Y = 12
        ["search", "exhaustive", "--X", "13", "--Y", "4", "--D", "2", "--mode", "threshold-delta",
         "--delta-target", "1/2"],
        # psi_13: a strong probable prime to the bases up to 41, with no proof either way
        ["defect", "--a", "3317044064679887385961981", "--n", "1"],
        # psi_12, a composite that the bases up to 37 alone pass
        ["measure", "--instance", GOLDEN_INSTANCE, "--prime", "318665857834031151167461"],
        # epsilon = 617/5000: its denominator is past the cap of 1000
        ["measure", "--point-mass", "0", "0", "--lambda", "0.5", "--epsilon", "0.1234"],
        ["stats", GOLDEN_INSTANCE, "--epsilon", "0.1234"],
        # a flag that the chosen mode would ignore
        ["measure", "--point-mass", "0", "0", "--lambda", "0.5", "--random", "5"],
        ["measure", "--instance", GOLDEN_INSTANCE, "--prime", "2", "--lambda", "0.3"],
        ["measure", "--random", "3", "--prime", "5"],
        ["measure", "--point-mass", "0", "0"],
        ["measure", "--instance", GOLDEN_INSTANCE],
        ["measure", "--random", "0"],
        ["measure", "--point-mass", "0", "0", "--lambda", "nan"],
        # lambda^2999 of the random sweep at epsilon = 999/1000 is past EXACT_BITS_MAX
        ["measure", "--random", "5", "--epsilon", "0.999"],
        # only the random sweep reads a seed
        ["measure", "--point-mass", "0", "0", "--lambda", "0.5", "--seed", "1"],
        ["measure", "--instance", GOLDEN_INSTANCE, "--prime", "2", "--seed", "0"],
        # no multiple of D0 = 3 lies in [1, 2]
        ["family", "remark3", "--X", "1", "--D", "6", "--delta", "1/2"],
        # Y = 0 is a value, not the default Y = X
        ["family", "remark2", "--X", "5", "--D", "2", "--Y", "0"],
        ["search", "exhaustive", "--X", "4", "--Y", "0", "--D", "1"],
        # a density target outside (0, 1], or in the mode that reads none
        ["search", "exhaustive", "--X", "4", "--D", "2", "--mode", "threshold-delta",
         "--delta-target", "2"],
        ["search", "exhaustive", "--X", "4", "--D", "2", "--mode", "threshold-delta",
         "--delta-target", "0"],
        ["search", "exhaustive", "--X", "4", "--D", "2", "--delta-target", "1/2"],
        # library ValueErrors (a DefectError, a SearchSpace check) reach main as they are
        ["defect", "--a", "8", "--n", "2"],
        ["search", "exhaustive", "--X", "40", "--D", "2"],
        # a shared flag given to the group parser, before the leaf name
        ["family", "--epsilon", "0.3", "remark2", "--X", "8", "--D", "2"],
        ["search", "--format", "csv", "exhaustive", "--X", "4", "--D", "2"],
    ],
)
def test_input_faults_exit_2_with_one_error_line(argv, tmp_path, capsys):
    argv = [str(tmp_path) if a == "{tmp}" else a for a in argv]
    code, out, err = run_argv(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, flag, leaf",
    [
        (["family", "--epsilon", "0.3", "remark2", "--X", "8", "--D", "2"], "--epsilon", "family"),
        (["family", "--p0=7", "sec5", "--X", "8"], "--p0", "family"),
        (["search", "--format", "csv", "exhaustive", "--X", "4", "--D", "2"], "--format", "action"),
        (["--format", "csv", "stats", GOLDEN_INSTANCE], "--format", "command"),
    ],
)
def test_a_flag_before_the_leaf_name_is_named(argv, flag, leaf, capsys):
    code, out, err = run_argv(argv, capsys)
    assert (code, out) == (2, "")
    assert f": {flag} goes after the {leaf} name (" in err and err.count("\n") == 1


_MALFORMED = st.sampled_from(["x", "", "1/2", "nan", "inf", "-0.3", "0", "1e-300", "1e400"])


def _one(strategy):
    return st.one_of(strategy, _MALFORMED).map(lambda t: [t])


# each flag's values: well-formed ones and malformed text
_MEASURE_FLAGS = {
    "--point-mass": st.one_of(
        st.lists(st.integers(-60, 60).map(str), min_size=2, max_size=2),
        st.lists(st.one_of(st.integers(-(10**5), 10**5).map(str), _MALFORMED), max_size=3),
    ),
    "--lambda": _one(
        st.one_of(st.sampled_from(["0.05", "0.5", "0.8", "0.81"]), st.floats(-1, 2).map(repr))
    ),
    "--epsilon": _one(st.sampled_from(["0.5", "0.25", "0.999", "0.1", "0.1234", "1"])),
    "--instance": _one(
        st.sampled_from([GOLDEN_INSTANCE, str(Path(GOLDEN_INSTANCE).parent), "no-such-file.json"])
    ),
    "--prime": _one(st.sampled_from(["2", "3", "4", "5", "7"])),
    "--random": _one(st.integers(-2, 4).map(str)),
    "--seed": _one(st.integers(0, 9).map(str)),
    "--format": _one(st.sampled_from(["json", "csv"])),
}


@st.composite
def measure_argv(draw):
    """A mode with the flag it needs, plus up to two other flags."""
    modes = [["--point-mass", "--lambda"], ["--instance", "--prime"], ["--random"]]
    mode = draw(st.sampled_from(modes))
    extra = draw(st.lists(st.sampled_from(sorted(_MEASURE_FLAGS)), max_size=2))
    argv = ["measure"]
    for flag in dict.fromkeys(mode + extra):
        argv += [flag, *draw(_MEASURE_FLAGS[flag])]
    return argv


@pytest.mark.slow
@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(argv=measure_argv())
def test_measure_fuzz_ends_in_an_exit_code_and_one_line(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out = capsys.readouterr()
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out.out == "" and out.err.startswith("error: ") and out.err.count("\n") == 1, argv
    else:
        assert out.err == "" and out.out, argv


def _ints(lo, hi):
    return st.integers(lo, hi).map(lambda n: [str(n)])


def _texts(*texts):
    return st.sampled_from(texts).map(lambda t: [t])


_SHARED_VALUES = {
    "--epsilon": _texts("0.5", "0.25", "0.999", "0.1234", "1"),
    "--p0": _ints(-1, 200),
    "--seed": _ints(0, 9),
    "--format": _texts("json", "csv"),
}
_INSTANCE_PATH = _texts(GOLDEN_INSTANCE, str(Path(GOLDEN_INSTANCE).parent), "no-such-file.json")
_SWITCH = st.just([])

# each leaf but measure: the flags it needs and the flags it may take, with
# sizes capped so that every run is quick (argparse's own rejection of
# malformed integers is the measure fuzz test's ground)
_LEAF_FLAGS = {
    ("defect",): ({"--a": _ints(-3, 60), "--n": _ints(-3, 60)}, {"--b": _ints(-3, 60)}),
    ("family", "remark2"): ({"--X": _ints(0, 40), "--D": _ints(0, 12)}, {"--Y": _ints(0, 40)}),
    ("family", "remark3"): (
        {"--X": _ints(0, 40), "--D": _ints(0, 12),
         "--delta": _texts("1/2", "1/3", "1", "2", "0", "1/0", "x", "nan", "1e400")},
        {},
    ),
    ("family", "sec5"): ({"--X": _ints(0, 10)}, {}),
    ("family", "squarefree"): (
        {"--n": _ints(0, 60), "--Q": _texts("6", "1/2", "0", "-1", "x", "inf")}, {}
    ),
    ("search", "exhaustive"): (
        {"--X": _ints(0, 8), "--D": _ints(0, 4)},
        {"--Y": _ints(0, 8), "--mode": _texts("exact-delta-1", "threshold-delta", "x"),
         "--delta-target": _texts("1/2", "1", "2", "0", "1/0", "", "nan"),
         "--force-equal": _SWITCH, "--exhaustive-limit": _ints(-1, 20)},
    ),
    ("search", "hunt"): ({}, {"--scale-limit": _ints(-1, 4), "--structured": _ints(-1, 4)}),
    ("verify", "all"): ({}, {"--quick": _SWITCH}),
}


@st.composite
def any_argv(draw):
    """A leaf with the flags it needs, up to two flags it may take, and up
    to two shared flags, whether or not the leaf takes them; a group's
    leaf may also get a shared flag placed on the group parser."""
    leaf = draw(st.sampled_from(["stats", "structure", "measure", *map(" ".join, _LEAF_FLAGS)]))
    if leaf in ("stats", "structure"):
        argv = [leaf, *draw(_INSTANCE_PATH)]
    elif leaf == "measure":
        argv = draw(measure_argv())
    else:
        needed, optional = _LEAF_FLAGS[tuple(leaf.split())]
        extra = draw(st.lists(st.sampled_from(sorted(optional) or [None]), max_size=2, unique=True))
        argv = leaf.split()
        for flag in [*needed, *filter(None, extra)]:
            argv += [flag, *draw({**needed, **optional}[flag])]
    on_group = leaf.startswith(("family", "search"))
    for flag in draw(st.lists(st.sampled_from(sorted(_SHARED_VALUES)), max_size=2, unique=True)):
        at = 1 if on_group and draw(st.booleans()) else len(argv)
        argv[at:at] = [flag, *draw(_SHARED_VALUES[flag])]
    return argv


@pytest.mark.slow
@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(argv=any_argv())
def test_every_subcommand_fuzz_ends_in_an_exit_code_and_one_line(argv, monkeypatch, capsys):
    monkeypatch.setattr(
        gcdlab.verify, "run_all", lambda **kwargs: [CheckResult("stub", True, 0.0, {})]
    )
    code, out, err = run_argv(argv, capsys)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
    else:
        assert err == "" and out, argv


@pytest.mark.parametrize("seed", [0, 5])
def test_verify_runs_the_battery_with_the_echoed_seed(seed, monkeypatch, capsys):
    calls = []

    def fake_run_all(**kwargs):
        calls.append(kwargs)
        return [CheckResult("stub", True, 0.0, {})]

    monkeypatch.setattr(gcdlab.verify, "run_all", fake_run_all)
    code, out, _ = run_cli(["verify", "all", "--quick", "--seed", str(seed)], capsys)
    assert code == 0
    assert calls == [{"quick": True, "seed_offset": seed}]
    assert json.loads(out)["config"]["seed"] == seed


def test_config_is_the_file_value_unless_a_flag_overrides_it(tmp_path, capsys):
    doc = json.loads(Path(GOLDEN_INSTANCE).read_text())
    path = tmp_path / "eps.json"
    path.write_text(json.dumps({**doc, "epsilon": 0.25, "p0": 3}))
    for flags, expect in (([], (0.25, 3)), (["--epsilon", "0.3", "--p0", "7"], (0.3, 7))):
        code, out, _ = run_cli(["stats", str(path), *flags], capsys)
        assert code == 0
        summary, config = json.loads(out)["summary"], json.loads(out)["config"]
        assert (config["epsilon"], config["p0"]) == expect
        assert (summary["epsilon"], summary["p0"]) == expect
        assert summary["primes_small"] == [p for p in summary["primes"] if p <= expect[1]]


def test_module_entry_point():
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "gcdlab", "defect", "--a", "12", "--n", "6"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["summary"]["a_star"] == "2"


# Modules only some subcommands need.  mpmath is a test-only dependency that
# no subcommand may load.
OPTIONAL_MODULES = ("mpmath", "gcdlab.measure", "gcdlab.search", "gcdlab.verify", "gcdlab.families")


def modules_loaded_by(argv):
    """Exit code and sorted sys.modules of a fresh interpreter that runs
    gcdlab.cli.main(argv)."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    code = (
        "import contextlib, io, json, sys\n"
        "import gcdlab.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = gcdlab.cli.main({argv!r})\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=True,
    )
    code, modules = json.loads(proc.stdout)
    return code, set(modules)


@pytest.mark.parametrize(
    "argv",
    [
        ["stats", GOLDEN_INSTANCE],
        ["structure", GOLDEN_INSTANCE],
        ["defect", "--a", "12", "--n", "6"],
    ],
)
def test_core_subcommands_load_no_optional_module(argv):
    code, modules = modules_loaded_by(argv)
    assert code == 0
    assert modules.isdisjoint(OPTIONAL_MODULES), sorted(modules & set(OPTIONAL_MODULES))
    # records are NamedTuples: no dataclass machinery at start-up
    assert modules.isdisjoint(("dataclasses", "inspect")), sorted(
        modules & {"dataclasses", "inspect"}
    )


def test_only_structure_loads_the_modulus_search():
    # gcdlab.structure imports gcdlab.modulus on first use, so the commands
    # that never search a modulus do not compile it
    for argv, loads in (
        (["stats", GOLDEN_INSTANCE], False),
        (["defect", "--a", "12", "--n", "6"], False),
        (["structure", GOLDEN_INSTANCE], True),
    ):
        code, modules = modules_loaded_by(argv)
        assert code == 0 and ("gcdlab.modulus" in modules) == loads, argv


def test_measure_loads_its_module():
    code, modules = modules_loaded_by(["measure", "--point-mass", "0", "0", "--lambda", "0.5"])
    assert code == 0
    assert "gcdlab.measure" in modules and "mpmath" not in modules


def test_verify_imports_no_mpmath():
    # every battery check process imports gcdlab.verify
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, gcdlab.verify; print('mpmath' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=True,
    )
    assert proc.stdout == "False\n"
