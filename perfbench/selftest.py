"""Tiny-size self-test of the benchmark harness.

    python3 perfbench/selftest.py

Three checks, at toy sizes (about half a minute on two cores):
  1. every metric BENCHMARK.json names is emitted, by every workload, in
     both the untraced and the traced mode, with the failed share and the
     environment stamp in the details line, and the toy runs are correct;
  2. a deliberately corrupted report is counted as failed;
  3. one seed generates byte-identical instance files twice, and another
     seed changes the elements but not the size ladder.
Exits 0 when all three hold.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import run  # noqa: E402


STAMP = {"git_rev", "src_sha256", "python", "mpmath", "nproc", "loadavg_before", "loadavg_after"}


def check_metrics_emitted() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        False: {m["name"] for m in spec["end_to_end"]},
        True: {m["name"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            result, details = run.measure(workload, 5, 0, trace, tiny=True)
            got = set(result["metrics"])
            if got != wanted[trace]:
                problems.append(
                    f"{workload} trace={int(trace)}: missing {sorted(wanted[trace] - got)}, "
                    f"extra {sorted(got - wanted[trace])}"
                )
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={int(trace)}: {details['failures']}")
            stamp = set(details["env"])
            if "failed_share" not in details or not STAMP <= stamp:
                problems.append(f"{workload}: details lack failed_share or {sorted(STAMP - stamp)}")
    return problems


def check_corruption_counted() -> list[str]:
    problems = []
    run.WORK.mkdir(parents=True, exist_ok=True)
    try:
        runner = run.Runner()
        for name, corrupt in (
            ("stats-dense", lambda doc: doc["summary"].update(omega_size=doc["summary"]["omega_size"] + 1)),
            ("structure-dense", lambda doc: doc["records"][0].update(a_minus=str(int(doc["records"][0]["a_minus"]) + 1))),
        ):
            workload = run.make_workload(name, tiny=True)
            case = workload.prepare(5)[0]
            _, code, _, out, err = runner.spawn(("-m", "gcdlab", workload.command, case["path"]), "corrupt")
            ok, note = run.judge_cli(workload.command, code, out, err, case)
            if not ok:
                problems.append(f"{name}: the genuine report was judged wrong: {note}")
            doc = json.loads(out)
            corrupt(doc)
            ok, _ = run.judge_cli(workload.command, code, json.dumps(doc), err, case)
            if ok:
                problems.append(f"{name}: a corrupted report passed the oracle")
    finally:
        run.remove_work()
    return problems


def check_inputs_deterministic() -> list[str]:
    problems = []
    for name, generate in gen.GENERATORS.items():
        first = [gen.instance_text(doc) for _, doc in generate(11)]
        again = [gen.instance_text(doc) for _, doc in generate(11)]
        other = generate(12)
        if first != again:
            problems.append(f"{name}: seed 11 gave different bytes on a second run")
        if first == [gen.instance_text(doc) for _, doc in other]:
            problems.append(f"{name}: seeds 11 and 12 gave identical inputs")
        sizes = [(len(doc["A"]), len(doc["B"])) for _, doc in generate(11)]
        if sizes != [(len(doc["A"]), len(doc["B"])) for _, doc in other]:
            problems.append(f"{name}: the size ladder moved with the seed")
    return problems


def main() -> int:
    failed = False
    for check in (check_inputs_deterministic, check_corruption_counted, check_metrics_emitted):
        problems = check()
        print(f"{'FAIL' if problems else 'ok  '} {check.__name__}")
        for p in problems:
            print(f"     {p}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
