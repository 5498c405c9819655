"""gcdlab benchmark: four seeded workloads, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ../src relative to this
file.  The seed generates every input; each operation starts only after the
previous one ends, and each answer is checked against an oracle outside the
timed region.  ``--trace 0`` repeats passes over the workload's operations
for ``--seconds`` and reports each operation's median over the passes,
scaled by the calibration around it (see ``end_to_end``); ``--trace 1``
runs one untraced and one traced pass and reports the per-layer metrics.
The last stdout line is the result object; the line before it holds the
per-operation details and the environment stamp.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Scratch files of one run; per process, so that two runs never collide.
WORK_ROOT = ROOT / ".perfbench_work"
WORK = WORK_ROOT / str(os.getpid())
WORKER = HERE / "worker.py"

sys.path.insert(0, str(HERE))
import gen  # noqa: E402
import worker  # noqa: E402

# Cold start of the entry point: a fresh interpreter that imports gcdlab's
# CLI (and with it every module, verify included) and answers one trivial
# request.
SETUP_ARGS = ("-m", "gcdlab", "defect", "--a", "12", "--n", "6")
# A few cold-start probes run before the timed passes and one after each
# pass, so that their median spans the run rather than one moment of it.
SETUP_PROBES_BEFORE = 3
# The time of calibrate() on the reference machine (2 cores, Python 3.11)
# when its host was quiet.  Each measured time is scaled by
# CALIBRATION_REF_S over the calibration times on either side of it; see
# end_to_end.
CALIBRATION_REF_S = 0.040
CALIBRATIONS_PER_GAP = 2
CALIBRATIONS_PER_CPU = 5
RUN_DEADLINE_S = 170.0
BATTERY_SEED_STRIDE = 1000


@dataclass
class OpResult:
    label: str
    latency: float
    rss_mb: float
    ok: bool
    note: str = ""
    # index of the calibration gap just before the operation's process
    gap: int = -1


@dataclass
class PassResult:
    wall: float
    ops: list[OpResult]
    traces: list[dict] = field(default_factory=list)


COPY_SOURCE = list(range(80_000))


def calibrate() -> float:
    """Seconds for a fixed piece of pure-Python work of the program's own
    kinds: small-integer arithmetic, gcd and dict updates (about three
    quarters of the time), and copies of a large list of ints, as the
    factorization does with the prime list.  Memory-bound code slows down
    less than the arithmetic when the host is busy; the mix follows both."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    acc = 0
    for i in range(1, 90_001):
        v = i * 2654435761 % 1_000_003
        g = math.gcd(v, 720720)
        counts[g] = counts.get(g, 0) + 1
        acc += v // g
    sorted(counts.items())
    for _ in range(30):
        acc += COPY_SOURCE[:][-1]
    return time.perf_counter() - start


def pin_to_quietest_cpu() -> int | None:
    """Pin this process, and so every child, to the CPU on which calibrate()
    runs fastest now; None where affinity is not available.

    On the reference machine each of the two virtual CPUs has spells of
    tens of seconds in which it runs 30-40 % slower than the other, when its
    host core is shared.  One CPU for the whole run keeps the operations and
    the calibrations between them on the same core, so that the scaling in
    end_to_end follows that core's speed.
    """
    try:
        cpus = sorted(os.sched_getaffinity(0))
        speed = {}
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = min(calibrate() for _ in range(CALIBRATIONS_PER_CPU))
        best = min(speed, key=speed.get)
        os.sched_setaffinity(0, {best})
        return best
    except (AttributeError, OSError):
        return None


# Every child runs through this launcher: ``python -c LAUNCHER PEAK_FILE
# -m MODULE ARGS`` runs the module as ``python -m`` does, and ``... PEAK_FILE
# SCRIPT ARGS`` the script.  At exit the child writes its own peak RSS
# (VmHWM, in kB) to PEAK_FILE.  The rusage of wait4 would not do: a child's
# ru_maxrss keeps the RSS of the benchmark process it was forked from.
LAUNCHER = """
import atexit, runpy, sys
peak_file = sys.argv.pop(1)

def write_peak():
    try:
        with open('/proc/self/status') as f:
            kb = next(line.split()[1] for line in f if line.startswith('VmHWM:'))
        with open(peak_file, 'w') as f:
            f.write(kb)
    except (OSError, StopIteration):
        pass

atexit.register(write_peak)
if sys.argv[1] == '-m':
    sys.argv = sys.argv[2:]
    runpy.run_module(sys.argv[0], run_name='__main__', alter_sys=True)
else:
    sys.argv = sys.argv[1:]
    runpy.run_path(sys.argv[0], run_name='__main__')
"""


class Runner:
    """Spawns every child process with a kill timer against the run deadline,
    and times calibrate() in the gap before each one."""

    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.cpu = pin_to_quietest_cpu()
        # one entry per gap between child processes: the mean calibrate() time
        self.calibrations: list[float] = []
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def spawn(self, args, tag: str) -> tuple[float, int, float, str, str]:
        """Run ``python args``; returns (seconds, exit code, peak RSS in MB,
        stdout, stderr).  The RSS is the child's own; see LAUNCHER."""
        self.calibrate_gap()
        out_path, err_path = WORK / f"{tag}.out", WORK / f"{tag}.err"
        peak_path = WORK / f"{tag}.peak"
        peak_path.unlink(missing_ok=True)
        budget = max(5.0, RUN_DEADLINE_S - (time.perf_counter() - self.start))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-c", LAUNCHER, str(peak_path), *args],
                stdout=out, stderr=err, env=self.env, cwd=ROOT,
            )
            timer = threading.Timer(budget, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            peak_mb = int(peak_path.read_text()) / 1024.0
        except (OSError, ValueError):
            peak_mb = usage.ru_maxrss / 1024.0  # no /proc: an upper bound
        return (
            elapsed,
            proc.returncode,
            peak_mb,
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def calibrate_gap(self) -> None:
        self.calibrations.append(statistics.mean(calibrate() for _ in range(CALIBRATIONS_PER_GAP)))

    @property
    def gap(self) -> int:
        """The gap before the most recent child process."""
        return len(self.calibrations) - 1

    def scale(self, gap: int) -> float:
        """CALIBRATION_REF_S over the calibration times on either side of
        the child process that followed ``gap``."""
        return CALIBRATION_REF_S / statistics.mean(self.calibrations[gap:gap + 2])


# ---------------------------------------------------------------------------
# Oracles: every check runs outside the timed region.
# ---------------------------------------------------------------------------


def _is_prime_small(p: int) -> bool:
    if p < 2:
        return False
    return all(p % d for d in range(2, math.isqrt(p) + 1))


def check_stats(doc: dict, case: dict) -> str:
    """'' when the stats report agrees with the divisor-census oracle."""
    s = doc["summary"]
    n_a, n_b = len(case["A"]), len(case["B"])
    if (s["n_a"], s["n_b"]) != (n_a, n_b):
        return "set sizes differ"
    if s["omega_size"] != case["census"]:
        return f"omega_size {s['omega_size']} != census {case['census']}"
    if Fraction(s["delta"]) != Fraction(case["census"], n_a * n_b):
        return f"delta {s['delta']} != census density"
    return ""


def check_structure(doc: dict, case: dict) -> str:
    """'' when N, the witness pair and every defect record verify exactly."""
    from gcdlab.structure import check_pivotal

    s = doc["summary"]
    N = int(s["N"])
    prod = 1
    for p, e in s["N_factors"]:
        if not (_is_prime_small(p) and e >= 1):
            return f"N factor {p}^{e} is not a prime power"
        prod *= p**e
    if prod != N:
        return f"N_factors multiply to {prod}, not {N}"
    if s["omega_size"] != case["census"]:
        return f"omega_size {s['omega_size']} != census {case['census']}"
    w = s["witness"]
    a, b = int(w["a"]), int(w["b"])
    if a not in case["A"] or b not in case["B"] or math.gcd(a, b) < case["D"]:
        return "witness pair is not an edge of the instance"
    if not (w["chain_ok"] and check_pivotal(a, b, N)):
        return "witness pair fails check_pivotal or its chain"
    for rec in doc["records"]:
        v, plus, minus, star = (int(rec[k]) for k in ("value", "a_plus", "a_minus", "a_star"))
        if v * minus != N * plus or star != plus * minus or math.gcd(plus, minus) != 1:
            return f"defect record of {v} breaks a = N * a_plus / a_minus"
    return ""


def check_setup(doc: dict) -> str:
    s = doc["summary"]
    return "" if (s["a_plus"], s["a_minus"], s["a_star"]) == ("2", "1", "2") else "defect 12/6 wrong"


EMPTY_PIVOTAL = "omega_prime is empty"


def judge_cli(command: str, code: int, stdout: str, stderr: str, case: dict) -> tuple[bool, str]:
    """(ok, note) for one CLI operation.  Exit 2 with an empty pivotal set
    is the documented outcome for sparse structure instances, not a failure."""
    if "Traceback" in stderr:
        return False, "traceback"
    if command == "structure" and code == 2 and EMPTY_PIVOTAL in stderr:
        return True, "empty-pivotal"
    if code != 0:
        return False, f"exit {code}: {stderr.strip()[:120]}"
    try:
        doc = json.loads(stdout)
        why = (check_stats if command == "stats" else check_structure)(doc, case)
    except (ValueError, KeyError, TypeError) as exc:
        why = f"malformed report: {exc!r}"
    return not why, why


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class CliWorkload:
    """One cold ``gcdlab <command> <file>`` subprocess per generated instance."""

    def __init__(self, name: str, command: str, tiny: bool = False) -> None:
        self.name = name
        self.command = command
        self.tiny = tiny

    def prepare(self, seed: int) -> list[dict]:
        from gcdlab.instance import count_pairs_geq_fast

        cases = []
        for label, doc in gen.GENERATORS[self.name](seed, tiny=self.tiny):
            path = WORK / f"{label}.json"
            path.write_text(gen.instance_text(doc), encoding="utf-8")
            A, B, D = gen.ints(doc, "A"), gen.ints(doc, "B"), int(doc["D"])
            cases.append(
                {"label": label, "path": str(path), "A": set(A), "B": set(B), "D": D,
                 "census": count_pairs_geq_fast(A, B, D)}
            )
        return cases

    def run_pass(self, runner: Runner, cases: list[dict], traced: bool, index: int = 0) -> PassResult:
        """Every pass runs the same instances."""
        ops, traces = [], []
        for case in cases:
            tag = f"{case['label']}.{'traced' if traced else 'plain'}"
            if traced:
                report_path = WORK / f"{tag}.report"
                args = (str(WORKER), "trace-cli", self.command, case["path"], str(report_path))
            else:
                args = ("-m", "gcdlab", self.command, case["path"])
            elapsed, code, rss, out, err = runner.spawn(args, tag)
            if traced:
                try:
                    trace = json.loads(out.strip().splitlines()[-1])
                except (ValueError, IndexError):
                    ops.append(OpResult(case["label"], elapsed, rss, False, f"tracer failed: {err[-200:]}"))
                    continue
                traces.append(trace)
                # the oracle census the tracer runs after the operation is
                # not part of the operation
                elapsed -= trace["spans"].get("instance.count_pairs_geq_fast", [0, 0.0])[1]
                code, err = trace["code"], trace["stderr"] + err
                out = report_path.read_text(encoding="utf-8")
            ok, note = judge_cli(self.command, code, out, err, case)
            ops.append(OpResult(case["label"], elapsed, rss, ok, note, runner.gap))
        return PassResult(sum(op.latency for op in ops), ops, traces)


class BatteryWorkload:
    """The 7 checks of ``gcdlab.verify.run_all(quick=True, seed_offset=...)``,
    each one operation in a fresh interpreter of its own.

    The quick sizes (what ``verify all --quick`` runs) keep a pass near 2 s
    of checking, where the acceptance sizes take 20-25 s, one pass a run.
    One process per check keeps a check's time free of the heap and caches
    the checks before it leave behind, which differ with the seed.  The
    random checks' work differs by 20-40 % from one seed offset to the
    next, so pass ``i`` of seed ``s`` runs offset ``s * BATTERY_SEED_STRIDE
    + i``: a run's medians cover about six offsets, and seeds do comparable
    work.
    """

    name = "battery"

    def prepare(self, seed: int) -> list[dict]:
        return [{"label": "battery", "seed": seed}]

    def run_pass(self, runner: Runner, cases: list[dict], traced: bool, index: int = 0) -> PassResult:
        offset = cases[0]["seed"] * BATTERY_SEED_STRIDE + index
        mode = "trace-battery-check" if traced else "battery-check"
        ops, traces = [], []
        for function in worker.BATTERY_CHECKS:
            elapsed, code, rss, out, err = runner.spawn(
                (str(WORKER), mode, function, str(offset)), f"{mode}.{function}"
            )
            try:
                c = json.loads(out.strip().splitlines()[-1])
                ok, note = bool(c["ok"]), "" if c["ok"] else "check failed"
                ops.append(OpResult(c["name"], c["elapsed"], rss, ok, note, runner.gap))
            except (ValueError, IndexError, KeyError):
                ops.append(OpResult(function, elapsed, rss, False,
                                    f"exit {code}: {err.strip()[-200:]}", runner.gap))
                continue
            if traced:
                traces.append(c)
        return PassResult(sum(op.latency for op in ops), ops, traces)


def make_workload(name: str, tiny: bool = False):
    if name == "battery":
        return BatteryWorkload()
    if name == "structure-dense":
        return CliWorkload(name, "structure", tiny)
    if name in ("stats-dense", "stats-bigint"):
        return CliWorkload(name, "stats", tiny)
    raise KeyError(name)


WORKLOADS = ("battery", "structure-dense", "stats-dense", "stats-bigint")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def measure_setup(runner: Runner, probes: int) -> list[OpResult]:
    ops = []
    for i in range(probes):
        elapsed, code, rss, out, err = runner.spawn(SETUP_ARGS, "setup")
        try:
            why = check_setup(json.loads(out)) if code == 0 else f"exit {code}"
        except (ValueError, KeyError) as exc:
            why = f"malformed report: {exc!r}"
        ops.append(OpResult("setup", elapsed, rss, not why, why, runner.gap))
    return ops


def measure_sieve(runner: Runner, probes: int) -> list[OpResult]:
    """The first primes_up_to(10**6) of a fresh process, timed inside it."""
    ops = []
    for _ in range(probes):
        _, code, rss, out, err = runner.spawn((str(WORKER), "sieve"), "sieve")
        try:
            ops.append(OpResult("sieve", json.loads(out)["sieve_s"], rss, code == 0))
        except (ValueError, KeyError):
            ops.append(OpResult("sieve", 0.0, rss, False, f"exit {code}: {err.strip()[-200:]}"))
    return ops


def end_to_end(runner: Runner, passes: list[PassResult],
               setup_ops: list[OpResult]) -> tuple[dict, dict]:
    """(metrics, the same times unscaled).

    The reference machine's host is shared: its speed drifts by 15-40 % over
    seconds to minutes, and raw times follow the drift of their moment.
    calibrate() runs on the same CPU in the gap before every child process,
    and each measured time is scaled by CALIBRATION_REF_S over the mean
    calibration time of the gaps on either side of it.  The metrics read as
    seconds on the reference machine when it is quiet, and they still move
    in proportion with the program's own speed.

    ``wall_s`` is the sum over the operations of each one's median scaled
    latency over the passes, one typical pass over the list;
    ``latency_p50_s`` is the median of those medians; ``setup_s`` is the
    median scaled cold start.  ``peak_rss_mb`` is the largest over the
    operations of each one's median peak RSS over the passes, which on the
    battery covers different seed offsets.
    """
    scaled: dict[str, list[float]] = {}
    unscaled: dict[str, list[float]] = {}
    for p in passes:
        for op in p.ops:
            scaled.setdefault(op.label, []).append(op.latency * runner.scale(op.gap))
            unscaled.setdefault(op.label, []).append(op.latency)

    def summary(times: dict[str, list[float]], setup: list[float]) -> dict:
        medians = [statistics.median(v) for v in times.values()]
        return {
            "wall_s": sum(medians),
            "latency_p50_s": statistics.median(medians),
            "setup_s": statistics.median(setup),
        }

    metrics = summary(scaled, [op.latency * runner.scale(op.gap) for op in setup_ops])
    peaks: dict[str, list[float]] = {}
    for p in passes:
        for op in p.ops:
            peaks.setdefault(op.label, []).append(op.rss_mb)
    metrics["peak_rss_mb"] = max(statistics.median(v) for v in peaks.values())
    return metrics, summary(unscaled, [op.latency for op in setup_ops])


VERIFY_CHECKS = ("census_oracle", "defect_identity", "defect_census", "concentration",
                 "sec5", "search_and_hunt", "measure_partition")


def per_layer(plain: PassResult, traced: PassResult, sieve_s: float) -> dict:
    """Per-layer metrics from the traced pass, summed over its operations.
    A layer the workload never calls reads 0."""
    spans: dict[str, list] = {}
    counts: dict[str, float] = {}
    for t in traced.traces:
        for name, (calls, incl, own) in t["spans"].items():
            agg = spans.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += incl
            agg[2] += own
        for name, n in t["counts"].items():
            counts[name] = counts.get(name, 0) + n

    def incl(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[1]

    def calls(name: str) -> int:
        return spans.get(name, [0, 0.0, 0.0])[0]

    searches = calls("structure.find_modulus")

    def per_search(counter: str) -> float:
        return counts.get(counter, 0) / searches if searches else 0.0

    m = {
        "arith.factorize.s": incl("arith.factorize"),
        "arith.factorize.values": counts.get("arith.factorize.values", 0),
        "arith.sieve.s": sieve_s,
        "instance.read_instance.s": incl("instance.read_instance"),
        "instance.build_omega_gcd.s": incl("instance.build_omega_gcd"),
        "instance.build_omega_gcd.pairs_tested": counts.get("instance.build_omega_gcd.pairs_tested", 0),
        "instance.omega.edges": counts.get("instance.omega.edges", 0),
        "instance.count_pairs_geq_fast.s": incl("instance.count_pairs_geq_fast"),
        "instance.bound.s": incl("instance.bound"),
        "structure.find_modulus.s": incl("structure.find_modulus"),
        "structure.find_modulus.mask_work": counts.get("structure.find_modulus.mask_work", 0),
        "structure.find_modulus.pool_primes": counts.get("structure.find_modulus.pool_primes", 0),
        "structure.pivotal_fraction": per_search("structure.find_modulus.fraction_sum"),
        "structure.greedy_share": per_search("structure.find_modulus.greedy"),
        "structure.empty_pivotal_share": per_search("structure.find_modulus.empty"),
        "structure.validate_pivotal.s": incl("structure.validate_pivotal"),
        "structure.defect.s": incl("structure.defect"),
        "structure.defect.calls": calls("structure.defect"),
        "structure.extract_witnesses.s": incl("structure.extract_witnesses"),
        "structure.defect_census.s": incl("structure.defect_census"),
        "structure.defect_census.cells": calls("structure.defect_census"),
        "search.max_pairwise_compatible.s": incl("search.max_pairwise_compatible"),
        # the diagonal sweep runs inside hunt_violations; this is the rest,
        # the structured-instance part
        "search.hunt_violations.s": max(
            0.0, incl("search.hunt_violations") - incl("search.max_pairwise_compatible")
        ),
        "search.exhaustive_max.s": incl("search.exhaustive_max"),
        "measure.concentration_report.s": incl("measure.concentration_report"),
        "measure.concentration_report.calls": calls("measure.concentration_report"),
        "measure.min_admissible_c_interval.s": incl("measure.min_admissible_c_interval"),
        "families.sec5.s": incl("families.sec5"),
        "reports.render.s": incl("reports.render"),
        "reports.bytes": counts.get("reports.bytes", 0),
    }
    for check in VERIFY_CHECKS:
        m[f"verify.{check}.s"] = incl(f"verify.{check}")
    m["op.largest.s"] = max(op.latency for op in plain.ops)
    m["trace.overhead_s"] = traced.wall - plain.wall
    return m


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("_share", "_fraction")):
        return "ratio"
    return "bytes" if name.endswith(".bytes") else "count"


# ---------------------------------------------------------------------------
# Environment stamp
# ---------------------------------------------------------------------------


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def environment() -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unavailable"
    except (OSError, subprocess.SubprocessError):
        rev = "unavailable"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    try:
        import mpmath

        mp_version = mpmath.__version__
    except ImportError:
        mp_version = "missing"
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "mpmath": mp_version,
        "nproc": os.cpu_count(),
    }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def remove_work() -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    with contextlib.suppress(OSError):
        WORK_ROOT.rmdir()  # only once no other run is using it


def measure(workload: str, seed: int, seconds: float, trace: bool, *,
            tiny: bool = False) -> tuple[dict, dict]:
    """Run one benchmark invocation; returns (result line, details line)."""
    wl = make_workload(workload, tiny)
    WORK.mkdir(parents=True, exist_ok=True)
    runner = Runner()
    env = environment()
    env["loadavg_before"] = _loadavg()
    try:
        cases = wl.prepare(seed)
        if trace:
            plain = wl.run_pass(runner, cases, traced=False)
            traced = wl.run_pass(runner, cases, traced=True)
            extra_ops = measure_sieve(runner, 3)
            passes = [plain, traced]
            metrics = per_layer(plain, traced, statistics.median(op.latency for op in extra_ops))
        else:
            extra_ops = measure_setup(runner, SETUP_PROBES_BEFORE)
            passes = []
            t0 = time.perf_counter()
            while not passes or time.perf_counter() - t0 < seconds:
                passes.append(wl.run_pass(runner, cases, traced=False, index=len(passes)))
                extra_ops += measure_setup(runner, 1)
            runner.calibrate_gap()  # the gap after the last process
            metrics, raw = end_to_end(runner, passes, extra_ops)
    finally:
        remove_work()
    env["loadavg_after"] = _loadavg()
    ops = extra_ops + [op for p in passes for op in p.ops]
    failed = sum(not op.ok for op in ops)
    details = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "env": env,
        "failed_share": failed / len(ops),
        "operations": sum(len(p.ops) for p in passes),
        "passes": [
            {"wall_s": p.wall, "ops": [[op.label, round(op.latency, 6), round(op.rss_mb, 1), op.note, op.gap]
                                       for op in p.ops]}
            for p in passes
        ],
        "failures": [f"{op.label}: {op.note}" for op in ops if not op.ok][:20],
    }
    if not trace:
        details["unscaled"] = raw
        details["cpu"] = runner.cpu
        details["calibration_s"] = {
            "min": min(runner.calibrations),
            "median": statistics.median(runner.calibrations),
            "gaps": [round(c, 6) for c in runner.calibrations],
            "setup_probes": [[round(op.latency, 6), op.gap] for op in extra_ops],
        }
    if trace:
        details["traces"] = [{"spans": t["spans"], "counts": t["counts"]} for t in passes[1].traces]
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gcdlab" / "__init__.py").is_file():
        print(f"error: no gcdlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
