"""Subprocess side of the benchmark: one fresh interpreter per invocation.

    worker.py battery-check FUNCTION SEED one check of the quick battery alone
    worker.py trace-battery-check FUNCTION SEED
    worker.py trace-cli COMMAND INSTANCE OUT   one traced CLI operation
    worker.py sieve                       time the first primes_up_to(10**6)

The trace modes wrap gcdlab's public functions from here, in this process
only: every module attribute bound to a wrapped function is replaced, so
calls between gcdlab's own modules are seen too.  Each wrapped call is a
span; spans are aggregated per name (calls, inclusive and self seconds)
and printed as one JSON object on stdout.  Nothing under src/ changes.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

# (module, function, span name): the layer boundaries the benchmark times.
SPANS = (
    ("gcdlab.instance", "read_instance", "instance.read_instance"),
    ("gcdlab.instance", "build_omega_gcd", "instance.build_omega_gcd"),
    ("gcdlab.instance", "count_pairs_geq_fast", "instance.count_pairs_geq_fast"),
    ("gcdlab.instance", "prime_sets", "instance.bound"),
    ("gcdlab.instance", "theorem1_bound", "instance.bound"),
    ("gcdlab.instance", "theorem1_log10_bound", "instance.bound"),
    ("gcdlab.instance", "theorem1_holds", "instance.bound"),
    ("gcdlab.structure", "find_modulus", "structure.find_modulus"),
    ("gcdlab.structure", "defect", "structure.defect"),
    ("gcdlab.structure", "extract_witnesses", "structure.extract_witnesses"),
    ("gcdlab.structure", "defect_census", "structure.defect_census"),
    ("gcdlab.search", "max_pairwise_compatible", "search.max_pairwise_compatible"),
    ("gcdlab.search", "hunt_violations", "search.hunt_violations"),
    ("gcdlab.search", "exhaustive_max", "search.exhaustive_max"),
    ("gcdlab.measure", "concentration_report", "measure.concentration_report"),
    ("gcdlab.measure", "min_admissible_c_interval", "measure.min_admissible_c_interval"),
    ("gcdlab.families", "sec5_family", "families.sec5"),
    ("gcdlab.reports", "render", "reports.render"),
    ("gcdlab.verify", "check_census_oracle", "verify.census_oracle"),
    ("gcdlab.verify", "check_quad_identity", "verify.defect_identity"),
    ("gcdlab.verify", "check_defect_census", "verify.defect_census"),
    ("gcdlab.verify", "check_concentration", "verify.concentration"),
    ("gcdlab.verify", "check_sec5", "verify.sec5"),
    ("gcdlab.verify", "check_search_and_hunt", "verify.search_and_hunt"),
    ("gcdlab.verify", "check_measure_partition", "verify.measure_partition"),
)


class Tracer:
    """Aggregated spans: name -> [calls, inclusive s, self s], plus counters.

    A call into a span of the same name as the innermost open span (a
    recursion, or theorem1_bound calling prime_sets) is folded into it.
    """

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn, after=None):
        """fn, timed as a span called ``name``; ``after(result, args)``
        records counters outside the timed interval."""
        stack = self._stack
        agg = self.spans.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - start
                stack.pop()
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                try:
                    after(result, args)
                except (AttributeError, TypeError, ValueError):
                    # a counter the program's current API cannot feed
                    self.count("trace.hook_errors")
            return result

        traced.__wrapped__ = fn
        return traced

    def report(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def _replace_everywhere(orig, wrapped) -> None:
    gcdlab_modules = [
        mod for name, mod in list(sys.modules.items()) if name.split(".")[0] == "gcdlab"
    ]
    for mod in gcdlab_modules:
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapped)


def _after_find_modulus(tracer: Tracer):
    def after(ms, args) -> None:
        inst, omega = args[0], args[1]
        elements = inst.A + inst.B
        hi: dict[int, int] = {}
        lo: dict[int, int] = {}
        seen: dict[int, int] = {}
        for el in elements:
            for p, e in el.factors:
                hi[p] = max(hi.get(p, 0), e)
                lo[p] = min(lo.get(p, e), e)
                seen[p] = seen.get(p, 0) + 1
        ranges = sum(
            hi[p] - (lo[p] if seen[p] == len(elements) else 0) + 1 for p in hi
        )
        tracer.count("structure.find_modulus.mask_work", len(omega) * ranges)
        tracer.count("structure.find_modulus.pool_primes", len(hi))
        tracer.count("structure.find_modulus.fraction_sum", float(ms.fraction))
        tracer.count("structure.find_modulus.greedy", ms.strategy == "greedy")
        tracer.count("structure.find_modulus.empty", not len(ms.omega_prime))

    return after


def install(tracer: Tracer) -> None:
    """Wrap every boundary in SPANS, skipping names a module no longer has."""
    import gcdlab.cli  # noqa: F401  (loads every gcdlab module)

    after = {
        "find_modulus": _after_find_modulus(tracer),
        "build_omega_gcd": lambda omega, args: (
            tracer.count("instance.build_omega_gcd.pairs_tested", omega.n_left * omega.n_right),
            tracer.count("instance.omega.edges", len(omega)),
        ),
        "render": lambda text, args: tracer.count("reports.bytes", len(text.encode())),
    }
    for modname, attr, name in SPANS:
        orig = getattr(sys.modules.get(modname), attr, None)
        if orig is not None:
            _replace_everywhere(orig, tracer.wrap(name, orig, after.get(attr)))
    from gcdlab.structure import StructuredInstance

    post_init = getattr(StructuredInstance, "__post_init__", None)
    if post_init is not None:
        StructuredInstance.__post_init__ = tracer.wrap("structure.validate_pivotal", post_init)


# The battery's checks, in run_all's order, by their function in gcdlab.verify.
BATTERY_CHECKS = tuple(attr for mod, attr, _ in SPANS if mod == "gcdlab.verify")


def cmd_battery_check(function: str, seed: int, traced: bool) -> dict:
    """``run_all(quick=True, seed_offset=seed)`` with every check but
    ``function`` replaced by a stub, so that the one check runs alone in a
    fresh process, with run_all's own arguments."""
    import gcdlab.verify  # import cost stays out of the timed region

    tracer = Tracer()
    if traced:
        install(tracer)
    for name in BATTERY_CHECKS:
        if name != function:
            setattr(gcdlab.verify, name, lambda **kwargs: None)
    (r,) = [r for r in gcdlab.verify.run_all(quick=True, seed_offset=seed) if r is not None]
    return {"name": r.name, "ok": bool(r.ok), "elapsed": r.elapsed, **tracer.report()}


def cmd_trace_cli(command: str, instance: str, out: str) -> dict:
    """One CLI operation in-process, with the same arguments a user passes.

    The input values are factorized first, before the instance is loaded,
    so arith.factorize holds all factorization and instance.read_instance
    is parsing plus validation with the factorizations cached.  After the
    operation the divisor census runs on the same sets as the oracle.
    """
    tracer = Tracer()
    install(tracer)
    import gcdlab.cli
    from gcdlab.arith import factorize
    from gcdlab.instance import count_pairs_geq_fast

    doc = json.loads(Path(instance).read_text(encoding="utf-8"))
    A = [int(v) for v in doc["A"]]
    B = [int(v) for v in doc["B"]]
    factorize_all = tracer.wrap("arith.factorize", lambda values: [factorize(v) for v in values])
    factorize_all(A + B)
    tracer.count("arith.factorize.values", len(A) + len(B))
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = gcdlab.cli.main([command, instance])
    Path(out).write_text(buf.getvalue(), encoding="utf-8")
    count_pairs_geq_fast(A, B, doc["D"])  # timed only; run.py holds the oracle answer
    return {"code": code, "stderr": err.getvalue(), **tracer.report()}


def cmd_sieve() -> dict:
    from gcdlab.arith import primes_up_to

    start = time.perf_counter()
    primes_up_to(10**6)
    return {"sieve_s": time.perf_counter() - start}


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode in ("battery-check", "trace-battery-check"):
        result = cmd_battery_check(rest[0], int(rest[1]), traced=mode.startswith("trace"))
    elif mode == "trace-cli":
        result = cmd_trace_cli(*rest)
    elif mode == "sieve":
        result = cmd_sieve()
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
