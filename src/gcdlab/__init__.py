"""gcdlab: exact census, structure, and search laboratory for GCD-pair
statistics on dyadic integer sets.

The package provides exact arithmetic (arith), the instance model with pair
censuses and bound evaluators (instance), modulus search and defect
machinery (structure, with the search itself in modulus), valuation measures
and concentration numerics (measure), the explicit example families
(families), extremal search and violation hunting (search), and a
command-line front end (cli).

`import gcdlab` loads no submodule: each exported name is imported from its
module on first access (PEP 562), so a caller pays only for what it uses.
"""

from importlib import import_module

# The exported names, grouped by the submodule that defines them.
_EXPORTS = {
    "arith": (
        "FactoredNat",
        "divisors",
        "factorize",
        "is_prime",
        "is_squarefree",
        "primes_up_to",
        "primorial",
        "radical",
        "rational_valuations",
    ),
    "instance": (
        "GcdInstance",
        "InstanceError",
        "InternalConsistencyError",
        "PairSet",
        "build_omega_gcd",
        "build_omega_ratio",
        "chase_diagonal_bound",
        "count_pairs_geq_fast",
        "count_pairs_geq_naive",
        "gcd_census",
        "instance_from_json",
        "instance_to_json",
        "prime_sets",
        "read_instance",
        "theorem1_bound",
        "theorem51_bound",
    ),
    "structure": (
        "DefectCensus",
        "DefectDecomposition",
        "DefectError",
        "StructuredInstance",
        "check_pivotal",
        "defect",
        "defect_census",
        "defect_census_sweep",
        "find_modulus",
        "quad_identity",
        "witness_chain",
    ),
    "measure": (
        "ConcentrationReport",
        "Measure2D",
        "PrimeLambda",
        "SigmaDecomposition",
        "WeightPair",
        "best_center",
        "concentration_report",
        "min_admissible_c_interval",
        "sigma_decomposition",
        "tail_mass",
        "valuation_measure",
    ),
    "families": (
        "FamilyReport",
        "remark2_family",
        "remark3_family",
        "sec5_family",
        "squarefree_instance",
    ),
    "search": (
        "SearchResult",
        "SearchSpace",
        "Violation",
        "exhaustive_max",
        "hunt_violations",
        "max_pairwise_compatible",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
