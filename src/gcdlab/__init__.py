"""gcdlab: exact census, structure, and search laboratory for GCD-pair
statistics on dyadic integer sets.

The package provides exact arithmetic (arith), the instance model with pair
censuses and bound evaluators (instance), valuation measures, modulus search
and defect machinery (structure), concentration numerics (measure), the
explicit example families (families), extremal search and violation hunting
(search), and a command-line front end (cli).
"""

from .arith import (
    FactoredNat,
    divisors,
    factorize,
    gcd_factored,
    is_prime,
    is_squarefree,
    primes_up_to,
    primorial,
    radical,
    rational_valuations,
    valuation,
)
from .instance import (
    GcdInstance,
    InstanceError,
    PairSet,
    build_omega_gcd,
    build_omega_ratio,
    chase_diagonal_bound,
    count_pairs_geq_fast,
    count_pairs_geq_naive,
    gcd_census,
    instance_from_json,
    instance_to_json,
    prime_sets,
    read_instance,
    theorem1_bound,
    theorem1_holds,
    theorem51_bound,
    write_instance,
)
from .structure import (
    DefectCensus,
    DefectDecomposition,
    DefectError,
    InternalConsistencyError,
    StructuredInstance,
    ValuationMeasure,
    check_pivotal,
    defect,
    defect_census,
    defect_census_sweep,
    extract_witnesses,
    find_modulus,
    quad_identity_check,
    quad_identity_witnesses,
    structure_instance,
    valuation_measure,
)
from .measure import (
    ConcentrationReport,
    Measure2D,
    SigmaDecomposition,
    WeightPair,
    best_center,
    concentration_report,
    from_valuation_measure,
    min_admissible_c,
    min_admissible_c_interval,
    sigma_decomposition,
    tail_mass,
)
from .families import (
    FamilyReport,
    remark2_family,
    remark3_family,
    sec5_family,
    squarefree_instance,
)
from .search import (
    SearchResult,
    SearchSpace,
    Violation,
    exhaustive_max,
    exhaustive_max_bruteforce,
    hunt_violations,
    max_pairwise_compatible,
)

__version__ = "0.1.0"
