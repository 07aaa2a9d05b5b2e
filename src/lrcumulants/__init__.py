"""Exact combinatorics of double-ended-queue scenarios, left-right cumulants,
and canonical operators on the full Fock space."""

from .partitions import (
    MAX_GROUND_SET,
    Partition,
    Permutation,
    act,
    enumerate_noncrossing,
    enumerate_partitions,
    is_noncrossing,
    leq,
    meet,
    one_block,
    opposite,
    singletons,
)
from .lukasiewicz import InvalidRiseVector, LukPath, enumerate_luk, psi
from .deque import (
    ChiWord,
    ScenarioTrace,
    block_data,
    chi_opposite,
    combined_standings,
    insertion_standings,
    output_partition,
    pchi_by_enumeration,
    pchi_by_sigma,
    sigma_chi,
    simulate,
    standings_partitions,
    tau_u,
)
from .cumulants import (
    CumulantEngine,
    is_combinatorially_bifree_upto,
    moment_from_cumulants,
)
from .fock import (
    CoefficientTable,
    OperatorExpr,
    PolyScalar,
    VacuumMoments,
    adjoint,
    apply_generator,
    bimixture_symbol,
    bimixture_template,
    canonical_operator,
    inner_product,
    lemma67_vector,
    moment_via_pchi,
    reverse_bimixture_symbol,
    reverse_bimixture_template,
    vacuum_expectation,
    vacuum_vector,
    x_op,
)

__version__ = "0.1.0"
