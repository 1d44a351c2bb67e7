"""Exact fusion-semiring computations for compact quantum groups.

The package provides exact tensor decomposition in the standard explicit
families (group duals, free orthogonal, quantum automorphism and free
unitary types) together with the invariants that live on the fusion data:
character star-moments with combinatorial oracles, the generator metric on
irreducibles, Kesten-style amenability estimates, positive parameter lists
with quantum dimensions and the modular spectrum lattice, endomorphism
towers with principal graphs, and the exact set calculus used by
paradoxicality witnesses.
"""

__version__ = "0.1.0"

from .core import (
    BudgetExceededError,
    FamilyMismatchError,
    FusionElement,
    FusionError,
    FusionSystem,
    InvalidLabelError,
    IrrLabel,
)
from .families import (
    AoSystem,
    AuSystem,
    AutSystem,
    GroupDualBase,
    GroupDualSystem,
    IntervalSystem,
    ZdDualSystem,
    au_bar,
    element_from_json,
    element_to_json,
    format_element,
    fundamental,
    parse_element,
    system_from_config,
)
from .characters import (
    StarWord,
    catalan,
    moment,
    moment_sequence,
    noncrossing_pairing_count,
)
from .geometry import (
    QuasiIsometryReport,
    ball,
    distance,
    growth_table,
    quasi_isometry_check,
    sphere,
    validate_generator,
)
from .amenability import (
    KestenReport,
    amenability_verdict,
    char_moments,
    chi_chi_star_counts,
    free_cumulants_to_moments,
    kesten_counts,
    moments_to_free_cumulants,
    spectral_radius_estimate,
)
from .params import (
    ExponentLattice,
    InconsistentListError,
    Param,
    ParamList,
    derive_irreducible_lists,
    is_kac,
    modular_spectrum,
    qdim,
    trig_eval,
)
from .towers import (
    BratteliDiagram,
    WeightedGraph,
    attach_qdim_weights,
    export_dot,
    principal_graph,
    tower,
)
from .powers import (
    ConjugatedSet,
    FiniteIrrSet,
    PowersWitness,
    UnsupportedSetOperation,
    WitnessCheck,
    WordSet,
    check_witness,
    search_witness,
    set_conj,
    set_product,
)

__all__ = [name for name in dir() if not name.startswith("_")]
