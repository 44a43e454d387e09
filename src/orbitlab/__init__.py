"""orbitlab: exact censuses of the SL(2, Z_p) pair action over Z_p^n, the
four-letter restricted growth language, and the bit-row encoding that ties
the two counts together."""

from .budget import DEFAULT_STATE_BUDGET, BudgetExceeded
from .bridge import BridgeReport, encode_word, verify_bridge
from .formulas import (
    f_closed,
    f_recurrence,
    is_prime,
    r_formula,
    r_p2_product,
    r_telescoped,
    sequence_table,
)
from .orbits import (
    CensusReport,
    OrbitSummary,
    canonical_form,
    count_orbits_bfs,
    count_orbits_burnside,
    count_orbits_canonical,
    orbit_of,
    orbit_summaries,
)
from .residues import (
    GroupSpec,
    PairState,
    ResidueVector,
    apply_mat,
    apply_s,
    apply_t,
    enumerate_sl2,
    state_from_index,
    state_index,
)
from .words import RGWord, count_words, enumerate_words, is_valid_word, word_from_string

__all__ = [
    "BridgeReport",
    "BudgetExceeded",
    "CensusReport",
    "DEFAULT_STATE_BUDGET",
    "GroupSpec",
    "OrbitSummary",
    "PairState",
    "RGWord",
    "ResidueVector",
    "apply_mat",
    "apply_s",
    "apply_t",
    "canonical_form",
    "count_orbits_bfs",
    "count_orbits_burnside",
    "count_orbits_canonical",
    "count_words",
    "encode_word",
    "enumerate_sl2",
    "enumerate_words",
    "f_closed",
    "f_recurrence",
    "is_prime",
    "is_valid_word",
    "orbit_of",
    "orbit_summaries",
    "r_formula",
    "r_p2_product",
    "r_telescoped",
    "sequence_table",
    "state_from_index",
    "state_index",
    "verify_bridge",
    "word_from_string",
]
