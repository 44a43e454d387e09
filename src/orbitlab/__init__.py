"""orbitlab: exact censuses of the SL(2, Z_p) pair action over Z_p^n, the
four-letter restricted growth language, and the bit-row encoding that ties
the two counts together."""

from .budget import BudgetExceeded
from .bridge import encode_word, verify_bridge
from .formulas import is_prime, r_formula, r_p2_product, r_telescoped, sequence_table
from .orbits import (
    canonical_form,
    count_orbits_bfs,
    count_orbits_burnside,
    count_orbits_canonical,
    orbit_summaries,
)
from .residues import (
    GroupSpec,
    PairState,
    ResidueVector,
    apply_s,
    apply_t,
    enumerate_sl2,
    state_from_index,
    state_index,
)
from .words import RGWord, count_words, enumerate_words, is_valid_word

__all__ = [
    "BudgetExceeded",
    "GroupSpec",
    "PairState",
    "RGWord",
    "ResidueVector",
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
    "is_prime",
    "is_valid_word",
    "orbit_summaries",
    "r_formula",
    "r_p2_product",
    "r_telescoped",
    "sequence_table",
    "state_from_index",
    "state_index",
    "verify_bridge",
]
