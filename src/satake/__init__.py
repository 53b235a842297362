"""Exact-arithmetic root datum, representation semiring, and affine
Grassmannian orbit combinatorics for split reductive groups."""
from .errors import (
    DomainError,
    InconclusiveError,
    InconsistencyError,
    InvalidDatumError,
    ParseError,
    SatakeError,
)
from .lattice import (
    RootDatum,
    Weight,
    WeylWord,
    apply_word,
    cartan_matrix,
    cartan_type,
    class_mod_root_lattice,
    conv_hull_leq,
    coroot_height,
    datum_from_json,
    datum_to_json,
    dominant_below,
    dominant_representative,
    dominant_window,
    dual_root_datum,
    is_dominant,
    leq_dominance,
    pairing,
    positive_roots,
    positive_roots_with_coroots,
    preceq,
    saturation_set,
    two_rho,
    validate_datum,
    weyl_group_order,
    weyl_orbit,
)
from .semiring import (
    Decomposition,
    power_decompose,
    product_table,
    prv_multiplicity,
    tensor_decompose,
    tensor_decompose_list,
    weight_multiplicities,
    weyl_dim,
)
from .shadow import (
    SatakeContext,
    StratumReport,
    closure_contains,
    component_parity,
    convolution_decompose,
    global_sections_dim,
    orbit_dim,
    semismall_bound,
    stratum,
)
from .reconstruct import (
    AbstractSemiring,
    MonoidRecovery,
    ReconstructionConfig,
    RecoveredDatum,
    based_iso,
    dump_semiring,
    reconstruct_root_datum,
    recover_Qplus,
    recover_monoid,
    recover_preceq,
    recover_sum,
    semiring_from_json,
    semiring_to_json,
    verify_reconstruction,
)
from .fixtures import FIXTURES, Fixture, get_fixture

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
