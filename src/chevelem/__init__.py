"""Exact elementary-word factorization for SL_N and Sp_2N over polynomial rings.

The package factors matrices over Z[x1..xn] (and related coefficient
rings) into explicit words of elementary root unipotents, implements the
local-global dilation machinery that patches local factorizations into
global ones, and re-checks every produced word by exact multiplication.
"""

from .errors import (
    BaseMismatch,
    ChevElemError,
    CoveringInconsistent,
    DegreeOverflow,
    DescentBudgetExceeded,
    InternalCheckFailed,
    NotAUnit,
    NotFactored,
    NotInGroup,
    ParseError,
    PreconditionViolated,
    ProportionalRoots,
    RankTooLow,
    SizeMismatch,
    UnknownRoot,
    UnsupportedType,
)
from .exactring import (
    BaseRing,
    MultiPoly,
    annihilator_exponent,
    base_ring_from_str,
    convert,
    emit_poly,
    parse_poly,
)
from .rootdata import (
    GroupMatrix,
    RootSystem,
    build_root_system,
    commutator_expand,
    elem_unipotent,
    membership_check,
    structure_constants,
    weyl_and_torus,
)
from .words import (
    Budget,
    CongruenceTag,
    ElemWord,
    FactorizationCertificate,
    congruence_check,
    eval_word,
    free_reduce,
    invert_word,
    map_word,
)
from .localglobal import (
    CoveringData,
    DilationCert,
    descend_word,
    dilation_equalizer,
    dilation_factor,
    patch,
    telescoping_chain,
    telescoping_product,
)
from .factorize import (
    factor_integer_sl,
    factor_integer_sp,
    factor_polynomial,
    factor_univar_euclidean,
    heuristic_reduce,
    random_elementary_word,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
