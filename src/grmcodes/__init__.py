"""Generalized Reed-Muller codes, derived quantum stabilizer codes,
puncture codes, and the punctured quantum MDS family, with exhaustive
desk-scale verification of every claimed parameter.
"""

__version__ = "0.1.0"

from .errors import GrmError
from .gf import FieldSpec, get_field, quadratic_extension
from .grm import (
    GrmCode,
    build_grm,
    dual_order,
    grm_dimension,
    grm_distance,
)
from .lincode import (
    DEFAULT_CAP,
    LinearCode,
)
from .puncture import (
    PunctureCodeRecord,
    PunctureWitness,
    find_weight_witness,
    mds_chain,
    puncture_code_css,
    puncture_code_hermitian,
    puncture_css,
    puncture_hermitian,
)
from .qcode import (
    QuantumCodeRecord,
    StabilizerMatrix,
    css,
    css_grm,
    hermitian,
    hermitian_grm,
    hermitian_self_orthogonal,
)

__all__ = [
    "DEFAULT_CAP",
    "FieldSpec",
    "GrmCode",
    "GrmError",
    "LinearCode",
    "PunctureCodeRecord",
    "PunctureWitness",
    "QuantumCodeRecord",
    "StabilizerMatrix",
    "build_grm",
    "css",
    "css_grm",
    "dual_order",
    "find_weight_witness",
    "get_field",
    "grm_dimension",
    "grm_distance",
    "hermitian",
    "hermitian_grm",
    "hermitian_self_orthogonal",
    "mds_chain",
    "puncture_code_css",
    "puncture_code_hermitian",
    "puncture_css",
    "puncture_hermitian",
    "quadratic_extension",
]
