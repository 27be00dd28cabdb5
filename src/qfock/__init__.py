"""qfock: exact construction and verification of braidings, braided Fock
doubles and current algebras over Q(q)."""

__version__ = "0.1.0"

from .scalars import ONE, Q, QINV, ZERO, Scalar  # noqa: F401
from .braidings import (  # noqa: F401
    Braiding,
    baxterize,
    dual_pairings,
    extend_to_duals,
    load_braiding_table,
    load_builtin,
    make_bmw,
    make_flip,
    make_standard_hecke,
    make_superflip,
    projectors,
    skew_inverse,
)
from .quadalgebras import GradedQuotient, make_algebra  # noqa: F401
from .fockdouble import (  # noqa: F401
    FockDouble,
    braided_lie,
    fock_representation,
    make_double,
    verify_compatibility,
    verify_l_relations,
    verify_lie,
)
from .currents import (  # noqa: F401
    CurrentDouble,
    current_relation_check,
    make_current_double,
    mode_permute,
    verify_yang,
    zf_act,
)
