"""Exact factorization arithmetic in imaginary quadratic orders Z[w],
their polynomial rings, and the pinched rings between R[x] and K[x]."""

from .errors import (DomainError, ParseError, ResourceLimitError,
                     VerificationError)
from .factor import FactorizationSet, factorizations
from .ideals import (FracIdeal, colon, content_ideal, gamma_check,
                     gauss_product_check, gcd_v, ideal_from_gens,
                     ideal_from_quadints, is_primitive, is_principal,
                     is_superprimitive, v_closure)
from .kpoly import KElem, KPoly, factor_k, factor_q, poly_gcd, sqrt_in_field
from .qint import (QuadInt, RingCfg, canonical_associate, conj,
                   elements_of_norm, is_irreducible, is_prime, norm, ring,
                   try_div, units)
from .rpoly import (GroupingCertificate, RPoly, factorizations_rx,
                    is_irreducible_rx, lambda_candidates, property_p_witness)
from .extring import (D2WitnessReport, ExtElem, d1_classify,
                      d1_factorizations, d2_is_irreducible, d2_witness_verify)

__version__ = "0.1.0"

__all__ = [
    "DomainError", "ParseError", "ResourceLimitError", "VerificationError",
    "QuadInt", "RingCfg", "ring", "norm", "conj", "try_div", "units",
    "canonical_associate", "elements_of_norm", "is_irreducible", "is_prime",
    "KElem", "KPoly", "poly_gcd", "factor_q", "factor_k", "sqrt_in_field",
    "FracIdeal", "ideal_from_gens", "ideal_from_quadints", "colon",
    "v_closure", "is_principal", "content_ideal", "is_primitive",
    "is_superprimitive", "gcd_v", "gauss_product_check", "gamma_check",
    "FactorizationSet", "factorizations",
    "RPoly", "GroupingCertificate", "lambda_candidates",
    "is_irreducible_rx", "factorizations_rx", "property_p_witness",
    "ExtElem", "D2WitnessReport", "d1_classify", "d1_factorizations",
    "d2_is_irreducible", "d2_witness_verify",
    "__version__",
]
