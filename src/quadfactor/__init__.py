"""Exact factorization arithmetic in imaginary quadratic orders Z[w],
their polynomial rings, and the pinched rings between R[x] and K[x].

A public name imports its layer module on first use (PEP 562), so
`import quadfactor` alone loads none of them."""

import importlib

__version__ = "0.1.0"

# layer module -> the public names it defines
_EXPORTS = {
    "errors": ("DomainError", "ParseError", "ResourceLimitError",
               "VerificationError"),
    "qint": ("KElem", "RingCfg", "ring", "norm", "conj", "try_div", "units",
             "canonical_associate", "elements_of_norm", "is_irreducible",
             "is_prime"),
    "kpoly": ("KPoly", "poly_gcd", "factor_q", "factor_k", "sqrt_in_field"),
    "ideals": ("FracIdeal", "ideal_from_gens", "colon", "v_closure",
               "is_principal", "content_ideal", "is_primitive",
               "is_superprimitive", "gcd_v", "gauss_product_check",
               "gamma_check"),
    "factor": ("FactorizationSet", "factorizations"),
    "rpoly": ("GroupingCertificate", "lambda_candidates",
              "is_irreducible_rx", "factorizations_rx", "property_p_witness"),
    "extring": ("ExtElem", "D2WitnessReport", "d1_classify",
                "d1_factorizations", "d2_is_irreducible", "d2_witness_verify"),
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    mod = _HOME.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{mod}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value
