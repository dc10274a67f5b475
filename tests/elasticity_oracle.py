"""The elasticity of a ring over a finite norm range, kept only as a
test oracle until the ring elasticity gets a home in the package."""

from fractions import Fraction

from quadfactor.errors import DomainError
from quadfactor.factor import factorizations
from quadfactor.qint import RingCfg, elements_of_norm


def ring_elasticity_lower_bound(cfg: RingCfg,
                                norm_bound: int) -> Fraction | None:
    """max elasticity over all elements with 2 <= norm <= bound, or None
    when no element has a norm in that range.

    This is a lower bound for the elasticity of the ring: the supremum
    over all elements need not be attained in any finite norm range."""
    if norm_bound < 2:
        raise DomainError("norm bound must be at least 2")
    return max((factorizations(x).elasticity()
                for n in range(2, norm_bound + 1)
                for x in elements_of_norm(n, cfg)), default=None)
