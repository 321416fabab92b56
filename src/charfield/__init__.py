"""Exact-arithmetic character fields, Galois actions and power maps for
finite symplectic and special orthogonal groups, with brute-force matrix
oracles verifying the closed forms on small groups."""

from .char_fields import (CharacterField, character_field, is_real_series, predicted_fixed_count,
                          predicted_fixed_count_rank1)
from .errors import BudgetExceededError, InputError
from .galois_arith import (
    GaloisElement,
    PrimePowerAction,
    galois_from_prime_power,
    gauss_sqrt_sign,
    gauss_sum_exact,
    is_square_in_fq,
    legendre,
    signed_prime,
    sqrt_p_sign,
)
from .groups import Family, GroupSpec
from .hc_action import (
    ComplementSign,
    extension_sign,
    index_sqrt_sign,
    index_sqrt_sign_h,
    series_permutation,
    series_twist_sign,
    series_twist_sign_h,
)
from .partitions import EpsPartition, Partition, component_orders, eps_partitions, eps_stats
from .power_maps import rationality_criterion, unipotent_rational
from .semisimple import (
    CyclotomicSubfield,
    EigenvalueOrbit,
    SemisimpleClass,
    class_from_dict,
    enumerate_classes,
    galois_stabilizer,
    has_central_twist_automorphism,
    in_spinor_kernel,
    involution_class,
    order_of,
    sigma_image,
)
from .symbols import Symbol, cuspidal_multiplicity, special_symbol, wavefront_partition
from .weyl_b import (
    RelativeWeylGroup,
    SeriesDescriptor,
    SignedPerm,
    generator,
    length,
    relative_weyl,
    special_element,
)

__all__ = [name for name in dir() if not name.startswith("_")]
