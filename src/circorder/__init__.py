"""circorder: exact computation with circular orderings on groups.

Finite groups are multiplication tables with the identity at index 0; a
checked circular ordering of one is stored once, as its positions
pos: G -> Z/|G|, and read in two views: an arrangement and an inhomogeneous
cocycle.  The paper's homogeneous cocycle is an input, which `validate_hom`
checks and reads as the inhomogeneous view.  Central extensions, integral
second cohomology (via Smith normal form), obstruction spectra, and the
Promislow group round out the toolkit.  Everything is integer-exact.
"""

from .errors import AxiomError, BoundExceeded, CheckFailed, InvalidGroupError
from .groups import (FiniteGroup, GroupHom, closure, cyclic_group,
                     dihedral_group, direct_product, dump_group,
                     group_from_json, group_to_json, is_normal, is_subgroup,
                     load_group, quotient, subgroup_generated,
                     symmetric_group)
from .orders import (Arrangement, InhomCircularOrder, LeftOrderOracle,
                     arrangement_from_sequence, arrangement_to_inhom,
                     enumerate_circular_orders, lexicographic_circular_order,
                     ordering_from_json, ordering_to_json, standard_order_zn,
                     validate_hom, validate_inhom)
from .extensions import (CentralExtElement, CentralExtensionGroup, hat_ordering,
                         minimal_generator)
from .cohomology import (CohomologyClass, H2Structure, IntMatrix, SNFResult,
                         class_of, coboundary_matrices, coboundary_matrix,
                         h2_structure, is_n_divisible, is_trivial_mod_n,
                         smith_normal_form)
from .obstruction import (MAPPING_CLASS_GROUP_SPECTRUM, ObstructionSpectrum,
                          bico_product_decision, cyclic_quotient_stats,
                          exponent_facts, iterated_nonco_bound,
                          spectrum_finite, spectrum_torsion_part)
from .promislow import (GEN_A, GEN_B, IDENTITY, PROMISLOW_SPECTRUM,
                        abelianization_image, ball, evaluate_word,
                        kernel_is_positive, phi, prom_inv, prom_mul,
                        promislow_circular_order,
                        promislow_lexicographic_order)

__version__ = "0.1.0"
