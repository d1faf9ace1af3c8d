"""Edge contraction for quivers with loops and multiple edges, at every
level: generalized Cartan data, graphs with admissible automorphisms, root
data and Weyl groups, representation spaces over finite fields, and Hall
algebras with exact Q(sqrt q) coefficients."""

from .cartan import (CartanDatum, ContractionPair, RootDatum, WeylElement,
                     build_root_datum, check_psi_identity, contract_cartan,
                     generalized_reflection, realize_graph, reflection,
                     validate_cartan, validate_pair, weyl_word_search)
from .ffalg import (EnumerationBoundError, Field, Mat, Subspace,
                    UnsupportedFieldError, enumerate_gl, enumerate_subspaces,
                    gaussian_binomial, gl_order)
from .hall import (HallContext, HallElement, HeartContext, TensorElement,
                   char_function, circ, comult_compat, coproduct,
                   diagram_star_oracle, j_shriek, j_star, m_omega,
                   m_star_omega, mu_lower_star, mu_star, psi, res, star,
                   tensor, tensor_mult, verify_bialgebra,
                   verify_embedding, verify_ideal, verify_pbw, verify_ses,
                   zero_element)
from .quiver import (Automorphism, ContractedQuiver, Edge, OrbitPair, Quiver,
                     cartan_contraction_commutes, cartan_of, check_admissible,
                     check_contraction_assumptions, contract_quiver,
                     identity_automorphism, make_orbit_pair, vertex_orbits)
from .repspace import (OrbitTable, RepSpace, contract_point, enumerate_points,
                       extension_count, extensions_over, fiber_of_contraction,
                       is_heart, is_stable, orbits, quotient_point,
                       stable_subspaces, sub_point)
from .scalars import SqrtQScalar

__version__ = "0.1.0"
