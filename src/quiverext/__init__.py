"""Exact homological algebra for finite-dimensional quiver algebras.

The package verifies, with exact arithmetic over the rationals or a prime
field, the homological hypotheses under which a ring extension B <= A of
finite-dimensional algebras induces singular equivalences, and computes
the invariants (Tor, Ext, projective dimensions, Hochschild homology,
Gorenstein data) needed to cross-check the numerical consequences.

All values are immutable after construction and all operations are pure,
so everything here is safe to share across threads for reading.
"""

__version__ = "0.1.0"

from .linalg import (GF, QQ, EchelonSpan, field_from_spec, quotient,
                     sparse_rank)
from .algebra import (Algebra, opposite, product_algebra, scalar_algebra,
                      tensor_algebra, verify_algebra_isomorphism)
from .quiver import QuiverPresentation, algebra_from_presentation
from .modules import (Bimodule, Module, ModuleMap, direct_sum, dual_module,
                      hom_space, is_isomorphic, left_regular_module,
                      projective_bimodule, projective_indecomposables,
                      right_regular_module, simple_modules, tensor_over,
                      tensor_powers, zero_module)
from .resolutions import (ChainComplex, PdVerdict, Resolution, ext,
                          is_projective, minimal_resolution, projective_cover,
                          projective_dimension, syzygy, tor)
from .invariants import (global_dimension, gorenstein_verdict,
                         hochschild_homology, injective_dimension_regular,
                         perp_membership)
from .extensions import (CheckConfig, ExtensionPresentation, HypothesisReport,
                         check_bimodule_pd, check_derived_tor_families,
                         check_extension, check_nilpotency, check_split,
                         check_tor_vanishing, crosscheck_consequences,
                         morita_ring_zero, projectivity_transport_check,
                         quotient_bimodule, relative_bar_complex,
                         subalgebra_extension, triangular_matrix_algebra,
                         trivial_extension)
from .verdicts import Verdict

__all__ = [name for name in dir() if not name.startswith("_")]
