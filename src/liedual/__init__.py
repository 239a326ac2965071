"""Exact computational toolkit for dual-group centralizers of the regular
nilpotent element, with loop-space Hilbert-series verification."""

from .rings import GF, QQ, ZZ, ring_from_name
from .root_datum import (FiniteAbelianGroup, RootDatum, RootDatumError,
                         load_datum, preset, preset_names)
from .chevalley import (ChevalleyBasis, LieElement, ad_kernel_dim, bracket,
                        build_chevalley, principal_e)
from .commalg import (BudgetExceeded, HilbertSeries, Ideal, PolyRing,
                      Polynomial, groebner_basis, hilbert_series,
                      ideal_dimension, normal_form, parse_polynomial)
from .intlinalg import invariant_factors, smith_normal_form
from .centralizer import (BadPrimeError, BorelCoordinates,
                          CentralizerPresentation, EquivariantElement,
                          brute_force_group_check, build_eT,
                          centralizer_ideal, compute_nG,
                          coproduct_on_generators, f_form,
                          present_centralizer, specialize_eT, truncated_dist)
from .loop_oracle import (basic_form, compare_report, omega_poincare,
                          pi0_order)

__version__ = "1.0.0"
