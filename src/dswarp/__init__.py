"""dswarp: warped-convolution deformations of finite-mode CAR field nets.

Exact quaternionic Spin(1,4) computations, de Sitter wedge geometry, finite
Jordan-Wigner Fock models with U(1) gauge symmetry, the charge-sector
deformation formula with an oscillatory-integral oracle, and theorem-level
verification suites.
"""

__version__ = "0.1.0"

from .car_fock import (MaskWord, OneParticleModel, boost_phases, charge_projector,
                       default_model, field_B, gauge_phases, quasifree_npoint, twist_phases,
                       wedge_subalgebra_basis)
from .deformation import covariance_transform, rieffel_word, warp_oscillatory
from .geometry import embed_point, extract_point, gamma, minkowski_form
from .quaternion import QuatMatrix2
from .spin_group import (SpinElement, abelian_flow, boost_base, boost_cover,
                         covering_hom, lie_bracket, reflection_base, reflection_cover,
                         reflection_obstruction_check)
from .verification import (CheckReport, causal_borchers_axioms, check_twisted_locality,
                           fixed_point_residual, inequivalence_witness)
from .wedges import Wedge, causal_complement, rigidity_witnesses, wedge_contains

__all__ = [
    "__version__",
    "QuatMatrix2",
    "minkowski_form", "gamma", "embed_point", "extract_point",
    "SpinElement", "covering_hom", "boost_cover", "boost_base",
    "reflection_base", "reflection_cover", "lie_bracket", "abelian_flow",
    "reflection_obstruction_check",
    "Wedge", "wedge_contains", "causal_complement", "rigidity_witnesses",
    "OneParticleModel", "MaskWord", "default_model", "field_B", "gauge_phases",
    "charge_projector", "boost_phases", "twist_phases", "quasifree_npoint",
    "wedge_subalgebra_basis",
    "warp_oscillatory", "rieffel_word",
    "covariance_transform",
    "CheckReport", "check_twisted_locality", "fixed_point_residual",
    "inequivalence_witness", "causal_borchers_axioms",
]
