"""spherediv: deciding, certifying and constructing divisibility of spheres
under tuples of rotations.

A sphere is divisible by rotations g_1, ..., g_r when some subset has
translates under them partitioning the sphere.  This package computes exact
determinant certificates ruling out even fractional measurable divisions in
low harmonic degrees (near the identity, below an exact bound), classifies
circle tuples of any size, computes combinatorial obstructions for finite
rotation groups (Euler characteristic, finite orbits), and lifts circle
divisions to higher-dimensional spheres with randomized verification.
"""

__version__ = "0.1.0"

from .circle import Angle, ArcSet, CircleClassification, classify, \
    fractional_test, necessary_degrees, parse_angle, verify_arcset
from .errors import BudgetExceeded
from .gegenbauer import RationalPolynomial, evaluate, gegenbauer, \
    harmonic_dimension, normalized_moment, weighted_inner_product
from .obstruction import FractionalWitness, ObstructionReport, certify_degrees, \
    extract_witness, l_matrix, near_identity_certificate
from .points import RotationTuple, approximate_point, cayley_rotation, \
    circle_rotation_tuple, enumerate_points, exact_tuple, floating_tuple, \
    identity_tuple, validate_tuple, z_axis_rotation_tuple
from .tiling import TileInstance, TileSolution, closed_form_r4, \
    even_m_construction, is_tiling, normalize_r4, odd_m_construction, solve
from .zonal import ZonalBasis, build_zonal_basis, gram_matrix, zonal_evaluate
