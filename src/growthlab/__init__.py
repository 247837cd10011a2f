"""growthlab: exact desk-scale experiments on subgroup growth in free
groups and free products of finite cyclic groups.

The package verifies, at computable scale, when an infinite-index
quasi-convex subgroup grows strictly slower than the ambient group and
when its coset space grows at the full rate, together with the
projection geometry (constricting axes, buffering sequences, elementary
closures, coarse quotients) those statements rest on.
"""

from .balls import BallCounts, GrowthEstimate, ball, ball_elements, growth_rate
from .groups import (MarkedGroup, Word, all_geodesics, cyclic_reduce, distance,
                     geodesic, is_torsion, primitive_root)
from .axes import Axis, ProjectionMap
from .orbits import FiniteSubgroup, FreeSubgroup, SubgroupOrbit
from .schreier import SchreierAutomaton, schreier_growth
from .series import divergence_diagnostic, poincare_partial
from .stallings import CoreGraph, relative_growth, stallings_fold

__all__ = [
    "Axis", "BallCounts", "CoreGraph", "FiniteSubgroup",
    "FreeSubgroup", "GrowthEstimate", "MarkedGroup", "ProjectionMap",
    "SchreierAutomaton", "SubgroupOrbit", "Word", "all_geodesics",
    "ball", "ball_elements", "cyclic_reduce", "distance",
    "divergence_diagnostic", "geodesic", "growth_rate", "is_torsion",
    "poincare_partial", "primitive_root", "relative_growth",
    "schreier_growth", "stallings_fold",
]

__version__ = "0.1.0"
