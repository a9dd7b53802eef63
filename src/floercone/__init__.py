"""floercone: exact surgery mapping-cone computations over GF(2)[U]."""

from .algebra import (
    FilteredComplex,
    Generator,
    GradedRanks,
    ReducedForm,
    check_complex,
    homology,
    reduce,
)
from .cone import MappingCone, include_B
from .contact import (
    DgsExpansion,
    LegendrianData,
    distinctness_pipeline,
    negative_expansion,
    positive_expansion,
)
from .dual import DualCone, build_dual_cone, distinct_classes, g_map, loss_grading, normal_form
from .models import (
    box,
    dual_normal_form_model,
    euler_characteristic,
    flip,
    hat_knot_homology,
    minus_twist_knot,
    mirror,
    staircase,
    unknot,
)

__version__ = "0.1.0"

__all__ = [
    "FilteredComplex", "Generator", "GradedRanks", "ReducedForm",
    "check_complex", "homology", "reduce",
    "MappingCone", "include_B",
    "DgsExpansion", "LegendrianData", "distinctness_pipeline",
    "negative_expansion", "positive_expansion",
    "DualCone", "build_dual_cone", "distinct_classes", "g_map",
    "loss_grading", "normal_form",
    "box", "dual_normal_form_model", "euler_characteristic",
    "flip", "hat_knot_homology", "minus_twist_knot", "mirror",
    "staircase", "unknot",
]
