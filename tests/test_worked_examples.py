"""Worked examples pinned one-to-one, beyond the module test files."""

import pytest

from floercone.algebra import check_complex, homology, reduce
from floercone.cone import MappingCone, include_B
from floercone.dual import build_dual_cone
from floercone.models import (
    dual_normal_form_model,
    flip,
    minus_twist_knot,
    staircase,
)

from oracles import cancel_pair, j_graded


class TestCancelPairOnNormalForm:
    def test_vertical_pair_cancels_keeping_homology(self):
        c = dual_normal_form_model(5)
        before = homology(j_graded(c), ("maslov",))
        rf = cancel_pair(c, "yv1", "xv1")
        assert len(rf.complex) == len(c) - 2
        assert check_complex(rf.complex).ok
        # the cancelled pair was acyclic at the unfiltered level
        assert homology(rf.complex, ("maslov",)) == homology(c, ("maslov",))

    def test_horizontal_pair_is_not_a_unit(self):
        with pytest.raises(ValueError, match="no unit"):
            cancel_pair(dual_normal_form_model(5), "yh1", "xh1")


class TestStaircaseDualConeReduction:
    def test_two_cancellations_reach_five_generators(self):
        # quotient the same-position pairs inside the B copy, then the one
        # reached by the diagonal edge out of the s=0 copy
        dc = build_dual_cone(flip(staircase()), 1)
        rf1 = cancel_pair(dc.complex, "B1.x", "B1.y")
        rf2 = cancel_pair(rf1.complex, "A0.x", "B1.z")
        assert sorted(g.name for g in rf2.complex.generators) == \
            ["A0.y", "A0.z", "A1.x", "A1.y", "A1.z"]
        assert check_complex(rf2.complex).ok


class TestHatEdgeCases:
    def test_empty_cone_is_empty(self):
        c = staircase()
        cone = MappingCone(flip(c), 1, 1, [], [])
        hat, table = cone.hat_complex()
        assert len(hat) == 0 and not table


class TestIncludeBExamples:
    def test_b_only_sector_gives_identity_matrix(self):
        model = dual_normal_form_model(5)
        cone = MappingCone.build(flip(model), -2, 1)
        rep = include_B(cone, -1)
        assert rep.isomorphism

    def test_report_on_minus_one_surgery_cone(self):
        c = minus_twist_knot(5)
        cone = MappingCone.build(flip(c), -1, 1)
        rep = include_B(cone, -1)
        assert rep.codomain_rank == cone.sector_homology(0).total_rank
        assert rep.map_rank <= min(rep.domain_rank, rep.codomain_rank)


class TestFullVsPaperOnTwistKnot:
    def test_plus_one_surgery_both_ranges(self):
        c = minus_twist_knot(5)
        full = MappingCone.build(flip(c), 1, 1, "full")
        paper = MappingCone.build(flip(c), 1, 1, "paper")
        for i in full.sectors:
            assert full.sector_homology(i) == paper.sector_homology(i)

    def test_unit_cancellation_keeps_module_homology(self):
        c = minus_twist_knot(5)
        rf = reduce(c, "over_U_units")
        assert homology(rf.complex, ("maslov",)) == homology(c, ("maslov",))
