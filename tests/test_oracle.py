import pytest

from ecriesel.ecring import INFINITY, Point
from ecriesel.numtheory import jacobi
from ecriesel.oracle import (
    CYCLIC,
    PRODUCT_OF_TWO,
    GroupStructure,
    enumerate_points,
    group_structure,
    point_order,
    verify_theorems,
)


class TestEnumeratePoints:
    def test_seven_with_nonresidue_m(self):
        pts = enumerate_points(7, 3)
        assert pts == [
            INFINITY,
            Point(0, 0),
            Point(2, 3),
            Point(2, 4),
            Point(3, 2),
            Point(3, 5),
            Point(6, 3),
            Point(6, 4),
        ]

    def test_seven_with_residue_m(self):
        pts = enumerate_points(7, 2)
        torsion_x = sorted(pt.x for pt in pts if not pt.is_infinity and pt.y == 0)
        assert torsion_x == [0, 3, 4]
        assert len(pts) == 8

    def test_cardinality_is_p_plus_one_for_every_m(self):
        for m in range(1, 7):
            assert len(enumerate_points(7, m)) == 8

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            enumerate_points(13, 2)  # 13 = 1 (mod 4)
        with pytest.raises(ValueError):
            enumerate_points(10**6 + 3, 2)  # beyond the enumeration limit
        with pytest.raises(ValueError):
            enumerate_points(15, 2)  # not prime
        with pytest.raises(ValueError):
            enumerate_points(7, 7)  # m = 0


class TestPointOrder:
    def test_examples(self):
        assert point_order(7, 3, Point(6, 3)) == 8
        assert point_order(7, 3, Point(0, 0)) == 2
        assert point_order(7, 3, INFINITY) == 1

    def test_rejects_off_curve_point(self):
        with pytest.raises(ValueError):
            point_order(7, 3, Point(1, 1))

    def test_orders_divide_group_order(self):
        for m in (1, 2, 3, 5):
            for pt in enumerate_points(23, m):
                assert 24 % point_order(23, m, pt) == 0


class TestGroupStructure:
    def test_cyclic_example(self):
        s = group_structure(7, 3)
        assert s == GroupStructure(CYCLIC, (8,))
        assert jacobi(3, 7) == -1
        assert s.total_order == 8

    def test_product_example(self):
        s = group_structure(7, 2)
        assert s == GroupStructure(PRODUCT_OF_TWO, (2, 4))
        assert jacobi(2, 7) == 1
        assert s.total_order == 8

    def test_larger_cyclic_example(self):
        assert group_structure(23, 5) == GroupStructure(CYCLIC, (24,))
        assert jacobi(5, 23) == -1

    def test_residue_symbol_decides_kind(self):
        for p in (3, 7, 11, 19, 23, 31):
            for m in range(1, p):
                s = group_structure(p, m)
                expected = CYCLIC if jacobi(m, p) == -1 else PRODUCT_OF_TWO
                assert s.kind == expected
                assert s.total_order == p + 1


class TestVerifyTheorems:
    def test_no_violations_to_100(self):
        report = verify_theorems(100)
        assert report["violations"] == []
        assert report["curves_checked"] > 0
        assert report["cyclic_curves"] > 0 and report["split_curves"] > 0

    def test_no_violations_to_500(self):
        report = verify_theorems(500)
        assert report["violations"] == []
        assert report["nonresidue_points_checked"] > 0

    def test_curve_count_at_seven(self):
        # p = 3 contributes m in {1, 2}, p = 7 contributes m in 1..6
        report = verify_theorems(7)
        assert report["primes_checked"] == 2
        assert report["curves_checked"] == 8

    def test_rejects_p_max_beyond_limit(self):
        with pytest.raises(ValueError):
            verify_theorems(10**6)

    def test_sampling_is_deterministic(self):
        a = verify_theorems(300)
        b = verify_theorems(300)
        assert a == b
        assert a["violations"] == []

    def test_report_to_1000(self):
        # the sample draws random.Random(p) for each prime p >= 200, the
        # stream the former default seed 0 drew (Random(0 * 1_000_003 + p)),
        # so the report is that seed's, with no seed key
        assert verify_theorems(1000) == {
            "p_max": 1000,
            "full_sweep_below": 200,
            "sampled_m_per_prime": 5,
            "primes_checked": 87,
            "curves_checked": 2491,
            "cyclic_curves": 1277,
            "split_curves": 1214,
            "nonresidue_points_checked": 129104,
            "violations": [],
        }
