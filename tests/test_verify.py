import pytest

from hecke5.golden import GoldenInt, ONE
from hecke5.matrices import is_member
from hecke5.quotient import CapExceededError
from hecke5.verify import (
    DET1_VARIANT,
    LEVEL2_GENERATORS,
    SAMPLE_MATRICES,
    VerificationReport,
    _delta_matrices,
    verify_all,
    verify_conjugation_action,
    verify_identities,
    verify_kernel_layer,
    verify_level5_structure,
)


class TestReportStructure:
    def test_add_records_mismatch(self):
        r = VerificationReport("demo")
        r.add("x", 1, 1)
        r.add("y", 2, 3)
        assert not r.passed
        w = r.witness()
        assert w is not None and w.name == "y"
        assert (w.computed, w.expected) == ("2", "3")

    def test_add_bool(self):
        r = VerificationReport("demo")
        r.add_bool("ok", True)
        assert r.passed and r.witness() is None

    def test_empty_report_passes(self):
        assert VerificationReport("empty").passed


class TestFixedData:
    def test_level2_generators_are_members(self):
        for m in LEVEL2_GENERATORS:
            assert m.det() == ONE
            assert is_member(m)

    def test_sample_dets(self):
        dets = [m.det() for m in SAMPLE_MATRICES]
        assert dets[0] == ONE and dets[1] == ONE and dets[3] == ONE
        assert dets[2] == GoldenInt(0, -1)
        assert DET1_VARIANT.det() == ONE

    def test_delta_matrices_are_members(self):
        for m in _delta_matrices():
            assert is_member(m)


class TestKernelLayer:
    @pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1), (5, 1)])
    def test_passes(self, p, n):
        report = verify_kernel_layer(p, n)
        assert report.passed, report.witness()

    def test_check_names_and_counts(self):
        report = verify_kernel_layer(2, 1)
        names = [c.name for c in report.checks]
        assert "order" in names and "generators-commute" in names
        assert len(names) == 6

    def test_cap_too_small(self):
        with pytest.raises(CapExceededError) as exc:
            verify_kernel_layer(7, 1, cap=1000)
        assert (exc.value.cap, exc.value.partial) == (1000, 1001)


class TestConjugationAction:
    def test_passes(self):
        report = verify_conjugation_action()
        assert report.passed, report.witness()

    def test_subspace_counts_reported(self):
        report = verify_conjugation_action()
        by_name = {c.name: c for c in report.checks}
        assert by_name["subspace-count"].computed == "64"
        assert by_name["invariant-subspaces"].computed == "2"
        assert by_name["invariant-subspaces-under-variant"].computed == "2"
        assert by_name["T-action-differs-from-s-inverse-variant"].passed


class TestLevel5Structure:
    def test_passes(self):
        report = verify_level5_structure()
        assert report.passed, report.witness()

    def test_key_quantities(self):
        report = verify_level5_structure()
        by_name = {c.name: c for c in report.checks}
        assert by_name["quotient-order"].computed == "15000"
        assert by_name["delta-subgroup-order"].computed == "125"
        assert by_name["quotient-by-delta"].computed == "120"
        assert by_name["fifth-power-subgroup-index"].computed == "1"


class TestIdentities:
    def test_passes(self):
        report = verify_identities()
        assert report.passed, report.witness()

    def test_every_check_has_distinct_name(self):
        report = verify_identities()
        names = [c.name for c in report.checks]
        assert len(names) == len(set(names))


def test_verify_all_passes():
    reports = verify_all()
    assert len(reports) == 8
    for r in reports:
        assert r.passed, (r.name, r.witness())
