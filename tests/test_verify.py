import json
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hecke5 import cli
from hecke5 import quotient as quotient_mod
from hecke5 import verify as verify_mod
from hecke5.golden import GoldenInt, ONE
from hecke5.ideals import ideal_from_generator
from hecke5.matrices import S, T, is_member
from hecke5.quotient import CapExceededError, ResMat, _unpack, semigroup_closure
from hecke5.verify import (
    ACTION_MATRICES,
    DET1_VARIANT,
    LEVEL2_GENERATORS,
    LINES,
    SAMPLE_MATRICES,
    T_ACTION_VARIANT,
    VerificationReport,
    _delta_matrices,
    _image,
    _invariant_sizes,
    elementary_abelian,
    kernel_layer_generators,
    verify_conjugation_action,
    verify_identities,
    verify_kernel_layer,
    verify_level5_structure,
)

from conftest import witness


class TestReportStructure:
    def test_add_records_mismatch(self):
        r = VerificationReport("demo")
        r.add("x", 1, 1)
        r.add("y", 2, 3)
        assert not r.passed
        w = witness(r)
        assert w is not None and w.name == "y"
        assert (w.computed, w.expected) == ("2", "3")

    def test_add_bool(self):
        r = VerificationReport("demo")
        r.add_bool("ok", True)
        assert r.passed and witness(r) is None

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
        assert report.passed, witness(report)

    def test_check_names_and_counts(self):
        report = verify_kernel_layer(2, 1)
        names = [c.name for c in report.checks]
        assert "order" in names and "generators-commute" in names
        assert len(names) == 6

    def test_check_names_in_order(self):
        assert [c.name for c in verify_kernel_layer(3, 1).checks] == [
            "order",
            "generators-commute",
            "every-element-has-order-dividing-p",
            "unipotent-part-order",
            "diagonal-part-order",
            "parts-intersection",
        ]

    def test_cap_too_small(self):
        with pytest.raises(CapExceededError) as exc:
            verify_kernel_layer(7, 1, cap=1000)
        assert (exc.value.cap, exc.value.partial) == (1000, 1001)

    def test_cap_bounds_each_part(self):
        # the larger part, M, has p^4 = 2401 elements; the chain's orbit
        # of e1 has as many points, and the p^6 elements are never listed
        assert verify_kernel_layer(7, 1, cap=2401).passed
        with pytest.raises(CapExceededError) as exc:
            verify_kernel_layer(7, 1, cap=2400)
        assert (exc.value.cap, exc.value.partial) == (2400, 2401)

    def test_lists_no_more_than_the_larger_part(self, monkeypatch):
        # no listing, and no chain walks more orbit points than M's p^4
        sizes = []

        def recorded(routine):
            def listing(*args, **kwargs):
                group = routine(*args, **kwargs)
                sizes.append(len(group))
                return group

            return listing

        _patch_listing(monkeypatch, recorded)
        orbits, _, _ = _record_chains(monkeypatch)
        assert verify_kernel_layer(7, 1).passed
        assert sizes == []
        assert orbits and max(orbits) <= 2401

    def test_lists_only_the_diagonal_part(self, monkeypatch):
        # M and the whole group are counted; only N, p^2 = 49 elements, is
        # walked element by element, by its chain
        _patch_listing(monkeypatch, lambda routine: _raise_on_listing("kernel-layers"))
        _, yielded, _ = _record_chains(monkeypatch)
        assert verify_kernel_layer(7, 1).passed
        assert yielded == [49]

    def test_builds_two_chains_and_extends_one(self, monkeypatch):
        # M and N from scratch; the whole group is M's chain extended by
        # N's generators, three walks in all, the last to the p^6 group's
        # orbit of p^4 points
        orbits, _, built = _record_chains(monkeypatch)
        assert verify_kernel_layer(7, 1).passed
        assert len(built) == 2
        assert len(orbits) == 3 and orbits[-1] == 2401


def _patch_listing(monkeypatch, wrap) -> None:
    """Replace `build_quotient` and `semigroup_closure`, wherever a hecke5
    module binds them, by `wrap(routine)`."""
    listing_routines = (quotient_mod.build_quotient, quotient_mod.semigroup_closure)
    bound = [
        (module, name, value)
        for module_name, module in list(sys.modules.items())
        if module_name == "hecke5" or module_name.startswith("hecke5.")
        for name, value in vars(module).items()
        if any(value is routine for routine in listing_routines)
    ]
    assert {name for _, name, _ in bound} == {"build_quotient", "semigroup_closure"}
    for module, name, value in bound:
        monkeypatch.setattr(module, name, wrap(value))


def _raise_on_listing(target: str):
    def listing(*args, **kwargs):
        raise AssertionError(f"verify {target} listed a group")

    return listing


def _record_chains(monkeypatch) -> tuple[list[int], list[int], list[int]]:
    """Make `verify` and `quotient` build recording chains; returns the
    orbit points after each walk (the one a chain built from scratch
    makes, and each extension), the elements each full iteration
    yielded, and the orbit points of each chain built from scratch."""
    orbits, yielded, built = [], [], []

    class RecordedChain(quotient_mod.Chain):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.orbit)

        def extend(self, gen_keys):
            super().extend(gen_keys)
            orbits.append(self.orbit)

        def __iter__(self):
            count = 0
            for key in super().__iter__():
                count += 1
                yield key
            yielded.append(count)

    monkeypatch.setattr(verify_mod, "Chain", RecordedChain)
    monkeypatch.setattr(quotient_mod, "Chain", RecordedChain)
    return orbits, yielded, built


class TestElementaryAbelian:
    def test_commuting_is_required(self):
        # S and T each square to I mod (2), but they generate a group of
        # order 10 whose other elements include some of order 5
        level = ideal_from_generator(2)
        keys = [ResMat.from_mat2(level, m).key for m in (S, T)]
        identity = ResMat.identity(level)
        group = semigroup_closure(level, keys)
        assert all(ResMat(level, k) ** 2 == identity for k in keys)
        assert len(group) == 10
        assert any(ResMat(level, _unpack(level, g)) ** 2 != identity for g in group)
        assert not elementary_abelian(level, keys, 2)

    @pytest.mark.parametrize("p,n", [(2, 1), (3, 1)])
    def test_agrees_with_a_scan_of_every_element(self, p, n):
        level, gen_keys = kernel_layer_generators(p, n)
        identity = ResMat.identity(level)
        group = semigroup_closure(level, gen_keys)
        scan = all(ResMat(level, _unpack(level, g)) ** p == identity for g in group)
        assert elementary_abelian(level, gen_keys, p) == scan
        assert scan and len(group) == p**6


class TestConjugationAction:
    def test_passes(self):
        report = verify_conjugation_action()
        assert report.passed, witness(report)

    def test_subspace_counts_reported(self):
        report = verify_conjugation_action()
        by_name = {c.name: c for c in report.checks}
        assert by_name["subspace-count"].computed == "64"
        assert by_name["invariant-subspaces"].computed == "2"
        assert by_name["invariant-subspaces-under-variant"].computed == "2"
        assert by_name["T-action-differs-from-s-inverse-variant"].passed


VECTORS = [(x, y, z) for x in range(5) for y in range(5) for z in range(5)]


def filtered_subspaces() -> set[frozenset]:
    """The 64 subspaces of F_5^3 as sets of vectors: each line from its
    vector, each plane by filtering all 125 vectors for those orthogonal
    to it."""
    subspaces = {frozenset([(0, 0, 0)]), frozenset(VECTORS)}
    for v in VECTORS:
        if next((x for x in v if x), 0) != 1:
            continue
        subspaces.add(frozenset(tuple(c * x % 5 for x in v) for c in range(5)))
        subspaces.add(frozenset(w for w in VECTORS if sum(a * b for a, b in zip(v, w)) % 5 == 0))
    return subspaces


def invariant_on_every_vector(subspace, actions) -> bool:
    """The reference: every vector of the subspace, not a basis, tested."""
    return all(_image(v, m) in subspace for m in actions for v in subspace)


class TestInvariantSizes:
    """`verify_conjugation_action` tests each line <v> and plane v^perp on
    the vector v of `LINES` alone, against the actions and their transposes."""

    def test_lines_and_their_duals_are_the_filtered_subspaces(self):
        lines = {frozenset(tuple(c * x % 5 for x in v) for c in range(5)) for v in LINES}
        planes = {frozenset(w for w in VECTORS if sum(a * b for a, b in zip(v, w)) % 5 == 0) for v in LINES}
        subspaces = {frozenset([(0, 0, 0)]), frozenset(VECTORS)} | lines | planes
        assert len(LINES) == 31
        assert len(subspaces) == 2 + 2 * len(LINES) == 64
        assert subspaces == filtered_subspaces()

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(*[st.tuples(*[st.integers(0, 4)] * 3)] * 3), min_size=1, max_size=3
        )
    )
    # two upper-triangular actions that keep 2 lines but 6 planes: a plane
    # tested against the actions, not their transposes, gives 2 planes
    @example([((1, 0, 0), (0, 2, 0), (0, 0, 1)), ((1, 4, 0), (0, 2, 0), (0, 0, 1))])
    def test_same_sizes_as_every_vector_of_every_subspace(self, actions):
        by_vector = [len(sp) for sp in filtered_subspaces() if invariant_on_every_vector(sp, actions)]
        assert _invariant_sizes(actions) == sorted(by_vector), actions

    @pytest.mark.parametrize("variant", [False, True])
    def test_the_verifier_actions(self, variant):
        actions = [ACTION_MATRICES[g] for g in "STJ"]
        if variant:
            actions[1] = T_ACTION_VARIANT
        by_vector = [len(sp) for sp in filtered_subspaces() if invariant_on_every_vector(sp, actions)]
        assert _invariant_sizes(actions) == sorted(by_vector) == [1, 125]


class TestLevel5Structure:
    def test_passes(self):
        report = verify_level5_structure()
        assert report.passed, witness(report)

    def test_key_quantities(self):
        report = verify_level5_structure()
        by_name = {c.name: c for c in report.checks}
        assert by_name["quotient-order"].computed == "15000"
        assert by_name["delta-subgroup-order"].computed == "125"
        assert by_name["quotient-by-delta"].computed == "120"
        assert by_name["fifth-power-subgroup-index"].computed == "1"

    def test_an_index_that_is_no_integer_fails_the_check(self, monkeypatch, capsys):
        # a fifth-power span of order 14,999: it does not divide 15,000,
        # so the index is a fraction, which fails its check as the witness,
        # and the CLI reports a failed verification, not a usage error
        power_subgroup = verify_mod.power_subgroup

        def one_short(group, k):
            span = power_subgroup(group, k)
            span.order -= 1
            return span

        monkeypatch.setattr(verify_mod, "power_subgroup", one_short)
        w = witness(verify_level5_structure())
        assert w is not None
        assert (w.name, w.computed, w.expected) == (
            "fifth-power-subgroup-index",
            "15000/14999",
            "1",
        )
        assert cli.main(["verify", "level5"]) == 1
        out = capsys.readouterr().out
        assert "FAIL fifth-power-subgroup-index: computed 15000/14999, expected 1" in out


    def test_a_delta_outside_the_quotient_fails_the_check(self, monkeypatch, capsys):
        # a first delta of determinant -L sifts out: the report stops at
        # that check, and the CLI reports a failed verification, exit 1
        a, b, c = _delta_matrices()
        monkeypatch.setattr(verify_mod, "_delta_matrices", lambda: (SAMPLE_MATRICES[2], b, c))
        report = verify_level5_structure()
        assert [(c.name, c.passed) for c in report.checks] == [
            ("quotient-order", True),
            ("delta-in-quotient", False),
        ]
        assert cli.main(["verify", "level5"]) == 1
        out = capsys.readouterr().out
        assert "FAIL delta-in-quotient: computed False, expected True" in out
        # under --json the same failure is one document, and still exit 1
        assert cli.main(["verify", "level5", "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert (doc["schema"], doc["passed"]) == ("hecke5/v1/verify", False)

    def test_power_subgroup_builds_one_chain(self, monkeypatch):
        # the span starts from no generator and is extended by each power
        # that does not sift into it: one chain, a walk per power
        group = quotient_mod.Chain(ideal_from_generator(5))
        orbits, _, built = _record_chains(monkeypatch)
        fifth = quotient_mod.power_subgroup(group, 5)
        assert fifth.order == group.order
        assert built == [1]
        assert len(orbits) == 1 + len(fifth.gen_keys)


class TestIdentities:
    def test_passes(self):
        report = verify_identities()
        assert report.passed, witness(report)

    def test_a_generator_outside_the_quotient_fails_the_order_check(self, monkeypatch, capsys):
        # a level-(2) generator replaced by one of determinant -L: its
        # image mod (4) sifts out of the quotient, which fails the order
        # check, and the CLI reports a failed verification, exit 1
        generators = (SAMPLE_MATRICES[2], *LEVEL2_GENERATORS[1:])
        monkeypatch.setattr(verify_mod, "LEVEL2_GENERATORS", generators)
        by_name = {c.name: c for c in verify_identities().checks}
        order = by_name["level2-generators-mod4-order"]
        assert not order.passed and order.computed.endswith("not in the quotient")
        assert cli.main(["verify", "identities"]) == 1
        out = capsys.readouterr().out
        assert "FAIL level2-generators-mod4-order: computed generator (" in out

    def test_every_check_has_distinct_name(self):
        report = verify_identities()
        names = [c.name for c in report.checks]
        assert len(names) == len(set(names))


@pytest.mark.parametrize("target", list(verify_mod.VERIFIERS))
def test_lists_no_group(monkeypatch, target):
    # every order, index and membership of `verify` comes from a chain:
    # the listing routines raise wherever a hecke5 module binds them
    _patch_listing(monkeypatch, lambda routine: _raise_on_listing(target))
    reports = verify_mod.VERIFIERS[target](verify_mod.DEFAULT_CAP)
    assert reports and all(r.passed for r in reports), [witness(r) for r in reports]


def test_verify_all_passes():
    # `verify all` runs every target in the table's order
    reports = [r for run in verify_mod.VERIFIERS.values() for r in run(verify_mod.DEFAULT_CAP)]
    assert len(reports) == 8
    for r in reports:
        assert r.passed, (r.name, witness(r))
