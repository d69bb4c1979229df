"""Ground-truth semantics layer: operations, enumeration, invariants."""

from __future__ import annotations

import pytest
from hypothesis import given

from pargue import (
    ArgumentationFramework,
    CapacityError,
    InputError,
    ProbabilisticGraph,
    Semantics,
    attackers,
    extensions,
    prob_c,
    subgraph,
)
from pargue.af import _attacked_by, _characteristic_mask, _extension_masks

from conftest import frameworks

ALL_SEMANTICS = list(Semantics)


def sets(groups):
    return {tuple(sorted(g)) for g in groups}


class TestConstruction:
    def test_arguments_sorted_and_deduped(self):
        af = ArgumentationFramework(["d", "b", "b", "a"])
        assert af.arguments == ("a", "b", "d")

    def test_equal_regardless_of_order(self):
        one = ArgumentationFramework(["a", "b"], [("a", "b")])
        two = ArgumentationFramework(["b", "a"], {("a", "b")})
        assert one == two and hash(one) == hash(two)

    def test_bad_id_rejected(self):
        with pytest.raises(InputError):
            ArgumentationFramework(["a b"])
        with pytest.raises(InputError):
            ArgumentationFramework(["a-1"])

    def test_undeclared_attack_endpoint_rejected(self):
        with pytest.raises(InputError):
            ArgumentationFramework(["a"], [("a", "z")])

    def test_membership(self):
        af = ArgumentationFramework(["a", "b"])
        assert "a" in af and "z" not in af


class TestOperations:
    def test_attackers(self, example_af):
        assert attackers(example_af, "c") == {"a", "b"}
        assert attackers(example_af, "a") == frozenset()
        assert attackers(example_af, "d") == {"c"}

    def test_attacked(self, example_af):
        full, mask = example_af._full_mask, example_af._mask
        assert _attacked_by(example_af, full, mask({"a", "b"})) == mask({"c"})
        assert _attacked_by(example_af, full, mask({"c"})) == mask({"d"})
        assert _attacked_by(example_af, full, 0) == 0
        # Inside a universe, attacks on arguments outside it are dropped.
        assert _attacked_by(example_af, mask({"a", "b", "d"}), mask({"c"})) == mask({"d"})
        assert _attacked_by(example_af, mask({"a", "b"}), mask({"c"})) == 0

    def test_unknown_argument_rejected(self, example_af):
        with pytest.raises(InputError):
            attackers(example_af, "z")
        with pytest.raises(InputError):
            subgraph(example_af, {"a", "z"})

    def test_conflict_free(self, example_af):
        def conflict_free(group):
            mask = example_af._mask(group)
            return _attacked_by(example_af, example_af._full_mask, mask) & mask == 0

        assert conflict_free({"a", "b", "d"})
        assert not conflict_free({"a", "c"})
        assert not conflict_free({"c", "d"})
        assert conflict_free(set())

    def test_self_attack_not_conflict_free(self):
        af = ArgumentationFramework(["a"], [("a", "a")])
        assert _attacked_by(af, af._full_mask, 0b1) & 0b1
        assert sets(extensions(af, Semantics.CF)) == {()}

    def test_characteristic(self, example_af):
        full, mask = example_af._full_mask, example_af._mask
        assert _characteristic_mask(example_af, full, 0) == mask({"a", "b"})
        assert _characteristic_mask(example_af, full, mask({"a"})) == mask({"a", "b", "d"})
        abd = mask({"a", "b", "d"})
        assert _characteristic_mask(example_af, full, abd) == abd


class TestExtensions:
    def test_admissible_worked_example(self, example_af):
        assert sets(extensions(example_af, Semantics.AD)) == {
            (),
            ("a",),
            ("b",),
            ("a", "b"),
            ("a", "d"),
            ("b", "d"),
            ("a", "b", "d"),
        }

    def test_single_extension_semantics(self, example_af):
        for semantics in (Semantics.GR, Semantics.ST, Semantics.PR):
            assert sets(extensions(example_af, semantics)) == {("a", "b", "d")}

    def test_conflict_free_count(self, example_af):
        # 8 subsets of {a,b,d} plus {c} itself
        assert len(extensions(example_af, Semantics.CF)) == 9

    def test_chain_grounded(self, chain_af):
        assert sets(extensions(chain_af, Semantics.GR)) == {("a", "c")}
        assert sets(extensions(chain_af, Semantics.PR)) == {("a", "c")}

    def test_self_attacker_has_no_stable_extension(self):
        af = ArgumentationFramework(["a"], [("a", "a")])
        assert extensions(af, Semantics.ST) == ()
        assert sets(extensions(af, Semantics.GR)) == {()}

    def test_even_cycle(self):
        af = ArgumentationFramework(["a", "b"], [("a", "b"), ("b", "a")])
        assert sets(extensions(af, Semantics.PR)) == {("a",), ("b",)}
        assert sets(extensions(af, Semantics.GR)) == {()}
        assert sets(extensions(af, Semantics.CO)) == {(), ("a",), ("b",)}

    def test_deterministic_order(self, example_af):
        first = extensions(example_af, Semantics.AD)
        again = extensions(example_af, Semantics.AD)
        assert first == again
        assert [tuple(sorted(e)) for e in first] == sorted(
            tuple(sorted(e)) for e in first
        )

    def test_capacity_limit(self):
        af = ArgumentationFramework([f"x{i}" for i in range(26)])
        with pytest.raises(CapacityError):
            extensions(af, Semantics.CF)

    def test_extension_scan_is_not_cached(self):
        # A per-subgraph cache outlived every query; the bounded tables of
        # constellation acceptance live in encode._accepted instead.
        from pargue.af import _extension_masks

        assert not hasattr(_extension_masks, "cache_info")


class TestCredulous:
    def test_worked_example(self, example_af):
        admissible = extensions(example_af, Semantics.AD)
        assert any("d" in e for e in admissible)
        assert not any("c" in e for e in admissible)

    def test_chain(self, chain_af):
        grounded = extensions(chain_af, Semantics.GR)
        assert any("c" in e for e in grounded)
        assert not any("b" in e for e in grounded)


class TestSubgraphs:
    def test_induced_attacks(self, example_af):
        sub = subgraph(example_af, {"a", "c", "d"})
        assert sub.arguments == ("a", "c", "d")
        assert sub.attacks == {("a", "c"), ("c", "d")}

    def test_subgraph_extensions_match_standalone(self, example_af):
        members = {"b", "c", "d"}
        masks = _extension_masks(example_af, example_af._mask(members), Semantics.AD)
        via_masks = sets(example_af._members(m) for m in masks)
        standalone = sets(extensions(subgraph(example_af, members), Semantics.AD))
        assert via_masks == standalone

    @given(frameworks(max_args=5))
    def test_subgraph_extensions_agree_everywhere(self, af):
        # The scan inside a universe mask, which the constellation tables
        # run, against the extensions of the induced framework.
        names = list(af.arguments)
        for mask in range(1 << len(names)):
            members = {names[i] for i in range(len(names)) if mask >> i & 1}
            induced = subgraph(af, members)
            for semantics in ALL_SEMANTICS:
                masks = _extension_masks(af, mask, semantics)
                assert sets(af._members(m) for m in masks) == sets(
                    extensions(induced, semantics)
                )


class TestInvariants:
    @given(frameworks())
    def test_inclusion_chain(self, af):
        st_ = sets(extensions(af, Semantics.ST))
        pr = sets(extensions(af, Semantics.PR))
        co = sets(extensions(af, Semantics.CO))
        ad = sets(extensions(af, Semantics.AD))
        cf = sets(extensions(af, Semantics.CF))
        assert st_ <= pr <= co <= ad <= cf

    @given(frameworks())
    def test_empty_set_always_admissible(self, af):
        assert () in sets(extensions(af, Semantics.AD))

    @given(frameworks())
    def test_grounded_unique_and_least_complete(self, af):
        gr = extensions(af, Semantics.GR)
        assert len(gr) == 1
        ground = gr[0]
        complete = extensions(af, Semantics.CO)
        assert ground in complete
        assert all(ground <= e for e in complete)

    @given(frameworks())
    def test_complete_iff_conflict_free_fixed_point(self, af):
        # CO is the conflict-free fixed points of the characteristic function F.
        for e in extensions(af, Semantics.CF):
            mask = af._mask(e)
            is_complete = _characteristic_mask(af, af._full_mask, mask) == mask
            assert is_complete == (e in extensions(af, Semantics.CO))

    @given(frameworks())
    def test_admissible_definition(self, af):
        # independent definitional route: conflict-free and self-defending
        expected = {
            e
            for e in extensions(af, Semantics.CF)
            if af._mask(e) & ~_characteristic_mask(af, af._full_mask, af._mask(e)) == 0
        }
        assert set(extensions(af, Semantics.AD)) == expected

    @given(frameworks())
    def test_stable_definition(self, af):
        # ST is the conflict-free sets that attack every argument outside them.
        full = af._full_mask
        expected = {
            e
            for e in extensions(af, Semantics.CF)
            if af._mask(e) | _attacked_by(af, full, af._mask(e)) == full
        }
        assert set(extensions(af, Semantics.ST)) == expected

    @given(frameworks())
    def test_preferred_are_maximal_admissible(self, af):
        ad = set(extensions(af, Semantics.AD))
        expected = {e for e in ad if not any(e < other for other in ad)}
        assert set(extensions(af, Semantics.PR)) == expected

    @given(frameworks())
    def test_credulous_matches_extension_scan(self, af):
        # With every argument present for sure, prob_c is 1 exactly when the
        # whole framework credulously accepts the argument: the cone, closed
        # form and constellation routes against the extension scan.
        graph = ProbabilisticGraph(af, dict.fromkeys(af.arguments, 1.0))
        for semantics in ALL_SEMANTICS:
            exts = extensions(af, semantics)
            for name in af.arguments:
                accepted = any(name in e for e in exts)
                assert prob_c(graph, semantics, name).mean == float(accepted)
