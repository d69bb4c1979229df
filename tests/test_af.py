"""Ground-truth semantics layer: operations, enumeration, invariants."""

from __future__ import annotations

import pytest
from hypothesis import given

from pargue import (
    ArgumentationFramework,
    CapacityError,
    InputError,
    Semantics,
    attacked,
    attackers,
    characteristic,
    credulous,
    extensions,
    is_conflict_free,
    subgraph,
    subgraph_extensions,
)

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
        assert attacked(example_af, {"a", "b"}) == {"c"}
        assert attacked(example_af, {"c"}) == {"d"}
        assert attacked(example_af, set()) == frozenset()

    def test_unknown_argument_rejected(self, example_af):
        with pytest.raises(InputError):
            attackers(example_af, "z")
        with pytest.raises(InputError):
            attacked(example_af, {"a", "z"})

    def test_conflict_free(self, example_af):
        assert is_conflict_free(example_af, {"a", "b", "d"})
        assert not is_conflict_free(example_af, {"a", "c"})
        assert not is_conflict_free(example_af, {"c", "d"})
        assert is_conflict_free(example_af, set())

    def test_self_attack_not_conflict_free(self):
        af = ArgumentationFramework(["a"], [("a", "a")])
        assert not is_conflict_free(af, {"a"})

    def test_characteristic(self, example_af):
        assert characteristic(example_af, set()) == {"a", "b"}
        assert characteristic(example_af, {"a"}) == {"a", "b", "d"}
        assert characteristic(example_af, {"a", "b", "d"}) == {"a", "b", "d"}


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
        with pytest.raises(CapacityError):
            credulous(af, Semantics.CF, "x0")


    def test_extension_scan_is_not_cached(self):
        # A per-subgraph cache outlived every query; the bounded tables of
        # constellation acceptance live in encode._accepted instead.
        from pargue.af import _extension_masks

        assert not hasattr(_extension_masks, "cache_info")


class TestCredulous:
    def test_worked_example(self, example_af):
        assert credulous(example_af, Semantics.AD, "d")
        assert not credulous(example_af, Semantics.AD, "c")

    def test_chain(self, chain_af):
        assert credulous(chain_af, Semantics.GR, "c")
        assert not credulous(chain_af, Semantics.GR, "b")


class TestSubgraphs:
    def test_induced_attacks(self, example_af):
        sub = subgraph(example_af, {"a", "c", "d"})
        assert sub.arguments == ("a", "c", "d")
        assert sub.attacks == {("a", "c"), ("c", "d")}

    def test_subgraph_extensions_match_standalone(self, example_af):
        members = {"b", "c", "d"}
        via_masks = sets(subgraph_extensions(example_af, members, Semantics.AD))
        standalone = sets(extensions(subgraph(example_af, members), Semantics.AD))
        assert via_masks == standalone

    @given(frameworks(max_args=5))
    def test_subgraph_extensions_agree_everywhere(self, af):
        names = list(af.arguments)
        for mask in range(1 << len(names)):
            members = {names[i] for i in range(len(names)) if mask >> i & 1}
            induced = subgraph(af, members)
            for semantics in ALL_SEMANTICS:
                assert sets(subgraph_extensions(af, members, semantics)) == sets(
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
        for e in extensions(af, Semantics.CF):
            is_complete = characteristic(af, e) == e
            assert is_complete == (e in extensions(af, Semantics.CO))

    @given(frameworks())
    def test_admissible_definition(self, af):
        # independent definitional route: conflict-free and self-defending
        expected = {
            e
            for e in extensions(af, Semantics.CF)
            if e <= characteristic(af, e)
        }
        assert set(extensions(af, Semantics.AD)) == expected

    @given(frameworks())
    def test_stable_definition(self, af):
        everything = set(af.arguments)
        expected = {
            e
            for e in extensions(af, Semantics.CF)
            if set(e) | set(attacked(af, e)) == everything
        }
        assert set(extensions(af, Semantics.ST)) == expected

    @given(frameworks())
    def test_preferred_are_maximal_admissible(self, af):
        ad = set(extensions(af, Semantics.AD))
        expected = {e for e in ad if not any(e < other for other in ad)}
        assert set(extensions(af, Semantics.PR)) == expected

    @given(frameworks())
    def test_credulous_matches_extension_scan(self, af):
        for semantics in ALL_SEMANTICS:
            exts = extensions(af, semantics)
            for name in af.arguments:
                assert credulous(af, semantics, name) == any(
                    name in e for e in exts
                )
