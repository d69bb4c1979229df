"""Clause-set normalization and the semantics encodings."""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pargue import (
    ArgumentationFramework,
    CapacityError,
    ClauseSet,
    InputError,
    Node,
    ProbabilisticGraph,
    Semantics,
    compile_formula,
    encode,
    encode_enumerative,
    extensions,
    prob_c,
    subgraph,
)
from pargue.encode import _accepted
from pargue.engine import _compiled
from pargue.semiring import model_masks

from conftest import (
    clause_set, constellation, frameworks, lifted_models, literal_clauses, models, random_framework, satisfies
)

DIRECT = [Semantics.CF, Semantics.AD, Semantics.CO, Semantics.ST]


def model_set(f):
    return {tuple(sorted(m)) for m in models(f)}


def circuit_model_set(c):
    return {tuple(v for i, v in enumerate(c.variables) if m >> i & 1) for m in model_masks(c)}


class TestNormalization:
    def test_empty_connectives(self):
        # No clause is true; the empty clause is false.
        assert models(ClauseSet(("a",), 1, ())) == {frozenset(), frozenset("a")}
        assert models(ClauseSet(("a",), 1, [(0, 0)])) == set()

    def test_neutral_and_absorbing(self):
        # A tautology is dropped; the empty clause absorbs the rest.
        assert ClauseSet("ab", 2, [(0b01, 0b01), (0b10, 0)]).clauses == ((0b10, 0),)
        assert compile_formula(ClauseSet("ab", 2, [(0b10, 0), (0, 0)])).nodes == (Node("false"),)

    def test_flattening_and_dedupe(self):
        f = ClauseSet("abc", 3, [(0b001, 0b100), (0b010, 0), (0b001, 0b100)])
        assert f.names == ("a", "b", "c") and f.clauses == ((0b001, 0b100), (0b010, 0))

    def test_complementary_literals(self):
        assert ClauseSet("a", 1, [(1, 1)]).clauses == ()
        assert clause_set("ab", (), [[("a", True), ("b", True), ("a", False)]]).clauses == ()

    @given(st.lists(literal_clauses("abcd"), max_size=3))
    def test_connectives_agree_with_semantics(self, parts):
        # Joining clause lists conjoins them, and dropping tautologies and
        # repeats changes no model.
        sets = [clause_set("abcd", (), part) for part in parts]
        joined = clause_set("abcd", (), [clause for part in parts for clause in part])
        for on in range(16):
            want = all(
                any(bool(on >> "abcd".index(name) & 1) == positive for name, positive in clause)
                for part in parts
                for clause in part
            )
            assert satisfies(joined.clauses, on) == want
            assert want == all(satisfies(f.clauses, on) for f in sets)

    def test_interning(self):
        one = ClauseSet(("a", "b"), 2, [(0b01, 0b10), (0b01, 0b10)])
        two = ClauseSet(["a", "b"], 2, ((0b01, 0b10),))
        assert one == two and hash(one) == hash(two)

    def test_vars(self):
        f = ClauseSet(["a", "b", "c"], 2, [(0b100, 0b001)])
        assert f.names == ("a", "b", "c") and f.declared == 2
        with pytest.raises(InputError, match="distinct strings"):
            ClauseSet(("a", "a"), 1, ())
        with pytest.raises(InputError, match="declared"):
            ClauseSet(("a",), 2, ())

    def test_models_outside_the_variables_rejected(self):
        with pytest.raises(InputError, match="below 2\\*\\*1"):
            ClauseSet(("a",), 1, [(0b10, 0)])


class TestDirectEncodings:
    def test_worked_example_admissible_theory(self, example_af):
        # (c > ~a) & (c > ~b) & (d > ~c) & (d > (a | b)) & ~c, as written
        theory = encode(example_af, Semantics.AD)
        assert theory.names == ("a", "b", "c", "d") and theory.declared == 4
        assert set(theory.clauses) == {
            (0, 0b0101), (0, 0b0110), (0, 0b1100), (0b0011, 0b1000), (0, 0b0100)
        }

    def test_stable_without_attacks_forces_everything(self):
        af = ArgumentationFramework(["a", "b", "c"])
        assert encode(af, Semantics.ST) == ClauseSet("abc", 3, [(0b001, 0), (0b010, 0), (0b100, 0)])

    def test_self_attack(self):
        af = ArgumentationFramework(["a"], [("a", "a")])
        assert model_set(encode(af, Semantics.CF)) == {()}
        assert model_set(encode(af, Semantics.AD)) == {()}
        assert encode(af, Semantics.ST).clauses == ((0, 1), (1, 0))
        assert model_set(encode(af, Semantics.ST)) == set()

    def test_no_direct_encoding_for_preferred(self, example_af):
        with pytest.raises(InputError, match="encode_enumerative"):
            encode(example_af, Semantics.PR)

    @given(frameworks())
    def test_models_are_extensions(self, af):
        for semantics in DIRECT:
            got = model_set(encode(af, semantics))
            want = {tuple(sorted(e)) for e in extensions(af, semantics)}
            assert got == want, semantics

    def test_seeded_models_are_extensions(self):
        # Clause models against the enumeration, past hypothesis's six
        # arguments, with CO's auxiliaries eliminated by the truth table.
        rng = random.Random(8)
        for _ in range(40):
            af = random_framework(rng, max_args=8, density=rng.choice([0.1, 0.2, 0.3]))
            for semantics in (*DIRECT, Semantics.GR):
                assert models(encode(af, semantics)) == set(extensions(af, semantics)), semantics

    @given(frameworks())
    def test_variables_stay_inside_framework(self, af):
        # The ids are declared, in order; only CO eliminates names, its
        # auxiliaries, which lie outside the argument-id alphabet.
        for semantics in (*DIRECT, Semantics.GR):
            theory = encode(af, semantics)
            assert theory.names[: theory.declared] == af.arguments
            hidden = theory.names[theory.declared :]
            assert semantics is Semantics.CO or not hidden
            assert all(name.startswith("t.") for name in hidden)
        for name in af.arguments:
            for semantics in (Semantics.AD, Semantics.ST):
                theory = constellation(af, semantics, name)
                assert theory.names[: theory.declared] == af.arguments
                members = theory.names[theory.declared :]
                assert list(members) == sorted(members)
                assert all(m.startswith("m.") and m[2:] in af.arguments for m in members)


def extension_masks(af, semantics):
    return [af._mask(e) for e in extensions(af, semantics)]


class TestEnumerativeEncoding:
    """One mask-set builder: PR's theory and GR's constellation through
    ``engine._compiled``, and any listed set of extensions."""

    def test_grounded_single_full_conjunction(self, example_af):
        f = encode(example_af, Semantics.GR)
        assert model_set(f) == {("a", "b", "d")}

    def test_chain_preferred(self, chain_af):
        c = _compiled(chain_af, Semantics.PR, None)[0]
        assert circuit_model_set(c) == {("a", "c")}

    def test_no_extension_is_false(self):
        af = ArgumentationFramework(["a"], [("a", "a")])
        for c in (
            encode_enumerative(af.arguments, extension_masks(af, Semantics.ST)),
            encode_enumerative(("a", "b"), []),
        ):
            assert c.nodes == (Node("false"),) and c.root == 0

    @given(
        st.integers(0, 5).flatmap(
            lambda n: st.tuples(st.just(n), st.sets(st.integers(0, (1 << n) - 1)))
        )
    )
    def test_models_are_the_masks(self, case):
        n, masks = case
        names = [f"v{i}" for i in range(n)]
        c = encode_enumerative(names, masks)
        assert c.variables == tuple(names)
        assert set(model_masks(c)) == masks
        assert (c.nodes[c.root].kind == "false") == (not masks)

    def test_masks_outside_the_names_rejected(self):
        with pytest.raises(InputError, match="below 2\\*\\*2"):
            encode_enumerative(("a", "b"), [4])
        with pytest.raises(InputError):
            encode_enumerative(("a", "b"), [-1])

    def test_malformed_names_and_masks_rejected(self):
        # A repeated name would be decided twice, so the circuit would not be
        # decomposable.
        with pytest.raises(InputError, match="distinct strings"):
            encode_enumerative(("a", "a"), [1])
        with pytest.raises(InputError, match="distinct strings"):
            encode_enumerative(("a", 1), [1])
        for mask in (1.0, "1", None):
            with pytest.raises(InputError, match="integers"):
                encode_enumerative(("a", "b"), [mask])

    @given(frameworks())
    def test_matches_direct_encodings(self, af):
        for semantics in DIRECT:
            direct = model_set(encode(af, semantics))
            listed = circuit_model_set(
                encode_enumerative(af.arguments, extension_masks(af, semantics))
            )
            assert direct == listed

    @given(frameworks())
    def test_every_semantics(self, af):
        for semantics in Semantics:
            got = circuit_model_set(_compiled(af, semantics, None)[0])
            want = {tuple(sorted(e)) for e in extensions(af, semantics)}
            assert got == want

    def test_grounded_meets_no_enumeration_cap(self):
        # The fixed point scans no subsets, so GR answers past the
        # 25-argument enumeration cap, which still refuses CO.
        names = [f"n{i:02d}" for i in range(30)]
        af = ArgumentationFramework(names, list(zip(names, names[1:])))
        grounded = frozenset(names[::2])
        assert extensions(af, Semantics.GR) == (grounded,)
        grounded_sets = extensions(af, Semantics.GR)
        assert any("n00" in e for e in grounded_sets)
        assert not any("n01" in e for e in grounded_sets)
        f = encode(af, Semantics.GR)
        assert f.names == tuple(names)
        on = af._mask(grounded)
        assert satisfies(f.clauses, on) and not satisfies(f.clauses, on | 0b10)
        with pytest.raises(CapacityError):
            extensions(af, Semantics.CO)

    def test_more_names_than_the_recursion_limit(self):
        names = [f"n{i:04d}" for i in range(sys.getrecursionlimit() + 100)]
        f = encode(ArgumentationFramework(names), Semantics.GR)
        assert f.clauses == tuple((1 << i, 0) for i in range(len(names)))
        # A listed set meets the compile cap before anything is built.
        masks = [(1 << len(names)) - 1, 1]
        with pytest.raises(CapacityError, match=f"at most 25 variables, got {len(names)}"):
            encode_enumerative(names, masks)


class TestConstellationEncoding:
    def test_chain_grounded_query(self, chain_af):
        # c is grounded-accepted in subgraphs {c}, {a,b,c}, {a,c}... checked
        # against the definitional per-subgraph route below; the frozen model
        # set here is the independent expectation.
        c = _compiled(chain_af, Semantics.GR, "c")[0]
        assert circuit_model_set(c) == {("c",), ("a", "c"), ("a", "b", "c")}
        with pytest.raises(InputError, match="encode_enumerative"):
            constellation(chain_af, Semantics.GR, "c")

    def test_unattacked_argument_all_subgraphs_containing_it(self, example_af):
        f = constellation(example_af, Semantics.AD, "a")
        got = model_set(f)
        assert len(got) == 8
        assert all("a" in m for m in got)

    def test_self_attacker_never_accepted(self):
        af = ArgumentationFramework(["a"], [("a", "a")])
        for semantics in (Semantics.CF, Semantics.AD, Semantics.ST):
            assert models(constellation(af, semantics, "a")) == set()

    @settings(max_examples=30)
    @given(frameworks(max_args=5))
    def test_projected_models_are_the_scan(self, af):
        # The clause models, projected onto the ids by the truth table, are
        # the subgraphs in which the scan finds the argument accepted.
        for semantics in (Semantics.CF, Semantics.AD, Semantics.ST):
            table = _accepted(af, semantics)
            for i, name in enumerate(af.arguments):
                want = {af._members(sub) for sub, union in enumerate(table) if union >> i & 1}
                assert models(constellation(af, semantics, name)) == want, (semantics, name)

    def test_unknown_argument(self, example_af):
        # The shared theory names no argument; the query's is checked where
        # its constellation is compiled.
        with pytest.raises(InputError):
            _compiled(example_af, Semantics.AD, "z")

    def test_capacity(self):
        # GR scans every subgraph's fixed point of the argument's cone, up to
        # 20 arguments. AD compiles its existential theory and meets only the
        # 25-variable compile cap, counted on the cone's argument ids.
        names = [f"x{i:02d}" for i in range(21)]
        af = ArgumentationFramework(names, [("x00", "x01"), ("x01", "x00"), ("x02", "x03")])
        graph = ProbabilisticGraph(af, {name: 0.25 + i / 100 for i, name in enumerate(names)})
        # The cone of x00 is {x00, x01}: only x00 present, not both, makes
        # x00 grounded, beside any of the other 19.
        assert _compiled(af, Semantics.GR, "x00")[0].variables == ("x00", "x01")
        result = prob_c(graph, Semantics.GR, "x00")
        assert result.mean == pytest.approx(0.25 * 0.74, abs=1e-15)
        assert result.model_count == 2**19
        cycle = ArgumentationFramework(names, list(zip(names, names[1:] + names[:1])))
        with pytest.raises(CapacityError, match="at most 20 arguments, got 21"):
            prob_c(ProbabilisticGraph(cycle, graph.labels), Semantics.GR, "x00")
        # x00 defends itself against x01, so every subgraph holding it accepts it.
        result = prob_c(graph, Semantics.AD, "x00")
        assert result.mean == pytest.approx(0.25, abs=1e-15)
        assert result.model_count == 2**20
        # 26 unattacked arguments: x00's cone is itself, and it answers; on a
        # 26-cycle its cone is all 26, and it is refused.
        wide = [f"x{i:02d}" for i in range(26)]
        labels = {name: 0.5 for name in wide}
        free = ProbabilisticGraph(ArgumentationFramework(wide), labels)
        result = prob_c(free, Semantics.AD, "x00")
        assert (result.mean, result.model_count) == (0.5, 2**25)
        cycle = ArgumentationFramework(wide, list(zip(wide, wide[1:] + wide[:1])))
        with pytest.raises(CapacityError, match="at most 25 variables, got 26"):
            prob_c(ProbabilisticGraph(cycle, labels), Semantics.AD, "x00")

    @given(frameworks(max_args=5))
    def test_models_are_accepting_subgraphs(self, af):
        names = list(af.arguments)
        for semantics in Semantics:
            for name in names:
                circuit, _ = _compiled(af, semantics, name)
                got = {tuple(sorted(af._members(m))) for m in lifted_models(af, circuit)}
                want = set()
                for mask in range(1 << len(names)):
                    members = {names[i] for i in range(len(names)) if mask >> i & 1}
                    if name in members and any(
                        name in e
                        for e in extensions(subgraph(af, members), semantics)
                    ):
                        want.add(tuple(sorted(members)))
                assert got == want
