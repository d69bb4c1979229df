"""Formula normalization and the three semantics encodings."""

from __future__ import annotations

import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pargue import (
    FALSE,
    TRUE,
    ArgumentationFramework,
    CapacityError,
    InputError,
    Node,
    ProbabilisticGraph,
    Semantics,
    and_,
    encode,
    encode_constellation,
    encode_enumerative,
    extensions,
    lit,
    models,
    not_,
    or_,
    prob_c,
    satisfies,
    subgraph,
    var,
)
from pargue.encode import _grounded_constellation
from pargue.engine import _compiled
from pargue.semiring import model_masks

from conftest import frameworks

DIRECT = [Semantics.CF, Semantics.AD, Semantics.CO, Semantics.ST]


def model_set(f, names):
    return {tuple(sorted(m)) for m in models(f, names)}


def circuit_model_set(c):
    return {tuple(v for i, v in enumerate(c.variables) if m >> i & 1) for m in model_masks(c)}


def projected_model_set(f, names):
    """Assignments to ``names`` that extend to a model of ``f`` over its
    other variables, from one truth table over all of them."""
    hidden = sorted(f.vars - set(names))
    return {tuple(sorted(m.intersection(names))) for m in models(f, [*names, *hidden])}


@st.composite
def formulas(draw, names=("a", "b", "c", "d")):
    base = st.one_of(
        st.sampled_from([TRUE, FALSE]),
        st.builds(lit, st.sampled_from(list(names)), st.booleans()),
    )

    def extend(children):
        return st.one_of(
            st.builds(lambda cs: and_(cs), st.lists(children, min_size=0, max_size=3)),
            st.builds(lambda cs: or_(cs), st.lists(children, min_size=0, max_size=3)),
            st.builds(not_, children),
        )

    return draw(st.recursive(base, extend, max_leaves=12))


class TestNormalization:
    def test_empty_connectives(self):
        assert and_([]) is TRUE
        assert or_([]) is FALSE

    def test_neutral_and_absorbing(self):
        a = var("a")
        assert and_([a, TRUE]) is a
        assert and_([a, FALSE]) is FALSE
        assert or_([a, FALSE]) is a
        assert or_([a, TRUE]) is TRUE

    def test_flattening_and_dedupe(self):
        a, b, c = var("a"), var("b"), var("c")
        assert and_([a, and_([b, c])]) is and_([a, b, c])
        assert or_([a, a, b]) is or_([b, a])

    def test_complementary_literals(self):
        a = var("a")
        assert and_([a, not_(a)]) is FALSE
        assert or_([a, not_(a)]) is TRUE

    @given(st.lists(formulas(), max_size=4))
    def test_connectives_agree_with_semantics(self, fs):
        conj, disj = and_(fs), or_(fs)
        for on in models(TRUE, ["a", "b", "c", "d"]):
            assert satisfies(conj, on) == all(satisfies(f, on) for f in fs)
            assert satisfies(disj, on) == any(satisfies(f, on) for f in fs)

    def test_interning(self):
        one = and_([var("a"), lit("b", False)])
        two = and_([lit("b", False), var("a")])
        assert one is two

    def test_negation_is_involution(self):
        f = or_([and_([var("a"), lit("b", False)]), var("c")])
        assert not_(not_(f)) is f

    @given(formulas())
    def test_negation_is_involution_on_any_formula(self, f):
        assert not_(not_(f)) is f

    def test_vars(self):
        f = or_([and_([var("a"), lit("b", False)]), var("c")])
        assert f.vars == {"a", "b", "c"}

    def test_models_outside_the_variables_rejected(self):
        with pytest.raises(InputError, match="formula mentions variables outside"):
            list(models(var("z"), ["a"]))


class TestDirectEncodings:
    def test_worked_example_admissible_theory(self, example_af):
        # equivalent to (c > ~a) & (c > ~b) & (d > (a | b)) & ~c
        a, b, c, d = map(var, "abcd")
        target = and_(
            [
                or_([not_(c), not_(a)]),
                or_([not_(c), not_(b)]),
                or_([not_(d), or_([a, b])]),
                not_(c),
            ]
        )
        assert model_set(encode(example_af, Semantics.AD), "abcd") == model_set(
            target, "abcd"
        )

    def test_stable_without_attacks_forces_everything(self):
        af = ArgumentationFramework(["a", "b", "c"])
        assert encode(af, Semantics.ST) is and_([var("a"), var("b"), var("c")])

    def test_self_attack(self):
        af = ArgumentationFramework(["a"], [("a", "a")])
        assert model_set(encode(af, Semantics.CF), "a") == {()}
        assert model_set(encode(af, Semantics.AD), "a") == {()}
        assert encode(af, Semantics.ST) is FALSE

    def test_no_direct_encoding_for_preferred(self, example_af):
        with pytest.raises(InputError, match="encode_enumerative"):
            encode(example_af, Semantics.PR)

    @given(frameworks())
    def test_models_are_extensions(self, af):
        for semantics in DIRECT:
            got = model_set(encode(af, semantics), af.arguments)
            want = {tuple(sorted(e)) for e in extensions(af, semantics)}
            assert got == want, semantics

    @given(frameworks())
    def test_variables_stay_inside_framework(self, af):
        for semantics in DIRECT:
            assert encode(af, semantics).vars <= set(af.arguments)


def extension_masks(af, semantics):
    return [af._mask(e) for e in extensions(af, semantics)]


class TestEnumerativeEncoding:
    """One mask-set builder: PR's theory and GR's constellation through
    ``engine._compiled``, and any listed set of extensions."""

    def test_grounded_single_full_conjunction(self, example_af):
        f = encode(example_af, Semantics.GR)
        assert model_set(f, "abcd") == {("a", "b", "d")}

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
            direct = model_set(encode(af, semantics), af.arguments)
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
        assert f.vars == set(names)
        assert satisfies(f, grounded) and not satisfies(f, grounded | {"n01"})
        with pytest.raises(CapacityError):
            extensions(af, Semantics.CO)

    def test_more_names_than_the_recursion_limit(self):
        names = [f"n{i:04d}" for i in range(sys.getrecursionlimit() + 100)]
        f = encode(ArgumentationFramework(names), Semantics.GR)
        assert f is and_(var(name) for name in names)
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
            encode_constellation(chain_af, Semantics.GR, "c")

    def test_unattacked_argument_all_subgraphs_containing_it(self, example_af):
        f = encode_constellation(example_af, Semantics.AD, "a")
        got = projected_model_set(f, "abcd")
        assert len(got) == 8
        assert all("a" in m for m in got)

    def test_self_attacker_never_accepted(self):
        af = ArgumentationFramework(["a"], [("a", "a")])
        assert encode_constellation(af, Semantics.AD, "a") is FALSE

    def test_unknown_argument(self, example_af):
        with pytest.raises(InputError):
            encode_constellation(example_af, Semantics.AD, "z")

    def test_capacity(self):
        # GR scans every subgraph's fixed point of the argument's cone, up to
        # 20 arguments. AD compiles its existential theory and meets only the
        # 25-variable compile cap, counted on the framework's argument ids.
        names = [f"x{i:02d}" for i in range(21)]
        af = ArgumentationFramework(names, [("x00", "x01"), ("x01", "x00"), ("x02", "x03")])
        # The cone of x00 is {x00, x01}: only x00 present, or both, accept it.
        cone, masks = _grounded_constellation(af, "x00")
        assert (cone, masks) == (("x00", "x01"), [0b01])
        chain = ArgumentationFramework(names, list(zip(names[1:], names)))
        with pytest.raises(CapacityError):
            _grounded_constellation(chain, "x00")
        graph = ProbabilisticGraph(af, {name: 0.25 + i / 100 for i, name in enumerate(names)})
        # x00 defends itself against x01, so every subgraph holding it accepts it.
        result = prob_c(graph, Semantics.AD, "x00")
        assert result.mean == pytest.approx(0.25, abs=1e-15)
        assert result.model_count == 2**20
        wide = ArgumentationFramework([f"x{i:02d}" for i in range(26)])
        graph = ProbabilisticGraph(wide, {name: 0.5 for name in wide.arguments})
        with pytest.raises(CapacityError):
            prob_c(graph, Semantics.AD, "x00")

    @given(frameworks(max_args=5))
    def test_models_are_accepting_subgraphs(self, af):
        names = list(af.arguments)
        for semantics in Semantics:
            for name in names:
                circuit, _ = _compiled(af, semantics, name)
                got = {tuple(sorted(af._members(m))) for m in model_masks(circuit)}
                want = set()
                for mask in range(1 << len(names)):
                    members = {names[i] for i in range(len(names)) if mask >> i & 1}
                    if name in members and any(
                        name in e
                        for e in extensions(subgraph(af, members), semantics)
                    ):
                        want.add(tuple(sorted(members)))
                assert got == want
