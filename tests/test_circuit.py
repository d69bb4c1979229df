"""Compiler output properties, validators, smoothing, conditioning, format."""

from __future__ import annotations

import gc
import importlib
import itertools
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import pargue
from pargue import (
    COUNTING,
    PROBABILITY,
    ArgumentationFramework,
    CapacityError,
    Circuit,
    ClauseSet,
    InputError,
    Labelling,
    Node,
    Semantics,
    compile_formula,
    condition,
    encode,
    encode_constellation,
    encode_enumerative,
    evaluate,
    format_nnf,
    model_count,
    subgraph,
    validate,
)
from pargue.af import _acyclic, _attacked_by, _bits, _characteristic_mask, _cone_mask
from pargue.circuit import Compiler, _Builder, _diagram, _Nodes, _table_halves
from pargue.encode import _grounded_table
from pargue.semiring import _walk, model_masks

from conftest import (
    clause_set, clause_sets, constellation, frameworks, literal_clauses, models, passed
)

NAMES = ("a", "b", "c", "d")
# Three disjoint blocks of names, each drawn from like ``clause_sets()``'s.
BLOCKS = tuple(tuple(f"{name}{k}" for name in "abc") for k in range(3))
TRUE = ClauseSet((), 0, ())


def names_of(c, mask):
    return frozenset(v for i, v in enumerate(c.variables) if mask >> i & 1)


def compiled_example(example_af):
    return compile_formula(encode(example_af, Semantics.AD))


def reached(c):
    found = {c.root}
    stack = [c.root]
    while stack:
        for child in c.nodes[stack.pop()].children:
            if child not in found:
                found.add(child)
                stack.append(child)
    return found


def assert_all_reachable(c):
    assert reached(c) == set(range(len(c.nodes)))
    assert c.root == len(c.nodes) - 1


@st.composite
def hand_built_circuits(draw):
    """Arbitrary node arrays over at most six variables, many with guards."""
    names = tuple("abcdef"[: draw(st.integers(1, 6))])
    nodes = [Node("lit", var=v, positive=s) for v in names for s in (True, False)]
    nodes += [Node("true"), Node("false")]
    for _ in range(draw(st.integers(1, 10))):
        earlier = st.integers(0, len(nodes) - 1)
        kind = draw(st.sampled_from(["and", "or", "guarded"]))
        if kind == "guarded":
            # (v & A) | (v' & B), where v' is ~v or, to clash nowhere, v again
            v = draw(st.integers(0, len(names) - 1))
            nodes.append(Node("and", children=(2 * v, draw(earlier))))
            nodes.append(Node("and", children=(2 * v + draw(st.booleans()), draw(earlier))))
            nodes.append(Node("or", children=(len(nodes) - 2, len(nodes) - 1), decision=names[v]))
        else:
            children = draw(st.lists(earlier, min_size=1, max_size=3))
            nodes.append(Node(kind, children=tuple(children)))
    return Circuit(tuple(nodes), len(nodes) - 1, names)


@st.composite
def projected_cases(draw):
    """Up to five eliminated names beside the kept a and b, up to six
    clauses over all of them and the clauses of a parity over the
    eliminated ones, which no unit or pure literal settles, and an assumed
    mask over every name."""
    hidden = tuple(f"h{i}" for i in range(draw(st.integers(0, 5))))
    literal = st.tuples(st.sampled_from(("a", "b", *hidden)), st.booleans())
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=3), max_size=6))
    odd = draw(st.booleans())
    clauses += (
        list(zip(hidden, signs))
        for signs in itertools.product((True, False), repeat=len(hidden))
        if sum(signs) % 2 != odd
    )
    return hidden, clauses, draw(st.integers(0, (1 << 2 + len(hidden)) - 1))


def first_overlapping_disjunction(c):
    """Brute force: the first reachable disjunction two of whose children share a model."""
    rows = []
    for bits in itertools.product((False, True), repeat=len(c.variables)):
        value = dict(zip(c.variables, bits))
        truth: list[bool] = []
        for node in c.nodes:
            if node.kind == "lit":
                truth.append(value[node.var] == node.positive)
            elif node.kind == "and":
                truth.append(all(truth[k] for k in node.children))
            elif node.kind == "or":
                truth.append(any(truth[k] for k in node.children))
            else:
                truth.append(node.kind == "true")
        rows.append(truth)
    for i in sorted(reached(c)):
        node = c.nodes[i]
        if node.kind == "or" and any(sum(row[k] for k in node.children) > 1 for row in rows):
            return i
    return None


class TestNode:
    def test_equal_fields_equal_nodes(self):
        one = Node("or", children=(0, 1), decision="a")
        two = Node("or", None, True, (0, 1), "a")
        assert one == two and not one != two and hash(one) == hash(two)
        assert len({one, two, Node("lit", var="a")}) == 2
        assert repr(one) == "Node(kind='or', var=None, positive=True, children=(0, 1), decision='a')"

    @pytest.mark.parametrize(
        "other",
        [
            Node("and", children=(0, 1), decision="a"),
            Node("or", var="a", children=(0, 1), decision="a"),
            Node("or", positive=False, children=(0, 1), decision="a"),
            Node("or", children=(1, 0), decision="a"),
            Node("or", children=(0, 1), decision="b"),
            ("or", None, True, (0, 1), "a"),
        ],
    )
    def test_any_field_differing_makes_nodes_unequal(self, other):
        assert Node("or", children=(0, 1), decision="a") != other

    def test_builder_interns_without_building_a_node(self):
        builder = _Builder()
        a, b = builder.literal("a", True), builder.literal("b", False)
        first = builder.conj([a, b])
        built = len(builder.nodes)
        assert builder.conj([a, b]) == first and builder.conj([builder.true(), a, b]) == first
        assert len(builder.nodes) == built + 1  # the true node alone
        assert builder.nodes[first] == Node("and", children=(a, b))


class TestCompile:
    def test_constants(self):
        c = compile_formula(TRUE)
        assert len(c.nodes) == 1 and c.nodes[c.root].kind == "true"
        assert model_count(c) == 1
        assert model_count(compile_formula(ClauseSet(NAMES, 4, ()))) == 16

        c = compile_formula(ClauseSet(NAMES, 4, [(0b1, 0), (0, 0)]))
        assert c.nodes == (Node("false"),) and model_count(c) == 0

    def test_worked_example_count(self, example_af):
        assert model_count(compiled_example(example_af)) == 7

    def test_deterministic_construction(self, example_af):
        assert compiled_example(example_af) == compiled_example(example_af)

    def test_undeclared_variable_rejected(self):
        # A clause may only mention the set's names.
        with pytest.raises(InputError, match="below 2\\*\\*1"):
            compile_formula(ClauseSet(("a",), 1, [(0b10, 0)]))
        for clause in ((-1, 0), (1.0, 0), ("a", 0), (1,), 1):
            with pytest.raises(InputError):
                compile_formula(ClauseSet(("a",), 1, [clause]))

    def test_capacity(self):
        with pytest.raises(CapacityError):
            compile_formula(ClauseSet([f"x{i}" for i in range(26)], 26, ()))

    def test_capacity_counts_kept_variables(self):
        kept = [f"x{i}" for i in range(20)]
        hidden = [f"y{i}" for i in range(20)]
        wide = clause_set(kept, hidden, [[(x, True), (y, True)] for x, y in zip(kept, hidden)])
        assert model_count(compile_formula(wide)) == 2**20

    def test_capacity_counts_eliminated_variables(self):
        # An implication chain over 1,501 eliminated variables: deciding them
        # one by one would recurse past the interpreter's limit.
        hidden = [f"h{i:04d}" for i in range(1501)]
        chain = [[(x, False), (y, True)] for x, y in zip(hidden, hidden[1:])]
        with pytest.raises(CapacityError, match="at most 25 eliminated variables, got 1501"):
            compile_formula(clause_set(["a"], hidden, [[("a", True)], *chain]))
        wide = clause_set(["a"], hidden[:25], [[("a", True)], *chain[:24]])
        assert model_count(compile_formula(wide)) == 1

    def test_eliminated_variable_cannot_be_kept(self):
        # A name is kept or eliminated by its position, so it may occur once.
        for names in (("a", "a"), ("a", 1)):
            with pytest.raises(InputError, match="distinct strings"):
                compile_formula(ClauseSet(names, 1, [(0b01, 0)]))
        for declared in (-1, 3, 1.0):
            with pytest.raises(InputError, match="declared"):
                compile_formula(ClauseSet(("a", "b"), declared, ()))

    def test_unsatisfiable_residual_projects_to_false(self):
        # No unit to propagate: only deciding the eliminated c and d, after
        # the kept a, shows that the residual has no model.
        f = clause_set(
            ["a", "b"],
            ["c", "d"],
            [[("a", True), ("c", x), ("d", y)] for x in (True, False) for y in (True, False)],
        )
        projected = compile_formula(f)
        assert model_count(projected) == 2
        assert sorted(model_masks(projected)) == [0b01, 0b11]

    @given(st.integers(0, 4).flatmap(lambda k: clause_sets(NAMES[:k], NAMES[k:])))
    @example(clause_set(NAMES[:2], NAMES[2:], [[], [("a", True)]]))
    def test_projection_matches_truth_table(self, f):
        c = compile_formula(f)
        assert passed(validate(c))
        got = {names_of(c, m) for m in model_masks(c)}
        assert got == models(f)
        assert model_count(c) == len(got)

    @given(
        st.tuples(*(literal_clauses(block) for block in BLOCKS)),
        st.sets(st.sampled_from([name for block in BLOCKS for name in block])),
    )
    def test_split_conjunction_matches_truth_table(self, parts, hidden):
        # Conjuncts over disjoint name blocks share no variable, so the
        # compiler splits them; projection stays existential per component.
        names = sorted(name for block in BLOCKS for name in block)
        kept = [name for name in names if name not in hidden]
        f = clause_set(kept, sorted(hidden), [clause for part in parts for clause in part])
        c = compile_formula(f)
        assert passed(validate(c))
        got = {names_of(c, m) for m in model_masks(c)}
        assert got == models(f)
        assert model_count(c) == len(got)

    def test_independent_conjuncts_compile_apart(self):
        f = clause_set(NAMES, (), [[("a", True), ("b", True)], [("c", True), ("d", True)]])
        c = compile_formula(f)
        root = c.nodes[c.root]
        assert root.kind == "and"
        assert [c.nodes[i].decision for i in root.children] == ["a", "c"]
        assert model_count(c) == 9

    @given(clause_sets())
    def test_counts_match_truth_table(self, f):
        assert model_count(compile_formula(f)) == len(models(f))

    @given(clause_sets())
    @example(clause_set(NAMES, (), [[]]))
    def test_compiled_circuits_validate(self, f):
        report = validate(compile_formula(f))
        assert passed(report)

    @given(frameworks())
    def test_theory_circuits_validate(self, af):
        for semantics in (Semantics.CF, Semantics.AD, Semantics.CO, Semantics.ST):
            c = compile_formula(encode(af, semantics))
            assert passed(validate(c))
            assert model_count(c) == len(models(encode(af, semantics)))

    @given(clause_sets())
    def test_every_node_reachable(self, f):
        assert_all_reachable(compile_formula(f))

    @given(frameworks())
    def test_every_theory_node_reachable(self, af):
        for semantics in (Semantics.CF, Semantics.AD, Semantics.CO, Semantics.ST):
            assert_all_reachable(compile_formula(encode(af, semantics)))

    @pytest.mark.parametrize("n", [21, 23, 25])
    def test_wide_theory_circuits_validate(self, n, monkeypatch):
        # The compiler guards every branch and gap node with its decision
        # literal, so the guards settle determinism without a truth table.
        circuit_module = importlib.import_module("pargue.circuit")
        calls = []
        real = circuit_module._truth_masks

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(circuit_module, "_truth_masks", counting)
        rng = random.Random(n)
        names = [f"x{i:02d}" for i in range(n)]
        attacks = rng.sample([(s, t) for s in names for t in names], round(1.5 * n))
        af = ArgumentationFramework(names, attacks)
        for semantics in (Semantics.CF, Semantics.AD, Semantics.CO, Semantics.ST):
            c = compile_formula(encode(af, semantics))
            assert passed(validate(c))
        assert calls == []

    def test_wide_admissible_theory_stays_small(self, monkeypatch):
        # Splitting independent conjuncts and deciding the most shared
        # variable keep this sparse theory to 824 nodes; sorted-id order
        # builds 16,062.
        monkeypatch.setattr(importlib.import_module("pargue.circuit"), "MAX_COMPILE_VARIABLES", 120)
        rng = random.Random(120)
        names = [f"x{i:03d}" for i in range(120)]
        af = ArgumentationFramework(names, rng.sample([(s, t) for s in names for t in names], 180))
        c = compile_formula(encode(af, Semantics.AD))
        assert passed(validate(c))
        assert len(c.nodes) < 2000

    @given(
        st.integers(0, 5).flatmap(
            lambda n: st.tuples(st.just(n), st.sets(st.integers(0, (1 << n) - 1)))
        )
    )
    def test_decision_form_keeps_exactly_the_masks(self, case):
        n, masks = case
        names = [f"v{i}" for i in range(n)]
        c = encode_enumerative(names, masks)
        assert passed(validate(c))
        assert c.variables == tuple(names)
        got = model_masks(c)
        assert len(got) == len(masks) and set(got) == masks

    def test_decision_form_is_translated_without_clauses(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("listed model set compiled by the clause search")

        circuit_module = importlib.import_module("pargue.circuit")
        monkeypatch.setattr(circuit_module, "Compiler", refuse)
        names = [f"x{i:02d}" for i in range(25)]
        masks = set(random.Random(3000).sample(range(1 << 25), 3000))
        c = encode_enumerative(names, masks)
        assert set(model_masks(c)) == masks
        assert passed(validate(c))

    def test_complete_theory_compiles_through_auxiliaries(self):
        # CO's reinstatement is no clause set over the ids alone: each
        # distinct attacker set C_b that a clause needs beside another
        # becomes an eliminated auxiliary for "no member in C_b".
        rng = random.Random(25)
        names = [f"x{i:02d}" for i in range(25)]
        af = ArgumentationFramework(names, rng.sample([(s, t) for s in names for t in names], 75))
        theory = encode(af, Semantics.CO)
        assert theory.names[:25] == af.arguments and theory.declared == 25
        assert len(theory.names) > 25
        c = compile_formula(theory)
        assert passed(validate(c))
        # Each model is complete: conflict-free, and the set it defends.
        full = af._full_mask
        found = model_masks(c)
        assert found and all(
            not _attacked_by(af, full, m) & m and _characteristic_mask(af, full, m) == m
            for m in found
        )

    def test_circuits_do_not_depend_on_the_hash_seed(self):
        # The split groups conjuncts by sets of names; string hashing varies
        # between processes unless PYTHONHASHSEED is fixed.
        code = (
            "import random\n"
            "from pargue import ArgumentationFramework, Semantics, format_nnf\n"
            "from pargue.engine import _compiled\n"
            "r = random.Random(24)\n"
            "n = [f'x{i:02d}' for i in range(24)]\n"
            "af = ArgumentationFramework(n, r.sample([(s, t) for s in n for t in n], 36))\n"
            "for argument in (None, 'x00'):\n"
            "    print(format_nnf(_compiled(af, Semantics.AD, argument)[0]))\n"
        )
        src = str(Path(pargue.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        outputs = [
            subprocess.run(
                [sys.executable, "-c", code],
                env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
                capture_output=True,
                check=True,
                timeout=120,
            ).stdout
            for seed in ("0", "1")
        ]
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"nnf ") == 2


class TestCompiler:
    """One search serves a constellation family: each argument's circuit is
    the shared theory with its membership bit assumed."""

    @given(frameworks(max_args=6))
    def test_family_circuits_do_not_depend_on_the_order(self, af):
        # Byte-identical whichever argument is compiled first, and equal to a
        # fresh compile of the theory with the argument's unit clause.
        n = len(af.arguments)
        for semantics in (Semantics.CF, Semantics.AD, Semantics.ST):
            family = encode_constellation(af, semantics)
            forward, backward = Compiler(family), Compiler(family)
            ahead = {x: format_nnf(forward.circuit(1 << n + x)) for x in range(n)}
            behind = {x: format_nnf(backward.circuit(1 << n + x)) for x in reversed(range(n))}
            assert ahead == behind
            for x, name in enumerate(af.arguments):
                fresh = compile_formula(constellation(af, semantics, name))
                assert ahead[x] == format_nnf(fresh), (semantics, name)

    @given(frameworks(max_args=7))
    def test_scoped_family_circuit_is_the_cone_subgraphs(self, af):
        # Scoped to an argument's cone, the whole framework's family search
        # gives the cone subgraph's own circuit, node for node: the cone
        # keeps the ids' relative order, so every tie breaks alike.
        n = len(af.arguments)
        for semantics in (Semantics.CF, Semantics.AD, Semantics.ST):
            family = Compiler(encode_constellation(af, semantics))
            for x, name in enumerate(af.arguments):
                scope = _cone_mask(af, name)
                cone = subgraph(af, af._members(scope))
                own = Compiler(encode_constellation(cone, semantics))
                want = own.circuit(1 << len(cone.arguments) + cone._index[name])
                got = family.circuit(1 << n + x, scope | scope << n)
                assert got.variables == cone.arguments
                assert format_nnf(got) == format_nnf(want), (semantics, name)

    def test_scope_bounds_the_width_and_the_assumptions(self):
        # 30 kept names are past the cap, but a scope of 25 compiles. Its
        # units hold x00, x03, ..., x24; the clause across its edge drops.
        names = [f"x{i:02d}" for i in range(30)]
        clauses = [(1 << i, 0) for i in range(0, 30, 3)] + [(0, 1 << 24 | 1 << 25)]
        compiler = Compiler(ClauseSet(names, 30, clauses))
        with pytest.raises(CapacityError, match="at most 25 variables, got 30"):
            compiler.circuit()
        scope = (1 << 25) - 1
        c = compiler.circuit(0b10, scope)
        assert c.variables == tuple(names[:25]) and passed(validate(c))
        assert model_count(c) == 2**15
        for bad in (1 << 25, "1"):
            with pytest.raises(InputError, match="assumptions"):
                compiler.circuit(bad, scope)
        for bad in (-1, 1 << 30, "1"):
            with pytest.raises(InputError, match="scope"):
                compiler.circuit(0, bad)

    @given(clause_sets(kept=("a", "b", "c"), hidden=("h",)), st.integers(0, 15))
    @example(clause_set(("a", "b", "c"), ("h",), [[], [("h", True)]]), 0b0101)
    def test_assumptions_are_unit_clauses(self, theory, assume):
        # Assumed bits, kept or eliminated, act as unit clauses on the same
        # compiler, whatever it compiled before.
        compiler = Compiler(theory)
        for earlier in range(16):
            compiler.circuit(earlier)
        units = [(1 << v, 0) for v in range(4) if assume >> v & 1]
        with_units = ClauseSet(theory.names, theory.declared, (*units, *theory.clauses))
        got = compiler.circuit(assume)
        assert passed(validate(got))
        assert format_nnf(got) == format_nnf(compile_formula(with_units))

    @given(projected_cases())
    def test_projection_under_assumptions_matches_truth_table(self, case):
        # Once a and b are decided, the parity over the eliminated names is
        # left to the branch step on them, nested as deep as they go.
        hidden, clauses, assume = case
        theory = clause_set(["a", "b"], hidden, clauses)
        got = Compiler(theory).circuit(assume)
        assert passed(validate(got))
        units = [(1 << v, 0) for v in _bits(assume)]
        with_units = ClauseSet(theory.names, theory.declared, (*units, *theory.clauses))
        assert {names_of(got, m) for m in model_masks(got)} == models(with_units)

    def test_dropped_builders_are_freed_without_the_collector(self, monkeypatch):
        # No compile path leaves a reference cycle, so each builder goes
        # with the last reference to it, the cyclic collector switched off.
        refs = []
        init = _Builder.__init__

        def recording(builder):
            init(builder)
            refs.append(weakref.ref(builder))

        monkeypatch.setattr(_Builder, "__init__", recording)
        clauses = [[("a", True), ("h", True)], [("b", True), ("h", False)]]
        theory = clause_set(["a", "b"], ["h"], clauses)
        cycle = ArgumentationFramework(["x", "y", "z"], [("x", "y"), ("y", "z"), ("z", "x")])
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            Compiler(theory).circuit(0b100)
            compile_formula(theory)
            encode_enumerative(["a", "b"], [0b01, 0b10])
            _diagram(cycle.arguments, _grounded_table(cycle, cycle._full_mask)[0], _table_halves)
            assert len(refs) == 4
            assert [ref() for ref in refs] == [None] * 4
        finally:
            if was_enabled:
                gc.enable()

    def test_assumptions_must_fit_the_names(self):
        compiler = Compiler(ClauseSet(("a", "b"), 1, ()))
        for bad in (-1, 4, "1", None):
            with pytest.raises(InputError, match="assumptions"):
                compiler.circuit(bad)


class TestSmoothing:
    def test_widening_preserves_relative_count(self):
        c = compile_formula(ClauseSet(("a",), 1, [(0b1, 0)]))
        assert model_count(c) == 1
        widened = compile_formula(ClauseSet(NAMES, 4, [(0b1, 0)]))
        assert widened.variables == NAMES
        assert model_count(widened) == 8  # 1 * 2^3 gap variables

    def test_narrowing_below_used_variables_rejected(self, example_af):
        theory = encode(example_af, Semantics.AD)
        with pytest.raises(InputError):
            compile_formula(ClauseSet(("a", "b"), 2, theory.clauses))

    def test_root_missing_a_declared_variable_fails_validate(self):
        # The root mentions a alone, so its count over {a, b} would read 1, not 2.
        raw = Circuit((Node("lit", var="a"),), 0, ("a", "b"))
        report = validate(raw)
        assert not report.smooth and report.first_unsmooth == 0
        assert report.decomposable and report.deterministic
        # A false root, as a contradicting condition leaves, mentions nothing
        # and counts 0 over any variables.
        assert validate(Circuit((Node("false"),), 0, ("a", "b"))).smooth
        blocked = condition(compile_formula(ClauseSet(("a", "b"), 2, [(0b1, 0)])), {"a": False})
        assert validate(blocked).smooth and model_count(blocked) == 0


class TestValidate:
    def test_overlapping_disjunction_flagged(self):
        # a | (a & b): children share models at a=1,b=1
        nodes = (
            Node("lit", var="a"),
            Node("lit", var="b"),
            Node("and", children=(0, 1)),
            Node("or", children=(0, 2)),
        )
        report = validate(Circuit(nodes, 3, ("a", "b")))
        assert not report.deterministic
        assert report.first_nondeterministic == 3

    def test_overlapping_disjunction_flagged_past_exact_width(self):
        # (a | (a & b)) & x00 & ... & x19: 22 variables, so the disjunction's
        # truth table is built over its own two variables only
        extra = [f"x{i:02d}" for i in range(20)]
        nodes = [
            Node("lit", var="a"),
            Node("lit", var="b"),
            Node("and", children=(0, 1)),
            Node("or", children=(0, 2)),
        ]
        nodes += [Node("lit", var=v) for v in extra]
        nodes.append(Node("and", children=tuple(range(3, len(nodes)))))
        report = validate(Circuit(tuple(nodes), len(nodes) - 1, ("a", "b", *extra)))
        assert report.decomposable
        assert not report.deterministic
        assert report.first_nondeterministic == 3

    def test_shared_variable_conjunction_flagged(self):
        # a & (a | b): children share the variable a
        nodes = (
            Node("lit", var="a"),
            Node("lit", var="b"),
            Node("or", children=(0, 1)),
            Node("and", children=(0, 2)),
        )
        report = validate(Circuit(nodes, 3, ("a", "b")))
        assert not report.decomposable
        assert report.first_nondecomposable == 3

    def test_unsmooth_disjunction_flagged(self):
        nodes = (
            Node("lit", var="a"),
            Node("lit", var="b"),
            Node("or", children=(0, 1)),
        )
        report = validate(Circuit(nodes, 2, ("a", "b")))
        assert not report.smooth
        assert report.first_unsmooth == 2
        # still deterministic: a and b cannot both... they can. a=1,b=1
        assert not report.deterministic

    def test_exclusive_guards_deterministic(self):
        nodes = (
            Node("lit", var="a"),
            Node("lit", var="a", positive=False),
            Node("lit", var="b"),
            Node("and", children=(0, 2)),
            Node("and", children=(1, 2)),
            Node("or", children=(3, 4), decision="a"),
        )
        report = validate(Circuit(nodes, 5, ("a", "b")))
        assert report.deterministic and report.smooth and report.decomposable

    def test_unsettled_wide_disjunction_refused(self):
        # (x00 & ... & x20) | (x00 & ... & x19 & (x20 | ~x20)): 21 variables,
        # and both children guard x00..x19 alike, so no guard clashes.
        names = tuple(f"x{i:02d}" for i in range(21))
        nodes = [Node("lit", var=v) for v in names]
        nodes.append(Node("lit", var="x20", positive=False))
        nodes.append(Node("or", children=(20, 21), decision="x20"))
        nodes.append(Node("and", children=tuple(range(21))))
        nodes.append(Node("and", children=(*range(20), 22)))
        nodes.append(Node("or", children=(23, 24)))
        with pytest.raises(CapacityError, match="20 variables per disjunction"):
            validate(Circuit(tuple(nodes), len(nodes) - 1, names))

    @given(hand_built_circuits())
    def test_determinism_matches_brute_force(self, c):
        first = first_overlapping_disjunction(c)
        report = validate(c)
        assert report.deterministic == (first is None)
        assert report.first_nondeterministic == first


class TestCondition:
    def test_worked_example_counts(self, example_af):
        c = compiled_example(example_af)
        assert model_count(condition(c, {"d": True})) == 3
        assert model_count(condition(c, {"c": True})) == 0

    def test_empty_is_identity(self, example_af):
        c = compiled_example(example_af)
        assert condition(c, {}) is c

    def test_inconsistent_literals_rejected(self, example_af):
        c = compiled_example(example_af)
        with pytest.raises(InputError):
            condition(c, [("d", True), ("d", False)])

    def test_unknown_variable_rejected(self, example_af):
        with pytest.raises(InputError):
            condition(compiled_example(example_af), {"z": True})

    @pytest.mark.parametrize("fixed", [["a1"], [("a", "no")], {"a": "no"}])
    def test_malformed_literals_rejected(self, fixed):
        # A string unpacks to a pair and any value has a truth value; a
        # literal is a (name, bool) pair and nothing else.
        c = compile_formula(ClauseSet(("a",), 1, ()))
        with pytest.raises(InputError, match="literal"):
            condition(c, fixed)

    @given(clause_sets(), st.dictionaries(st.sampled_from(NAMES), st.booleans()))
    def test_every_conditioned_node_reachable(self, f, fixed):
        assert_all_reachable(condition(compile_formula(f), fixed))

    @given(clause_sets())
    def test_counts_conditioned_models(self, f):
        c = compile_formula(f)
        got = model_count(condition(c, {"a": True, "b": False}))
        want = sum(1 for m in models(f) if "a" in m and "b" not in m)
        assert got == want


class TestNnfFormat:
    def test_header_and_shape(self, example_af):
        c = compiled_example(example_af)
        lines = format_nnf(c).splitlines()
        header = lines[0].split()
        assert header[0] == "nnf"
        assert int(header[1]) == len(c.nodes)
        assert int(header[2]) == c.edge_count
        assert int(header[3]) == 4
        assert lines[1:5] == ["c var 1 a", "c var 2 b", "c var 3 c", "c var 4 d"]
        assert len(lines) == 1 + 4 + len(c.nodes)

    def test_children_reference_earlier_lines(self, example_af):
        c = compiled_example(example_af)
        node_lines = format_nnf(c).splitlines()[5:]
        for position, line in enumerate(node_lines):
            parts = line.split()
            if parts[0] == "A":
                children = list(map(int, parts[2:]))
            elif parts[0] == "O":
                children = list(map(int, parts[3:]))
            else:
                continue
            assert all(0 <= child < position for child in children)

    def test_reparse_recounts_models(self, example_af):
        # independent reader: rebuild values bottom-up from the text alone
        c = compiled_example(example_af)
        lines = format_nnf(c).splitlines()
        names = {}
        for line in lines:
            if line.startswith("c var"):
                _, _, index, name = line.split()
                names[int(index)] = name
        values: list[int] = []
        for line in lines:
            parts = line.split()
            if parts[0] == "T":
                values.append(1)
            elif parts[0] == "F":
                values.append(0)
            elif parts[0] == "L":
                values.append(1)
            elif parts[0] == "A":
                total = 1
                for child in map(int, parts[2:]):
                    total *= values[child]
                values.append(total)
            elif parts[0] == "O":
                values.append(sum(values[child] for child in map(int, parts[3:])))
        assert values[-1] == 7


class TestEvaluationThroughSemiring:
    def test_probability_of_half_labels_is_dyadic(self, example_af):
        c = compiled_example(example_af)
        labelling = Labelling.from_point_probabilities(dict.fromkeys(NAMES, 0.5))
        assert evaluate(c, PROBABILITY, labelling) == 7 / 16

    def test_counting_equals_model_count(self, example_af):
        c = compiled_example(example_af)
        assert evaluate(c, COUNTING, Labelling.constant(NAMES, 1)) == 7


class TestIndex:
    """Every way of building a circuit gives its nodes an index, which the
    evaluators read."""

    @staticmethod
    def hand_built():
        # (a or b) and c over (a, b, c): a decision on a, b's gap under a.
        nodes = (
            Node("lit", var="a"), Node("lit", var="a", positive=False),
            Node("lit", var="b"), Node("lit", var="b", positive=False),
            Node("lit", var="c"),
            Node("or", children=(2, 3), decision="b"),
            Node("and", children=(0, 5)),
            Node("and", children=(1, 2)),
            Node("or", children=(6, 7), decision="a"),
            Node("and", children=(8, 4)),
        )
        return Circuit(nodes, 9, ("a", "b", "c"))

    def test_every_construction_path_is_indexed_and_values_alike(self):
        hand = self.hand_built()
        wanted = {0b111, 0b101, 0b110}  # bit i for ("a", "b", "c")[i]
        either = ClauseSet(("a", "b", "c"), 3, [(0b011, 0)])
        with_c = ClauseSet(("a", "b", "c"), 3, [(0b011, 0), (0b100, 0)])
        built = {
            "hand": hand,
            "_replace": hand._replace(nodes=list(hand.nodes)),
            "_make": Circuit._make((tuple(hand.nodes), hand.root, hand.variables)),
            # Every model sets c, so forcing it keeps the same function.
            "condition": condition(compile_formula(with_c), {"c": True}),
            "encode_enumerative": encode_enumerative(("a", "b", "c"), wanted),
            "Compiler.circuit": Compiler(either).circuit(0b100),
        }
        points = Labelling.from_point_probabilities({"a": 0.3, "b": 0.6, "c": 0.8})
        want = 0.8 * (0.3 + 0.7 * 0.6)
        for how, c in built.items():
            assert type(c.nodes).__name__ == "_Nodes", how
            index = c.nodes._index
            assert {i for i, _, _ in index.literals} | set(index.trues) | {
                g[0] for g in index.gates
            } == {i for i, n in enumerate(c.nodes) if n.kind != "false"}, how
            assert evaluate(c, COUNTING, Labelling.constant(c.variables, 1)) == 3, how
            assert evaluate(c, PROBABILITY, points) == pytest.approx(want, abs=1e-12), how
            assert set(model_masks(c)) == wanted, how

    @given(frameworks(max_args=5))
    def test_reachable_hands_over_the_index_and_counts(self, af):
        # Every built circuit gets its index and per-node counts from the
        # pass that renumbers it, before any evaluation: the same as a fresh
        # tuple of its nodes computes, and as the counting walk.
        n = len(af.arguments)
        theory = compile_formula(encode(af, Semantics.AD))
        family = Compiler(encode_constellation(af, Semantics.AD))
        built = {
            "compile_formula": theory,
            "Compiler.circuit": family.circuit(1 << n, 1 | 1 << n),
            "encode_enumerative": encode_enumerative(af.arguments, model_masks(theory)),
            "condition": condition(theory, {af.arguments[0]: False}),
        }
        if not _acyclic(af, af._full_mask):
            table = _grounded_table(af, af._full_mask)[0]
            built["GR table"] = _diagram(af.arguments, table, _table_halves)
        for how, c in built.items():
            seeded = vars(c.nodes)
            fresh = _Nodes(c.nodes)
            assert seeded["_index"] == fresh._index, how
            walk = _walk(c, COUNTING, Labelling.constant(c.variables, 1))
            assert seeded["_counts"] == fresh._counts == walk, how
            assert model_count(c) == walk[c.root], how

    def test_index_is_built_once_per_node_tuple(self):
        c = self.hand_built()
        assert c.nodes._index is c.nodes._index
        assert c._replace(root=9).nodes._index is c.nodes._index
