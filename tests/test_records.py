"""Value records and the import footprint.

The records' constructor checks are tested with each record's module
(``test_beta.py``, ``test_formula_encode.py``)."""

from __future__ import annotations

import operator
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pargue
from pargue import (
    ArgumentationFramework,
    BetaLabel,
    Circuit,
    ClauseSet,
    CovarianceSpec,
    FuzzyLabel,
    LabelConfig,
    MomentPair,
    Node,
    QueryResult,
    Semantics,
    Semiring,
    ValidationReport,
)

# Each record class with the fields of one instance. Building the record twice
# from them gives two equal records.
RECORDS = {
    BetaLabel: (2.0, 3.0, None),
    MomentPair: (0.25, 0.01),
    FuzzyLabel: ("likely", "some_confidence"),
    LabelConfig: ((0.0, 0.5, 1.0), (0.0, 0.25), {("likely", "no_confidence"): (0.7, 0.1)}),
    Circuit: ((Node("lit", var="a"), Node("lit", var="a", positive=False)), 1, ("a",)),
    ClauseSet: (("a", "b"), 1, ((0b01, 0b10),)),
    ValidationReport: (True, False, True, None, 3, None),
    Semiring: ("max-times", max, operator.mul, 0.0, 1.0),
    CovarianceSpec: (("a", "b"), {("a", "b"): 0.01}),
    QueryResult: (
        0.5, 0.01, BetaLabel(12.0, 12.0), FuzzyLabel("chances_about_even", "some_confidence"),
        "a", Semantics.AD, "prob", 4, 2,
    ),
}


def _hashable(fields) -> bool:
    try:
        hash(fields)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
class TestRecords:
    def test_fields_cannot_be_assigned(self, cls):
        record = cls(*RECORDS[cls])
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], RECORDS[cls][0])
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_equal_fields_equal_records(self, cls):
        one, two = cls(*RECORDS[cls]), cls(*RECORDS[cls])
        assert one == two and not one != two
        if _hashable(RECORDS[cls]):
            assert hash(one) == hash(two)

    def test_a_tuple_of_its_fields(self, cls):
        record = cls(*RECORDS[cls])
        assert record == RECORDS[cls] and tuple(record) == RECORDS[cls]
        assert dict(zip(record._fields, record)) == {f: getattr(record, f) for f in record._fields}
        assert repr(record).startswith(f"{cls.__name__}({record._fields[0]}=")


def test_framework_is_immutable():
    one = ArgumentationFramework(["b", "a"], [("a", "b")])
    assert one != ArgumentationFramework(["a", "b"], [("b", "a")])
    with pytest.raises(AttributeError):
        one.arguments = ("a",)
    with pytest.raises(AttributeError):
        del one.attacks
    assert repr(one) == "ArgumentationFramework(arguments=('a', 'b'), attacks=frozenset({('a', 'b')}))"


def test_import_loads_no_heavy_modules():
    # A fresh interpreter: the modules it holds before the import are those
    # that a bare ``python -c pass`` starts with.
    src = str(Path(pargue.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    script = (
        "import sys; bare = set(sys.modules); import pargue.cli; "
        "print(' '.join(sorted(set(sys.modules) - bare)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60, check=True,
    )
    loaded = set(done.stdout.split())
    assert "pargue.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "csv", "numpy", "typing"}), loaded
