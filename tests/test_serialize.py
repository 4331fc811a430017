"""Round-trip and schema-validation tests for the JSON interchange layer."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import random_ensemble, random_hermitian, random_povm
from povmlab.postproc import MarkovMatrix
from povmlab.serialize import (
    ParseError,
    SchemaError,
    dump_json,
    ensemble_from_json,
    ensemble_to_json,
    load_json_file,
    markov_from_json,
    markov_to_json,
    observable_from_json,
    observable_to_json,
    operator_from_json,
    operator_to_json,
    povm_from_json,
    povm_to_json,
    save_json_file,
)
from povmlab.povm import Observable
from povmlab.standard import pauli_projective, sic_povm


class TestOperator:
    def test_round_trip(self):
        rng = np.random.default_rng(1)
        X = random_hermitian(3, rng)
        doc = operator_to_json(X)
        assert doc["dim"] == 3
        assert_allclose(operator_from_json(doc), X, atol=0.0)

    def test_exact_floats_survive(self):
        X = np.array([[1.0 / 3.0, 0.1 + 0.7j], [0.1 - 0.7j, np.pi]])
        text = dump_json(operator_to_json(X))
        back = operator_from_json(json.loads(text))
        assert np.array_equal(back, X)  # bitwise, not approximate

    @pytest.mark.parametrize(
        "mutate,path",
        [
            (lambda d: d.pop("dim"), "operator"),
            (lambda d: d.pop("re"), "operator"),
            (lambda d: d.update(dim=-2), "operator.dim"),
            (lambda d: d.update(dim=2.0), "operator.dim"),
            (lambda d: d.update(re=[[1.0]]), "operator.re"),
            (lambda d: d.update(im="zeros"), "operator.im"),
        ],
    )
    def test_schema_violations(self, mutate, path):
        doc = operator_to_json(np.eye(2))
        mutate(doc)
        with pytest.raises(SchemaError) as err:
            operator_from_json(doc)
        assert err.value.path == path

    def test_non_object_rejected(self):
        with pytest.raises(SchemaError, match="expected an object"):
            operator_from_json([1, 2, 3])


class TestPovm:
    def test_round_trip_with_labels(self):
        P = pauli_projective("z")  # labels are the eigenvalues -1.0, 1.0
        doc = povm_to_json(P)
        assert doc["labels"] == ["-1.0", "1.0"]
        back = povm_from_json(doc)
        assert back.labels == ["-1.0", "1.0"]
        for a, b in zip(back.elements, P.elements):
            assert np.array_equal(a, b)

    def test_round_trip_without_labels(self):
        P = random_povm(3, 5, np.random.default_rng(7))
        doc = povm_to_json(P)
        assert "labels" not in doc
        back = povm_from_json(doc)
        assert back.labels is None
        assert back.dim == 3 and len(back) == 5

    def test_element_dimension_mismatch(self):
        doc = povm_to_json(sic_povm())
        doc["elements"][2] = operator_to_json(np.eye(3) / 3.0)
        with pytest.raises(SchemaError, match=r"elements\[2\]"):
            povm_from_json(doc)

    def test_empty_elements_rejected(self):
        with pytest.raises(SchemaError, match="nonempty"):
            povm_from_json({"dim": 2, "elements": []})

    def test_label_count_checked(self):
        doc = povm_to_json(sic_povm())
        doc["labels"] = ["a", "b"]
        with pytest.raises(SchemaError, match="one label per element"):
            povm_from_json(doc)

    def test_invalid_povm_still_fails_validation(self):
        doc = povm_to_json(sic_povm())
        doc["elements"] = doc["elements"][:3]  # breaks completeness
        doc.pop("labels")
        with pytest.raises(Exception, match="identity"):
            povm_from_json(doc)


class TestObservable:
    def test_round_trip(self):
        X = Observable(random_hermitian(3, np.random.default_rng(3)))
        back = observable_from_json(observable_to_json(X))
        assert np.array_equal(back.operator, X.operator)
        assert_allclose(back.eigenvalues, X.eigenvalues, atol=0.0)

    def test_missing_operator(self):
        with pytest.raises(SchemaError, match="missing key 'operator'"):
            observable_from_json({})


class TestEnsemble:
    def test_round_trip(self):
        E = random_ensemble(2, 4, np.random.default_rng(11))
        back = ensemble_from_json(ensemble_to_json(E))
        assert_allclose(back.weights, E.weights, atol=0.0)
        for a, b in zip(back.states, E.states):
            assert np.array_equal(a, b)
        assert_allclose(back.barycenter, E.barycenter, atol=1e-15)

    def test_weight_type_checked(self):
        doc = ensemble_to_json(random_ensemble(2, 2, np.random.default_rng(13)))
        doc["states"][0]["q"] = "half"
        with pytest.raises(SchemaError, match=r"states\[0\].q"):
            ensemble_from_json(doc)

    def test_empty_states_rejected(self):
        with pytest.raises(SchemaError, match="nonempty"):
            ensemble_from_json({"states": []})


class TestMarkov:
    def test_round_trip(self):
        M = MarkovMatrix([[0.25, 1.0, 0.0], [0.75, 0.0, 1.0]])
        doc = markov_to_json(M)
        assert doc["rows"] == 2 and doc["cols"] == 3
        back = markov_from_json(doc)
        assert np.array_equal(back.m, M.m)

    def test_shape_keys_checked(self):
        doc = markov_to_json(MarkovMatrix([[1.0], [0.0]]))
        doc["rows"] = "2"
        with pytest.raises(SchemaError, match="integers"):
            markov_from_json(doc)

    @pytest.mark.parametrize("key", ["rows", "cols"])
    def test_boolean_shape_key_rejected(self, key):
        # float(True) is 1.0, so a 1-wide matrix would otherwise load
        doc = markov_to_json(MarkovMatrix([[1.0]]))
        doc[key] = True
        with pytest.raises(SchemaError, match=f"markov.{key}: .*got True"):
            markov_from_json(doc)

    def test_entries_revalidated(self):
        doc = {"rows": 2, "cols": 1, "m": [[0.6], [0.6]]}
        with pytest.raises(ValueError, match="column 0"):
            markov_from_json(doc)


class TestFiles:
    def test_save_and_load(self, tmp_path):
        target = tmp_path / "povm.json"
        save_json_file(str(target), povm_to_json(sic_povm()))
        loaded = povm_from_json(load_json_file(str(target)))
        for a, b in zip(loaded.elements, sic_povm().elements):
            assert np.array_equal(a, b)

    def test_deterministic_bytes(self, tmp_path):
        doc = povm_to_json(random_povm(2, 3, np.random.default_rng(17)))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_json_file(str(a), doc)
        save_json_file(str(b), doc)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().endswith(b"\n")

    def test_missing_file_raises_parse_error(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        with pytest.raises(ParseError) as err:
            load_json_file(missing)
        assert err.value.filename == missing
        assert (err.value.line, err.value.column) == (0, 0)

    def test_syntax_error_carries_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "dim": 2,\n  "re": [[1, 0], [0, 1]\n}\n')
        with pytest.raises(ParseError) as err:
            load_json_file(str(bad))
        assert err.value.line == 4
        assert "4:" in str(err.value)

    def test_nan_rejected_on_dump(self):
        # the stdlib indent path's message, which names the value
        for value in ["nan", "inf", "-inf"]:
            with pytest.raises(ValueError) as err:
                dump_json({"x": float(value)})
            assert str(err.value) == f"Out of range float values are not JSON compliant: {value}"


# numbers at formatting edges, and strings that hold the separators the
# one-line encoding is split at
NUMBERS = (st.integers() | st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from([-0.0, 5e-324, 1e16, 1e-5, 0.1, 1e22, -1e-7]))
TEXTS = st.text() | st.sampled_from([", ", "], [", "[1, 2]", '"', "\\", "\n\t\x00\x1f", "é ∑ 日本"])
SCALARS = NUMBERS | TEXTS | st.booleans() | st.none()


def containers(children):
    rows = st.lists(NUMBERS, max_size=4)
    return (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(TEXTS, children, max_size=4) | rows
            | st.lists(rows, max_size=4) | st.lists(rows.map(tuple), max_size=4))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.recursive(SCALARS, containers, max_leaves=40))
@example(["a, b", 1.0])  # no list that holds a string is split at ", "
@example([[1.0, 2.0], ["], [", 3]])
@example({"m": [[1, 2.5], [], [3]], "k": [[-0.0], (5e-324, 1e16)], "e": [{}, [], ()]})
@example({7: [1], 2.5: {}, False: 0, None: "x"})  # keys the stdlib writes as strings
def test_dump_json_is_the_stdlib_indent_rendering(doc):
    assert dump_json(doc) == json.dumps(doc, indent=2, allow_nan=False) + "\n"
