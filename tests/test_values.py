"""The rule the six array-holding value types share: equality by value,
field by field, and array fields that are read-only, never a writable
array a caller still holds."""

import dataclasses

import numpy as np
import pytest

from hvdesign import (
    Dataset,
    FlipBudget,
    LevelTable,
    Prediction,
    Quantizer,
    TrainedModel,
    calibrate_quantizer,
    classify,
    load_model,
    save_model,
    train_model,
    uniform_flip_budget,
)
from hvdesign.hypervector import _frozen

TYPES = (FlipBudget, LevelTable, Quantizer, Dataset, TrainedModel, Prediction)


@pytest.fixture
def values(toy_dataset):
    """One value of each type as the package builds it, by type."""
    quantizer = calibrate_quantizer(toy_dataset, 5)
    budget = uniform_flip_budget(64, 5, features=2)
    model = train_model(toy_dataset, quantizer, budget, seed=21)
    return {
        FlipBudget: budget,
        LevelTable: model.table,
        Quantizer: quantizer,
        Dataset: toy_dataset,
        TrainedModel: model,
        Prediction: classify(toy_dataset.features[0], model),
    }


def parts(model):
    """A model and every value it holds."""
    return [model, model.quantizer, model.table, model.table.budgets]


def array_fields(value):
    return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)
            if isinstance(getattr(value, f.name), np.ndarray)}


class TestEquality:
    @pytest.mark.parametrize("kind", TYPES, ids=lambda t: t.__name__)
    def test_rebuilt_value_is_equal(self, values, kind):
        value = values[kind]
        copies = {name: array.copy() for name, array in array_fields(value).items()}
        rebuilt = dataclasses.replace(value, **copies)
        assert (rebuilt == value) is True and (rebuilt != value) is False

    @pytest.mark.parametrize("kind", TYPES, ids=lambda t: t.__name__)
    def test_other_types_are_unequal(self, values, kind):
        value = values[kind]
        for other in [*values.values(), None, 1, "x"]:
            if type(other) is not kind:
                assert (value == other) is False and (value != other) is True

    @pytest.mark.parametrize(
        "kind, change",
        [
            (Quantizer, {"mins": np.array([-1.0, 0.0])}),
            (Quantizer, {"maxs": np.array([1.0, 2.0])}),
            (Quantizer, {"levels": 6}),
            (Quantizer, {"mins": np.zeros(3), "maxs": np.ones(3)}),
            (Dataset, {"features": np.zeros((30, 2))}),
            (Dataset, {"labels": np.ones(30, dtype=np.int64)}),
            (Dataset, {"label_names": ["x", "y", "w"]}),
            (Dataset, {"feature_names": None}),
            (Prediction, {"label": 0}),
            (Prediction, {"similarities": np.zeros(3)}),
            (Prediction, {"similarities": np.zeros(2)}),
        ],
        ids=["q-mins", "q-maxs", "q-levels", "q-shape", "d-features", "d-labels",
             "d-label-names", "d-feature-names", "p-label", "p-similarities", "p-shape"],
    )
    def test_one_field_apart_is_unequal(self, values, kind, change):
        value = values[kind]
        changed = dataclasses.replace(value, **change)
        assert (changed == value) is False and (value != changed) is True


class TestReadOnlyArrays:
    @pytest.mark.parametrize("kind", TYPES, ids=lambda t: t.__name__)
    def test_every_array_field_is_read_only(self, values, kind):
        arrays = array_fields(values[kind])
        assert arrays
        for name, array in arrays.items():
            assert not array.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 1

    def test_loaded_model_holds_read_only_arrays(self, values, tmp_path):
        path = str(tmp_path / "m.hdcm")
        save_model(values[TrainedModel], path)
        for value in parts(load_model(path)):
            for name, array in array_fields(value).items():
                assert not array.flags.writeable, (type(value).__name__, name)

    def test_validated_fields_cannot_change(self, values):
        labels, mins = values[Dataset].labels, values[Quantizer].mins
        with pytest.raises(ValueError, match="read-only"):
            labels[0] = 99
        with pytest.raises(ValueError, match="read-only"):
            mins[0] = 5.0

    @pytest.mark.parametrize("kind", TYPES, ids=lambda t: t.__name__)
    def test_writable_argument_stays_writable(self, values, kind):
        value = values[kind]
        given = {name: np.array(array) for name, array in array_fields(value).items()}
        rebuilt = dataclasses.replace(value, **given)
        for name, array in given.items():
            assert array.flags.writeable, name
            assert not np.shares_memory(array, getattr(rebuilt, name)), name
            array.flat[0] += 1
        assert rebuilt == value

    def test_read_only_argument_of_the_dtype_is_kept(self, values):
        table = values[LevelTable]
        rebuilt = LevelTable(bases=table.bases, flips=table.flips, budgets=table.budgets,
                             seed=table.seed)
        assert rebuilt.bases is table.bases and rebuilt.flips is table.flips


class TestFrozen:
    def test_read_only_array_of_the_dtype_is_returned_as_it_is(self):
        array = np.arange(4)
        array.flags.writeable = False
        assert _frozen(array, np.int64) is array

    @pytest.mark.parametrize("writeable, dtype", [(True, np.int64), (False, np.float64),
                                                  (True, np.float64)])
    def test_anything_else_is_a_read_only_copy(self, writeable, dtype):
        array = np.arange(4)
        array.flags.writeable = writeable
        frozen = _frozen(array, dtype)
        assert frozen.dtype == dtype and not frozen.flags.writeable
        assert not np.shares_memory(frozen, array) and array.flags.writeable == writeable
        assert frozen.tolist() == [0, 1, 2, 3]

    def test_a_list_becomes_a_read_only_array(self):
        frozen = _frozen([[1, 2], [3, 4]], np.int8)
        assert frozen.dtype == np.int8 and frozen.shape == (2, 2)
        assert not frozen.flags.writeable
