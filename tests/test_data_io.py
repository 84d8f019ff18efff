import dataclasses
import itertools
import math
import os
import re
import string
import struct
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hvdesign import (
    ConfigError,
    DataError,
    Dataset,
    FlipBudget,
    FormatError,
    HvError,
    ParseError,
    Quantizer,
    ShapeError,
    TrainedModel,
    build_level_table,
    calibrate_quantizer,
    encode_quantized,
    export_sample_hypervectors,
    fit_baseline,
    generate_linear,
    generate_motivational,
    load_dataset_csv,
    load_model,
    predict_batch,
    save_dataset_csv,
    save_model,
    train_model,
    uniform_flip_budget,
)
import hvdesign.data
from hvdesign.data import MOTIVATIONAL_LOOKUP, model_bytes, motivational_label
from hvdesign.hypervector import _schedule

from conftest import repaired, traced_peak


def table_span(n_features, levels, dim):
    """(start, end) of the level table in a model file: after the header
    (32 bytes), the calibration range (16 bytes a feature) and the budget
    (4 bytes a transition), ceil(N*M*D / 8) bytes."""
    start = 32 + 16 * n_features + 4 * n_features * (levels - 1)
    return start, start + -(-n_features * levels * dim // 8)


# The JSON name blocks of a model trained on the toy dataset.
LABELS, FEATURES = b'["x", "y", "z"]', b'["f1", "f2"]'


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadCsv:
    def test_basic(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b,label\n1,2,x\n3,4,y\n5,6,x\n")
        ds = load_dataset_csv(path, "label")
        assert ds.n_samples == 3 and ds.n_features == 2
        assert ds.label_names == ["x", "y"]
        assert ds.labels.tolist() == [1, 2, 1]
        assert ds.feature_names == ["a", "b"]

    def test_label_column_by_index(self, tmp_path):
        path = write(tmp_path, "d.csv", "lab,v\nx,1\ny,2\n")
        ds = load_dataset_csv(path, 0)
        assert ds.label_names == ["x", "y"]
        assert ds.features.tolist() == [[1.0], [2.0]]

    def test_nan_token_names_cell(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,label\nnan,x\n")
        with pytest.raises(ParseError, match="'a'"):
            load_dataset_csv(path, "label")

    def test_non_numeric_names_cell(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,label\n1,x\noops,y\n")
        with pytest.raises(ParseError, match=r":3:.*'oops'"):
            load_dataset_csv(path, "label")

    def test_ragged_row_names_line(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b,label\n1,2,x\n3,y\n")
        with pytest.raises(ParseError, match=":3:"):
            load_dataset_csv(path, "label")

    @pytest.mark.parametrize(
        "row, message",
        [("oops,c", r"d\.csv:4: non-numeric value 'oops'"),
         ("1,2,c", r"d\.csv:4: expected 2 fields, got 3")],
        ids=["bad-cell", "field-count"],
    )
    def test_error_after_multiline_cell_names_physical_line(self, tmp_path, row, message):
        # The quoted label spans lines 2 and 3, so the bad record is on line 4.
        path = write(tmp_path, "d.csv", f'f1,label\n0.5,"a\nb"\n{row}\n')
        with pytest.raises(ParseError, match=message):
            load_dataset_csv(path, "label")

    @pytest.mark.parametrize("quote", ["", '"'], ids=["plain", "quoted"])
    def test_field_over_csv_limit_names_line(self, tmp_path, quote):
        # numpy reads the plain cell, but both forms get the loop's error.
        cell = "0." + "0" * 140_000 + "1"
        path = write(tmp_path, "d.csv", f"a,label\n1,x\n{quote}{cell}{quote},y\n")
        with pytest.raises(ParseError, match=r"d\.csv:3: field larger than field limit"):
            load_dataset_csv(path, "label")

    def test_line_over_csv_limit_with_short_fields_loads(self, tmp_path):
        cell = "0." + "0" * 70_000 + "1"
        path = write(tmp_path, "d.csv", f"a,b,label\n{cell},{cell},x\n2,3,y\n")
        ds = load_dataset_csv(path, "label")
        assert ds.features.tolist() == [[float(cell)] * 2, [2.0, 3.0]]

    @pytest.mark.parametrize("rows", [0, 2000])
    def test_not_utf8_names_byte_offset(self, tmp_path, rows):
        # 2000 rows put the bad byte past the text layer's first chunk.
        head = b"f1,label\n" + b"0.25,a\n" * rows
        path = tmp_path / "d.csv"
        path.write_bytes(head + b"0.5,\xe9\n0.7,b\n")
        with pytest.raises(ParseError, match=rf"d\.csv: byte {len(head) + 4} is not valid UTF-8"):
            load_dataset_csv(str(path), "label")

    def test_duplicate_headers_rejected(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,a,label\n1,2,x\n")
        with pytest.raises(ParseError, match="duplicate"):
            load_dataset_csv(path, "label")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset_csv(str(tmp_path / "nope.csv"), "label")

    def test_unseen_test_label_rejected(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,label\n1,x\n2,z\n")
        with pytest.raises(DataError, match="z"):
            load_dataset_csv(path, "label", label_names=["x", "y"])

    def test_round_trip(self, tmp_path, toy_dataset):
        path = str(tmp_path / "out.csv")
        save_dataset_csv(toy_dataset, path)
        back = load_dataset_csv(path, "label")
        assert np.array_equal(back.features, toy_dataset.features)
        assert np.array_equal(back.labels, toy_dataset.labels)


# Cells of the CSV differential test: `float()` accepts `1_0` and `١` while
# numpy does not; `nan`, `inf` and `1e309` parse to non-finite values.
ODD_CELLS = ["1_0", "\u0661", "nan", "inf", "-inf", "1e309", "-0", "", " 4", "5 ", "\t6",
             "+7", ".5", "0x10", "1e3"]
LABEL_CELLS = ["x", "y", "z", " x", "x ", "1", ""]


def quote(cell):
    return '"' + cell.replace('"', '""') + '"'


class TestCsvReaders:
    """`load_dataset_csv` against its reference loop, reached by patching
    the one-pass reader to decline every body."""

    @pytest.fixture(scope="class")
    def csv_files(self, tmp_path_factory):
        return tmp_path_factory.mktemp("csv"), itertools.count()

    @staticmethod
    def outcome(path, label_column, label_names):
        try:
            ds = load_dataset_csv(path, label_column, label_names=label_names)
        except HvError as exc:
            return type(exc), str(exc)
        return (ds.features.shape, ds.features.tobytes(), ds.labels.tolist(), ds.label_names,
                ds.feature_names)

    @given(st.data())
    @settings(max_examples=1000, deadline=None)
    def test_same_dataset_or_error_as_reference_loop(self, csv_files, data):
        directory, serial = csv_files
        n_columns = data.draw(st.integers(1, 4))
        label_idx = data.draw(st.integers(0, n_columns - 1))
        header = [f"f{i}" for i in range(n_columns)]
        header[label_idx] = "label"
        # Each oddity of shape on its own in a quarter of the files, so about
        # a third of the files are plain and reach numpy's reader; half of
        # the files have odd cells, a quarter of their cells each.
        quoted, crlf, blank_lines, ragged = (data.draw(st.integers(0, 3)) == 0 for _ in range(4))
        odd_cells = data.draw(st.booleans())
        number = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.integers().map(str)
        odd_number = st.sampled_from(ODD_CELLS) | st.text(string.printable, max_size=4)
        label = st.sampled_from(LABEL_CELLS)
        odd_label = st.text(string.printable, max_size=3)

        def cell(i):
            odd = odd_cells and data.draw(st.integers(0, 3)) == 0
            if i == label_idx:
                return data.draw(odd_label if odd else label)
            return data.draw(odd_number if odd else number)

        if quoted:
            header = [quote(h) if data.draw(st.booleans()) else h for h in header]
        lines = [",".join(header)]
        for _ in range(data.draw(st.integers(0, 5))):
            row = [cell(i) for i in range(n_columns)]
            if quoted:
                row = [quote(c) if data.draw(st.booleans()) else c for c in row]
            if ragged:
                width = data.draw(st.sampled_from([0, 0, -1, 1]))  # short or long rows
                row = row[:-1] if width < 0 else row + ["9"] * width
            lines.append(",".join(row))
        if blank_lines:
            for _ in range(data.draw(st.integers(1, 2))):  # blank and whitespace-only lines
                at = data.draw(st.integers(1, len(lines)))
                lines.insert(at, data.draw(st.sampled_from(["", " ", "\t"])))
        eol = "\r\n" if crlf else "\n"
        text = eol.join(lines) + (eol if data.draw(st.booleans()) else "")
        path = directory / f"d-{next(serial)}.csv"  # one new file per case
        path.write_bytes(text.encode("utf-8"))

        label_column = data.draw(st.sampled_from(["label", label_idx]))
        label_names = data.draw(st.sampled_from([None, None, ["x", "y", "z"], ["x"]]))
        read_plain, bodies_read = hvdesign.data._read_plain, []

        def spy(body, *args):
            result = read_plain(body, *args)
            if result is not None:
                bodies_read.append(body)
            return result

        with mock.patch.object(hvdesign.data, "_read_plain", spy):
            fast = self.outcome(str(path), label_column, label_names)
        with mock.patch.object(hvdesign.data, "_read_plain", lambda *args: None):
            reference = self.outcome(str(path), label_column, label_names)
        assert fast == reference
        # Quoted, CRLF and blank-line bodies always take the reference loop.
        for body in bodies_read:
            assert '"' not in body and "\r" not in body
            assert "\n\n" not in body and not body.startswith("\n")


class TestDataset:
    def test_label_count_must_match_samples(self):
        with pytest.raises(ShapeError, match="label count does not match sample count"):
            Dataset(features=np.zeros((3, 1)), labels=np.array([1, 2]), label_names=["a", "b"])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_feature_rejected(self, bad):
        with pytest.raises(DataError, match="non-finite feature values"):
            Dataset(features=np.array([[0.5], [bad]]), labels=np.array([1, 2]),
                    label_names=["a", "b"])


def levels_of(quantizer, values):
    """The levels of one sample's feature values."""
    return quantizer.quantize_matrix(np.array([values], dtype=np.float64))[0]


def masked_levels(quantizer, values):
    """The reference formula for `quantize_matrix`: arithmetic only on the
    features with a nonzero span, on unclamped values whose scaled offset
    may overflow to +-inf, clipped to 1..M afterwards."""
    span = quantizer.maxs - quantizer.mins
    out = np.ones(values.shape, dtype=np.int64)
    ok = span > 0
    if np.any(ok):
        with np.errstate(over="ignore"):
            raw = 1 + np.floor((values[:, ok] - quantizer.mins[ok]) * quantizer.levels / span[ok])
        out[:, ok] = np.clip(raw, 1, quantizer.levels).astype(np.int64)
    return out


@st.composite
def quantizer_cases(draw):
    """A quantizer of up to 4 features, some degenerate, some near the
    widest range M allows, and up to 6 rows of values: the range ends, one
    ulp either side of them, level boundaries, +-1e308 and any finite float."""
    levels = draw(st.sampled_from([2, 20, 300]))
    mins, maxs, specials = [], [], []
    for _ in range(draw(st.integers(1, 4))):
        low = draw(st.floats(-1e307, 1e307))
        width = draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0),
                               st.floats(0.0, np.finfo(np.float64).max / levels)))
        high = low + width
        assume(math.isfinite((high - low) * levels))
        boundaries = [low + (high - low) * j / levels for j in (1, levels // 2, levels - 1)]
        mins.append(low)
        maxs.append(high)
        specials.append(st.sampled_from(
            [low, high, np.nextafter(low, -np.inf), np.nextafter(low, np.inf),
             np.nextafter(high, -np.inf), np.nextafter(high, np.inf), 1e308, -1e308,
             *boundaries]
        ))
    values = [[draw(st.one_of(special, st.floats(allow_nan=False, allow_infinity=False)))
               for special in specials] for _ in range(draw(st.integers(0, 6)))]
    quantizer = Quantizer(mins=np.array(mins), maxs=np.array(maxs), levels=levels)
    return quantizer, np.array(values, dtype=np.float64).reshape(-1, len(mins))


class TestQuantizer:
    @given(quantizer_cases())
    @settings(max_examples=300, deadline=None)
    @example((  # the widest range that fits at M=20
        Quantizer(mins=np.array([0.0]), maxs=np.array([8e306]), levels=20),
        np.array([[0.0], [4e306], [8e306], [np.nextafter(8e306, np.inf)],
                  [np.nextafter(0.0, -np.inf)], [1e308], [-1e308]]),
    ))
    @example((  # zero rows, one degenerate feature
        Quantizer(mins=np.array([1.0, 0.0]), maxs=np.array([1.0, 2.0]), levels=300),
        np.empty((0, 2)),
    ))
    def test_matches_masked_formula(self, case):
        quantizer, values = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            levels = quantizer.quantize_matrix(values)
        want = masked_levels(quantizer, values)
        assert levels.dtype == np.int64 and levels.shape == values.shape
        assert np.array_equal(levels, want)

    def test_calibration_min_max(self):
        ds = Dataset(
            features=np.array([[0.0], [0.5], [1.0]]),
            labels=np.array([1, 1, 2]),
            label_names=["a", "b"],
        )
        q = calibrate_quantizer(ds, 4)
        assert q.mins[0] == 0.0 and q.maxs[0] == 1.0

    def test_paper_toy_intervals(self):
        q = Quantizer(mins=np.array([0.0, -10.0]), maxs=np.array([1.0, 0.0]), levels=10)
        # -1.2 lies in [-2, -1), the 9th interval of f2. (The original
        # worked example states 8; enumeration of its own intervals says 9.)
        assert levels_of(q, [0.17, -1.2]).tolist() == [2, 9]
        assert levels_of(q, [0.0, -10.0])[0] == 1
        assert levels_of(q, [0.95, -10.0])[0] == 10

    def test_clamping(self):
        q = Quantizer(mins=np.array([0.0]), maxs=np.array([1.0]), levels=5)
        assert levels_of(q, [1.0])[0] == 5
        assert levels_of(q, [2.0])[0] == 5
        assert levels_of(q, [-1.0])[0] == 1

    def test_degenerate_feature_warns_and_maps_to_one(self):
        ds = Dataset(
            features=np.array([[3.0, 0.1], [3.0, 0.9]]),
            labels=np.array([1, 2]),
            label_names=["a", "b"],
        )
        with pytest.warns(UserWarning, match="degenerate"):
            q = calibrate_quantizer(ds, 4)
        assert q.degenerate.tolist() == [True, False]
        assert levels_of(q, [3.0, 0.1])[0] == 1
        assert levels_of(q, [99.0, 0.1])[0] == 1

    def test_non_finite_rejected(self):
        q = Quantizer(mins=np.array([0.0]), maxs=np.array([1.0]), levels=5)
        with pytest.raises(DataError):
            levels_of(q, [float("nan")])

    @pytest.mark.parametrize("levels", [-1, 0, 1])
    def test_fewer_than_two_levels_rejected(self, levels):
        with pytest.raises(ConfigError, match="at least 2"):
            Quantizer(mins=np.array([0.0]), maxs=np.array([1.0]), levels=levels)

    @pytest.mark.parametrize("levels", [20.0, 2.5, True, "20"])
    def test_levels_that_are_not_integers_rejected(self, levels):
        # Refused at construction: a float count would reach the first
        # quantize_matrix, where numpy cannot cast its level cap.
        with pytest.raises(ConfigError, match="levels must be an integer"):
            Quantizer(mins=np.array([0.0]), maxs=np.array([1.0]), levels=levels)
        ds = Dataset(features=np.array([[0.0], [1.0]]), labels=np.array([1, 2]),
                     label_names=["a", "b"])
        with pytest.raises(ConfigError, match="levels must be an integer"):
            calibrate_quantizer(ds, levels)

    def test_numpy_integer_levels_accepted(self):
        q = Quantizer(mins=np.array([0.0]), maxs=np.array([1.0]), levels=np.int64(4))
        assert levels_of(q, [1.0]).tolist() == [4]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_range_rejected(self, bad):
        with pytest.raises(DataError, match="finite"):
            Quantizer(mins=np.array([bad, 0.0]), maxs=np.array([1.0, 1.0]), levels=4)
        with pytest.raises(DataError, match="finite"):
            Quantizer(mins=np.array([0.0, 0.0]), maxs=np.array([1.0, bad]), levels=4)

    @pytest.mark.parametrize("mins, maxs", [([0.0, 0.0], [1.0]), ([[0.0]], [[1.0]])],
                             ids=["unequal", "two-d"])
    def test_range_arrays_must_be_equal_length_1d(self, mins, maxs):
        with pytest.raises(ShapeError, match="equal-length 1-D"):
            Quantizer(mins=np.array(mins), maxs=np.array(maxs), levels=4)

    def test_wrong_width_rejected(self):
        q = Quantizer(mins=np.array([0.0, 0.0]), maxs=np.array([1.0, 1.0]), levels=4)
        with pytest.raises(ShapeError, match=r"expected 2 features, got shape \(1, 3\)"):
            levels_of(q, [0.5, 0.5, 0.5])

    @pytest.mark.parametrize("low, high", [(-1e308, 1e308), (0.0, 1e308), (0.0, 1e307)])
    def test_range_too_wide_to_quantize_refused(self, low, high):
        # (max - min) * 20 overflows, so no level width exists: at [0, 1e308]
        # the value 5e307 would take level 20 instead of 11.
        ds = Dataset(features=np.array([[low], [high]]), labels=np.array([1, 2]),
                     label_names=["a", "b"])
        with pytest.raises(DataError, match=r"features \[0\] have ranges too wide"):
            calibrate_quantizer(ds, 20)
        named = dataclasses.replace(ds, feature_names=["f1"])
        with pytest.raises(DataError, match=r"features \['f1'\] have ranges too wide"):
            calibrate_quantizer(named, 20)

    def test_widest_range_that_fits_quantizes_exactly(self):
        q = Quantizer(mins=np.array([0.0]), maxs=np.array([8e306]), levels=20)
        assert levels_of(q, [4e306]).tolist() == [11]
        assert levels_of(q, [8e306]).tolist() == [20]

    def test_far_query_clamps_without_warning(self):
        q = Quantizer(mins=np.array([0.0, -1.0]), maxs=np.array([1.0, 0.0]), levels=20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert levels_of(q, [1e308, -1e308]).tolist() == [20, 1]
            assert levels_of(q, [-1e308, 1e308]).tolist() == [1, 20]

    def test_wide_calibration_is_held_once(self):
        # The fresh minima and maxima are handed to Quantizer read-only, so
        # it keeps them, not copies: 3.13 N*8 bytes measured (mins, maxs and
        # the range check's float temporary), where the copies made it 5.13.
        n = 100_000
        wide = Dataset(features=np.random.default_rng(0).uniform(size=(2, n)),
                       labels=np.array([1, 2]), label_names=["a", "b"])
        calibrate_quantizer(wide, 20)  # warm
        assert traced_peak(lambda: calibrate_quantizer(wide, 20)) <= 3.5 * n * 8

    @given(st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=100)
    def test_monotone(self, x1, x2):
        q = Quantizer(mins=np.array([-1.0]), maxs=np.array([1.0]), levels=7)
        lo, hi = sorted([x1, x2])
        assert levels_of(q, [lo])[0] <= levels_of(q, [hi])[0]


class TestMotivational:
    def test_four_classes_present(self, motivational):
        assert sorted(np.unique(motivational.labels)) == [1, 2, 3, 4]
        assert motivational.label_names == ["C1", "C2", "C3", "C4"]
        assert motivational.n_samples == 1600

    def test_interior_points_share_region_label(self):
        # Strictly inside the rectangle (column 1, row 0).
        for x1, x2 in [(0.26, 0.01), (0.3, 0.2), (0.49, 0.24)]:
            assert motivational_label(x1, x2) == MOTIVATIONAL_LOOKUP[0][1]

    def test_every_cut_separates_classes(self):
        eps = 1e-6
        rows = [0.1, 0.5, 0.9]
        cols = [0.1, 0.3, 0.6, 0.9]
        for cut in (0.25, 0.5, 0.75):
            assert any(
                motivational_label(cut - eps, y) != motivational_label(cut + eps, y)
                for y in rows
            )
        for cut in (0.25, 0.75):
            assert any(
                motivational_label(x, cut - eps) != motivational_label(x, cut + eps)
                for x in cols
            )

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset_csv(generate_motivational(25, seed=3), str(a))
        save_dataset_csv(generate_motivational(25, seed=3), str(b))
        assert a.read_bytes() == b.read_bytes()
        save_dataset_csv(generate_motivational(25, seed=4), str(b))
        assert a.read_bytes() != b.read_bytes()

    def test_minimum_grid_enforced(self):
        with pytest.raises(ValueError):
            generate_motivational(10)

    @pytest.mark.parametrize("call, match", [
        (lambda: generate_motivational(20.5), "^grid_per_axis must be an integer, got 20.5$"),
        (lambda: generate_motivational(True), "^grid_per_axis must be an integer, got True$"),
        (lambda: generate_motivational(20, seed=1.5), "^seed must be an integer, got 1.5$"),
        (lambda: generate_motivational(20, seed=-1), r"^seed must be in \[0, 2\*\*64\)"),
        (lambda: generate_linear(10.5, 4), "^n_samples must be an integer, got 10.5$"),
        (lambda: generate_linear(10, 4.0), "^n_features must be an integer, got 4.0$"),
        (lambda: generate_linear(0, 4), "^n_samples must be >= 1, got 0$"),
        (lambda: generate_linear(10, 4, seed=1.5), "^seed must be an integer, got 1.5$"),
    ], ids=["grid-fraction", "grid-bool", "motivational-seed-fraction",
            "motivational-seed-negative", "linear-samples-fraction",
            "linear-features-float", "linear-no-samples", "linear-seed-fraction"])
    def test_counts_and_seeds_must_be_integers(self, call, match):
        with pytest.raises(ConfigError, match=match):
            call()


@st.composite
def trained_models(draw):
    """A model as `train_model` builds it: N, M, K, D and a seed below
    2**64 drawn, some classes possibly empty, any distinct label strings,
    feature names or none, and a repaired budget."""
    n_feat = draw(st.integers(1, 3))
    levels = draw(st.integers(2, 6))
    n_classes = draw(st.integers(2, 4))
    dim = draw(st.sampled_from([2, 6, 16, 64]))
    seed = draw(st.integers(0, 2**64 - 1))
    values = st.floats(-10.0, 10.0, allow_nan=False)
    rows = draw(st.lists(st.lists(values, min_size=n_feat, max_size=n_feat),
                         min_size=1, max_size=20))
    labels = draw(st.lists(st.integers(1, n_classes), min_size=len(rows), max_size=len(rows)))
    names = st.text(max_size=4)
    train = Dataset(
        features=np.array(rows),
        labels=np.array(labels),
        label_names=draw(st.lists(names, min_size=n_classes, max_size=n_classes, unique=True)),
        feature_names=draw(st.none() | st.lists(names, min_size=n_feat, max_size=n_feat)),
    )
    budget = draw(st.lists(
        st.lists(st.integers(0, dim // 2), min_size=levels - 1, max_size=levels - 1),
        min_size=n_feat, max_size=n_feat,
    ))
    budget = repaired(budget, dim)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # constant features and empty classes warn
        return train_model(train, calibrate_quantizer(train, levels), budget, seed)


class TestModelFile:
    @pytest.fixture
    def model(self, toy_dataset):
        return fit_baseline(toy_dataset, 64, 5, seed=21)

    def test_round_trip(self, model, tmp_path):
        path = str(tmp_path / "m.hdcm")
        save_model(model, path)
        assert load_model(path) == model

    def test_equality_compares_every_stored_field(self, model):
        counts = [c + 1 for c in model.class_counts]
        assert dataclasses.replace(model) == model
        assert dataclasses.replace(model, feature_names=["x", "y"]) != model
        assert dataclasses.replace(model, class_counts=counts) != model

    @given(trained_models())
    @settings(max_examples=150, deadline=None)
    def test_every_trained_model_round_trips(self, file_slots, model):
        path = file_slots()
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert loaded == model
        assert model_bytes(loaded) == path.read_bytes()

    def test_stored_seed_is_the_tables(self, model, tmp_path):
        # The header's seed is the one the table was drawn from, so another
        # table is another model, and it round trips as itself.
        other = dataclasses.replace(model, table=build_level_table(22, model.table.budgets))
        assert other != model and other.table.seed == 22
        path = tmp_path / "m.hdcm"
        save_model(other, str(path))
        assert struct.unpack("<Q", path.read_bytes()[24:32]) == (22,)
        assert load_model(str(path)) == other

    @pytest.mark.parametrize(
        "change, error, match",
        [
            ({"seed": 2**64}, ConfigError,
             r"seed must be in \[0, 2\*\*64\), got 18446744073709551616"),
            ({"class_counts": [2**32, 0, 0]}, FormatError, "class counts exceed the u32 range"),
        ],
        ids=["seed-past-u64", "count-past-u32"],
    )
    def test_field_too_wide_refused_before_writing(self, toy_dataset, model, tmp_path, change,
                                                   error, match):
        # A seed past u64 is refused by `train_model`, whose table holds only
        # a u64 seed, so no such model exists to save; a count past u32 by
        # `save_model`. Either way nothing is written.
        path = tmp_path / "m.hdcm"
        with pytest.raises(error, match=match):
            if "seed" in change:
                model = train_model(toy_dataset, model.quantizer, model.table.budgets,
                                    change["seed"])
            else:
                model = dataclasses.replace(model, **change)
            save_model(model, str(path))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("dim, levels", [(2, 2), (6, 3), (10, 5)])
    def test_round_trip_dim_not_a_multiple_of_8(self, toy_dataset, tmp_path, dim, levels):
        # The table is packed flat, so its rows do not start on byte bounds.
        model = fit_baseline(toy_dataset, dim, levels, seed=21)
        path = str(tmp_path / "m.hdcm")
        save_model(model, path)
        assert load_model(path) == model

    def test_size_formula_matches_file(self, model, tmp_path):
        path = str(tmp_path / "m.hdcm")
        save_model(model, path)
        import json

        dim, n, m, k = 64, 2, 5, 3
        expected = (
            4 + 4 + 4 * 4 + 8  # magic, version, D, N, M, K, seed
            + 8 * n + 8 * n  # calibration minima and maxima
            + 4 * n * (m - 1)  # flip budgets
            + -(-n * m * dim // 8)  # level table, ceil(N*M*D / 8)
            + 4 * k * dim  # encoders
            + 4 * k  # class counts
            + 4 + len(json.dumps(model.labels))
            + 4 + len(json.dumps(model.feature_names))
        )
        assert os.path.getsize(path) == expected

    def test_size_scales_linearly_in_dim(self, toy_dataset, tmp_path):
        big = str(tmp_path / "big.hdcm")
        small = str(tmp_path / "small.hdcm")
        save_model(fit_baseline(toy_dataset, 2048, 5, seed=0), big)
        save_model(fit_baseline(toy_dataset, 64, 5, seed=0), small)
        assert os.path.getsize(big) / os.path.getsize(small) >= 25

    def test_corrupted_magic_rejected(self, model, tmp_path):
        path = tmp_path / "m.hdcm"
        save_model(model, str(path))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            load_model(str(path))

    def test_truncated_rejected(self, model, tmp_path):
        path = tmp_path / "m.hdcm"
        save_model(model, str(path))
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(FormatError, match="truncated|trailing"):
            load_model(str(path))

    def test_trailing_bytes_rejected(self, model, tmp_path):
        path = tmp_path / "m.hdcm"
        save_model(model, str(path))
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(FormatError, match=r"m\.hdcm: 1 trailing bytes$"):
            load_model(str(path))

    def test_encoders_beyond_int32_rejected(self, model):
        encoders = model.encoders.copy()
        encoders[0, 0] = 2**31
        with pytest.raises(FormatError, match="int32 range"):
            model_bytes(dataclasses.replace(model, encoders=encoders))

    # Header: magic, then u32 version, D, N, M, K, then the u64 seed; with
    # N=2 the calibration minima start at byte 32 and the maxima at byte 48,
    # and the budget block starts at byte 64. The toy features lie in [0, 1)
    # and every budget row of D=64, M=5 sums to exactly D/2 = 32.
    @pytest.mark.parametrize(
        "offset, patch, match",
        [
            (64, struct.pack("<i", -1), "negative"),
            (64, struct.pack("<i", 9), "exceed D/2"),
            (32, struct.pack("<d", 2.0), "minimum exceeds"),
            (32, struct.pack("<d", -math.inf), "non-finite"),
            (32, struct.pack("<d", math.nan), "non-finite"),
            (48, struct.pack("<d", math.inf), "non-finite"),
            (48, struct.pack("<d", 1e308), "too wide to quantize"),
            (16, struct.pack("<I", 1), "levels"),
            (16, struct.pack("<I", 0), "levels"),
            (8, struct.pack("<I", 63), "dimension"),
            (8, struct.pack("<I", 0), "dimension"),
            (LABELS, b'["x", "y"]     ', "label list does not name 3"),
            (LABELS, b'{"x": "y"}     ', "label list does not name 3"),
            (LABELS, b'\xff"x", "y", "z"]', "corrupt"),
            (LABELS, b'["x", "y", "z"}', "corrupt"),
            (LABELS, b'["x", "x", "z"]', "label list does not name 3"),
            (LABELS, b'[1, 2, 3]      ', "label list does not name 3"),
            (FEATURES, b'5           ', "feature name list does not name 2"),
            (FEATURES, b'{"x": 1}    ', "feature name list does not name 2"),
            (FEATURES, b'["only"]    ', "feature name list does not name 2"),
            (FEATURES, b'[1, 2]      ', "feature name list does not name 2"),
            (None, None, "1 classes, need at least 2"),
        ],
        ids=["negative-budget", "budget-above-half", "min-above-max", "min-minus-inf",
             "min-nan", "max-inf", "max-too-wide", "one-level", "zero-levels", "odd-dim",
             "zero-dim", "two-labels-for-three-classes", "labels-not-a-list", "labels-not-utf8",
             "labels-not-json", "repeated-label", "labels-not-strings", "features-a-number",
             "features-not-a-list", "one-name-for-two-features", "features-not-strings",
             "one-class"],
    )
    def test_bad_header_or_budget_rejected(self, model, hand_built_model, tmp_path, offset,
                                           patch, match):
        path = tmp_path / "m.hdcm"
        save_model(model, str(path))
        raw = bytearray(path.read_bytes())
        if offset is None:  # a hand-built file, consistent but for K = 1
            raw = hand_built_model(1)
        else:
            if isinstance(offset, bytes):  # same-length replacement of a name block
                assert len(patch) == len(offset)
                offset = raw.rindex(offset)
            raw[offset : offset + len(patch)] = patch
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=match):
            load_model(str(path))

    def test_hand_built_two_class_file_loads(self, hand_built_model, tmp_path):
        path = tmp_path / "m.hdcm"
        path.write_bytes(hand_built_model(2))
        model = load_model(str(path))
        assert model.labels == ["a", "b"] and model.table.dim == 16

    def test_zero_features_rejected(self, hand_built_model, tmp_path):
        path = tmp_path / "m.hdcm"
        path.write_bytes(hand_built_model(2, n_features=0))
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: 0 features"):
            load_model(str(path))

    @pytest.mark.parametrize("dim", [10, 16, 8192])
    def test_table_bytes_match_flat_repacking_of_signs(self, toy_dataset, sign_oracle, tmp_path,
                                                       dim):
        # The file holds the flat packing of all N*M*D signs, as it always has.
        model = fit_baseline(toy_dataset, dim, 5, seed=21)
        path = tmp_path / "m.hdcm"
        save_model(model, str(path))
        start, end = table_span(2, 5, dim)
        signs = sign_oracle(21, model.table.budgets.budgets, dim)
        assert path.read_bytes()[start:end] == np.packbits(signs > 0).tobytes()
        assert load_model(str(path)) == model

    def test_flipped_table_byte_refused_on_a_warm_memo(self, toy_dataset, tmp_path):
        # A load of the intact file leaves its schedule in the memo, so each
        # later load draws none; it still builds the table from the budget
        # and compares every stored byte with it.
        model = fit_baseline(toy_dataset, 64, 5, seed=21)
        path = tmp_path / "m.hdcm"
        save_model(model, str(path))
        intact = path.read_bytes()
        assert load_model(str(path)) == model
        start, end = table_span(2, 5, 64)
        misses = _schedule.cache_info().misses
        for offset in range(start, end):
            raw = bytearray(intact)
            raw[offset] ^= 0xFF
            path.write_bytes(bytes(raw))
            with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: stored level "
                                                  "table does not match its seed and budget$"):
                load_model(str(path))
        assert _schedule.cache_info().misses == misses

    @pytest.mark.parametrize("dim", [10, 64, 2048])
    def test_swapped_flip_columns_rejected(self, toy_dataset, sign_oracle, tmp_path, dim):
        # Two indices of feature 0 with the same base sign and different
        # first flip levels trade columns at every level. Each level keeps
        # its flip count and the flip sets stay nested, but the flips no
        # longer follow the permutation drawn from the seed.
        model = fit_baseline(toy_dataset, dim, 5, seed=21)
        path = tmp_path / "m.hdcm"
        save_model(model, str(path))
        original = sign_oracle(21, model.table.budgets.budgets, dim)  # (N=2, M=5, D)
        signs = original.copy()
        flipped = signs[0] != signs[0, 0]
        first = np.where(flipped.any(axis=0), flipped.argmax(axis=0), 5)
        i, j = next((i, j) for i, j in itertools.combinations(range(dim), 2)
                    if signs[0, 0, i] == signs[0, 0, j] and first[i] != first[j])
        signs[0][:, [i, j]] = signs[0][:, [j, i]]
        assert np.array_equal((signs != signs[:, :1]).sum(axis=-1),
                              (original != original[:, :1]).sum(axis=-1))
        start, end = table_span(2, 5, dim)
        raw = bytearray(path.read_bytes())
        assert raw[start:end] == np.packbits(original > 0).tobytes()
        raw[start:end] = np.packbits(signs > 0).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="does not match its seed and budget"):
            load_model(str(path))

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 10, 64]),
        st.integers(1, 3),
        st.integers(2, 6),
        st.sampled_from(["none", "bit", "padding", "columns", "levels", "seed"]),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_file_loads_exactly_with_the_built_table(
        self, sign_oracle, file_slots, seed, dim, n_feat, levels, damage, data
    ):
        # A file loads if and only if its table bytes are those of the table
        # its seed and budget build; any other table is the same FormatError.
        rows = [
            np.diff([0, *sorted(data.draw(st.lists(
                st.integers(0, dim // 2), min_size=levels - 1, max_size=levels - 1
            )))]).tolist()
            for _ in range(n_feat)
        ]
        budget = FlipBudget(budgets=np.array(rows), dim=dim)
        model = TrainedModel(
            quantizer=Quantizer(mins=np.zeros(n_feat), maxs=np.ones(n_feat), levels=levels),
            table=build_level_table(seed, budget),
            encoders=np.ones((2, dim), dtype=np.int64),
            labels=["a", "b"],
            feature_names=[],
            class_counts=[1, 1],
        )
        raw = bytearray(model_bytes(model))
        start, end = table_span(n_feat, levels, dim)
        signs = sign_oracle(seed, budget.budgets, dim)
        assert raw[start:end] == np.packbits(signs > 0).tobytes()
        check_seed = seed
        n = data.draw(st.integers(0, n_feat - 1))
        if damage == "bit":
            bit = data.draw(st.integers(0, 8 * (end - start) - 1))
            raw[start + bit // 8] ^= 1 << (bit % 8)
        elif damage == "padding":  # the bits past the N*M*D table bits in its last byte
            used = n_feat * levels * dim % 8
            raw[end - 1] ^= 0xFF >> used if used else 0
        elif damage == "columns":  # two indices trade columns at every level
            i, j = data.draw(st.lists(st.integers(0, dim - 1), min_size=2, max_size=2, unique=True))
            signs[n][:, [i, j]] = signs[n][:, [j, i]]
            raw[start:end] = np.packbits(signs > 0).tobytes()
        elif damage == "levels":  # one index trades its signs at two levels
            a, b = data.draw(st.lists(st.integers(0, levels - 1), min_size=2, max_size=2, unique=True))
            # Above level 1 this keeps the index's flip count; only the
            # nesting of the flip sets can tell.
            differ = np.flatnonzero(signs[n, a] != signs[n, b])
            i = data.draw(st.sampled_from(differ.tolist() or [0]))
            signs[n, [a, b], i] = signs[n, [b, a], i]
            raw[start:end] = np.packbits(signs > 0).tobytes()
        elif damage == "seed":  # the header's u64 seed, after magic and five u32
            check_seed = seed ^ 1
            raw[24:32] = struct.pack("<Q", check_seed)
        built = np.packbits(sign_oracle(check_seed, budget.budgets, dim) > 0).tobytes()
        path = file_slots()
        path.write_bytes(bytes(raw))
        if raw[start:end] == built:
            assert load_model(str(path)).table == build_level_table(check_seed, budget)
        else:
            with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: stored level "
                                                  "table does not match its seed and budget$"):
                load_model(str(path))

    def test_many_levels_round_trip_agrees_with_sign_oracle(self, sign_oracle, tmp_path):
        # At M=300 the flip levels need 16 bits: in uint8, levels 256..300
        # would wrap to 0..44, and the table would still save and load.
        dim, levels, seed = 1024, 300, 3
        rng = np.random.default_rng(300)
        x = rng.uniform(0.0, 1.0, size=(60, 2))
        train = Dataset(features=x, labels=1 + (x[:, 0] > x[:, 1]), label_names=["a", "b"])
        quantizer = calibrate_quantizer(train, levels)
        budget = uniform_flip_budget(dim, levels, features=2)  # one flip per transition
        model = train_model(train, quantizer, budget, seed)
        assert model.table.flips.max() == levels and model.table.flips.min() >= 1
        signs = sign_oracle(seed, budget.budgets, dim).astype(np.int64)  # (N, M, D)

        def encode(values):
            return signs[np.arange(2), quantizer.quantize_matrix(values) - 1].sum(axis=1)

        samples = encode(x)
        assert np.array_equal(encode_quantized(quantizer.quantize_matrix(x), model.table), samples)
        encoders = np.array([samples[train.labels == k].sum(axis=0) for k in (1, 2)])
        path = tmp_path / "m.hdcm"
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert loaded == model and np.array_equal(loaded.encoders, encoders)
        queries = rng.uniform(-0.1, 1.1, size=(40, 2))
        sq_norms = (encoders * encoders).sum(axis=1).tolist()
        expected = [
            1 + max(range(2), key=lambda k: (Fraction(dots[k] * abs(dots[k]), sq_norms[k]), -k))
            for dots in (encode(queries) @ encoders.T).tolist()
        ]
        assert predict_batch(queries, loaded).tolist() == expected

    @pytest.fixture(scope="class")
    def file_slots(self, tmp_path_factory):
        """A new file path on every call, for tests that write many files."""
        directory, serial = tmp_path_factory.mktemp("slots"), itertools.count()
        return lambda: directory / f"m-{next(serial)}.hdcm"

    @pytest.fixture(scope="class")
    def small_model_files(self, tmp_path_factory):
        train = Dataset(
            features=np.array([[0.0, 1.0], [0.5, 0.2], [1.0, 0.7], [0.2, 0.9]]),
            labels=np.array([1, 2, 3, 2]),
            label_names=["x", "y", "z"],
            feature_names=["f1", "f2"],
        )
        directory = tmp_path_factory.mktemp("fuzz")
        raws = []
        for dim in (16, 10):  # whole-byte rows, and rows that straddle bytes
            save_model(fit_baseline(train, dim, 4, seed=5), str(directory / "m.hdcm"))
            raws.append((directory / "m.hdcm").read_bytes())
        return directory, raws, itertools.count()

    @given(st.data())
    @settings(max_examples=2000, deadline=None)
    def test_damaged_file_loads_or_raises_format_error(self, small_model_files, data):
        directory, raws, serial = small_model_files
        raw = data.draw(st.sampled_from(raws))
        damaged = bytearray(raw)
        kind = data.draw(st.sampled_from(["truncate", "flip", "overwrite"]))
        if kind == "truncate":
            del damaged[data.draw(st.integers(0, len(raw) - 1)):]
        elif kind == "flip":
            for bit in data.draw(st.lists(st.integers(0, 8 * len(raw) - 1), min_size=1, max_size=3)):
                damaged[bit // 8] ^= 1 << (bit % 8)
        else:
            damaged[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
        path = directory / f"damaged-{next(serial)}.hdcm"  # one new file per case
        path.write_bytes(bytes(damaged))
        try:
            model = load_model(str(path))
        except FormatError:
            return
        # A file loads only with the level table its seed and budget build.
        assert model.table == build_level_table(model.table.seed, model.table.budgets)


class TestExportHypervectors:
    def test_shape_and_bounds(self, toy_dataset, tmp_path):
        model = fit_baseline(toy_dataset, 32, 5, seed=1)
        path = tmp_path / "hv.csv"
        export_sample_hypervectors(model, toy_dataset, str(path))
        lines = path.read_text().strip().split("\n")
        assert len(lines) == toy_dataset.n_samples + 1
        header = lines[0].split(",")
        assert len(header) == 33 and header[-1] == "label"
        for line in lines[1:]:
            values = [int(v) for v in line.split(",")[:-1]]
            assert all(abs(v) <= toy_dataset.n_features for v in values)

    def test_deterministic(self, toy_dataset, tmp_path):
        model = fit_baseline(toy_dataset, 32, 5, seed=1)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_sample_hypervectors(model, toy_dataset, str(a))
        export_sample_hypervectors(model, toy_dataset, str(b))
        assert a.read_bytes() == b.read_bytes()
