"""Dataset ingestion, quantizer calibration, synthetic data, and model files.

`load_dataset_csv` reads a headered CSV in the `csv` module's default
dialect. A plain body (no quotes, no carriage returns, no empty lines) is
parsed in one pass by numpy's C reader; any other body, and any plain one
that reader cannot read exactly as `csv` and `float()` do, goes through a
per-cell reference loop that also reports every bad line or cell. Both
paths give the same `Dataset`.

The model file is a little-endian binary format:

    magic      4 bytes  b"HDCM"
    version    u32      currently 1
    D, N, M, K u32 each
    seed       u64      base seed the level table was built from
    mins       f64 * N  per-feature calibration minima
    maxs       f64 * N  per-feature calibration maxima
    budgets    i32 * N*(M-1)  flip budget, row-major
    table      ceil(N*M*D / 8) bytes, bit-packed level hypervectors
    encoders   i32 * K*D, row-major
    counts     u32 * K  per-class training sample counts
    labels     u32 length + that many UTF-8 bytes of a JSON string list
    features   u32 length + that many UTF-8 bytes of a JSON string list
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import struct
import tempfile
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, FormatError, ParseError, ShapeError
from .hypervector import (
    FlipBudget,
    _Value,
    _check_levels,
    _frozen,
    build_level_table,
    encode_quantized,
)

MODEL_MAGIC = b"HDCM"
MODEL_VERSION = 1


def _check_labels(labels: np.ndarray, n_classes: int) -> None:
    if np.any(labels < 1) or np.any(labels > n_classes):
        bad = labels[(labels < 1) | (labels > n_classes)]
        raise DataError(f"labels {np.unique(bad).tolist()} outside 1..{n_classes}")


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


@dataclass(frozen=True, eq=False)
class Dataset(_Value):
    """Feature matrix plus dense integer labels (1..K), one class for each
    distinct label name; feature names, if given, name the N features."""

    features: np.ndarray  # (S, N) float64
    labels: np.ndarray  # (S,) int64, values 1..K
    label_names: list
    feature_names: list | None = None

    def __post_init__(self):
        if not (_strings(self.label_names) and len(set(self.label_names)) == self.n_classes):
            raise DataError("label names must be distinct strings")
        f = _frozen(self.features, np.float64)
        y = _frozen(self.labels, np.int64)
        if f.ndim != 2 or f.shape[0] < 1 or f.shape[1] < 1:
            raise ShapeError(f"feature matrix must be (S>=1, N>=1), got {f.shape}")
        if y.shape != (f.shape[0],):
            raise ShapeError("label count does not match sample count")
        if not np.all(np.isfinite(f)):
            raise DataError("dataset contains non-finite feature values")
        _check_labels(y, self.n_classes)
        if self.feature_names is not None and len(self.feature_names) != f.shape[1]:
            raise ShapeError(f"{len(self.feature_names)} feature names for {f.shape[1]} features")
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels", y)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.label_names)


def _too_wide(mins: np.ndarray, maxs: np.ndarray, levels: int) -> list:
    """Indices of the features whose (max - min) * M overflows: no level
    width exists for their range."""
    with np.errstate(over="ignore"):
        return np.flatnonzero(~np.isfinite((maxs - mins) * levels)).tolist()


@dataclass(frozen=True, eq=False)
class Quantizer(_Value):
    """Uniform per-feature quantizer into levels 1..M, calibrated on training data.

    Values below the calibrated minimum clamp to level 1, values at or above
    the maximum clamp to level M (the last interval is closed). Degenerate
    features (min == max) map everything to level 1. A range whose
    (max - min) * M overflows is refused.

    A value is clamped into [min, max] before any arithmetic, so its offset
    from the minimum is at most max - min and that offset times M at most
    (max - min) * M, which the refusal above keeps finite: no query, however
    far outside the range, overflows. A degenerate feature divides its zero
    offset by 1.
    """

    mins: np.ndarray
    maxs: np.ndarray
    levels: int

    def __post_init__(self):
        mins = _frozen(self.mins, np.float64)
        maxs = _frozen(self.maxs, np.float64)
        if mins.shape != maxs.shape or mins.ndim != 1:
            raise ShapeError("mins and maxs must be equal-length 1-D arrays")
        _check_levels(self.levels)
        if not (np.all(np.isfinite(mins)) and np.all(np.isfinite(maxs))):
            raise DataError("non-finite calibration minima or maxima")
        if np.any(mins > maxs):
            raise ValueError("feature minimum exceeds maximum")
        wide = _too_wide(mins, maxs, self.levels)
        if wide:
            raise DataError(f"features {wide} have ranges too wide to quantize")
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)

    @property
    def features(self) -> int:
        return self.mins.shape[0]

    @property
    def degenerate(self) -> np.ndarray:
        return self.mins == self.maxs

    def quantize_matrix(self, x: np.ndarray) -> np.ndarray:
        """(S, N) values -> (S, N) levels in 1..M."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.features:
            raise ShapeError(f"expected {self.features} features, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise DataError("cannot quantize non-finite values")
        span = self.maxs - self.mins
        scaled = np.maximum(x, self.mins)
        np.minimum(scaled, self.maxs, out=scaled)
        scaled -= self.mins
        scaled *= self.levels
        scaled /= np.where(span > 0, span, 1.0)  # a degenerate offset is 0: level 1
        out = scaled.astype(np.int64)  # truncation is floor: scaled >= 0
        np.minimum(out, self.levels - 1, out=out)  # the maximum itself: level M
        out += 1
        return out


def calibrate_quantizer(train: Dataset, levels: int) -> Quantizer:
    """Per-feature min/max from the training split only. A range too wide
    to quantize is named by its column where the split has feature names."""
    mins = train.features.min(axis=0)
    maxs = train.features.max(axis=0)
    try:
        q = Quantizer(mins=mins, maxs=maxs, levels=levels)
    except DataError:
        # The split's values are finite, so `Quantizer` refused a range.
        if not train.feature_names:
            raise
        wide = [train.feature_names[n] for n in _too_wide(mins, maxs, levels)]
        raise DataError(f"features {wide} have ranges too wide to quantize") from None
    if np.any(q.degenerate):
        idx = np.flatnonzero(q.degenerate).tolist()
        warnings.warn(f"degenerate (constant) features {idx} map to level 1 only")
    return q


def load_dataset_csv(path, label_column, label_names=None) -> Dataset:
    r"""Load a headered CSV; the label column is named or given as an index.

    The dialect is the `csv` module's default: comma-separated, `"` quotes,
    `\n`, `\r\n` or `\r` line endings. Every feature cell must parse with
    `float()` to a finite value. A plain body (no `"`, no `\r` and no empty
    line after the header) is read in one pass by `np.loadtxt`; every other
    body, and every plain one that numpy cannot read exactly as `csv` and
    `float()` do, goes through a per-cell reference loop, which also raises
    every parse error. Both give the same `Dataset`. A file that is not
    UTF-8, or has a field longer than `csv.field_size_limit()`, raises a
    ParseError naming the byte offset or the line.

    Labels map to dense indices 1..K in first-appearance order unless an
    existing `label_names` list is supplied (test-time loading), in which
    case unseen labels are an error.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(f"dataset file not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError(f"{path}: empty file, expected a header row") from None
            if len(set(header)) != len(header):
                dupes = sorted({h for h in header if header.count(h) > 1})
                raise ParseError(f"{path}: duplicate header names {dupes}")
            if isinstance(label_column, int):
                if not 0 <= label_column < len(header):
                    raise ParseError(f"{path}: label column index {label_column} out of range")
                label_idx = label_column
            else:
                if label_column not in header:
                    raise ParseError(f"{path}: no column named {label_column!r}")
                label_idx = header.index(label_column)

            feature_names = [h for i, h in enumerate(header) if i != label_idx]
            plain = _read_plain(fh.read(), len(header), label_idx)
            if plain is not None:
                return _dataset(path, *plain, label_names, feature_names)
            fh.seek(0)
            reader = csv.reader(fh)  # a fresh `line_num`
            next(reader)  # the header, again
            rows, raw_labels = [], []
            # `line_num` counts physical lines: a record is named by its last
            # line, also after a quoted cell that spans lines.
            for row in reader:
                if len(row) != len(header):
                    raise ParseError(
                        f"{path}:{reader.line_num}: expected {len(header)} fields, "
                        f"got {len(row)}"
                    )
                raw_labels.append(row[label_idx])
                values = []
                for i, cell in enumerate(row):
                    if i == label_idx:
                        continue
                    try:
                        v = float(cell)
                    except ValueError:
                        raise ParseError(
                            f"{path}:{reader.line_num}: non-numeric value {cell!r} "
                            f"in column {header[i]!r}"
                        ) from None
                    if not math.isfinite(v):
                        raise ParseError(
                            f"{path}:{reader.line_num}: non-finite value {cell!r} "
                            f"in column {header[i]!r}"
                        )
                    values.append(v)
                rows.append(values)
    except csv.Error as exc:  # a field longer than `csv.field_size_limit()`
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        # The text layer decodes in chunks, so the error's offset is within
        # a chunk; decoding the whole file again gives the file offset.
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"{path}: byte {exc.start} is not valid UTF-8 ({exc.reason})"
            ) from None
        raise

    return _dataset(path, np.array(rows, dtype=np.float64), raw_labels, label_names,
                    feature_names)


def _read_plain(body: str, n_columns: int, label_idx: int):
    r"""(features, raw labels) of a plain CSV body, read by `np.loadtxt` in
    one pass, or None to leave the body to the reference loop.

    Without `"`, `\r` or an empty line, `csv` and numpy both cut records at
    each `\n` and fields at each `,`. Numpy still rejects cells `float()`
    accepts (`1_0`, non-ASCII digits), and only the loop reports a bad cell
    with its line and column, so any numpy error, a row count that is not the
    line count, or a non-finite value also returns None. The row count would
    also catch empty lines, which numpy skips; testing for them first spares
    a parse of a body the loop rejects anyway. So does a line longer than
    `csv.field_size_limit()`: it may hold a field the loop rejects, and
    numpy has no such limit.
    """
    if not body or body[0] == "\n" or "\n\n" in body or '"' in body or "\r" in body:
        return None
    lines = body.split("\n")  # a StringIO copy of the body would take 4 bytes a character
    if not lines[-1]:
        lines.pop()  # after the last line ending
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    dtype = np.dtype([(f"c{i}", "O" if i == label_idx else "f8") for i in range(n_columns)])
    try:
        table = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, quotechar=None,
                           ndmin=1)
    except ValueError:
        return None
    if len(table) != len(lines):
        return None
    columns = [table[f"c{i}"] for i in range(n_columns) if i != label_idx]
    features = np.column_stack(columns) if columns else np.empty((len(table), 0))
    if not np.isfinite(features).all():
        return None
    return features, table[f"c{label_idx}"].tolist()


def _dataset(path, features, raw_labels, label_names, feature_names) -> Dataset:
    """The tail both CSV readers share: number the labels, build the Dataset."""
    if not raw_labels:
        raise DataError(f"{path}: no data rows")
    if label_names is None:
        names = list(dict.fromkeys(raw_labels))
    else:
        names = list(label_names)
        unseen = sorted(set(raw_labels) - set(names))
        if unseen:
            raise DataError(f"{path}: labels {unseen} never appeared in training data")
    index = {name: k + 1 for k, name in enumerate(names)}
    labels = np.array([index[lab] for lab in raw_labels], dtype=np.int64)
    # Both readers build `features` fresh: the Dataset keeps it, uncopied.
    features.flags.writeable = labels.flags.writeable = False
    return Dataset(features=features, labels=labels, label_names=names,
                   feature_names=feature_names)


def save_dataset_csv(dataset: Dataset, path) -> None:
    """Write a dataset back out in the ingestible CSV layout (label last)."""
    feature_names = dataset.feature_names or [f"f{i + 1}" for i in range(dataset.n_features)]
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(feature_names + ["label"])
        for x, y in zip(dataset.features, dataset.labels):
            writer.writerow([repr(float(v)) for v in x] + [dataset.label_names[y - 1]])


# Synthetic four-class example: two features on the unit square, M=20
# reference levels. Class boundaries sit at the starts of levels 6, 11, 16
# on the first feature and levels 6, 16 on the second, cutting the square
# into a 4 x 3 grid of rectangles. The fixed lookup below assigns each
# rectangle a class; every cut line separates two different classes
# somewhere along its length, so all five boundary levels are critical,
# and the four class regions are contiguous blobs a nearest-encoder
# classifier can separate perfectly once those levels are spread apart.
MOTIVATIONAL_LEVELS = 20
MOTIVATIONAL_F1_CUTS = (0.25, 0.50, 0.75)  # starts of levels 6, 11, 16
MOTIVATIONAL_F2_CUTS = (0.25, 0.75)  # starts of levels 6, 16
# Indexed [row][column]: row 0 is the bottom f2 band, column 0 the left f1 band.
MOTIVATIONAL_LOOKUP = (
    (1, 1, 2, 2),
    (1, 2, 2, 4),
    (3, 3, 4, 4),
)


def motivational_label(x1: float, x2: float) -> int:
    col = sum(x1 >= c for c in MOTIVATIONAL_F1_CUTS)
    row = sum(x2 >= c for c in MOTIVATIONAL_F2_CUTS)
    return MOTIVATIONAL_LOOKUP[row][col]


def generate_motivational(grid_per_axis: int, seed=0) -> Dataset:
    """Deterministic grid over the unit square with the four-class layout."""
    if grid_per_axis < 20:
        raise ConfigError(f"grid_per_axis must be >= 20, got {grid_per_axis}")
    axis = np.linspace(0.0, 1.0, grid_per_axis)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    features = np.column_stack([xx.ravel(), yy.ravel()])
    labels = np.array(
        [motivational_label(x1, x2) for x1, x2 in features], dtype=np.int64
    )
    order = np.random.default_rng(seed).permutation(features.shape[0])
    return Dataset(
        features=features[order],
        labels=labels[order],
        label_names=["C1", "C2", "C3", "C4"],
        feature_names=["f1", "f2"],
    )


def generate_linear(n_samples: int, n_features: int, seed=0) -> Dataset:
    """The wide two-class problem: features uniform on [0, 1] from
    default_rng([seed, n_features]), drawn row by row, and class 2 ("pos")
    exactly where the first half of the features sums to more than the
    second half (a middle feature of an odd count is noise).

    A longer draw starts with the rows of a shorter one, so the rows past
    the first n of `generate_linear(n + t, ...)` are a test set for
    `generate_linear(n, ...)`."""
    rng = np.random.default_rng([int(seed), int(n_features)])
    features = rng.uniform(0.0, 1.0, size=(n_samples, n_features))
    half = n_features // 2
    labels = 1 + (features[:, :half].sum(axis=1) > features[:, half : 2 * half].sum(axis=1))
    return Dataset(features=features, labels=labels, label_names=["neg", "pos"])


@contextlib.contextmanager
def atomic_open(path, mode="w"):
    """Write to a temp file in the target directory, renamed to `path` on
    close; on any failure, the rename included, the temp file is removed."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
        with os.fdopen(fd, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def model_bytes(model) -> bytes:
    """The `.hdcm` serialization of a trained model (layout in the module
    docstring); a seed, count or encoder too wide for its field raises."""
    dim = model.table.dim
    n_feat, n_lvl = model.table.features, model.table.levels
    n_cls = model.n_classes
    if np.any(np.abs(model.encoders) > np.iinfo(np.int32).max):
        raise FormatError("encoder entries exceed the int32 range of the model format")
    if model.table.seed >= 2**64:
        raise FormatError(f"seed {model.table.seed} exceeds the u64 range of the model format")
    if max(model.class_counts) >= 2**32:
        raise FormatError("class counts exceed the u32 range of the model format")
    labels_blob = json.dumps(model.labels).encode("utf-8")
    feats_blob = json.dumps(model.feature_names).encode("utf-8")
    return b"".join([
        MODEL_MAGIC,
        struct.pack("<IIIII", MODEL_VERSION, dim, n_feat, n_lvl, n_cls),
        struct.pack("<Q", model.table.seed),
        model.quantizer.mins.astype("<f8").tobytes(),
        model.quantizer.maxs.astype("<f8").tobytes(),
        model.table.budgets.budgets.astype("<i4").tobytes(),
        _table_bits(model.table),
        model.encoders.astype("<i4").tobytes(),
        np.array(model.class_counts, dtype="<u4").tobytes(),
        struct.pack("<I", len(labels_blob)),
        labels_blob,
        struct.pack("<I", len(feats_blob)),
        feats_blob,
    ])


def save_model(model, path) -> None:
    """Write `model_bytes(model)` to `path`."""
    with atomic_open(path, "wb") as fh:
        fh.write(model_bytes(model))


def _table_bits(table) -> bytes:
    """The file's level table: the signs of all N*M*D level entries, in
    (feature, level, index) order, packed flat with bit set == +1."""
    # A positive base sign, but at the levels above the flip level; the
    # levels take the flip levels' dtype, so numpy casts neither side.
    levels = np.arange(1, table.levels + 1, dtype=table.flips.dtype)
    bits = levels[:, None] > table.flips[:, None]  # (N, M, D)
    bits ^= table.bases[:, None] > 0
    return np.packbits(bits).tobytes()


def load_model(path):
    """Inverse of save_model. It checks the header, which sizes the reads,
    and that the stored table bytes are the `_table_bits` of the table its
    seed and budget build, on every load (a reload reuses the schedule
    `_schedule` keeps). The model types own every other rule (`Quantizer`,
    `FlipBudget`, `build_level_table`, `TrainedModel`), and their errors
    raise as a FormatError naming the file."""
    from .model import TrainedModel  # here, not at the top: model imports data

    with open(path, "rb") as fh:
        raw = fh.read()

    def take(n):
        nonlocal offset
        if offset + n > len(raw):
            raise FormatError(f"{path}: truncated model file")
        chunk = raw[offset : offset + n]
        offset += n
        return chunk

    def take_json():
        (n,) = struct.unpack("<I", take(4))
        blob = take(n)
        try:
            return json.loads(blob.decode("utf-8"))
        except ValueError:  # invalid UTF-8 or invalid JSON
            raise FormatError(f"{path}: corrupt JSON block") from None

    offset = 0
    if take(4) != MODEL_MAGIC:
        raise FormatError(f"{path}: bad magic bytes, not a model file")
    version, dim, n_feat, n_lvl, n_cls = struct.unpack("<IIIII", take(20))
    if version != MODEL_VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")
    if n_feat < 1:
        raise FormatError(f"{path}: {n_feat} features, need at least 1")
    if n_lvl < 2:
        raise FormatError(f"{path}: {n_lvl} quantization levels, need at least 2")
    if dim == 0 or dim % 2:
        raise FormatError(f"{path}: dimension {dim} is not even and positive")
    if n_cls < 2:
        raise FormatError(f"{path}: {n_cls} classes, need at least 2")
    (seed,) = struct.unpack("<Q", take(8))
    # Read-only views of the file's bytes: the model types keep them as
    # they are, or convert them once.
    mins = np.frombuffer(take(8 * n_feat), dtype="<f8")
    maxs = np.frombuffer(take(8 * n_feat), dtype="<f8")
    budgets = np.frombuffer(take(4 * n_feat * (n_lvl - 1)), dtype="<i4").reshape(n_feat, n_lvl - 1)
    n_table_bytes = -(-n_feat * n_lvl * dim // 8)
    table_bits = take(n_table_bytes)
    encoders = np.frombuffer(take(4 * n_cls * dim), dtype="<i4").reshape(n_cls, dim)
    counts = np.frombuffer(take(4 * n_cls), dtype="<u4").tolist()
    labels = take_json()
    feature_names = take_json()
    if offset != len(raw):
        raise FormatError(f"{path}: {len(raw) - offset} trailing bytes")

    try:
        model = TrainedModel(
            quantizer=Quantizer(mins=mins, maxs=maxs, levels=n_lvl),
            table=build_level_table(seed, FlipBudget(budgets=budgets, dim=dim)),
            encoders=encoders,
            labels=labels,
            feature_names=feature_names,
            class_counts=counts,
        )
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
    if table_bits != _table_bits(model.table):
        raise FormatError(f"{path}: stored level table does not match its seed and budget")
    return model


def export_sample_hypervectors(model, dataset: Dataset, path) -> None:
    """Write the S x D sample-hypervector matrix plus labels as CSV, for
    external embedding tools."""
    levels = model.quantizer.quantize_matrix(dataset.features)
    encoded = encode_quantized(levels, model.table)
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"d{i}" for i in range(model.table.dim)] + ["label"])
        for x, y in zip(encoded, dataset.labels):
            writer.writerow([int(v) for v in x] + [int(y)])
