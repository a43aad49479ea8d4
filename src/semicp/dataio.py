"""File formats: dataset CSV contract and results serialization.

Dataset CSV contract (version v1)::

    #semicp,v1,K=<int>,features=<int>
    label,p_0,...,p_{K-1}[,z_0,...,z_{K-1}][,f_0,...,f_{D-1}]
    <one sample per row>

* ``label`` is an integer in {-1, 0..K-1}; -1 marks an unlabeled sample.
* ``p_*`` columns are softmax probabilities.  They may be omitted when
  ``z_*`` logit columns are present; probabilities are then
  ``dataset.softmax`` of the logits, the softmax ``semicp gen`` uses.
* ``f_*`` columns are an optional feature vector of dimension ``features``.
* Floats are written with 17 significant digits, so save -> load is exact.
* Blank and whitespace-only lines are skipped.  Row numbers in error
  messages count the lines after the header, blank lines included.

The header's columns are named by ``_columns``, for writer and loader.  The
body is parsed by ``np.loadtxt`` in chunks of whole lines (about
``READ_CHUNK`` characters each), and each chunk is checked against the row
contract of ``dataset.row_breach`` as one array; only when that fails are
the chunk's lines walked one by one, to name the first bad row.  Rows are
written by ``write_dataset``, which takes them as an iterable of row blocks
(``save_dataset`` passes one, checked by ``dataset.check_rows`` against the
same contract; ``datagen.write_synthetic`` each block it generates and
checks) and formats about ``SAVE_CELLS`` cells at a time with
``_g17.format_rows``: exact ``'%.17g'`` digits from numpy integer
arithmetic, with Python's ``%`` for zero, subnormal and out-of-range cells.
Every writer here removes its output file when it fails once the file is
open.

Results files carry one record per (method, configuration) with the fields
method, score, n, N, alpha, trials, cov_gap, over_cov_gap, under_cov_gap,
avg_size, improvement, histogram (plus mean_coverage and, for conditional
modes, group_cov_gap).  JSON keeps that key order; CSV uses one column per
field with the histogram encoded as '|'-joined bin counts.
"""

import json
import math
import os
import re
from contextlib import contextmanager, suppress
from itertools import chain

import numpy as np

from ._g17 import format_rows
from .calibration import Threshold
from .dataset import ProbabilityDataset, check_rows, row_breach, softmax
from .errors import DataError

MAGIC_PREFIX = "#semicp,v1,"

RESULT_FIELDS = ("method", "score", "n", "N", "alpha", "trials", "cov_gap",
                 "over_cov_gap", "under_cov_gap", "avg_size", "improvement",
                 "histogram", "mean_coverage", "group_cov_gap")

# rows formatted per write by write_prediction_sets
WRITE_BLOCK = 1024
# output cells formatted per write by save_dataset; bounds the arrays a
# block holds, about 130 bytes a cell
SAVE_CELLS = 1 << 13
# characters read per np.loadtxt call by load_dataset (then up to the end of
# the line); bounds the text and line objects a load holds at once
READ_CHUNK = 1 << 20

# a line holding only whitespace; \S and \s follow str.isspace
_BLANK_LINE = re.compile(r"^[^\S\n]+$", re.MULTILINE)
_ASCII_SPACES = [c for c in map(chr, range(128)) if c.isspace() and c != "\n"]


@contextmanager
def _output(path):
    """Open ``path`` for writing; a failure to open or write is a DataError.

    Once the file is open, any failure removes it, so no partial file is
    left behind.
    """
    opened = False
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            opened = True
            yield fh
    except BaseException as exc:
        if opened:
            with suppress(OSError):
                os.remove(path)
        if isinstance(exc, OSError):
            raise DataError(f"cannot write output: {exc}") from None
        raise


def check_writable(path):
    """Raise DataError now, not after the work, if ``path`` cannot be written.

    Opens the file for appending, which leaves an existing file as it is,
    and removes it again when it did not exist before.
    """
    existed = os.path.exists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise DataError(f"cannot write output: {exc}") from None
    if not existed:
        os.remove(path)


def save_dataset(dataset: ProbabilityDataset, path):
    """Write ``dataset`` following the CSV contract (see
    :func:`write_dataset`).

    Raises InputError naming the first row (0-based) that breaks the row
    contract of :func:`dataset.check_rows`, as a row changed after
    construction may, before the file is opened: the loader would refuse it.
    """
    check_rows(dataset.probs, dataset.labels, (dataset.logits,
                                               dataset.features))
    write_dataset(path, [(dataset.labels, dataset.probs, dataset.logits,
                          dataset.features)])


def write_dataset(path, blocks):
    """Write the row blocks of one dataset following the CSV contract.

    Each block is a tuple (labels, probs, logits, features) over the same
    rows, None for an absent channel.  The channels written are those of the
    first block, which is taken before the file is opened.  When the
    features are the logits array itself (synthetic data), the logits cells
    are formatted once and placed in both column ranges; the test is object
    identity, since equal arrays may still format differently (-0.0 == 0.0).
    Rows are formatted about ``SAVE_CELLS`` output cells at a time: each
    format call takes ``SAVE_CELLS`` // (the header's column count) rows,
    at least one, and the last call of a block takes the rest.  Once
    the file is open, any failure, also one raised while making a block,
    removes it.
    """
    blocks = iter(blocks)
    first = next(blocks)
    _, probs, logits, features = first
    k = probs.shape[1]
    aliased = logits is not None and features is logits
    feat_dim = 0 if features is None else features.shape[1]
    cols = _columns(k, True, logits is not None, feat_dim)
    width = len(cols) - (feat_dim if aliased else 0)  # formatted columns
    columns = np.r_[0:width, width - k:width] if aliased else np.arange(width)

    rows = max(1, SAVE_CELLS // len(cols))
    with _output(path) as fh:
        fh.write(f"#semicp,v1,K={k},features={feat_dim}\n")
        fh.write(",".join(cols) + "\n")
        for labels, *channels in chain([first], blocks):
            channels = [c for c in channels[:2 if aliased else 3]
                        if c is not None]
            for start in range(0, len(labels), rows):
                block = np.hstack([labels[start:start + rows, None]]
                                  + [c[start:start + rows] for c in channels])
                fh.write(format_rows(block, columns).decode("ascii"))


def _columns(k, have_probs, have_logits, feat_dim):
    """The header's column names for the channels a file holds."""
    widths = {"p": k if have_probs else 0, "z": k if have_logits else 0,
              "f": feat_dim}
    return ["label"] + [f"{c}_{j}" for c, w in widths.items()
                        for j in range(w)]


def _parse_magic(line: str, path):
    if not line.startswith(MAGIC_PREFIX):
        raise DataError(f"{path}: missing '#semicp,v1' magic line")
    malformed = DataError(f"{path}: malformed magic line {line.strip()!r}")
    k = feat = None
    try:
        for part in line[len(MAGIC_PREFIX):].strip().split(","):
            if part.startswith("K="):
                k = int(part[2:])
            elif part.startswith("features="):
                feat = int(part[9:])
    except ValueError:
        raise malformed from None
    if k is None or feat is None or k < 2 or feat < 0:
        raise malformed
    return k, feat


def load_dataset(path) -> ProbabilityDataset:
    """Load and validate a dataset file following the CSV contract."""
    try:
        return _load_dataset(path)
    except OSError as exc:
        raise DataError(f"cannot read dataset: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None


def _load_dataset(path) -> ProbabilityDataset:
    with open(path, "r", encoding="utf-8") as fh:
        magic = fh.readline()
        k, feat_dim = _parse_magic(magic, path)
        header = fh.readline().strip().split(",")
        have_probs = "p_0" in header
        have_logits = "z_0" in header
        if not have_probs and not have_logits:
            raise DataError(f"{path}: neither probability nor logit columns present")
        expected = _columns(k, have_probs, have_logits, feat_dim)
        if header != expected:
            raise DataError(f"{path}: header {header} does not match the "
                            f"declared channels {expected}")
        n_probs = k if have_probs else 0
        table = _read_rows(fh, path, k, len(expected), n_probs)

    pos = 1 + n_probs
    logits = table[:, pos:pos + k] if have_logits else None
    return ProbabilityDataset(
        probs=table[:, 1:pos] if have_probs else softmax(logits),
        labels=table[:, 0].astype(np.int64),
        logits=logits,
        features=table[:, -feat_dim:] if feat_dim else None,
    )


def _read_rows(fh, path, k, n_cols, n_probs):
    """The rest of ``fh`` as one (rows, n_cols) array, parsed and checked one
    chunk of whole lines at a time."""
    tables = []
    rows_before = 0  # lines after the header that precede the chunk
    while text := fh.read(READ_CHUNK):
        text += fh.readline()
        lines = _blank_lines_emptied(text).split("\n")
        if any(lines):
            try:
                table = np.loadtxt(lines, delimiter=",", dtype=np.float64,
                                   ndmin=2, comments=None)
            except ValueError as exc:
                raise _first_bad_row(path, lines, rows_before, k, n_cols,
                                     n_probs, exc) from None
            if table.shape[1] != n_cols or row_breach(
                    table, table[:, 0], table[:, 1:1 + n_probs], k):
                raise _first_bad_row(path, lines, rows_before, k, n_cols,
                                     n_probs)
            tables.append(table)
        rows_before += text.count("\n")
    if not tables:
        raise DataError(f"{path}: no data rows")
    return tables[0] if len(tables) == 1 else np.concatenate(tables)


def _blank_lines_emptied(text):
    """``text`` with whitespace-only lines made empty: loadtxt skips empty
    lines but not whitespace-only ones."""
    # the regex pass is needed only when the text holds other whitespace
    # than newlines
    if not text.isascii() or any(c in text for c in _ASCII_SPACES):
        return _BLANK_LINE.sub("", text)
    return text


def _first_bad_row(path, lines, rows_before, k, n_cols, n_probs,
                   parse_error=None):
    """A DataError naming the first bad row of a chunk, found by walking its
    lines in order.  Only called once the chunk's array parse or check has
    failed."""
    for row_idx, line in enumerate(lines, start=rows_before + 1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != n_cols:
            return DataError(f"{path} row {row_idx}: expected {n_cols} "
                             f"columns, got {len(parts)}")
        try:
            values = np.array([[float(v) for v in parts]])
        except ValueError as exc:
            return DataError(f"{path} row {row_idx}: {exc}")
        found = row_breach(values, values[:, 0], values[:, 1:1 + n_probs], k)
        if found:
            return DataError(f"{path} row {row_idx}: {found[1]}")
    # float() accepts a few spellings loadtxt does not, such as "1_000"
    return DataError(f"{path}: unreadable data rows ({parse_error})")


def _ordered_record(record: dict) -> dict:
    out = {}
    for key in RESULT_FIELDS:
        if key in record:
            out[key] = record[key]
    for key in record:
        if key not in out:
            out[key] = record[key]
    return out


def write_results(records, path, fmt: str = "json"):
    """Write experiment result records with deterministic field order."""
    records = [_ordered_record(r) for r in records]
    if fmt == "json":
        payload = {"schema": "semicp-results-v1", "results": records}
        with _output(path) as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        return
    if fmt != "csv":
        raise DataError(f"unknown results format {fmt!r}")
    columns = list(RESULT_FIELDS)
    with _output(path) as fh:
        fh.write(",".join(columns) + "\n")
        for rec in records:
            cells = []
            for col in columns:
                val = rec.get(col)
                if val is None:
                    cells.append("")
                elif col == "histogram":
                    cells.append("|".join(str(int(c)) for c in val))
                elif isinstance(val, float):
                    cells.append(format(val, ".17g"))
                else:
                    cells.append(str(val))
            fh.write(",".join(cells) + "\n")


def write_prediction_sets(mask, labels, path):
    """One row per sample: index, label, set size, covered, '|'-joined classes.

    ``covered`` is empty for an unlabeled row.  Rows are written in blocks of
    ``WRITE_BLOCK``, with one ``np.nonzero`` per block.
    """
    names = [str(c) for c in range(mask.shape[1])]
    with _output(path) as fh:
        fh.write("index,label,set_size,covered,classes\n")
        for start in range(0, len(labels), WRITE_BLOCK):
            stop = min(start + WRITE_BLOCK, len(labels))
            block = mask[start:stop]
            block_labels = np.asarray(labels[start:stop], dtype=np.int64)
            hits = block[np.arange(stop - start), np.maximum(block_labels, 0)]
            classes = [names[c] for c in np.nonzero(block)[1].tolist()]
            sizes = np.count_nonzero(block, axis=1).tolist()
            lines = []
            begin = 0
            for i, label, size, hit in zip(range(start, stop),
                                           block_labels.tolist(), sizes,
                                           hits.tolist()):
                covered = "" if label < 0 else int(hit)
                lines.append(f"{i},{label},{size},{covered},"
                             f"{'|'.join(classes[begin:begin + size])}\n")
                begin += size
            fh.write("".join(lines))


def save_threshold(threshold: Threshold, path, extra: dict = None):
    payload = threshold.to_dict()
    if extra:
        payload.update(extra)
    with _output(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_threshold(path) -> Threshold:
    """Read a threshold file written by save_threshold."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            threshold = Threshold.from_dict(json.load(fh))
    except OSError as exc:
        raise DataError(f"cannot read threshold file: {exc}") from None
    except KeyError as exc:
        raise DataError(f"{path}: threshold file lacks the field {exc}") from None
    except (TypeError, ValueError) as exc:  # not JSON, or a field of a wrong type
        raise DataError(f"{path}: invalid threshold file ({exc})") from None
    if not threshold.include_all and not math.isfinite(threshold.value):
        raise DataError(f"{path}: threshold value must be finite")
    return threshold
