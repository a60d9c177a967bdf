"""Image metadata ingestion and the view/fave aesthetic score.

An image's crowd signal is the pair (views, faves) collected from an online
photo platform. The scalar aesthetic score of a record is the log ratio

    score = ln(faves) / ln(views)

which lands in [0, 1] for any record with views >= 2 and 1 <= faves <= views.
The ratio is base-free (any common logarithm base cancels) and invariant
under raising both counts to the same power, so images with different online
life-spans under exponential count growth stay comparable.

File format: one record per line, a single JSON object with keys "id"
(string), "views" (integer), "faves" (integer), "features" (array of
numbers), and optional "latent_score" (number in [0, 1], synthetic ground
truth only). UTF-8, LF line endings; a line that is not UTF-8, or that nests
deeper than the JSON decoder can, aborts the load. Counts of any size load;
a number beyond float range in "features" or "latent_score" rejects its
record, as an infinite one does. The one reader, ``read_blocks``, reads a
file once and checks each record as it is read: structure, width, then the
field checks in ``load_dataset``'s order, so it keeps the record or logs and
skips it; a frame file aborts at its first bad line. It yields the kept
records as ``Dataset`` blocks of ``ROW_BLOCK`` rows, so a command that only
reduces a file (``score``, ``embed``, ``rank``, ``eval``, ``video``) holds one
block of features and embeddings at a time, plus what it keeps per record.
``load_dataset``, for the commands that need every row at once (``train``,
``sample``), appends the blocks' features to one flat float64 buffer, which
becomes the feature matrix without a copy.

Matrices are cut into blocks of rows by one rule, ``row_blocks``:
``encoder.forward`` embeds, ``ranker.embed`` takes norms of, and
``block_rows`` converts to Python floats (for ``save_dataset``) one block at
a time. Neither rule leaves a block of one row when n >= 2.

Every CSV output of the package is written by ``write_csv``, and every
output file through ``open_atomic``, so a failed run leaves no partial file.
"""

from __future__ import annotations

import contextlib
import csv
import json
import logging
import math
import os
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError, ParseError, RecordError

logger = logging.getLogger(__name__)

# exact types: JSON yields no subclasses, and a bool is no number here
_NUMBER_TYPES = frozenset((int, float))

# the most rows in a ``row_blocks`` block, and the rows of each ``read_blocks`` block but the last
ROW_BLOCK = 1024


@dataclass(eq=False)
class Dataset:
    """Validated records as columns: row i is one image, rows in file order.

    Attributes:
        ids: Unique identifiers.
        views: Visit counts, ints of any size, each >= 2 so the score
            denominator is positive.
        faves: Favorite counts, 1 <= faves[i] <= views[i].
        features: (n, d_in) float64 matrix of pre-extracted feature vectors.
        latent_scores: Ground-truth scores in [0, 1], NaN for a record that
            has none; only synthetic datasets carry them.
    """

    ids: list[str]
    views: list[int]
    faves: list[int]
    features: np.ndarray
    latent_scores: np.ndarray

    def __len__(self):
        return len(self.ids)

    @property
    def d_in(self) -> int | None:
        """Feature length; None only for an empty dataset."""
        return self.features.shape[1] if self.ids else None

    def scores(self) -> np.ndarray:
        """Aesthetic score of every record, in record order."""
        return np.array([compute_score(v, f) for v, f in zip(self.views, self.faves)])


def compute_score(views: int, faves: int) -> float:
    """Score an image from its crowd counts.

    Args:
        views: Visit count, >= 2.
        faves: Favorite count, 1 <= faves <= views.

    Returns:
        ln(faves) / ln(views), a float in [0, 1].

    Raises:
        RecordError: If a count violates its range; ``field`` names the
            offending count.
    """
    if views < 2:
        raise RecordError("views", f"views must be >= 2, got {views}")
    if faves < 1:
        raise RecordError("faves", f"faves must be >= 1, got {faves}")
    if faves > views:
        raise RecordError("faves", f"faves ({faves}) exceeds views ({views})")
    return math.log(faves) / math.log(views)


def _to_float(value) -> float:
    """``float(value)``, or +-inf for an integer beyond float range, as JSON 1e400 gives."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def are_numbers(values) -> bool:
    """True iff every entry of ``values`` is a JSON number: an int or a float, not a bool."""
    return _NUMBER_TYPES.issuperset(map(type, values))


def _take(columns: tuple, k: int, width: int) -> Dataset:
    """The first ``k`` records in the reader's column buffers, as a ``Dataset`` removed from them."""
    ids, views, faves, latents, values = columns
    block = Dataset(ids[:k], views[:k], faves[:k],
                    np.frombuffer(values[:k * width]).reshape(k, width), np.array(latents[:k]))
    for column, size in zip(columns, (k, k, k, k, k * width)):
        del column[:size]
    return block


def read_blocks(path: str | Path, *, frames: bool = False) -> Iterator[Dataset]:
    """Read a metadata file in one pass, yielding its kept records as ``Dataset`` blocks.

    A line gets the structural checks, the width check against the first
    record and a finiteness test of its features. A dataset record then runs
    ``load_dataset``'s field checks and is kept, or logged and skipped. With
    ``frames=True`` the views/faves keys may be absent, only ids and features
    are kept (views, faves and latent scores are empty), and a non-finite
    frame aborts the read.

    Blocks hold ``ROW_BLOCK`` records in file order, the last one the 0 to
    ``ROW_BLOCK + 1`` left over: two records are held back until more follow,
    so that, as with ``row_blocks``, no block has one row when n >= 2. An
    empty file gives one empty block.

    Raises:
        ParseError: As ``load_dataset`` and ``video.load_frames`` describe,
            once the reading reaches the bad line.
    """
    columns = ids, views, faves, latents, values = [], [], [], [], array("d")
    seen_ids, width, rejected = set(), 0, 0
    with Path(path).open("rb") as fh:
        for line_number, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ParseError(line_number, f"not UTF-8 text ({exc.reason})") from exc
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(line_number, f"invalid JSON ({exc.msg})") from exc
            except RecursionError as exc:
                raise ParseError(line_number, "invalid JSON (nested too deeply)") from exc
            if not isinstance(obj, dict):
                raise ParseError(line_number, "record is not a JSON object")

            rec_id = obj.get("id")
            if not isinstance(rec_id, str):
                raise ParseError(line_number, "missing or non-string 'id'")
            features = obj.get("features")
            if not isinstance(features, list) or not features:
                raise ParseError(line_number, "missing or empty 'features' array")
            if not are_numbers(features):
                raise ParseError(line_number, "'features' entries must be numbers")
            latent = obj.get("latent_score")
            if latent is not None and type(latent) not in _NUMBER_TYPES:
                raise ParseError(line_number, "'latent_score' must be a number")
            for key in ("views", "faves"):
                if type(obj.get(key)) is not int and not (frames and obj.get(key) is None):
                    raise ParseError(line_number, f"missing or non-integer '{key}'")
            if not width:
                width = len(features)
            elif len(features) != width:
                raise ParseError(
                    line_number, f"feature length {len(features)} != {width} established earlier")
            try:
                finite = all(map(math.isfinite, features))
            except OverflowError:  # an integer beyond float range
                finite = False
            if frames and not finite:
                raise ParseError(line_number, "non-finite feature entry")
            if not frames:
                latent = None if latent is None else _to_float(latent)
                try:
                    compute_score(obj["views"], obj["faves"])
                    if not finite:
                        raise RecordError("features", "non-finite feature entry")
                    if latent is not None and not 0.0 <= latent <= 1.0:
                        raise RecordError("latent_score", f"latent_score {latent} outside [0, 1]")
                    if rec_id in seen_ids:
                        raise RecordError("id", f"duplicate id {rec_id!r}")
                except RecordError as exc:
                    logger.warning("rejected record at line %d (%s): %s", line_number, exc.field, exc)
                    rejected += 1
                    continue
                seen_ids.add(rec_id)
                views.append(obj["views"])
                faves.append(obj["faves"])
                latents.append(math.nan if latent is None else latent)
            ids.append(rec_id)
            values.fromlist(features)
            if len(ids) == ROW_BLOCK + 2:
                yield _take(columns, ROW_BLOCK, width)

    if rejected:
        logger.info("load_dataset(%s): rejected %d record(s)", path, rejected)
    yield _take(columns, len(ids), width)


def load_dataset(path: str | Path) -> Dataset:
    """Load a metadata file in one pass, rejecting records that violate field constraints.

    Each record is checked as it is read. Its checks run in this order, and
    the first that fails rejects it: views, faves, finite features, latent
    score in [0, 1], an id not already kept. Rejected records are logged
    with their line number and offending field; a summary line reports the
    rejection count. Structural problems abort the load instead; warnings
    for earlier lines are logged by then. The ``read_blocks`` blocks are
    appended to one feature buffer, which becomes the matrix without a copy.

    Raises:
        ParseError: A line is not UTF-8 text or not a valid record object,
            or its feature length disagrees with the first one's (with its
            number).
    """
    ids, views, faves, values, latents, width = [], [], [], array("d"), array("d"), 0
    for block in read_blocks(path):
        ids += block.ids
        views += block.views
        faves += block.faves
        values.frombytes(block.features.tobytes())
        latents.frombytes(block.latent_scores.tobytes())
        width = block.features.shape[1]
    return Dataset(ids, views, faves, np.frombuffer(values).reshape(len(ids), width),
                   np.frombuffer(latents))


@contextlib.contextmanager
def open_atomic(path: str | Path, newline: str = "\n"):
    """Open ``path`` for writing UTF-8 text that appears there only when complete.

    The text goes to a temporary file in the same directory, which replaces
    ``path`` when the block exits normally. If the block raises, the
    temporary file is removed and ``path`` keeps what it held before, or
    stays absent. A symlink keeps pointing at the file it names. A path that
    exists but is no regular file (``/dev/stdout``, a pipe, a device) cannot
    be replaced, so it is written in place.
    """
    path = Path(path)
    if path.exists() and not path.is_file():
        with path.open("w", encoding="utf-8", newline=newline) as fh:
            yield fh
        return
    path = path.resolve()
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def row_blocks(matrix: np.ndarray) -> list[np.ndarray]:
    """Views of ceil(n / ROW_BLOCK) nearly equal blocks of rows, none of one row when n >= 2.

    BLAS multiplies a single row by a matrix-vector kernel, which may round
    differently; blocks of 2 rows or more give the bits of one pass over all
    n rows (OpenBLAS 0.3.31, 1 and 2 threads, blocks of 2 to 16,384 rows).
    """
    return np.array_split(matrix, max(1, -(-len(matrix) // ROW_BLOCK)))


def block_rows(matrix: np.ndarray):
    """Each row of a 2-D array as a list of Python floats, converted a ``row_blocks`` block at a time.

    Only one block's lists are alive at once, not the whole matrix's.
    """
    for block in row_blocks(matrix):
        yield from block.tolist()


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset in the one-record-per-line metadata format.

    Floats are serialized with the shortest representation that parses back
    to the identical value (at most 17 significant digits), so a
    load/save/load cycle is exact. Feature rows become Python lists one
    block at a time (``block_rows``), so the write holds one block of them
    besides the dataset, not a list copy of the whole matrix.
    """
    with open_atomic(path) as fh:
        for rec_id, views, faves, features, latent in zip(
            dataset.ids, dataset.views, dataset.faves,
            block_rows(dataset.features), dataset.latent_scores.tolist(),
        ):
            obj = {"id": rec_id, "views": int(views), "faves": int(faves), "features": features}
            if not math.isnan(latent):
                obj["latent_score"] = latent
            fh.write(json.dumps(obj) + "\n")


def score_histogram(dataset: Dataset, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Histogram the dataset's scores over [0, 1].

    Bins partition [0, 1] evenly; each bin is left-closed/right-open except
    the last, which is closed, so a score of exactly 1.0 is counted.

    Args:
        dataset: Non-empty dataset.
        bins: Number of bins, >= 1.

    Returns:
        (edges, counts): ``edges`` has ``bins + 1`` entries, ``counts`` sums
        to the dataset size.

    Raises:
        InputError: The dataset has no records, or ``bins`` is below 1.
    """
    if len(dataset) == 0:
        raise InputError("cannot histogram an empty dataset")
    if bins < 1:
        raise InputError(f"bins must be >= 1, got {bins}")
    counts, edges = np.histogram(dataset.scores(), bins=bins, range=(0.0, 1.0))
    return edges, counts


def write_csv(path: str | Path, header, rows) -> None:
    """Write a header row and data rows as CSV with LF line ends.

    Fields are quoted per RFC 4180 only when they hold a comma, a quote or
    a line break. Numbers are written by ``str``, which for a float is the
    shortest text that parses back to the identical value.
    """
    with open_atomic(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
