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
truth only). UTF-8, LF line endings.

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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EmptyInputError, FormatError, ParseError, RecordError

logger = logging.getLogger(__name__)


@dataclass
class ImageRecord:
    """One image: identity, crowd counts, feature vector, optional truth.

    Attributes:
        id: Unique identifier within a dataset.
        views: Visit count; must be >= 2 so the score denominator is positive.
        faves: Favorite count; must satisfy 1 <= faves <= views.
        features: Pre-extracted feature vector, fixed length per dataset.
        latent_score: Optional ground-truth score in [0, 1]; only synthetic
            datasets carry it.
    """

    id: str
    views: int
    faves: int
    features: np.ndarray
    latent_score: float | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)


@dataclass
class Dataset:
    """An ordered collection of validated records with a common feature length.

    ``d_in`` is None only for an empty dataset (undefined until the first
    record).
    """

    records: list[ImageRecord] = field(default_factory=list)
    d_in: int | None = None

    def __len__(self):
        return len(self.records)

    def scores(self) -> np.ndarray:
        """Aesthetic score of every record, in record order."""
        return np.array([compute_score(r.views, r.faves) for r in self.records])

    def feature_matrix(self) -> np.ndarray:
        """Features stacked into an (n, d_in) array."""
        if not self.records:
            return np.empty((0, 0))
        return np.stack([r.features for r in self.records])

    def ids(self) -> list[str]:
        return [r.id for r in self.records]


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


def validate_record(record: ImageRecord) -> None:
    """Raise RecordError if any field constraint is violated."""
    compute_score(record.views, record.faves)
    if not np.all(np.isfinite(record.features)):
        raise RecordError("features", "non-finite feature entry")
    if record.latent_score is not None and not 0.0 <= record.latent_score <= 1.0:
        raise RecordError("latent_score", f"latent_score {record.latent_score} outside [0, 1]")


def _parse_line(line: str, line_number: int, *, require_counts: bool = True) -> ImageRecord:
    """Parse one metadata line into an (unvalidated) ImageRecord.

    Structural problems (bad JSON, missing keys, wrong types) raise
    ParseError. With ``require_counts=False`` the views/faves keys may be
    absent (frame records); absent counts are stored as 0.
    """
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(line_number, f"invalid JSON ({exc.msg})") from exc
    if not isinstance(obj, dict):
        raise ParseError(line_number, "record is not a JSON object")

    rec_id = obj.get("id")
    if not isinstance(rec_id, str):
        raise ParseError(line_number, "missing or non-string 'id'")

    features = obj.get("features")
    if not isinstance(features, list) or not features:
        raise ParseError(line_number, "missing or empty 'features' array")
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in features):
        raise ParseError(line_number, "'features' entries must be numbers")

    def _count(key):
        value = obj.get(key)
        if value is None and not require_counts:
            return 0
        if not isinstance(value, int) or isinstance(value, bool):
            raise ParseError(line_number, f"missing or non-integer '{key}'")
        return value

    latent = obj.get("latent_score")
    if latent is not None and (not isinstance(latent, (int, float)) or isinstance(latent, bool)):
        raise ParseError(line_number, "'latent_score' must be a number")

    return ImageRecord(
        id=rec_id,
        views=_count("views"),
        faves=_count("faves"),
        features=np.array(features, dtype=np.float64),
        latent_score=None if latent is None else float(latent),
    )


def _read_records(path: str | Path, *, require_counts: bool = True):
    """Yield ``(line_number, record)`` for every non-blank metadata line.

    Records come back parsed but unvalidated, in file order.

    Raises:
        ParseError: A line is not a valid record object (carries the line
            number).
        FormatError: A line's feature length disagrees with the first
            record's.
    """
    expected_len: int | None = None
    with Path(path).open("r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            record = _parse_line(line, line_number, require_counts=require_counts)
            if expected_len is None:
                expected_len = record.features.size
            elif record.features.size != expected_len:
                raise FormatError(
                    f"line {line_number}: feature length {record.features.size} "
                    f"!= {expected_len} established earlier"
                )
            yield line_number, record


def load_dataset(path: str | Path) -> Dataset:
    """Load a metadata file, rejecting records that violate field constraints.

    Rejected records are logged with their line number and offending field;
    a summary line reports the rejection count. Structural problems abort
    the load instead:

    Raises:
        ParseError: A line is not a valid record object (carries the line
            number).
        FormatError: A line's feature length disagrees with the first
            record's.
    """
    records: list[ImageRecord] = []
    seen_ids: set[str] = set()
    rejected = 0
    for line_number, record in _read_records(path):
        try:
            validate_record(record)
            if record.id in seen_ids:
                raise RecordError("id", f"duplicate id {record.id!r}")
        except RecordError as exc:
            rejected += 1
            logger.warning("rejected record at line %d (%s): %s", line_number, exc.field, exc)
            continue
        seen_ids.add(record.id)
        records.append(record)

    if rejected:
        logger.info("load_dataset(%s): rejected %d record(s)", path, rejected)
    d_in = records[0].features.size if records else None
    return Dataset(records=records, d_in=d_in)


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


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset in the one-record-per-line metadata format.

    Floats are serialized with the shortest representation that parses back
    to the identical value (at most 17 significant digits), so a
    load/save/load cycle is exact.
    """
    with open_atomic(path) as fh:
        for record in dataset.records:
            obj = {
                "id": record.id,
                "views": int(record.views),
                "faves": int(record.faves),
                "features": [float(v) for v in record.features],
            }
            if record.latent_score is not None:
                obj["latent_score"] = float(record.latent_score)
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
        EmptyInputError: The dataset has no records.
    """
    if len(dataset) == 0:
        raise EmptyInputError("cannot histogram an empty dataset")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
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
