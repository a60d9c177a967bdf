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

A parse that reaches the end of a regular file, not a symlink, with every record
kept writes a binary twin, ``<path>.twin``: the kept records in binary (about
40% of the text at 16 features) with BLAKE2b-256 digests of the text as read and
of the twin. A frames read writes a frames-only twin, which dataset reads
ignore. ``read_blocks`` reads a twin that serves it and whose digests match
instead of parsing, with the parse's blocks bit for bit; any other twin is
ignored. No twin is written for a count beyond int64, an id with a lone
surrogate or a read that stops early, and one that cannot be written costs the
read nothing. Deleting a twin is always safe. Only this module knows its layout.

Matrices are cut into blocks of rows by one rule, ``row_blocks``:
``encoder.forward`` embeds, ``ranker.embed`` takes norms of, and
``save_dataset`` converts to Python floats one block at a time. Neither rule
leaves a block of one row when n >= 2.

Every CSV output of the package is written by ``write_csv``, every text
output file through ``open_atomic``, and a twin through a temporary file and
a rename too, so a failed run or read leaves no partial file.
"""

from __future__ import annotations

import contextlib
import csv
import json
import logging
import math
import os
import struct
import sys
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError, ParseError, RecordError

logger = logging.getLogger(__name__)

# exact types: JSON yields no subclasses, and a bool is no number here
_NUMBER_TYPES = frozenset((int, float))
# ``json.loads`` without its wrapper and whitespace skips, for a line stripped of whitespace
_decode = json.JSONDecoder().raw_decode

# the most rows in a ``row_blocks`` block, and the rows of each ``read_blocks`` block but the last
ROW_BLOCK = 1024

# the twin of a file ``read_blocks`` has parsed: ``<path>.twin``
TWIN_SUFFIX = ".twin"
# magic (its last letter the numbers' byte order), version, frames-only, text digest, twin digest
_TWIN_HEAD = struct.Struct("=8sI?32s32s")
_TWIN_MAGIC = b"AESTWIN" + sys.byteorder[:1].encode()
_TWIN_VERSION = 3
# the payload is one chunk per block, each headed by its records, feature width and id text bytes
_TWIN_CHUNK = struct.Struct("=qqq")


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


def _check_record(obj, line_number: int, width: int, frames: bool, seen_ids: set) -> float:
    """The reader's checks of one parsed line, in its order.

    The structural checks come first, then the width check against
    ``width``, the first record's feature length (0 before it), and a
    finiteness test of the features; a dataset record then runs
    ``load_dataset``'s field checks. Raises ``ParseError`` for a line that
    stops the read and ``RecordError`` for a record the reader skips. A kept
    dataset record's id joins ``seen_ids``, and its latent score is
    returned as a float, NaN when it has none.
    """
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
    views, faves = obj.get("views"), obj.get("faves")
    if type(views) is not int and not (frames and views is None):
        raise ParseError(line_number, "missing or non-integer 'views'")
    if type(faves) is not int and not (frames and faves is None):
        raise ParseError(line_number, "missing or non-integer 'faves'")
    if width and len(features) != width:
        raise ParseError(line_number, f"feature length {len(features)} != {width} established earlier")
    try:
        finite = all(map(math.isfinite, features))
    except OverflowError:  # an integer beyond float range
        finite = False
    if frames:
        if not finite:
            raise ParseError(line_number, "non-finite feature entry")
        return math.nan
    compute_score(views, faves)
    if not finite:
        raise RecordError("features", "non-finite feature entry")
    if latent is not None:
        latent = _to_float(latent)
        if not 0.0 <= latent <= 1.0:
            raise RecordError("latent_score", f"latent_score {latent} outside [0, 1]")
    if rec_id in seen_ids:
        raise RecordError("id", f"duplicate id {rec_id!r}")
    seen_ids.add(rec_id)
    return math.nan if latent is None else latent


def _parsed_rows(path: str | Path, columns: tuple, frames: bool, out) -> Iterator[tuple[int, int]]:
    """Parse a metadata file into the reader's columns, yielding the feature width and the records
    rejected so far after each line; each raw line goes into the text digest of the writer ``out``."""
    ids, views, faves, latents, values = columns
    seen_ids, width, rejected, hash_line = set(), 0, 0, out and out.text.update
    with Path(path).open("rb") as fh:
        for line_number, raw in enumerate(fh, start=1):
            if hash_line:
                hash_line(raw)
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ParseError(line_number, f"not UTF-8 text ({exc.reason})") from exc
            if not line:
                continue
            try:
                obj, end = (None, 0) if line[0] == "\ufeff" else _decode(line)
                if end < len(line):  # a byte order mark, or data after the value
                    json.loads(line)  # raises, in its own words
            except json.JSONDecodeError as exc:
                raise ParseError(line_number, f"invalid JSON ({exc.msg})") from exc
            except RecursionError as exc:
                raise ParseError(line_number, "invalid JSON (nested too deeply)") from exc
            try:
                latent = _check_record(obj, line_number, width, frames, seen_ids)
            except RecordError as exc:
                logger.warning("rejected record at line %d (%s): %s", line_number, exc.field, exc)
                rejected, hash_line = rejected + 1, None  # a rejected record leaves no twin
            else:
                if not frames:
                    views.append(obj["views"])
                    faves.append(obj["faves"])
                    latents.append(latent)
                ids.append(obj["id"])
                values.fromlist(obj["features"])
            if not width:
                width = len(obj["features"])
            yield width, rejected
    if rejected:
        logger.info("load_dataset(%s): rejected %d record(s)", path, rejected)


def _digest():
    """A new BLAKE2b-256 hash, from CPython's own BLAKE2; importing ``hashlib`` would load OpenSSL."""
    try:
        from _blake2 import blake2b
    except ImportError:  # an interpreter without CPython's module
        from hashlib import blake2b
    return blake2b(digest_size=32)


def _file_digest(fh, tail: bytes = b"") -> bytes:
    """The digest of the rest of an open binary file, followed by ``tail``."""
    digest = _digest()
    while data := fh.read(1 << 18):
        digest.update(data)
    digest.update(tail)
    return digest.digest()


def _open_twin(path: str | Path, frames: bool):
    """The twin of ``path``, open at its payload, and its frames-only flag, if the twin is whole,
    serves this read and was made from the bytes of ``path``; None for any other twin."""
    try:
        fh = open(f"{path}{TWIN_SUFFIX}", "rb")
    except OSError:
        return None
    try:
        head = fh.read(_TWIN_HEAD.size)
        if len(head) == _TWIN_HEAD.size and os.path.isfile(path):  # a pipe cannot be read twice
            magic, version, frames_only, text_digest, twin_digest = _TWIN_HEAD.unpack(head)
            if ((magic, version) == (_TWIN_MAGIC, _TWIN_VERSION) and (frames or not frames_only)
                    and _file_digest(fh, head[:-32]) == twin_digest):
                with open(path, "rb") as text:
                    if _file_digest(text) == text_digest:
                        fh.seek(_TWIN_HEAD.size)
                        return fh, frames_only
    except OSError:
        pass
    fh.close()
    return None


def _twin_rows(fh, frames_only: bool, columns: tuple, frames: bool) -> Iterator[tuple[int, int]]:
    """Read a verified twin's chunks into the reader's columns, yielding as ``_parsed_rows`` does."""
    ids, views, faves, latents, values = columns
    lead = 1 if frames_only else 4  # 8-byte columns before the features: id ends, views, faves, latents
    with fh:
        while head := fh.read(_TWIN_CHUNK.size):
            k, width, text_bytes = _TWIN_CHUNK.unpack(head)
            chunk = memoryview(fh.read(8 * k * (lead + width) + text_bytes))
            ends = np.frombuffer(chunk, np.int64, k).tolist()
            text = str(chunk[8 * k * (lead + width):], "utf-8")
            ids += [text[start:end] for start, end in zip([0, *ends], ends)]
            if not frames:
                counts = np.frombuffer(chunk, np.int64, 2 * k, 8 * k).reshape(2, k).tolist()
                views += counts[0]
                faves += counts[1]
                latents.frombytes(chunk[24 * k:32 * k])
            values.frombytes(chunk[8 * k * lead:8 * k * (lead + width)])
            yield width, 0


def _twin_chunk(block: Dataset, frames: bool) -> list:
    """One block's twin chunk as the buffers to write in order: its head, the ids' end offsets, the
    views, faves and latent scores unless ``frames``, the features and the ids' UTF-8 text. Raises
    OverflowError for a count beyond int64, UnicodeEncodeError for an id with a lone surrogate."""
    counts = [] if frames else [np.array([block.views, block.faves], np.int64), block.latent_scores]
    text = "".join(block.ids).encode("utf-8")
    ends = np.fromiter(map(len, block.ids), np.int64, len(block)).cumsum()
    return [_TWIN_CHUNK.pack(len(block), block.features.shape[1], len(text)), ends, *counts,
            block.features, text]


class _TwinWriter:
    """The twin of a file that ``read_blocks`` parses, written a chunk per block to a temporary file.

    ``add`` returns None once the twin is in place after the last block, or once a rejected record,
    a block without a chunk or an ``OSError`` has closed the writer, which removes the file."""

    def __init__(self, path: str | Path, frames: bool):
        self.path, self.frames = Path(f"{path}{TWIN_SUFFIX}"), frames
        self.text, self.digest = _digest(), _digest()  # of the file's raw lines, and of the twin
        self.tmp = _temporary(self.path)
        self.fh = self.tmp.open("xb")  # another read of the path in this process may be writing it
        self.fh.seek(_TWIN_HEAD.size)  # the head is written last

    def add(self, block: Dataset, rejected: int, last: bool = False) -> _TwinWriter | None:
        if rejected:
            return self.close()
        try:
            for part in _twin_chunk(block, self.frames):
                self.fh.write(part)
                self.digest.update(part)
            if not last:
                return self
            head = _TWIN_HEAD.pack(_TWIN_MAGIC, _TWIN_VERSION, self.frames, self.text.digest(), b"")
            self.digest.update(head[:-32])
            self.fh.seek(0)
            self.fh.write(head[:-32] + self.digest.digest())
            self.fh.close()
            os.replace(self.tmp, self.path)
        except (OSError, OverflowError, UnicodeEncodeError):
            self.close()
        return None

    def close(self) -> None:
        for step in (self.fh.close, self.tmp.unlink):
            with contextlib.suppress(OSError):
                step()


def read_blocks(path: str | Path, *, frames: bool = False) -> Iterator[Dataset]:
    """Read a metadata file in one pass, yielding its kept records as ``Dataset`` blocks.

    A line gets the structural checks, the width check against the first
    record and a finiteness test of its features. A dataset record then runs
    ``load_dataset``'s field checks and is kept, or logged and skipped. With
    ``frames=True`` the views/faves keys may be absent, only ids and features
    are kept (views, faves and latent scores are empty), and a non-finite
    frame aborts the read. A twin that serves the read gives the blocks of a
    parse; a parse that writes a twin does so before the last block.

    Blocks hold ``ROW_BLOCK`` records in file order, the last one the 0 to
    ``ROW_BLOCK + 1`` left over: two records are held back until more follow,
    so that, as with ``row_blocks``, no block has one row when n >= 2. An
    empty file gives one empty block.

    Raises:
        ParseError: As ``load_dataset`` and ``video.load_frames`` describe,
            once the reading reaches the bad line.
    """
    columns = ids, _, _, _, _ = [], [], [], array("d"), array("d")
    twin, width, rejected, out = _open_twin(path, frames), 0, 0, None
    with contextlib.suppress(OSError):  # none beside a symlink (``/dev/stdin``), a pipe or a device
        if twin is None and os.path.isfile(path) and not os.path.islink(path):
            out = _TwinWriter(path, frames)
    rows = _twin_rows(*twin, columns, frames) if twin else _parsed_rows(path, columns, frames, out)
    try:
        for width, rejected in rows:
            while len(ids) >= ROW_BLOCK + 2:
                block = _take(columns, ROW_BLOCK, width)
                out = out and out.add(block, rejected)
                yield block
        block = _take(columns, len(ids), width)
        out = out and out.add(block, rejected or not len(block), last=True)
        yield block
    finally:
        if out:
            out.close()


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


def _temporary(path: Path) -> Path:
    """The temporary file a write to ``path`` goes to before its rename: hidden, in the same directory."""
    return path.with_name(f".{path.name}.{os.getpid()}.tmp")


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
    tmp = _temporary(path)
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


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset in the one-record-per-line metadata format, and remove any twin at ``<path>.twin``.

    Floats are serialized with the shortest representation that parses back
    to the identical value (at most 17 significant digits), so a
    load/save/load cycle is exact. Feature rows become Python lists one
    ``row_blocks`` block at a time, so the write holds one block of them
    besides the dataset, not a list copy of the whole matrix. The first read
    of the file to its end writes a new twin (see ``read_blocks``).
    """
    with open_atomic(path) as fh:
        start = 0
        for block in row_blocks(dataset.features):
            stop = start + len(block)
            for rec_id, views, faves, features, latent in zip(
                    dataset.ids[start:stop], dataset.views[start:stop], dataset.faves[start:stop],
                    block.tolist(), dataset.latent_scores[start:stop].tolist()):
                obj = {"id": rec_id, "views": int(views), "faves": int(faves), "features": features}
                if not math.isnan(latent):
                    obj["latent_score"] = latent
                fh.write(json.dumps(obj) + "\n")
            start = stop
    with contextlib.suppress(OSError):  # a twin that stays is refused by its digest, only later
        Path(f"{path}{TWIN_SUFFIX}").unlink(missing_ok=True)


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
