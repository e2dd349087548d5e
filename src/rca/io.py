"""JSON-lines file formats and the flat run-configuration file.

Two line formats share one convention: a header object carrying
``format``, ``version``, and the embedding dimension, followed by one
record per line. Data files (vocabularies, instances and trainer state)
are written by one writer, :func:`_write_data`: one ``orjson.dumps`` per
line, floats in shortest round-trip form, after it has refused
non-finite numbers, widened narrower floats to float64 and made arrays
C-contiguous (:func:`_data_value`); a write that fails removes its file.
Every double reads back bit for bit, -0.0 included, so write -> read ->
write is byte-identical. Report lines (each subcommand's stdout and
``rca train --metrics_out``) are written by :func:`to_json`, floats at 17
significant digits, because the stdout goldens and the benchmark's
pinned digests hold those bytes. Each line is decoded by
``orjson.loads``, whose doubles and 64-bit integers are those of
``json.loads``. Embedding rows and state tables are converted by one
numpy array pass. One checker, :func:`_numbers`, takes a list of numbers
and names its error: each embedding row that fails the array pass, and
each line's tag scores as one list (``tag scores must be a list of
numbers``). Lines end at ``\\n``, ``\\r\\n`` or ``\\r``, and errors
name a line by its number in the file, blank lines counted.

The run configuration is a flat ``key = value`` text file whose keys are
the synthetic-data and trainer fields. Unknown keys are rejected rather
than ignored; a silently dropped typo would be worse than an error.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import operator
import os
import re
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

import numpy as np
import orjson

from .errors import ConfigError, DimensionError, ParseError, ValidationError
from .tags import TagRef
from .trainer import SyntheticConfig, TrainerConfig, TrainState, field_kinds

__all__ = [
    "to_json",
    "CaptionToken",
    "InstanceRecord",
    "read_vocab",
    "write_vocab",
    "read_instances",
    "write_instances",
    "config_kinds",
    "read_run_config",
    "build_configs",
    "env_seed",
    "write_state",
    "read_state",
]

VOCAB_FORMAT = "rca-vocab"
INSTANCE_FORMAT = "rca-instances"
STATE_FORMAT = "rca-state"
VERSION = 1
# what orjson.loads gives a JSON number; an integer literal past 64 bits reads as a float
_NUMBER_TYPES = {int, float}
# orjson checks a whole document first, then builds a valid one's Python
# objects by recursion in C, which overflows the C stack (a segfault) near
# 100k levels; json.loads stopped near 1,000 levels with a RecursionError
_MAX_NESTING = 1000
_NOT_BRACKETS = re.compile(rb"[^\[\]{}]+")
# a window of embedding rows is checked in one pass once it holds at least this many;
# a larger one holds more decoded lines at once
_WINDOW_ROWS = 64
# a data-file line: numpy arrays and scalars written natively, each line ending "\n"
_DATA_LINE = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE


# ---------------------------------------------------------------------------
# serialization

# subclasses, tuples and numpy values: each as the plain value it holds
_PLAIN_VALUE = (
    (str, str.__str__),
    ((float, np.floating), float),
    (dict, lambda value: dict(value.items())),
    ((list, tuple), list),
    (np.ndarray, np.ndarray.tolist),
)


def _template(value, floats: list) -> str:
    """``value`` as JSON text with ``%.17g`` for each float, appended in order to ``floats``.

    A ``%`` in a string or key is doubled, so ``template % tuple(floats)``
    is the JSON text. -0.0 is written ``-0.0`` where it is met: ``%.17g``
    would give ``-0``, which JSON reads as the integer 0.
    """
    # the commonest exact types first: a type test is cheaper than an isinstance chain
    kind = type(value)
    if kind is str:
        return _quote(value).replace("%", "%%")
    if kind is float:
        if value or math.copysign(1.0, value) > 0.0:
            floats.append(value)
            return "%.17g"
        return "-0.0"
    if kind is dict:
        return "{" + ", ".join([_key(k) + _template(v, floats) for k, v in value.items()]) + "}"
    if kind is list:
        return "[" + ", ".join([_template(v, floats) for v in value]) + "]"
    if kind is np.ndarray and value.dtype == np.float64 and value.size and value.ndim:
        # an array holding -0.0 takes the .tolist() route below, one float at a time
        if value.all() or not np.signbit(value[value == 0.0]).any():
            floats.extend(value.ravel().tolist())
            return _array_template(value.shape)
    # bool must come before int, its base class
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return "null"
    for kinds, plain in _PLAIN_VALUE:
        if isinstance(value, kinds):
            return _template(plain(value), floats)
    _check_finite(floats)  # a non-finite float met earlier is the first error
    raise ValidationError(f"cannot serialize {type(value).__name__}")


@functools.lru_cache(maxsize=256, typed=True)  # typed: 1, 1.0 and True are different keys
def _key(key) -> str:
    return _quote(str(key)).replace("%", "%%") + ": "


def _array_template(shape: tuple) -> str:
    template = "%.17g"
    for n in reversed(shape):
        template = "[" + ", ".join([template] * n) + "]"
    return template


def _check_finite(floats: list) -> None:
    # a sum is finite only if every term is; a sum that overflows is checked term by term
    if not math.isfinite(sum(floats)) and not all(map(math.isfinite, floats)):
        raise ValidationError("cannot serialize non-finite number")


def to_json(value) -> str:
    """A report line: compact JSON with floats at 17 significant digits (lossless doubles).

    One ``%`` template per value, filled from one tuple of its floats;
    ``"%.17g" % x`` spells every double as ``format(x, ".17g")`` does.
    -0.0, which ``%.17g`` would spell ``-0``, is already ``-0.0`` in the
    template and has no float in the tuple.
    """
    floats: list[float] = []
    template = _template(value, floats)
    _check_finite(floats)
    return template % tuple(floats)


def _data_value(value):
    """``value`` as orjson writes it back bit for bit; :class:`ValidationError` on a non-finite number.

    orjson would write NaN and ±inf as ``null``, spell a float32 by its own
    shortest digits (which read back as another double) and refuse an
    array that is not C-contiguous. So every float, numpy float and
    floating array is checked and widened to float64, and every array is
    made C-contiguous, inside dicts and lists; other values are orjson's
    to write or refuse.
    """
    # the commonest exact types first: a type test is cheaper than an isinstance chain
    kind = type(value)
    if kind is dict:
        return {k: _data_value(v) for k, v in value.items()}
    if kind is list:
        return [_data_value(v) for v in value]
    if kind is str:
        return value
    if kind is float or isinstance(value, (float, np.floating)):
        value = float(value)
        if not math.isfinite(value):
            raise ValidationError("cannot serialize non-finite number")
        return value
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f":
            value = value.astype(np.float64, copy=False)
            if not np.isfinite(value).all():
                raise ValidationError("cannot serialize non-finite number")
        return np.ascontiguousarray(value)
    return value


def _write_data(path, lines) -> None:
    """Write each object of ``lines`` as one JSON line through orjson (see :func:`_data_value`).

    On any error the file is removed, so no partial file reads as a valid
    one; for a symbolic link that is its target, and the link stays.
    """
    with open(path, "wb") as fh:
        try:
            for obj in lines:
                try:
                    fh.write(orjson.dumps(_data_value(obj), option=_DATA_LINE))
                except orjson.JSONEncodeError as exc:
                    raise ValidationError(f"cannot serialize: {exc}") from None
        except BaseException:
            fh.close()
            with contextlib.suppress(OSError):  # report the error that stopped the write
                os.remove(os.path.realpath(path))
            raise


# ---------------------------------------------------------------------------
# reading lines

def _nesting(line: bytes) -> int:
    """How deep the arrays and objects of a JSON text nest; exact when the text is valid JSON.

    Valid JSON has backslashes only inside strings. Dropping the escaped
    backslashes, then the escaped quotes, leaves only the quotes that open
    and close strings, so the text outside strings is every other piece
    between quotes.
    """
    unescaped = line.replace(b"\\\\", b"").replace(b'\\"', b"")
    brackets = _NOT_BRACKETS.sub(b"", b"".join(unescaped.split(b'"')[::2]))
    codes = np.frombuffer(brackets, dtype=np.uint8)
    steps = np.where((codes == ord("[")) | (codes == ord("{")), 1, -1)
    return int(np.cumsum(steps).max(initial=0))


def _parse_line(line: bytes, lineno: int) -> dict:
    # a text nested d deep has at least 2d bytes and d brackets that open,
    # so an ordinary line skips the exact scan
    if (len(line) > 2 * _MAX_NESTING
            and line.count(b"[") + line.count(b"{") > _MAX_NESTING
            and _nesting(line) > _MAX_NESTING):
        raise ParseError(f"invalid JSON (nested deeper than {_MAX_NESTING} levels)", line=lineno)
    try:
        obj = orjson.loads(line)
    except orjson.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON ({exc.msg})", line=lineno) from exc
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object", line=lineno)
    return obj


def _expect(obj: dict, key: str, lineno: int):
    if key not in obj:
        raise ParseError(f"missing field {key!r}", line=lineno)
    return obj[key]


def _numbers(value, dim: int | None, lineno: int, what: str = "embedding") -> np.ndarray:
    """A decoded list of finite numbers as float64, ``dim`` of them unless None; else its error."""
    # exact types: a bool is an int subclass, and np.array([True, 1.5]) infers float64
    if not isinstance(value, list) or not set(map(type, value)) <= _NUMBER_TYPES:
        raise ParseError(f"{what} must be a list of numbers", line=lineno)
    try:
        arr = np.asarray(value, dtype=np.float64)
    except OverflowError as exc:
        raise ParseError(f"{what} holds a number too large for a double", line=lineno) from exc
    if not np.isfinite(arr).all():
        raise ParseError(f"{what} holds a non-finite number", line=lineno)
    if dim is not None and arr.shape != (dim,):
        raise DimensionError(
            f"line {lineno}: {what} has dim {arr.shape[0] if arr.ndim == 1 else arr.shape}, expected {dim}"
        )
    return arr


def _holds_bool(values, arr: np.ndarray) -> bool:
    """Whether a JSON ``true`` or ``false`` is among ``values``, which numpy read as the numeric ``arr``.

    numpy reads a boolean among numbers as 1 or 0, so only the innermost
    lists holding a value that reads exactly 0 or 1 are looked at, by type.
    """
    hits = (arr == 0) | (arr == 1)
    if not hits.any():
        return False
    if not arr.ndim:
        return type(values) is bool
    return any(bool in set(map(type, functools.reduce(operator.getitem, at, values)))
               for at in np.argwhere(hits.any(axis=-1)).tolist())


def _as_numbers(values) -> np.ndarray | None:
    """Decoded JSON ``values`` as a float64 array in one array pass; None unless all are finite numbers.

    One ``np.array`` call infers a dtype; the values pass when that dtype
    is numeric, every value is finite and none was a JSON boolean
    (:func:`_holds_bool`). A string or ``null`` gives a non-numeric dtype;
    ragged lists raise ValueError.
    """
    arr = np.array(values)
    if arr.dtype.kind not in "iuf" or not np.isfinite(arr).all() or _holds_bool(values, arr):
        return None
    return arr.astype(np.float64, copy=False)


def _checked_rows(rows: list, dim: int) -> np.ndarray:
    """Decoded embedding rows, each ``(value, lineno, what)``, as one (n, dim) float64 array.

    One array pass (:func:`_as_numbers`) converts them. Rows it does not
    pass are checked value by value with :func:`_numbers` in the order
    they were added, so the error raised is the first one that order meets.
    """
    try:
        table = _as_numbers([value for value, _, _ in rows])
    except ValueError:  # ragged rows
        table = None
    if table is None or table.shape != (len(rows), dim):
        table = np.array([_numbers(value, dim, lineno, what) for value, lineno, what in rows])
    return table.reshape(len(rows), dim)


def _is_version(value) -> bool:
    return type(value) is int and value == VERSION  # not true, not 1.0


def _read_header(line: bytes, lineno: int, expected_format: str) -> dict:
    header = _parse_line(line, lineno)
    if header.get("format") != expected_format:
        raise ParseError(f"expected header with format {expected_format!r}", line=lineno)
    if not _is_version(header.get("version")):
        raise ParseError(f"unsupported version {header.get('version')!r}", line=lineno)
    dim = header.get("dim")
    if type(dim) is not int or dim < 1:  # exact type: true is an int subclass
        raise ParseError("header dim must be a positive integer", line=lineno)
    return header


def _read_bytes(path) -> bytes:
    """A file's bytes once they are known to be UTF-8; otherwise :class:`ParseError` naming the line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((raw[:exc.start] + b".").splitlines())
        raise ParseError(f"not valid UTF-8 ({exc.reason})", line=line) from None
    return raw


def _lines(path) -> list[tuple[int, bytes]]:
    """A file's non-blank lines, each with its line number counted over every line from 1.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r`` and nowhere else, so a string
    holding another line separator (U+2028, U+0085, ...) stays on its line.
    """
    lines = [(n, ln) for n, ln in enumerate(_read_bytes(path).splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ParseError("empty file", line=1)
    return lines


def _read_records(path, expected_format: str, check_line, build):
    """Records and the dimension of a header-and-records file.

    ``check_line(obj, lineno, rows)`` checks a decoded line but for its
    embedding rows, which it appends to ``rows`` as ``(value, lineno,
    what)``, and returns what ``build(items, table)`` needs to make the
    line's records once a window of rows is checked (:func:`_checked_rows`).
    The waiting rows are checked before a line's own error is raised.
    """
    (header_line, header), *lines = _lines(path)
    dim = _read_header(header, header_line, expected_format)["dim"]
    rows, items, records = [], [], []
    for lineno, line in lines:
        try:
            items.append(check_line(_parse_line(line, lineno), lineno, rows))
        except ParseError:
            _checked_rows(rows, dim)  # a row on an earlier line, or earlier on this one, fails first
            raise
        if len(rows) >= _WINDOW_ROWS:
            records += build(items, _checked_rows(rows, dim))
            rows, items = [], []
    records += build(items, _checked_rows(rows, dim))
    return records, dim


# ---------------------------------------------------------------------------
# vocabulary files

def read_vocab(path) -> tuple[list[tuple[str, np.ndarray]], int]:
    """Load (tag_id, embedding) pairs and the dimension from a vocabulary file."""
    seen: set[str] = set()

    def check_line(obj, lineno, rows):
        tag_id = _expect(obj, "tag_id", lineno)
        if not isinstance(tag_id, str):
            raise ParseError("tag_id must be a string", line=lineno)
        if tag_id in seen:
            raise ParseError(f"duplicate tag_id {tag_id!r}", line=lineno)
        seen.add(tag_id)
        rows.append((_expect(obj, "embedding", lineno), lineno, "embedding"))
        return tag_id

    return _read_records(path, VOCAB_FORMAT, check_line, zip)


def write_vocab(path, vocab, dim: int) -> None:
    header = {"format": VOCAB_FORMAT, "version": VERSION, "dim": dim}
    _write_data(path, [header, *({"tag_id": tag_id, "embedding": np.asarray(emb)}
                                 for tag_id, emb in vocab)])


# ---------------------------------------------------------------------------
# instance files

@dataclass
class CaptionToken:
    text: str
    is_noun: bool
    embedding: np.ndarray


@dataclass
class InstanceRecord:
    """One image: its embedding, region embeddings, caption, and (maybe) tags."""

    image_id: str
    image_embedding: np.ndarray
    regions: np.ndarray                 # (R, d)
    caption_tokens: list[CaptionToken] = field(default_factory=list)
    tags: list[TagRef] | None = None    # ranked, positives first

    def caption_noun_matrix(self) -> np.ndarray:
        nouns = [t.embedding for t in self.caption_tokens if t.is_noun]
        if not nouns:
            return np.zeros((0, self.regions.shape[1]))
        return np.vstack(nouns)


def _check_instance(obj: dict, lineno: int, rows: list):
    """One instance line's structure and tag scores, its rows appended to ``rows``: (id, R, tokens, tags)."""
    image_id = _expect(obj, "image_id", lineno)
    if not isinstance(image_id, str):
        raise ParseError("image_id must be a string", line=lineno)
    rows.append((_expect(obj, "image_embedding", lineno), lineno, "embedding"))

    regions = _expect(obj, "regions", lineno)
    if not isinstance(regions, list) or not regions:
        raise ParseError("regions must be a non-empty list", line=lineno)
    rows += [(region, lineno, "region") for region in regions]

    tokens = []
    tokens_raw = _expect(obj, "caption_tokens", lineno)
    if not isinstance(tokens_raw, list):
        raise ParseError("caption_tokens must be a list", line=lineno)
    for tok in tokens_raw:
        if not isinstance(tok, dict):
            raise ParseError("caption token must be an object", line=lineno)
        text = _expect(tok, "text", lineno)
        if not isinstance(text, str):
            raise ParseError("caption token text must be a string", line=lineno)
        is_noun = _expect(tok, "is_noun", lineno)
        if not isinstance(is_noun, bool):
            raise ParseError("is_noun must be a boolean", line=lineno)
        rows.append((_expect(tok, "embedding", lineno), lineno, "token embedding"))
        tokens.append((text, is_noun))

    tags = None
    if "tags" in obj and obj["tags"] is not None:
        if not isinstance(obj["tags"], list):
            raise ParseError("tags must be a list or null", line=lineno)
        tag_ids, scores = [], []
        try:
            for t in obj["tags"]:
                if not isinstance(t, dict):
                    raise ParseError("tag entry must be an object", line=lineno)
                tid = _expect(t, "tag_id", lineno)
                if not isinstance(tid, str):
                    raise ParseError("tag_id must be a string", line=lineno)
                tag_ids.append(tid)
                scores.append(_expect(t, "score", lineno))
        except ParseError:
            _numbers(scores, None, lineno, "tag scores")  # a score in an earlier entry fails first
            raise
        tags = list(map(TagRef, tag_ids, _numbers(scores, None, lineno, "tag scores").tolist()))
    return image_id, len(regions), tokens, tags


def _instance_records(items, table: np.ndarray) -> list[InstanceRecord]:
    """The records of checked instance lines; their arrays are views of ``table``."""
    records, row = [], 0
    for image_id, n_regions, tokens, tags in items:
        first_token = row + 1 + n_regions
        records.append(InstanceRecord(
            image_id=image_id,
            image_embedding=table[row],
            regions=table[row + 1:first_token],
            caption_tokens=[CaptionToken(text=text, is_noun=is_noun, embedding=table[first_token + j])
                            for j, (text, is_noun) in enumerate(tokens)],
            tags=tags,
        ))
        row = first_token + len(tokens)
    return records


def read_instances(path) -> tuple[list[InstanceRecord], int]:
    return _read_records(path, INSTANCE_FORMAT, _check_instance, _instance_records)


def _instance_line(rec: InstanceRecord) -> dict:
    obj = {
        "image_id": rec.image_id,
        "image_embedding": np.asarray(rec.image_embedding),
        "regions": np.asarray(rec.regions),
        "caption_tokens": [
            {"text": t.text, "is_noun": t.is_noun, "embedding": np.asarray(t.embedding)}
            for t in rec.caption_tokens
        ],
    }
    if rec.tags is not None:
        obj["tags"] = [{"tag_id": t.tag_id, "score": t.score} for t in rec.tags]
    return obj


def write_instances(path, records, dim: int) -> None:
    header = {"format": INSTANCE_FORMAT, "version": VERSION, "dim": dim}
    _write_data(path, [header, *map(_instance_line, records)])


# ---------------------------------------------------------------------------
# run configuration

def env_seed(default: int = 0) -> int:
    """Default RNG seed, overridable through the RCA_SEED environment variable."""
    raw = os.environ.get("RCA_SEED")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"RCA_SEED must be an integer, got {raw!r}") from None


def config_kinds() -> dict[str, type]:
    """Each run-config key (a SyntheticConfig or TrainerConfig field) and its type."""
    return {**field_kinds(TrainerConfig), **field_kinds(SyntheticConfig)}


def build_configs(values: dict) -> tuple[SyntheticConfig, TrainerConfig]:
    """Both configs from run-config values; ``seed`` feeds both, absent keys keep their defaults."""
    def build(cls):
        return cls(**{k: values[k] for k in field_kinds(cls) if k in values})

    return build(SyntheticConfig), build(TrainerConfig)


def _parse_config_value(name: str, kind: type, raw: str, lineno: int):
    raw = raw.strip()
    try:
        if kind is not bool:
            return kind(raw)
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ValueError(raw)
    except ValueError:
        raise ParseError(
            f"bad value for {name}: {raw!r} (expected {kind.__name__})", line=lineno
        ) from None


def read_run_config(path) -> dict:
    """The typed values of a flat ``key = value`` file, keyed by config field.

    Blank lines and ``#`` comments are skipped; keys that are not
    :func:`config_kinds` keys are rejected. A later line wins.
    """
    kinds = config_kinds()
    values = {}
    for lineno, line in enumerate(_read_bytes(path).splitlines(), start=1):
        stripped = line.decode().split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError("expected 'key = value'", line=lineno)
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in kinds:
            raise ParseError(f"unknown config key {key!r}", line=lineno)
        values[key] = _parse_config_value(key, kinds[key], raw, lineno)
    return values


# ---------------------------------------------------------------------------
# trainer state files

def write_state(path, state: TrainState, syn: SyntheticConfig, cfg: TrainerConfig) -> None:
    obj = {
        "format": STATE_FORMAT,
        "version": VERSION,
        "synthetic_config": dataclasses.asdict(syn),
        "trainer_config": dataclasses.asdict(cfg),
        "step": state.step,
        "tag_table": state.tag_table,
        "caption_table": state.caption_table,
        "region_table": state.region_table,
    }
    _write_data(path, [obj])


def _table(obj: dict, name: str) -> np.ndarray:
    """A state table as float64; :class:`ParseError` unless it is a grid of finite numbers."""
    try:
        arr = _as_numbers(obj[name])
    except ValueError as exc:
        raise ParseError(f"malformed state file: {name} is ragged", line=1) from exc
    if arr is None:
        raise ParseError(f"malformed state file: {name} must hold only finite numbers", line=1)
    return arr


def read_state(path) -> tuple[TrainState, SyntheticConfig, TrainerConfig]:
    obj = _parse_line(_read_bytes(path), 1)
    if obj.get("format") != STATE_FORMAT or not _is_version(obj.get("version")):
        raise ParseError("not a state file", line=1)
    try:
        syn = SyntheticConfig(**obj["synthetic_config"])
        cfg = TrainerConfig(**obj["trainer_config"])
        state = TrainState(
            tag_table=_table(obj, "tag_table"),
            caption_table=_table(obj, "caption_table"),
            region_table=_table(obj, "region_table"),
            step=obj["step"],
        )
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed state file: {exc}", line=1) from exc
    if not isinstance(state.step, int) or isinstance(state.step, bool) or state.step < 0:
        raise ParseError("malformed state file: step must be a non-negative integer", line=1)
    expected = (syn.n_concepts, syn.d)
    if state.tag_table.shape != expected or state.caption_table.shape != expected:
        raise DimensionError("state tables do not match the embedded config")
    if state.region_table.shape != (syn.n_images * syn.regions_per_image, syn.d):
        raise DimensionError("region table does not match the embedded config")
    return state, syn, cfg
