"""JSON-lines file formats and the flat run-configuration file.

Two line formats share one convention: a header object carrying
``format``, ``version``, and the embedding dimension, followed by one
record per line. Floats are always written with 17 significant digits so
that write -> read -> write is byte-identical and golden files stay
stable across platforms.

The run configuration is a flat ``key = value`` text file whose keys are
the synthetic-data and trainer fields. Unknown keys are rejected rather
than ignored; a silently dropped typo would be worse than an error.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

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


# ---------------------------------------------------------------------------
# serialization

def _fmt(value) -> str:
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        f = float(value)
        if not math.isfinite(f):
            raise ValidationError("cannot serialize non-finite number")
        return format(f, ".17g")
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_fmt(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    if isinstance(value, np.ndarray):
        return _fmt(value.tolist())
    raise ValidationError(f"cannot serialize {type(value).__name__}")


def to_json(value) -> str:
    """Compact JSON with floats at 17 significant digits (lossless doubles)."""
    return _fmt(value)


def _parse_line(line: str, lineno: int) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON ({exc.msg})", line=lineno) from exc
    except (ValueError, RecursionError) as exc:  # over-long integer literal, deep nesting
        raise ParseError(f"invalid JSON ({exc})", line=lineno) from exc
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object", line=lineno)
    return obj


def _expect(obj: dict, key: str, lineno: int):
    if key not in obj:
        raise ParseError(f"missing field {key!r}", line=lineno)
    return obj[key]


def _number(value, lineno: int, what: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError(f"{what} must be a number", line=lineno)
    try:
        number = float(value)
    except OverflowError:
        raise ParseError(f"{what} is too large for a double", line=lineno) from None
    if not math.isfinite(number):
        raise ParseError(f"{what} must be finite", line=lineno)
    return number


def _embedding(value, dim: int | None, lineno: int, what: str = "embedding") -> np.ndarray:
    if not isinstance(value, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
    ):
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


def _read_header(line: str, expected_format: str) -> dict:
    header = _parse_line(line, 1)
    if header.get("format") != expected_format:
        raise ParseError(f"expected header with format {expected_format!r}", line=1)
    if header.get("version") != VERSION:
        raise ParseError(f"unsupported version {header.get('version')!r}", line=1)
    dim = header.get("dim")
    if not isinstance(dim, int) or dim < 1:
        raise ParseError("header dim must be a positive integer", line=1)
    return header


def _read_text(path) -> str:
    """A file's text; bytes that are not UTF-8 raise :class:`ParseError` naming their line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw[:exc.start].count(b"\n") + 1
        raise ParseError(f"not valid UTF-8 ({exc.reason})", line=line) from None


def _lines(path) -> list[str]:
    lines = [ln for ln in _read_text(path).splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty file", line=1)
    return lines


# ---------------------------------------------------------------------------
# vocabulary files

def read_vocab(path) -> tuple[list[tuple[str, np.ndarray]], int]:
    """Load (tag_id, embedding) pairs and the dimension from a vocabulary file."""
    lines = _lines(path)
    header = _read_header(lines[0], VOCAB_FORMAT)
    dim = header["dim"]
    vocab: list[tuple[str, np.ndarray]] = []
    seen: set[str] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        obj = _parse_line(line, lineno)
        tag_id = _expect(obj, "tag_id", lineno)
        if not isinstance(tag_id, str):
            raise ParseError("tag_id must be a string", line=lineno)
        if tag_id in seen:
            raise ParseError(f"duplicate tag_id {tag_id!r}", line=lineno)
        seen.add(tag_id)
        emb = _embedding(_expect(obj, "embedding", lineno), dim, lineno)
        vocab.append((tag_id, emb))
    return vocab, dim


def write_vocab(path, vocab, dim: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json({"format": VOCAB_FORMAT, "version": VERSION, "dim": dim}) + "\n")
        for tag_id, emb in vocab:
            fh.write(to_json({"tag_id": tag_id, "embedding": np.asarray(emb)}) + "\n")


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


def read_instances(path) -> tuple[list[InstanceRecord], int]:
    lines = _lines(path)
    header = _read_header(lines[0], INSTANCE_FORMAT)
    dim = header["dim"]
    records: list[InstanceRecord] = []
    for lineno, line in enumerate(lines[1:], start=2):
        obj = _parse_line(line, lineno)
        image_id = _expect(obj, "image_id", lineno)
        if not isinstance(image_id, str):
            raise ParseError("image_id must be a string", line=lineno)
        image_emb = _embedding(_expect(obj, "image_embedding", lineno), dim, lineno)

        regions_raw = _expect(obj, "regions", lineno)
        if not isinstance(regions_raw, list) or not regions_raw:
            raise ParseError("regions must be a non-empty list", line=lineno)
        regions = np.vstack(
            [_embedding(r, dim, lineno, what="region") for r in regions_raw]
        )

        tokens = []
        tokens_raw = _expect(obj, "caption_tokens", lineno)
        if not isinstance(tokens_raw, list):
            raise ParseError("caption_tokens must be a list", line=lineno)
        for tok in tokens_raw:
            if not isinstance(tok, dict):
                raise ParseError("caption token must be an object", line=lineno)
            text = _expect(tok, "text", lineno)
            is_noun = _expect(tok, "is_noun", lineno)
            if not isinstance(is_noun, bool):
                raise ParseError("is_noun must be a boolean", line=lineno)
            tokens.append(
                CaptionToken(
                    text=str(text),
                    is_noun=is_noun,
                    embedding=_embedding(
                        _expect(tok, "embedding", lineno), dim, lineno, what="token embedding"
                    ),
                )
            )

        tags = None
        if "tags" in obj and obj["tags"] is not None:
            if not isinstance(obj["tags"], list):
                raise ParseError("tags must be a list or null", line=lineno)
            tags = []
            for t in obj["tags"]:
                if not isinstance(t, dict):
                    raise ParseError("tag entry must be an object", line=lineno)
                tid = _expect(t, "tag_id", lineno)
                score = _number(_expect(t, "score", lineno), lineno, "tag score")
                tags.append(TagRef(tag_id=str(tid), score=score))

        records.append(
            InstanceRecord(
                image_id=image_id,
                image_embedding=image_emb,
                regions=regions,
                caption_tokens=tokens,
                tags=tags,
            )
        )
    return records, dim


def write_instances(path, records, dim: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            to_json({"format": INSTANCE_FORMAT, "version": VERSION, "dim": dim}) + "\n"
        )
        for rec in records:
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
            fh.write(to_json(obj) + "\n")


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
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(obj) + "\n")


def _table(obj: dict, name: str) -> np.ndarray:
    """A state table as float64; ragged rows or non-finite numbers raise :class:`ParseError`."""
    try:
        arr = np.asarray(obj[name])
    except ValueError as exc:
        raise ParseError(f"malformed state file: {name} is ragged", line=1) from exc
    if arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
        raise ParseError(f"malformed state file: {name} must hold only finite numbers", line=1)
    return arr.astype(np.float64)


def read_state(path) -> tuple[TrainState, SyntheticConfig, TrainerConfig]:
    obj = _parse_line(_read_text(path), 1)
    if obj.get("format") != STATE_FORMAT or obj.get("version") != VERSION:
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
    if not isinstance(state.step, int) or isinstance(state.step, bool):
        raise ParseError("malformed state file: step must be an integer", line=1)
    expected = (syn.n_concepts, syn.d)
    if state.tag_table.shape != expected or state.caption_table.shape != expected:
        raise DimensionError("state tables do not match the embedded config")
    if state.region_table.shape != (syn.n_images * syn.regions_per_image, syn.d):
        raise DimensionError("region table does not match the embedded config")
    return state, syn, cfg
