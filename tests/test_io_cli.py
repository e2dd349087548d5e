"""File formats, run configuration, and the command line front end.

The loss golden in tests/fixtures/expected_loss.jsonl was produced once by
the direct-formula evaluator in naive_reference.py (see fixtures/generate.py),
so the CLI is checked against an independent route, not against itself.
The goldens expected_uasr.jsonl and expected_gradcheck.jsonl are the exact
stdout of ``rca uasr fixtures/vocab.jsonl fixtures/instances.jsonl`` and
``rca gradcheck --seed 3``; expected_gradcheck_no_uasr.jsonl and
expected_gradcheck_no_inner.jsonl are those of ``rca gradcheck --seed 3
--no-enable_uasr`` and ``rca gradcheck --seed 3 --lambda_inner 0 --n_nouns
0``, the loss path without a selection and without the inner term;
expected_rank.jsonl and expected_rank_out.jsonl
are the stdout and the ``--out`` file of ``rca rank fixtures/vocab.jsonl
fixtures/instances_untagged.jsonl --M 4``; expected_train.jsonl and
expected_train_no_subsample.jsonl are the stdout of the two ``rca train``
runs in ``TRAIN_GOLDENS``, which also pins their state files by SHA-256 and
their clamp-warning counts. They pin those bytes; regenerate them only for
a change that means to move them.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from loop_reference import (
    read_instances_loop,
    read_vocab_loop,
    to_json_loop,
)
from naive_reference import naive_select_reweight, naive_total_loss
from rca import cli
from rca import io as rca_io
from rca.cli import main
from rca.errors import ConfigError, DimensionError, DivergenceError, ParseError, ValidationError
from rca.io import (
    CaptionToken,
    InstanceRecord,
    build_configs,
    env_seed,
    read_instances,
    read_run_config,
    read_state,
    read_vocab,
    to_json,
    write_instances,
    write_state,
    write_vocab,
)
from rca.tags import TagRef
from rca.trainer import (
    SyntheticConfig,
    TrainerConfig,
    TrainState,
    generate_synthetic,
    snapshot_loss,
)

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
VOCAB = os.path.join(FIXTURES, "vocab.jsonl")
INSTANCES = os.path.join(FIXTURES, "instances.jsonl")
UNTAGGED = os.path.join(FIXTURES, "instances_untagged.jsonl")
MALFORMED = os.path.join(FIXTURES, "malformed.jsonl")
WRONGDIM = os.path.join(FIXTURES, "wrongdim.jsonl")
RUN_CFG = os.path.join(FIXTURES, "run.cfg")

# 600 noisy, flipped images: three 256-image compute blocks, the last one
# partial. The second run's steps do not subsample: a fraction of 1 draws nothing.
TRAIN_ARGS = ["--n_images", "600", "--batch_size", "300", "--steps", "20",
              "--learning_rate", "1.0", "--noise_sigma", "0.3", "--flip_rate", "0.2",
              "--seed", "3"]
TRAIN_GOLDENS = {  # golden stdout: (extra flags, state-file SHA-256, clamp-warning count)
    "expected_train.jsonl": (
        [], "48e4d55469d3bb8b7b16f34606560666e879f0dc209bc29c8d9dc840e246f2af", 2808),
    "expected_train_no_subsample.jsonl": (
        ["--batch_size", "200", "--subsample_fraction", "1.0"],
        "4ea172bcdb311aaa1067d33e90547322bccc007b54da407df65da9b4946da03f", 2654),
}


# SHA-256 of each data fixture's JSON numbers as float64, in file order (a line
# that is not JSON skipped), taken from the files when they spelled floats with
# 17 digits: a later spelling of the same doubles keeps them
DATA_FIXTURE_DOUBLES = {
    "vocab.jsonl": "949abe1215edbe69ea03d920d6834a50074620e0e84a1c9ab413c34efd2215ad",
    "instances.jsonl": "d27dda4f2feeef09cf273c1be63c57694b6e4e169da086618bbe601a0524c067",
    "instances_untagged.jsonl": "d36cbfd927f84be7ac4ed53154f43060de65270856b4023f27f81c4a5ee3cf88",
    "malformed.jsonl": "d27dda4f2feeef09cf273c1be63c57694b6e4e169da086618bbe601a0524c067",
    "wrongdim.jsonl": "b312196615c1cda16a6bce079bc0c20b7dcd90cc2b9c45b32578af056422958b",
    "expected_rank_out.jsonl": "9961c1d0b66d4a71c891526941cfd20be6d44f822c73c89e4be0ce2df0431b96",
}


def golden(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        return fh.read()


PAST_DOUBLE_RANGE = "1" + "0" * 400  # an integer flag float() overflows on


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# JSON serialization


class TestToJson:
    def test_seventeen_digit_floats(self):
        assert to_json(0.1) == "0.10000000000000001"

    def test_floats_round_trip_exactly(self):
        rng = np.random.default_rng(0)
        for x in rng.standard_normal(200) * 10.0 ** rng.integers(-8, 8, size=200):
            assert float(to_json(float(x))) == x

    def test_scalar_and_container_forms(self):
        obj = {"a": True, "b": None, "c": [1, 2.5], "d": "x"}
        assert to_json(obj) == '{"a": true, "b": null, "c": [1, 2.5], "d": "x"}'

    def test_ndarray_nests_like_lists(self):
        assert to_json(np.array([[1.0, 2.0]])) == "[[1, 2]]"
        assert to_json(np.int64(3)) == "3"
        assert to_json(np.bool_(True)) == "true"

    def test_nonfinite_rejected(self):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValidationError):
                to_json({"v": bad})

    def test_unserializable_type_rejected(self):
        with pytest.raises(ValidationError):
            to_json({"v": {1, 2}})

    @settings(max_examples=200, deadline=None, database=None)
    @given(arr=hnp.arrays(
        np.float64,
        st.one_of(hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5),
                  st.tuples(st.just(0), st.integers(0, 4))),
        elements=st.floats(allow_nan=False, allow_infinity=False)))
    @example(arr=np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]))
    @example(arr=np.array([[1e308, -1.7976931348623157e308], [0.1, 1.0]]))
    @example(arr=np.zeros((0,)))
    @example(arr=np.zeros((0, 3)))
    @example(arr=np.zeros((2, 0)))
    def test_float_arrays_match_the_list_route(self, arr):
        assert to_json(arr) == to_json(arr.tolist())
        assert to_json({"a": arr}) == to_json({"a": arr.tolist()})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_array_rejected(self, bad):
        for arr in (np.array([1.0, bad]), np.array([[0.5], [bad]])):
            with pytest.raises(ValidationError, match="non-finite"):
                to_json(arr)


# ---------------------------------------------------------------------------
# JSON decoding: the readers' decoder gives what json.loads gives, bit for bit


def _same(a, b) -> bool:
    """Equal values of equal types, floats compared by their bytes."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return np.float64(a).tobytes() == np.float64(b).tobytes()
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    return a == b


def _depth(value) -> int:
    if isinstance(value, list):
        return 1 + max(map(_depth, value), default=0)
    if isinstance(value, dict):
        return 1 + max(map(_depth, value.values()), default=0)
    return 0


FIXTURE_FILES = sorted(name for name in os.listdir(FIXTURES) if name.endswith(".jsonl"))
TRICKY_TEXT = st.text(alphabet='[]{}"\\:, ab\u00e9\U0001f600', max_size=6)


class TestDecoder:
    @settings(max_examples=300, deadline=None, database=None)
    @given(floats=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8),
           ints=st.lists(st.integers(-2**63, 2**64 - 1), max_size=4))
    @example(floats=[0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                     2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
                     0.1, 1 / 3, 9007199254740993.0],
             ints=[-2**63, 2**63 - 1, 2**63, 2**64 - 1])
    def test_numbers_decode_to_the_same_bits_as_json_loads(self, floats, ints):
        obj = {"floats": floats, "ints": ints}
        for line in (to_json(obj), json.dumps(obj)):  # 17 digits, and the shortest repr
            assert _same(rca_io._parse_line(line.encode(), 1), json.loads(line))

    @pytest.mark.parametrize("name", FIXTURE_FILES)
    def test_fixture_lines_decode_as_json_loads_does(self, name):
        for lineno, line in enumerate(golden(name).splitlines(), start=1):
            try:
                expected = json.loads(line)
            except json.JSONDecodeError:
                with pytest.raises(ParseError, match="invalid JSON"):
                    rca_io._parse_line(line.encode(), lineno)
                continue
            assert _same(rca_io._parse_line(line.encode(), lineno), expected), (name, lineno)

    @settings(max_examples=300, deadline=None, database=None)
    @given(value=st.recursive(
        st.none() | st.booleans() | st.integers() | TRICKY_TEXT,
        lambda kids: st.lists(kids, max_size=3) | st.dictionaries(TRICKY_TEXT, kids, max_size=3),
        max_leaves=30))
    def test_nesting_counts_only_brackets_outside_strings(self, value):
        for line in (json.dumps(value), json.dumps(value, ensure_ascii=False), to_json(value)):
            assert rca_io._nesting(line.encode()) == _depth(value)

    def test_lines_nested_past_the_limit_are_rejected(self):
        limit = rca_io._MAX_NESTING
        assert rca_io._parse_line(b'{"a": %s1%s}' % (b"[" * (limit - 1), b"]" * (limit - 1)), 1)
        with pytest.raises(ParseError, match=rf"^line 4: invalid JSON \(nested deeper than {limit} "):
            rca_io._parse_line(b'{"a": %s1%s}' % (b"[" * limit, b"]" * limit), 4)


# ---------------------------------------------------------------------------
# vocabulary files


class TestVocabIO:
    def test_fixture_loads(self):
        vocab, dim = read_vocab(VOCAB)
        assert dim == 4
        assert [tid for tid, _ in vocab] == [f"t{i:02d}" for i in range(10)]
        for _, emb in vocab:
            assert emb.shape == (4,) and emb.dtype == np.float64

    def test_write_read_write_is_byte_identical(self, tmp_path):
        vocab, dim = read_vocab(VOCAB)
        out = tmp_path / "v.jsonl"
        write_vocab(out, vocab, dim)
        assert out.read_bytes() == Path(VOCAB).read_bytes()

    def test_duplicate_tag_id_rejected(self, tmp_path):
        p = tmp_path / "v.jsonl"
        p.write_text(
            '{"format": "rca-vocab", "version": 1, "dim": 2}\n'
            '{"tag_id": "a", "embedding": [1, 0]}\n'
            '{"tag_id": "a", "embedding": [0, 1]}\n'
        )
        with pytest.raises(ParseError, match="line 3"):
            read_vocab(p)

    def test_missing_header_rejected(self, tmp_path):
        p = tmp_path / "v.jsonl"
        p.write_text('{"tag_id": "a", "embedding": [1, 0]}\n')
        with pytest.raises(ParseError, match="line 1"):
            read_vocab(p)

    def test_wrong_version_rejected(self, tmp_path):
        p = tmp_path / "v.jsonl"
        p.write_text('{"format": "rca-vocab", "version": 9, "dim": 2}\n')
        with pytest.raises(ParseError, match="version"):
            read_vocab(p)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_literals_are_invalid_json(self, tmp_path, literal):
        p = tmp_path / "v.jsonl"
        p.write_text(
            '{"format": "rca-vocab", "version": 1, "dim": 2}\n'
            '{"tag_id": "a", "embedding": [%s, 1]}\n' % literal
        )
        with pytest.raises(ParseError, match=r"^line 2: invalid JSON \("):
            read_vocab(p)

    def test_non_numeric_embedding_rejected(self, tmp_path):
        p = tmp_path / "v.jsonl"
        p.write_text(
            '{"format": "rca-vocab", "version": 1, "dim": 2}\n'
            '{"tag_id": "a", "embedding": [1, "x"]}\n'
        )
        with pytest.raises(ParseError, match="line 2"):
            read_vocab(p)

    @pytest.mark.parametrize("embedding", [
        "[true, 1.5]", "[1.5, false]", '[1, "2"]', "[null, 1]", "[[1, 2]]", "[1, [2]]",
        '"1, 2"', "null",
    ])
    def test_embedding_takes_only_numbers(self, tmp_path, embedding):
        p = tmp_path / "v.jsonl"
        p.write_text(
            '{"format": "rca-vocab", "version": 1, "dim": 2}\n'
            '{"tag_id": "a", "embedding": %s}\n' % embedding
        )
        with pytest.raises(ParseError, match="^line 2: embedding must be a list of numbers$"):
            read_vocab(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "v.jsonl"
        p.write_text("\n\n")
        with pytest.raises(ParseError):
            read_vocab(p)


# ---------------------------------------------------------------------------
# instance files


class TestInstanceIO:
    def test_fixture_loads(self):
        records, dim = read_instances(INSTANCES)
        assert dim == 4
        assert [r.image_id for r in records] == ["img-a", "img-b", "img-c"]
        a = records[0]
        assert a.regions.shape == (2, 4)
        assert a.tags is not None and len(a.tags) == 4
        assert [t.score for t in a.tags] == sorted(
            (t.score for t in a.tags), reverse=True
        )
        nouns = a.caption_noun_matrix()
        assert nouns.shape[1] == 4 and nouns.shape[0] >= 1

    def test_untagged_fixture_has_no_tags(self):
        records, _ = read_instances(UNTAGGED)
        assert all(r.tags is None for r in records)

    def test_write_read_write_is_byte_identical(self, tmp_path):
        for src in (INSTANCES, UNTAGGED):
            records, dim = read_instances(src)
            out = tmp_path / os.path.basename(src)
            write_instances(out, records, dim)
            assert out.read_bytes() == Path(src).read_bytes()

    def test_malformed_line_five(self):
        with pytest.raises(ParseError, match="line 5") as exc_info:
            read_instances(MALFORMED)
        assert exc_info.value.line == 5

    def test_region_dimension_mismatch(self):
        with pytest.raises(DimensionError, match="dim 3"):
            read_instances(WRONGDIM)

    def test_is_noun_must_be_boolean(self, tmp_path):
        p = tmp_path / "i.jsonl"
        p.write_text(
            '{"format": "rca-instances", "version": 1, "dim": 2}\n'
            '{"image_id": "x", "image_embedding": [1, 0], "regions": [[1, 0]],'
            ' "caption_tokens": [{"text": "a", "is_noun": 1, "embedding": [0, 1]}]}\n'
        )
        with pytest.raises(ParseError, match="is_noun"):
            read_instances(p)

    def test_caption_token_must_be_an_object(self, tmp_path):
        p = tmp_path / "i.jsonl"
        p.write_text(
            '{"format": "rca-instances", "version": 1, "dim": 2}\n'
            '{"image_id": "x", "image_embedding": [1, 0], "regions": [[1, 0]],'
            ' "caption_tokens": ["a"]}\n'
        )
        for reader in (read_instances, read_instances_loop):
            with pytest.raises(ParseError, match="^line 2: caption token must be an object$"):
                reader(p)

    def test_regions_must_be_non_empty(self, tmp_path):
        p = tmp_path / "i.jsonl"
        p.write_text(
            '{"format": "rca-instances", "version": 1, "dim": 2}\n'
            '{"image_id": "x", "image_embedding": [1, 0], "regions": [],'
            ' "caption_tokens": []}\n'
        )
        with pytest.raises(ParseError, match="regions"):
            read_instances(p)

    def test_tag_score_must_be_numeric(self, tmp_path):
        p = tmp_path / "i.jsonl"
        p.write_text(
            '{"format": "rca-instances", "version": 1, "dim": 2}\n'
            '{"image_id": "x", "image_embedding": [1, 0], "regions": [[1, 0]],'
            ' "caption_tokens": [], "tags": [{"tag_id": "a", "score": "hi"}]}\n'
        )
        with pytest.raises(ParseError, match="score"):
            read_instances(p)


# ---------------------------------------------------------------------------
# run configuration


class TestRunConfig:
    def test_fixture_parses(self):
        values = read_run_config(RUN_CFG)
        assert values["steps"] == 12
        assert values["learning_rate"] == 0.5
        assert values["n_images"] == 16
        assert values["n_concepts"] == 6
        assert values["d"] == 8
        assert values["regions_per_image"] == 3
        assert values["subsample_fraction"] == 1.0
        assert values["seed"] == 7
        syn, cfg = build_configs(values)
        # one seed feeds both configs, and untouched keys keep their defaults
        assert syn.seed == cfg.seed == 7
        assert cfg.batch_size == TrainerConfig().batch_size

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("steps = 5\nbetas = 0.9\n")
        with pytest.raises(ParseError, match="line 2.*unknown config key"):
            read_run_config(p)
        p.write_text("M = 4\n")  # the ranking width is a rank/uasr/loss flag, not a run knob
        with pytest.raises(ParseError, match="unknown config key 'M'"):
            read_run_config(p)
        # lambda_inner = 0 turns the caption term off; there is no switch for it
        p.write_text("enable_inner = false\n")
        with pytest.raises(ParseError, match="unknown config key 'enable_inner'"):
            read_run_config(p)

    def test_bad_value_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("steps = many\n")
        with pytest.raises(ParseError, match="steps"):
            read_run_config(p)

    def test_missing_equals_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("steps 5\n")
        with pytest.raises(ParseError, match="key = value"):
            read_run_config(p)

    def test_boolean_spellings(self, tmp_path):
        p = tmp_path / "c.cfg"
        for raw, expected in (
            ("true", True), ("1", True), ("yes", True), ("on", True),
            ("false", False), ("0", False), ("no", False), ("off", False),
        ):
            p.write_text(f"enable_uasr = {raw}\n")
            assert read_run_config(p)["enable_uasr"] is expected
        p.write_text("enable_uasr = maybe\n")
        with pytest.raises(ParseError):
            read_run_config(p)

    def test_env_seed(self, monkeypatch):
        monkeypatch.delenv("RCA_SEED", raising=False)
        assert env_seed(5) == 5
        monkeypatch.setenv("RCA_SEED", "123")
        assert env_seed(5) == 123
        monkeypatch.setenv("RCA_SEED", "abc")
        with pytest.raises(ConfigError):
            env_seed()

    @pytest.mark.parametrize("argv, code, err", [
        (["gradcheck"], 2, "error: RCA_SEED must be an integer, got 'abc'\n"),
        (["train", "--config", RUN_CFG, "--state_out", "state.jsonl"], 2,
         "error: RCA_SEED must be an integer, got 'abc'\n"),
        # only the commands with a seed read it
        (["rank", VOCAB, INSTANCES, "--M", "4"], 0, ""),
    ], ids=["gradcheck", "train", "rank"])
    def test_malformed_env_seed_is_one_error_line_where_read(self, argv, code, err, tmp_path):
        proc = subprocess.run([sys.executable, "-m", "rca", *argv], cwd=tmp_path,
                              capture_output=True, text=True,
                              env={**os.environ, "RCA_SEED": "abc"})
        assert (proc.returncode, proc.stderr) == (code, err)


# ---------------------------------------------------------------------------
# rank / uasr / loss subcommands


class TestCliRank:
    def test_deterministic_output(self, capsys):
        code1, out1, _ = run_cli(["rank", VOCAB, UNTAGGED, "--M", "4"], capsys)
        code2, out2, _ = run_cli(["rank", VOCAB, UNTAGGED, "--M", "4"], capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        lines = [json.loads(ln) for ln in out1.splitlines()]
        assert [ln["image_id"] for ln in lines] == ["img-a", "img-b"]
        for ln in lines:
            assert ln["K"] == 2
            sides = [t["side"] for t in ln["tags"]]
            assert sides == ["P", "P", "N", "N"]
            scores = [t["score"] for t in ln["tags"]]
            assert scores == sorted(scores, reverse=True)

    def test_out_file_feeds_loss(self, tmp_path, capsys):
        out = tmp_path / "augmented.jsonl"
        code, _, _ = run_cli(
            ["rank", VOCAB, UNTAGGED, "--M", "4", "--out", str(out)], capsys
        )
        assert code == 0
        records, dim = read_instances(out)
        assert dim == 4 and all(len(r.tags) == 4 for r in records)
        code, out_text, _ = run_cli(["loss", VOCAB, str(out)], capsys)
        assert code == 0
        summary = json.loads(out_text.splitlines()[-1])
        assert summary["n_images"] == 2

    def test_matches_golden_bytes(self, tmp_path, capsys):
        out = tmp_path / "ranked.jsonl"
        code, text, _ = run_cli(["rank", VOCAB, UNTAGGED, "--M", "4", "--out", str(out)], capsys)
        assert code == 0
        assert text == golden("expected_rank.jsonl")
        assert out.read_bytes() == Path(FIXTURES, "expected_rank_out.jsonl").read_bytes()

    def test_vocabulary_too_small_for_default_width(self, capsys):
        # default M is 50 but the fixture vocabulary has 10 tags
        code, _, err = run_cli(["rank", VOCAB, UNTAGGED], capsys)
        assert code == 1
        assert "vocabulary" in err.lower()


def _json_numbers(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for v in value for x in _json_numbers(v)]
    return [value] if type(value) in (int, float) else []


@pytest.mark.parametrize("name", DATA_FIXTURE_DOUBLES)
def test_data_fixtures_hold_their_doubles(name):
    numbers = []
    for line in Path(FIXTURES, name).read_bytes().splitlines():
        with contextlib.suppress(orjson.JSONDecodeError):
            numbers += _json_numbers(orjson.loads(line))
    digest = hashlib.sha256(np.array(numbers, dtype=np.float64).tobytes()).hexdigest()
    assert digest == DATA_FIXTURE_DOUBLES[name]


class TestCliUasr:
    def test_shapes_and_determinism(self, capsys):
        code1, out1, _ = run_cli(["uasr", VOCAB, INSTANCES], capsys)
        code2, out2, _ = run_cli(["uasr", VOCAB, INSTANCES], capsys)
        assert code1 == code2 == 0 and out1 == out2
        for ln in map(json.loads, out1.splitlines()):
            assert len(ln["positives"]) == len(ln["negatives"]) == 2
            assert len(ln["weights"]) == 2
            assert all(w > 0 for w in ln["weights"])
            assert math.isclose(sum(ln["weights"]) / 2, 1.0, rel_tol=1e-12)
            assert isinstance(ln["positive_fallback"], bool)

    def test_matches_golden_bytes(self, capsys):
        code, out, _ = run_cli(["uasr", VOCAB, INSTANCES], capsys)
        assert code == 0
        assert out == golden("expected_uasr.jsonl")

    def test_unnormalized_weights(self, capsys):
        code, out, _ = run_cli(["uasr", VOCAB, INSTANCES, "--no-normalize"], capsys)
        assert code == 0
        means = [sum(ln["weights"]) / 2 for ln in map(json.loads, out.splitlines())]
        assert any(not math.isclose(m, 1.0, rel_tol=1e-9) for m in means)


class TestCliLoss:
    def test_matches_naive_golden(self, capsys):
        code, out, _ = run_cli(["loss", VOCAB, INSTANCES], capsys)
        assert code == 0
        got = [json.loads(ln) for ln in out.splitlines()]
        expected = [json.loads(ln) for ln in golden("expected_loss.jsonl").splitlines()]
        assert len(got) == len(expected) == 4
        for g, e in zip(got, expected):
            assert g.keys() == e.keys()
            for key, val in e.items():
                if isinstance(val, str):
                    assert g[key] == val
                else:
                    assert math.isclose(g[key], val, rel_tol=1e-10, abs_tol=1e-12)

    def test_byte_identical_across_runs(self, capsys):
        args = ["loss", VOCAB, INSTANCES, "--enable_uasr"]
        code1, out1, _ = run_cli(args, capsys)
        code2, out2, _ = run_cli(args, capsys)
        assert code1 == code2 == 0
        assert out1.encode() == out2.encode()

    @pytest.mark.parametrize("normalize", [True, False])
    def test_selected_losses_match_the_naive_route(self, normalize, capsys):
        """Each record's losses under selection are the direct-formula route's, at 1e-10."""
        vocab = dict(read_vocab(VOCAB)[0])
        records, _ = read_instances(INSTANCES)
        flags = [] if normalize else ["--no-normalize"]
        code, out, _ = run_cli(["loss", VOCAB, INSTANCES, "--enable_uasr", *flags], capsys)
        assert code == 0
        lines = [json.loads(ln) for ln in out.splitlines()]
        assert len(lines) == len(records) + 1
        for rec, line in zip(records, lines):
            k = len(rec.tags) // 2
            regions = rec.regions.tolist()
            pos, neg = ([vocab[t.tag_id].tolist() for t in side]
                        for side in (rec.tags[:k], rec.tags[k:]))
            pos_idx, neg_idx, weights, *_ = naive_select_reweight(
                regions, pos, neg, [t.score for t in rec.tags[:k]], normalize)
            want = naive_total_loss(regions, [pos[i] for i in pos_idx], [neg[i] for i in neg_idx],
                                    rec.caption_noun_matrix().tolist(), weights)
            np.testing.assert_allclose([line["cross"], line["inner"], line["total"]], want,
                                       rtol=1e-10, atol=0.0)

    def test_lambda_scaling(self, capsys):
        _, out_base, _ = run_cli(["loss", VOCAB, INSTANCES], capsys)
        _, out_scaled, _ = run_cli(
            ["loss", VOCAB, INSTANCES, "--lambda_cross", "2"], capsys
        )
        base = json.loads(out_base.splitlines()[-1])
        scaled = json.loads(out_scaled.splitlines()[-1])
        assert math.isclose(
            scaled["mean_total"],
            2 * base["mean_cross"] + base["mean_inner"],
            rel_tol=1e-12,
        )

    def test_malformed_file_exit_two_names_line(self, capsys):
        code, _, err = run_cli(["loss", VOCAB, MALFORMED], capsys)
        assert code == 2
        assert "line 5" in err

    def test_dimension_mismatch_exit_three(self, capsys):
        code, _, err = run_cli(["loss", VOCAB, WRONGDIM], capsys)
        assert code == 3
        assert "dim" in err

    def test_unknown_tag_exit_one(self, tmp_path, capsys):
        records, dim = read_instances(INSTANCES)
        records[0].tags[0] = dataclasses.replace(records[0].tags[0], tag_id="zz")
        bad = tmp_path / "bad.jsonl"
        write_instances(bad, records, dim)
        code, _, err = run_cli(["loss", VOCAB, str(bad)], capsys)
        assert code == 1
        assert "zz" in err

    def test_odd_tag_count_exit_one(self, tmp_path, capsys):
        records, dim = read_instances(INSTANCES)
        records[0].tags = records[0].tags[:3]
        bad = tmp_path / "odd.jsonl"
        write_instances(bad, records, dim)
        code, _, err = run_cli(["loss", VOCAB, str(bad)], capsys)
        assert code == 1

    def test_missing_file_exit_two(self, capsys):
        code, _, _ = run_cli(["loss", VOCAB, "/nonexistent.jsonl"], capsys)
        assert code == 2


class TestCliEmptyCorpus:
    """A header with no records is unparseable input for every corpus subcommand."""

    @pytest.mark.parametrize("command", ["rank", "uasr", "loss"])
    def test_exit_two_without_output(self, command, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        write_instances(empty, [], read_vocab(VOCAB)[1])
        out_file = tmp_path / "ranked.jsonl"
        argv = [command, VOCAB, str(empty)]
        if command == "rank":
            argv += ["--out", str(out_file)]
        if command == "loss":
            argv += ["--enable_uasr"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert "no instance records" in err
        assert not out_file.exists()


class TestCliCorpusErrors:
    """Every record is checked, in record order, before any shape group is computed."""

    @staticmethod
    def _unknown_tag(rec):
        rec.tags[0] = dataclasses.replace(rec.tags[0], tag_id="zz")

    @staticmethod
    def _odd_tags(rec):
        rec.tags = rec.tags[:3]

    @staticmethod
    def _score_over_one(rec):
        rec.tags[0] = dataclasses.replace(rec.tags[0], score=1.5)

    @staticmethod
    def _zero_region(rec):
        rec.regions[0] = 0.0

    @staticmethod
    def _zero_untagged_image(rec):
        rec.tags = None
        rec.image_embedding[:] = 0.0

    @staticmethod
    def _big_positive(rec):
        rec.tags[1] = dataclasses.replace(rec.tags[1], tag_id="big")

    @staticmethod
    def _big_negative(rec):
        rec.tags[3] = dataclasses.replace(rec.tags[3], tag_id="big")

    @staticmethod
    def _negative_copies_positive(rec):
        rec.tags[3] = dataclasses.replace(rec.tags[3], tag_id=rec.tags[0].tag_id)

    @staticmethod
    def _repeated_and_unknown(rec):
        rec.tags[1] = dataclasses.replace(rec.tags[1], tag_id=rec.tags[0].tag_id)
        rec.tags[3] = dataclasses.replace(rec.tags[3], tag_id="zz")

    CASES = {
        # name: (fault of img-b, fault of img-c, {argv: expected error line})
        "unknown-then-odd": ("_unknown_tag", "_odd_tags", {
            "*": "error: image 'img-b': tag 'zz' not in vocabulary"}),
        "odd-then-unknown": ("_odd_tags", "_unknown_tag", {
            "*": "error: image 'img-b': tags list must have even length >= 2"}),
        "score-then-odd": ("_score_over_one", "_odd_tags", {
            "*": "error: image 'img-b': global_scores must be cosines in [-1, 1]"}),
        "twice-then-unknown": ("_negative_copies_positive", "_unknown_tag", {
            "*": "error: image 'img-b': tag 't04' is listed twice"}),
        # a record's tags are all looked up before any is checked for a repeat
        "twice-and-unknown-then-odd": ("_repeated_and_unknown", "_odd_tags", {
            "*": "error: image 'img-b': tag 'zz' not in vocabulary"}),
        # a zero-norm region only has no cosine when selection runs
        "zero-region-then-unknown": ("_zero_region", "_unknown_tag", {
            "uasr": "error: image 'img-b': region 0 has zero norm",
            "loss --enable_uasr": "error: image 'img-b': region 0 has zero norm",
            "loss": "error: image 'img-c': tag 'zz' not in vocabulary"}),
        # an untagged record is ranked, with or without selection
        "zero-image-then-unknown": ("_zero_untagged_image", "_unknown_tag", {
            "*": "error: image 'img-b': embedding has zero norm"}),
        "big-positive-then-unknown": ("_big_positive", "_unknown_tag", {
            "uasr": "error: image 'img-b': positive 1 has an overflowing norm",
            "loss --enable_uasr": "error: image 'img-b': positive 1 has an overflowing norm",
            "loss": "error: image 'img-c': tag 'zz' not in vocabulary"}),
        "big-negative-then-unknown": ("_big_negative", "_unknown_tag", {
            "uasr": "error: image 'img-b': negative 1 has an overflowing norm",
            "loss --enable_uasr": "error: image 'img-b': negative 1 has an overflowing norm",
            "loss": "error: image 'img-c': tag 'zz' not in vocabulary"}),
    }

    @pytest.mark.parametrize("argv", ["uasr", "loss", "loss --enable_uasr"])
    @pytest.mark.parametrize("case", CASES)
    def test_first_bad_record_is_reported_and_nothing_printed(self, case, argv, tmp_path,
                                                              capsys):
        first, second, errors = self.CASES[case]
        records, dim = read_instances(INSTANCES)
        getattr(self, first)(records[1])
        getattr(self, second)(records[2])
        bad = tmp_path / "two-bad.jsonl"
        write_instances(bad, records, dim)
        # the vocabulary gains a tag whose norm overflows; only a record that lists it sees it
        vocab, _ = read_vocab(VOCAB)
        big_vocab = tmp_path / "big-vocab.jsonl"
        write_vocab(big_vocab, vocab + [("big", np.array([1e200, 0.0, 0.0, 0.0]))], dim)
        command, *flags = argv.split()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli([command, str(big_vocab), str(bad), "--M", "4", *flags],
                                     capsys)
        assert (code, out) == (1, "")
        assert err == errors.get(argv, errors.get("*")) + "\n"

    def test_failing_rank_prints_nothing(self, tmp_path, capsys):
        records, dim = read_instances(UNTAGGED)
        records[1].image_embedding[:] = 0.0
        bad = tmp_path / "zero-image.jsonl"
        write_instances(bad, records, dim)
        out_file = tmp_path / "ranked.jsonl"
        code, out, err = run_cli(["rank", VOCAB, str(bad), "--M", "4", "--out", str(out_file)],
                                 capsys)
        assert (code, out, err) == (1, "", "error: image 'img-b': embedding has zero norm\n")
        assert not out_file.exists()

    @pytest.mark.parametrize("argv, message", [
        (["rank", UNTAGGED], "vocabulary tag 't00' has an overflowing norm"),
        (["uasr", UNTAGGED], "vocabulary tag 't00' has an overflowing norm"),
        (["uasr", INSTANCES], "image 'img-a': positive 0 has an overflowing norm"),
    ])
    def test_overflowing_vocabulary_norm_exits_one(self, argv, message, tmp_path, capsys):
        # 1e200 squared overflows, so the norm is inf and every cosine would read 0
        vocab, dim = read_vocab(VOCAB)
        vocab[0][1][0] = 1e200
        big = tmp_path / "big-vocab.jsonl"
        write_vocab(big, vocab, dim)
        code, out, err = run_cli([argv[0], str(big), argv[1], "--M", "4"], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("flags, argv, code, err", [
        # numpy's overflow warning stays inside the norm check, even as an error
        (["-W", "error"], ["rank", UNTAGGED], 1,
         "error: vocabulary tag 't00' has an overflowing norm\n"),
        # without selection no norm is taken, so nothing is checked or printed
        ([], ["loss", INSTANCES], 0, ""),
    ], ids=["rank-warnings-as-errors", "loss-without-selection"])
    def test_overflowing_vocabulary_norm_prints_no_warning(self, flags, argv, code, err,
                                                           tmp_path):
        vocab, dim = read_vocab(VOCAB)
        vocab[0][1][0] = 1e200
        big = tmp_path / "big-vocab.jsonl"
        write_vocab(big, vocab, dim)
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "rca", argv[0], str(big), argv[1], "--M", "4"],
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stderr) == (code, err)

    def test_overflowing_loss_prints_only_its_error_under_warnings_as_errors(self, tmp_path):
        # finite, but the region-tag products overflow to inf and the softmax to NaN
        records, dim = read_instances(INSTANCES)
        records[1].regions[0] = 1e308
        huge = tmp_path / "huge-region.jsonl"
        write_instances(huge, records, dim)
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "rca", "loss", VOCAB,
                               str(huge)], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: image 'img-b': loss is not finite\n"

    def test_overflowing_mean_prints_only_its_error_under_warnings_as_errors(self):
        # every record's total is finite, up to about 1.2e308, but their sum overflows
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "rca", "loss", VOCAB,
                               INSTANCES, "--enable_uasr", "--lambda_cross", "1e308",
                               "--lambda_inner", "0"], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: mean loss is not finite\n"

    @pytest.mark.parametrize("argv", [["uasr"], ["uasr", "--no-normalize"],
                                      ["loss", "--enable_uasr"]])
    def test_clamp_warning_once_per_call_with_the_total(self, argv, tmp_path, capsys):
        records, dim = read_instances(INSTANCES)
        for rec in records:
            k = len(rec.tags) // 2
            rec.tags[:k] = [dataclasses.replace(t, score=-0.25) for t in rec.tags[:k]]
        clamped = tmp_path / "clamped.jsonl"
        write_instances(clamped, records, dim)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, _ = run_cli([argv[0], VOCAB, str(clamped), *argv[1:]], capsys)
        assert code == 0
        # three images, each clamping both of its K = 2 positive scores
        assert [str(w.message) for w in caught] == [
            "6 non-positive global score(s) clamped to 1e-06"]


FIXTURE_VOCAB_IDS = [tag_id for tag_id, _ in read_vocab(VOCAB)[0]]


@st.composite
def mixed_corpus(draw):
    """1-8 records over the fixture vocabulary, their (R, P, K) drawn from a few shapes.

    Some records have no tags, so ``--M 4`` ranks them (K = 2); tagged
    records carry scores in [-0.5, 1], so some are clamped.
    """
    shapes = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 2), st.integers(1, 3)),
                           min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    records = []
    for i in range(draw(st.integers(1, 8))):
        r, p, k = draw(st.sampled_from(shapes))
        tokens = [CaptionToken(f"w{j}", j < p, rng.standard_normal(4)) for j in range(p + 1)]
        tags = None
        if draw(st.booleans()):
            chosen = rng.choice(len(FIXTURE_VOCAB_IDS), size=2 * k, replace=False)
            scores = np.sort(rng.uniform(-0.5, 1.0, size=2 * k))[::-1]
            tags = [TagRef(FIXTURE_VOCAB_IDS[c], float(s)) for c, s in zip(chosen, scores)]
        records.append(InstanceRecord(f"img{i}", rng.standard_normal(4),
                                      rng.standard_normal((r, 4)), tokens, tags))
    return records


def _stdout(argv) -> str:
    buf = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(buf):
        warnings.simplefilter("ignore")
        assert main(argv) == 0
    return buf.getvalue()


CORPUS_COMMANDS = [["uasr"], ["uasr", "--no-normalize"], ["loss"], ["loss", "--enable_uasr"],
                   ["loss", "--enable_uasr", "--no-normalize"], ["loss", "--lambda_inner", "0.5"]]


@settings(max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(records=mixed_corpus())
def test_mixed_shape_corpus_prints_the_one_record_lines(records):
    """Grouping by shape changes no byte: each line is the one a one-record file gives."""
    with tempfile.TemporaryDirectory() as tmp:
        whole = os.path.join(tmp, "corpus.jsonl")
        write_instances(whole, records, 4)
        singles = []
        for i, rec in enumerate(records):
            singles.append(os.path.join(tmp, f"record{i}.jsonl"))
            write_instances(singles[-1], [rec], 4)
        for command, *flags in CORPUS_COMMANDS:
            got = _stdout([command, VOCAB, whole, "--M", "4", *flags]).splitlines()
            alone = [_stdout([command, VOCAB, single, "--M", "4", *flags]).splitlines()[0]
                     for single in singles]
            assert got[:len(records)] == alone
            if command == "loss":
                _assert_summary_adds_in_record_order(got[-1], alone)


@settings(max_examples=20, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(records=mixed_corpus())
def test_corpus_stdout_does_not_depend_on_the_loss_block(records):
    """Running a shape group's losses 1 or 2 images per pass changes no byte."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "corpus.jsonl")
        write_instances(path, records, 4)
        for argv in CORPUS_COMMANDS:
            argv = [argv[0], VOCAB, path, "--M", "4", *argv[1:]]
            want = _stdout(argv)
            for block in (1, 2):
                with mock.patch("rca.losses.BLOCK", block):
                    assert _stdout(argv) == want, (argv, block)


def _assert_summary_adds_in_record_order(summary_line, record_lines):
    sums = [0.0, 0.0, 0.0]
    for line in record_lines:
        rec = json.loads(line)
        sums = [a + rec[key] for a, key in zip(sums, ("cross", "inner", "total"))]
    summary = json.loads(summary_line)
    n = len(record_lines)
    assert summary["n_images"] == n
    assert [summary["mean_cross"], summary["mean_inner"], summary["mean_total"]] == [
        v / n for v in sums]


class TestCliGradcheck:
    def test_passes_at_default_tolerance(self, capsys):
        code, out, _ = run_cli(["gradcheck", "--seed", "3"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["max_error"] < 1e-4
        assert set(report["errors"]) == {
            "regions", "positives", "negatives", "caption_nouns"
        }
        assert report["worst"]["table"] in report["errors"]

    def test_matches_golden_bytes(self, capsys):
        code, out, _ = run_cli(["gradcheck", "--seed", "3"], capsys)
        assert code == 0
        assert out == golden("expected_gradcheck.jsonl")

    @pytest.mark.parametrize("flags, name", [
        (["--no-enable_uasr"], "expected_gradcheck_no_uasr.jsonl"),
        (["--lambda_inner", "0", "--n_nouns", "0"], "expected_gradcheck_no_inner.jsonl"),
    ])
    def test_loss_path_branches_match_golden_bytes(self, capsys, flags, name):
        code, out, _ = run_cli(["gradcheck", "--seed", "3", *flags], capsys)
        assert code == 0
        assert out == golden(name)

    def test_unreachable_tolerance_exits_one(self, capsys):
        code, out, _ = run_cli(
            ["gradcheck", "--seed", "3", "--tolerance", "1e-18"], capsys
        )
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_step_size_out_of_range_exits_two(self, capsys):
        code, _, err = run_cli(["gradcheck", "--h", "1.0"], capsys)
        assert code == 2
        assert "h" in err

    @pytest.mark.parametrize("source", ["flag", "RCA_SEED"])
    def test_a_seed_past_a_doubles_range_runs_like_any_other(self, source, monkeypatch, capsys):
        argv = ["gradcheck"]
        if source == "flag":
            argv += ["--seed", PAST_DOUBLE_RANGE]
            monkeypatch.delenv("RCA_SEED", raising=False)
        else:
            monkeypatch.setenv("RCA_SEED", PAST_DOUBLE_RANGE)
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        (line,) = out.splitlines()
        assert json.loads(line)["passed"] is True


# ---------------------------------------------------------------------------
# train / eval subcommands


class TestCliTrainEval:
    def test_round_trip_with_config_file(self, tmp_path, capsys):
        state_path = tmp_path / "state.jsonl"
        metrics_path = tmp_path / "metrics.jsonl"
        code, out, _ = run_cli(
            [
                "train",
                "--config", RUN_CFG,
                "--state_out", str(state_path),
                "--metrics_out", str(metrics_path),
            ],
            capsys,
        )
        assert code == 0
        assert metrics_path.read_text() == out
        steps = [json.loads(ln)["step"] for ln in out.splitlines()]
        assert steps[0] == 0 and steps[-1] == 12

        state, syn, cfg = read_state(state_path)
        assert state.step == 12
        assert syn.n_images == 16 and syn.seed == 7
        assert cfg.steps == 12 and cfg.learning_rate == 0.5
        # the last printed record is the snapshot of the tables written, bit for bit
        last = snapshot_loss(generate_synthetic(syn), state, cfg)
        assert json.loads(out.splitlines()[-1]) == dataclasses.asdict(last)

        code, out, _ = run_cli(["eval", str(state_path)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["step"] == 12
        assert report["n_images"] == 16
        assert 0.0 <= report["retrieval_accuracy"] <= 1.0

    def test_aligned_init_scores_perfectly(self, tmp_path, capsys):
        state_path = tmp_path / "state.jsonl"
        code, _, _ = run_cli(
            [
                "train",
                "--config", RUN_CFG,
                "--init", "aligned",
                "--steps", "0",
                "--state_out", str(state_path),
            ],
            capsys,
        )
        assert code == 0
        code, out, _ = run_cli(["eval", str(state_path)], capsys)
        assert code == 0
        assert json.loads(out)["retrieval_accuracy"] == 1.0

    def test_flags_override_config_file(self, tmp_path, capsys):
        state_path = tmp_path / "state.jsonl"
        code, _, _ = run_cli(
            [
                "train",
                "--config", RUN_CFG,
                "--steps", "3",
                "--no-enable_uasr",
                "--state_out", str(state_path),
            ],
            capsys,
        )
        assert code == 0
        state, _, cfg = read_state(state_path)
        assert state.step == 3 and cfg.steps == 3
        assert cfg.enable_uasr is False

    def test_seed_defaults_from_environment(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RCA_SEED", "41")
        state_path = tmp_path / "state.jsonl"
        code, _, _ = run_cli(
            [
                "train",
                "--config", RUN_CFG,
                "--state_out", str(state_path),
            ],
            capsys,
        )
        assert code == 0
        _, syn, _ = read_state(state_path)
        # the config file sets seed = 7, which outranks the environment
        assert syn.seed == 7

        cfg_free = tmp_path / "nofileseed.cfg"
        cfg_free.write_text("steps = 2\nn_images = 8\nn_concepts = 4\nd = 4\n"
                            "regions_per_image = 2\n")
        code, _, _ = run_cli(
            ["train", "--config", str(cfg_free), "--state_out", str(state_path)],
            capsys,
        )
        assert code == 0
        _, syn, _ = read_state(state_path)
        assert syn.seed == 41

    def test_byte_identical_state_and_metrics(self, tmp_path, capsys):
        outs = []
        for name in ("a", "b"):
            state_path = tmp_path / f"{name}.jsonl"
            code, out, _ = run_cli(
                ["train", "--config", RUN_CFG, "--state_out", str(state_path)],
                capsys,
            )
            assert code == 0
            outs.append((out, state_path.read_bytes()))
        assert outs[0][0] == outs[1][0]
        assert outs[0][1] == outs[1][1]

    @pytest.mark.parametrize("name", TRAIN_GOLDENS)
    def test_train_golden(self, name, tmp_path, capsys):
        extra, digest, clamped = TRAIN_GOLDENS[name]
        state_path = tmp_path / "state.jsonl"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, _ = run_cli(["train", *TRAIN_ARGS, *extra,
                                    "--state_out", str(state_path)], capsys)
        assert code == 0
        assert out == golden(name)
        assert hashlib.sha256(state_path.read_bytes()).hexdigest() == digest
        assert [str(w.message) for w in caught] == [
            f"{clamped} non-positive global score(s) clamped to 1e-06"]

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    @pytest.mark.parametrize("flag", ["--state_out", "--metrics_out"])
    def test_unwritable_output_exits_two_before_generating(self, flag, where, tmp_path,
                                                           monkeypatch, capsys):
        def never(config):
            raise AssertionError("generate_synthetic ran")

        monkeypatch.setattr(cli, "generate_synthetic", never)
        paths = {"--state_out": tmp_path / "state.jsonl",
                 "--metrics_out": tmp_path / "metrics.jsonl"}
        paths[flag] = tmp_path / "missing" / "out.jsonl" if where == "missing-directory" \
            else tmp_path
        argv = ["train", "--config", RUN_CFG]
        for name, path in paths.items():
            argv += [name, str(path)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == []  # no file left behind

    def test_diverging_run_leaves_output_paths_as_they_were(self, tmp_path, capsys):
        old_state, old_metrics = tmp_path / "state.jsonl", tmp_path / "metrics.jsonl"
        old_state.write_text("earlier state\n")
        old_metrics.write_text("earlier metrics\n")
        links = tmp_path / "state-link.jsonl", tmp_path / "metrics-link.jsonl"
        for link in links:
            link.symlink_to(tmp_path / ("target-" + link.name))  # dangling
        runs = [(old_state, old_metrics), (tmp_path / "new-state.jsonl", tmp_path / "new.jsonl"),
                links]
        for state_path, metrics_path in runs:
            code, out, err = run_cli(
                ["train", "--config", RUN_CFG, "--learning_rate", "1e300",
                 "--state_out", str(state_path), "--metrics_out", str(metrics_path)],
                capsys,
            )
            assert code == 1
            assert out == ""
            assert "not finite" in err
        assert old_state.read_text() == "earlier state\n"
        assert old_metrics.read_text() == "earlier metrics\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "metrics-link.jsonl", "metrics.jsonl", "state-link.jsonl", "state.jsonl"]
        assert all(link.is_symlink() and not link.exists() for link in links)

    @pytest.mark.parametrize("argv", [
        ["--config", RUN_CFG, "--learning_rate", "1e300"],
        ["--n_images", "20", "--learning_rate", "1e3"],
    ], ids=["run-cfg", "20-images"])
    def test_diverging_run_prints_only_its_error_under_warnings_as_errors(self, argv,
                                                                          tmp_path):
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "rca", "train", *argv,
             "--state_out", str(tmp_path / "state.jsonl")],
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", "error: table values are not finite\n")

    def test_invalid_config_value_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("steps = -5\n")
        code, _, err = run_cli(
            ["train", "--config", str(cfg), "--state_out", str(tmp_path / "s.jsonl")],
            capsys,
        )
        assert code == 2
        assert "steps" in err

    def test_eval_missing_state_exits_two(self, capsys):
        code, _, _ = run_cli(["eval", "/nonexistent-state.jsonl"], capsys)
        assert code == 2

    def test_tampered_state_dimension_exits_three(self, tmp_path, capsys):
        state_path = tmp_path / "state.jsonl"
        run_cli(
            ["train", "--config", RUN_CFG, "--steps", "1",
             "--state_out", str(state_path)],
            capsys,
        )
        obj = json.loads(state_path.read_text())
        obj["synthetic_config"]["n_concepts"] += 1
        state_path.write_text(json.dumps(obj) + "\n")
        code, _, err = run_cli(["eval", str(state_path)], capsys)
        assert code == 3

    def test_eval_overflowing_table_prints_only_its_error_under_warnings_as_errors(
            self, tmp_path, capsys):
        state_path = tmp_path / "state.jsonl"
        run_cli(["train", "--n_images", "20", "--steps", "1", "--state_out", str(state_path)],
                capsys)
        obj = json.loads(state_path.read_text())
        obj["tag_table"][0][0] = 1e200
        state_path.write_text(json.dumps(obj) + "\n")
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "rca", "eval", str(state_path)],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", "error: retrieval cosine has an overflowing norm or dot product\n")

    def test_train_overflowing_noise_prints_only_its_error_under_warnings_as_errors(
            self, tmp_path):
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "rca", "train",
                               "--noise_sigma", "1e200", "--n_images", "20", "--steps", "1",
                               "--state_out", str(tmp_path / "state.jsonl")],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", "error: region 0 has an overflowing norm\n")

    def test_clamped_scores_print_only_the_warning_under_warnings_as_errors(self, tmp_path):
        state_path = tmp_path / "state.jsonl"
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "rca", "train",
                               "--steps", "1", "--state_out", str(state_path)],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", "error: 33 non-positive global score(s) clamped to 1e-06\n")
        assert not state_path.exists()


# ---------------------------------------------------------------------------
# malformed input: exit 2 with an error line, never a traceback

INSTANCE_HEADER = '{"format": "rca-instances", "version": 1, "dim": 4}\n'
INSTANCE_LINE = ('{"image_id": "x", "image_embedding": [1, 0, 0, 0],'
                 ' "regions": [[1, 0, 0, 0]], "caption_tokens": [%s]%s}\n')


def _state_bytes(tmp_path, mutate=None) -> bytes:
    """A valid one-image state file, optionally with its JSON object mutated."""
    syn = SyntheticConfig(n_concepts=3, d=2, n_images=1, regions_per_image=1)
    state = TrainState(tag_table=np.eye(3, 2), caption_table=np.eye(3, 2),
                       region_table=np.ones((1, 2)))
    path = tmp_path / "valid-state.jsonl"
    write_state(path, state, syn, TrainerConfig())
    if mutate is None:
        return path.read_bytes()
    obj = json.loads(path.read_text())
    mutate(obj)
    return (json.dumps(obj) + "\n").encode()


def _ragged(obj):
    obj["tag_table"][1] = obj["tag_table"][1][:1]


def _non_numeric(obj):
    obj["tag_table"][1][0] = "abc"


def _step_not_integer(obj):
    obj["step"] = "abc"


def _set(section, key, value):
    def mutate(obj):
        obj[section][key] = value
    return mutate


def _nan_table_entry(obj):
    obj["tag_table"][1][0] = float("nan")


def _boolean_table_entry(obj):
    obj["tag_table"][0][0] = True


def _negative_step(obj):
    obj["step"] = -3


def _set_top(key, value):
    def mutate(obj):
        obj[key] = value
    return mutate


VOCAB_HEADER = '{"format": "rca-vocab", "version": 1, "dim": 4}\n'
VOCAB_LINES = "".join('{"tag_id": "t%d", "embedding": [%s, 1, 0, 0]}\n' % (i, i) for i in range(4))
TOKEN = '{"text": "ball", "is_noun": true, "embedding": [0, 1, 0, 0]}'
TAGS = ', "tags": [{"tag_id": "t00", "score": 0.5}, {"tag_id": "t01", "score": 0.25}]'


def _instance(old, new, tokens="", tags=""):
    """The one-record instances file with ``old`` replaced by ``new`` once."""
    return (INSTANCE_HEADER + INSTANCE_LINE % (tokens, tags)).replace(old, new, 1).encode()


def _vocab(old, new):
    """The four-tag vocabulary file with ``old`` replaced by ``new`` once."""
    return (VOCAB_HEADER + VOCAB_LINES).replace(old, new, 1).encode()


MALFORMED_INPUTS = {
    # name: (subcommand, file role, file bytes or a builder of them),
    # or (subcommand, "flags", the flags)
    "caption-tokens-not-a-list": (
        "loss", "instances", (INSTANCE_HEADER + INSTANCE_LINE % ("", "")).replace(
            '"caption_tokens": []', '"caption_tokens": 5').encode()),
    "tags-not-a-list": (
        "loss", "instances", (INSTANCE_HEADER + INSTANCE_LINE % ("", ', "tags": 7')).encode()),
    "integer-literal-too-long": (
        "loss", "instances", (INSTANCE_HEADER + INSTANCE_LINE % ("", "")).replace(
            "[1, 0, 0, 0],", "[1%s, 0, 0, 0]," % ("0" * 5000), 1).encode()),
    "number-past-double-range": (
        "loss", "instances", (INSTANCE_HEADER + INSTANCE_LINE % ("", "")).replace(
            "[1, 0, 0, 0],", "[1%s, 0, 0, 0]," % ("0" * 400), 1).encode()),
    "vocab-not-utf8": (
        "loss", "vocab", b'{"format": "rca-vocab", "version": 1, "dim": 4}\n\xff\xfe\n'),
    "instances-not-utf8": (
        "loss", "instances", INSTANCE_HEADER.encode() + b'{"image_id": "\xc3\x28"}\n'),
    "run-config-not-utf8": ("train", "config", b"steps = 5\n\xff = 1\n"),
    "state-not-utf8": ("eval", "state", lambda tmp: _state_bytes(tmp)[:40] + b"\xff"),
    "state-ragged-table": ("eval", "state", lambda tmp: _state_bytes(tmp, _ragged)),
    "state-non-numeric-table": ("eval", "state", lambda tmp: _state_bytes(tmp, _non_numeric)),
    "state-step-not-integer": ("eval", "state", lambda tmp: _state_bytes(tmp, _step_not_integer)),
    "state-nan-table": ("eval", "state", lambda tmp: _state_bytes(tmp, _nan_table_entry)),
    "state-boolean-table-entry": (
        "eval", "state", lambda tmp: _state_bytes(tmp, _boolean_table_entry)),
    "state-step-negative": ("eval", "state", lambda tmp: _state_bytes(tmp, _negative_step)),
    # non-finite JSON literals in any number the readers take
    "vocab-nan-embedding": (
        "rank", "vocab", (VOCAB_HEADER + VOCAB_LINES.replace("[2,", "[NaN,")).encode()),
    "vocab-infinite-embedding": (
        "loss", "vocab", (VOCAB_HEADER + VOCAB_LINES.replace("[3,", "[-Infinity,")).encode()),
    "image-embedding-infinity": (
        "loss", "instances", _instance('"image_embedding": [1,', '"image_embedding": [Infinity,')),
    "region-nan": ("loss", "instances", _instance('"regions": [[1,', '"regions": [[NaN,')),
    "token-embedding-infinity": (
        "loss", "instances", _instance("[0, 1, 0, 0]", "[0, Infinity, 0, 0]", tokens=TOKEN)),
    "tag-score-nan": ("loss", "instances", _instance("0.25", "NaN", tags=TAGS)),
    "tag-score-overflow-literal": ("loss", "instances", _instance("0.25", "1e400", tags=TAGS)),
    # header and state version and dim are exact ints: true and 1.0 are not 1
    "header-version-true": ("rank", "vocab", _vocab('"version": 1', '"version": true')),
    "header-version-float": ("rank", "vocab", _vocab('"version": 1', '"version": 1.0')),
    "header-dim-true": ("rank", "vocab", _vocab('"dim": 4', '"dim": true')),
    "state-version-true": (
        "eval", "state", lambda tmp: _state_bytes(tmp, _set_top("version", True))),
    # read differently by orjson than by json.loads: a lone surrogate escape is
    # invalid, an integer literal past 64 bits is a float, deep nesting is refused
    "vocab-tag-id-lone-surrogate": ("rank", "vocab", _vocab('"t1"', '"\\ud800"')),
    "image-id-lone-surrogate": ("loss", "instances", _instance('"x"', '"\\ud800"', tags=TAGS)),
    "header-dim-past-64-bits": ("rank", "vocab", _vocab('"dim": 4', '"dim": %d' % 2**64)),
    "state-step-past-64-bits": (
        "eval", "state", lambda tmp: _state_bytes(tmp, _set_top("step", 2**64))),
    "nesting-too-deep": ("loss", "instances", _instance("[]", "[" * 300_000 + "]" * 300_000)),
    # ids and texts are strings, never coerced
    "tag-id-not-a-string": ("loss", "instances", _instance('"t00"', "7", tags=TAGS)),
    "caption-text-null": ("loss", "instances", _instance('"ball"', "null", tokens=TOKEN)),
    # wrong-typed config fields in a state file
    "state-fractional-int-field": (
        "eval", "state", lambda tmp: _state_bytes(tmp, _set("synthetic_config", "n_concepts", 10.5))),
    "state-string-int-field": (
        "eval", "state", lambda tmp: _state_bytes(tmp, _set("trainer_config", "steps", "5"))),
    "state-string-bool-field": (
        "eval", "state", lambda tmp: _state_bytes(tmp, _set("trainer_config", "enable_uasr", "no"))),
    # switches a state file may still hold: lambda_inner = 0 and
    # subsample_fraction = 1 took their place
    "state-removed-enable-inner": (
        "eval", "state", lambda tmp: _state_bytes(tmp, _set("trainer_config", "enable_inner", True))),
    "state-removed-enable-subsample": (
        "eval", "state",
        lambda tmp: _state_bytes(tmp, _set("trainer_config", "enable_subsample", False))),
    # numeric flags and config values out of range
    "loss-lambda-cross-nan": ("loss", "flags", ["--lambda_cross", "nan"]),
    "loss-lambda-inner-inf": ("loss", "flags", ["--lambda_inner", "inf"]),
    "loss-lambda-cross-negative": ("loss", "flags", ["--lambda_cross", "-1"]),
    "gradcheck-lambda-cross-nan": ("gradcheck", "flags", ["--lambda_cross", "nan"]),
    "gradcheck-tolerance-nan": ("gradcheck", "flags", ["--tolerance", "nan"]),
    "gradcheck-k-zero": ("gradcheck", "flags", ["--k", "0"]),
    "gradcheck-d-zero": ("gradcheck", "flags", ["--d", "0"]),
    "gradcheck-n-regions-zero": ("gradcheck", "flags", ["--n_regions", "0"]),
    "gradcheck-seed-negative": ("gradcheck", "flags", ["--seed", "-1"]),
    "run-config-lambda-cross-nan": ("train", "config", b"steps = 1\nlambda_cross = nan\n"),
    "run-config-lambda-cross-inf": ("train", "config", b"steps = 1\nlambda_cross = inf\n"),
    "run-config-lambda-inner-nan": ("train", "config", b"steps = 1\nlambda_inner = nan\n"),
    "run-config-seed-negative": ("train", "config", b"steps = 1\nseed = -1\n"),
    "loss-M-odd": ("loss", "flags", ["--M", "3"]),
    # sizes whose arrays are more bytes than numpy can address
    "run-config-n-images-past-numpy": (
        "train", "config", b"steps = 1\nn_images = 100000000000000000000\n"),
    "run-config-d-past-numpy": ("train", "config", b"steps = 1\nd = 100000000000000000000\n"),
    "state-n-images-past-numpy": (
        "eval", "state", lambda tmp: _state_bytes(tmp, _set("synthetic_config", "n_images", 2**62))),
    "gradcheck-k-past-numpy": ("gradcheck", "flags", ["--k", "100000000000000000000"]),
    # sizes that parse (int() takes up to 4,300 digits) but whose entry count
    # is past the 4,300 digits str() writes
    "gradcheck-entries-past-str-digits": (
        "gradcheck", "flags", ["--d", "9" * 4001, "--k", "9" * 4001]),
    "run-config-entries-past-str-digits": (
        "train", "config", b"steps = 1\nd = %s\nn_images = %s\n" % (b"9" * 4001, b"9" * 4001)),
    # an int past a double's range is a size like any other, not an overflow
    **{f"gradcheck-{flag.replace('_', '-')}-past-double-range":
       ("gradcheck", "flags", [f"--{flag}", PAST_DOUBLE_RANGE])
       for flag in ("k", "d", "n_regions", "n_nouns")},
}


@pytest.mark.parametrize("case", MALFORMED_INPUTS)
def test_malformed_input_exits_two_without_traceback(case, tmp_path):
    command, role, content = MALFORMED_INPUTS[case]
    if role == "flags":
        argv = {"loss": ["loss", VOCAB, INSTANCES], "gradcheck": ["gradcheck"]}[command] + content
    else:
        if callable(content):
            content = content(tmp_path)
        bad = tmp_path / f"bad-{role}"
        bad.write_bytes(content)
        argv = {
            ("loss", "instances"): ["loss", VOCAB, str(bad)],
            ("loss", "vocab"): ["loss", str(bad), INSTANCES],
            ("rank", "vocab"): ["rank", str(bad), UNTAGGED, "--M", "2"],
            ("train", "config"): ["train", "--config", str(bad),
                                  "--state_out", str(tmp_path / "state.jsonl")],
            ("eval", "state"): ["eval", str(bad)],
        }[command, role]
    proc = subprocess.run([sys.executable, "-m", "rca", *argv], capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert any(line.startswith("error: ") for line in proc.stderr.splitlines())
    assert proc.stdout == ""


@pytest.mark.parametrize("key", ["enable_inner", "enable_subsample"])
def test_a_state_with_a_removed_switch_names_it(key, tmp_path, capsys):
    path = tmp_path / "state.jsonl"
    path.write_bytes(_state_bytes(tmp_path, _set("trainer_config", key, True)))
    code, out, err = run_cli(["eval", str(path)], capsys)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and repr(key) in err


@pytest.mark.parametrize("m", ["3", "0", "-7"])
@pytest.mark.parametrize("command", ["rank", "uasr", "loss"])
def test_a_bad_M_is_a_config_error_before_any_file_is_read(command, m, capsys):
    missing = os.path.join(FIXTURES, "missing-instances.jsonl")
    assert run_cli([command, VOCAB, missing, "--M", m], capsys) == (
        2, "", f"error: M must be a positive even integer, got {m}\n")


# each row of cli.main's exit table, as an error a subcommand ends in
EXIT_TABLE = [
    (ParseError("bad record", line=3), 2),
    (ConfigError("bad value"), 2),
    (DimensionError("bad dim"), 3),
    (ValidationError("failed check"), 1),
    (DivergenceError(7), 1),
    (OSError("cannot open"), 2),
    (MemoryError("Unable to allocate 179. GiB"), 2),
    (UserWarning("33 non-positive global score(s) clamped to 1e-06"), 1),
]


@pytest.mark.parametrize("error, code", EXIT_TABLE, ids=[type(e).__name__ for e, _ in EXIT_TABLE])
def test_each_exit_table_row_prints_one_error_line(error, code, monkeypatch, capsys):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "cmd_eval", fail)
    assert run_cli(["eval", "state.jsonl"], capsys) == (code, "", f"error: {error}\n")


def test_a_runtime_warning_is_not_in_the_exit_table(monkeypatch):
    def fail(args):
        raise RuntimeWarning("overflow encountered in matmul")

    monkeypatch.setattr(cli, "cmd_eval", fail)
    with pytest.raises(RuntimeWarning):
        main(["eval", "state.jsonl"])


# ---------------------------------------------------------------------------
# mutated fixture lines: the readers raise only their own errors, the CLI
# exits with a documented code

FIXTURE_BYTES = {path: Path(path).read_bytes().splitlines(keepends=True)
                 for path in (VOCAB, INSTANCES)}
ODD_VALUES = [None, True, 0, -3, 1.5, 1e308, "s", "", [], {}, [1, "a"], [[1, 2], 3],
              {"tag_id": 1}, 10**400, 2**64]


def _key_paths(value, path=()):
    """Paths to every dict key in a parsed JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield path + (key,)
            yield from _key_paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _key_paths(item, path + (i,))


@st.composite
def mutated_line(draw, lines):
    """One fixture line after dropping a key, retyping a value, truncating or inserting bytes."""
    index = draw(st.integers(0, len(lines) - 1))
    raw = lines[index]
    kind = draw(st.sampled_from(["drop", "retype", "truncate", "insert"]))
    if kind in ("drop", "retype"):
        obj = json.loads(raw)
        path = draw(st.sampled_from(list(_key_paths(obj))))
        parent = obj
        for step in path[:-1]:
            parent = parent[step]
        if kind == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(st.sampled_from(ODD_VALUES))
        raw = (json.dumps(obj) + "\n").encode()
    elif kind == "truncate":
        raw = raw[:draw(st.integers(0, len(raw) - 1))]
    else:
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.binary(min_size=1, max_size=4)) + raw[at:]
    return index, raw


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), which=st.sampled_from(["vocab", "instances"]),
       enable_uasr=st.booleans())
def test_mutated_fixture_lines_raise_only_parse_errors(data, which, enable_uasr):
    source = VOCAB if which == "vocab" else INSTANCES
    lines = list(FIXTURE_BYTES[source])
    index, lines[index] = data.draw(mutated_line(lines))
    reader = read_vocab if which == "vocab" else read_instances
    with tempfile.TemporaryDirectory() as tmp:
        mutated = os.path.join(tmp, os.path.basename(source))
        with open(mutated, "wb") as fh:
            fh.write(b"".join(lines))
        try:
            reader(mutated)
        except (ParseError, DimensionError):
            pass
        argv = ["loss", mutated, INSTANCES] if which == "vocab" else ["loss", VOCAB, mutated]
        if enable_uasr:
            argv.append("--enable_uasr")
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("ignore")
            code = main(argv)
    assert code in (0, 1, 2, 3)


# ---------------------------------------------------------------------------
# numbers checked a window of rows at a time, records formatted from one
# template: the same arrays, errors and bytes as the value-by-value oracles

def _outcome(reader, path):
    """What a reader gives: its result, or its error's type, message and line."""
    try:
        return reader(path)
    except (ParseError, DimensionError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def _plain(result):
    """A reader's result with every array as (dtype, shape, bytes), for exact comparison."""
    def arr(a):
        return a.dtype.str, a.shape, a.tobytes()

    if not isinstance(result, tuple) or not isinstance(result[0], list):
        return result  # an error outcome
    items, dim = result
    if items and isinstance(items[0], tuple):
        return [(tag_id, arr(emb)) for tag_id, emb in items], dim
    return [(r.image_id, arr(r.image_embedding), arr(r.regions),
             [(t.text, t.is_noun, arr(t.embedding)) for t in r.caption_tokens],
             None if r.tags is None else [(t.tag_id, np.float64(t.score).tobytes()) for t in r.tags])
            for r in items], dim


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), which=st.sampled_from(["vocab", "instances"]),
       window=st.sampled_from([1, 2, 3, 64]), n_mutations=st.integers(1, 3))
def test_readers_match_the_value_by_value_readers(data, which, window, n_mutations):
    source = VOCAB if which == "vocab" else INSTANCES
    lines = list(FIXTURE_BYTES[source])
    for _ in range(n_mutations):
        index, lines[index] = data.draw(mutated_line(FIXTURE_BYTES[source]))
    reader, oracle = {"vocab": (read_vocab, read_vocab_loop),
                      "instances": (read_instances, read_instances_loop)}[which]
    with tempfile.TemporaryDirectory() as tmp:
        mutated = os.path.join(tmp, os.path.basename(source))
        with open(mutated, "wb") as fh:
            fh.write(b"".join(lines))
        with mock.patch.object(rca_io, "_WINDOW_ROWS", window):
            got = _outcome(reader, mutated)
        assert _plain(got) == _plain(_outcome(oracle, mutated))


WRITER_TEXT = st.text(alphabet='%"\\ab\u00e9\u2028\U0001f600', max_size=5)
WRITER_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e308, -1e308]))


@st.composite
def writer_records(draw, finite=True):
    """A dimension and instance records whose ids, texts and floats stress the writers."""
    dim = draw(st.integers(1, 3))
    floats = WRITER_FLOATS if finite else WRITER_FLOATS | st.sampled_from(
        [math.nan, math.inf, -math.inf])

    def rows(n):
        return np.array(draw(st.lists(floats, min_size=n * dim, max_size=n * dim)),
                        dtype=np.float64).reshape(n, dim)

    records = []
    for _ in range(draw(st.integers(0, 3))):
        tokens = [CaptionToken(text=draw(WRITER_TEXT), is_noun=draw(st.booleans()),
                               embedding=rows(1)[0]) for _ in range(draw(st.integers(0, 2)))]
        tags = draw(st.none() | st.lists(
            st.builds(TagRef, tag_id=WRITER_TEXT, score=floats), max_size=4))
        records.append(InstanceRecord(image_id=draw(WRITER_TEXT), image_embedding=rows(1)[0],
                                      regions=rows(draw(st.integers(1, 3))),
                                      caption_tokens=tokens, tags=tags))
    return dim, records


def _written(writer, *args):
    """The bytes a writer leaves, or its error's type and message."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.jsonl")
        try:
            writer(path, *args)
        except ValidationError as exc:
            assert not os.path.lexists(path)  # a failed write leaves no partial file
            return type(exc), str(exc)
        with open(path, "rb") as fh:
            return fh.read()


def _read_bytes(reader, raw: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.jsonl")
        with open(path, "wb") as fh:
            fh.write(raw)
        return reader(path)


def _with_arrays(rec, array, score):
    """``rec`` with ``array`` applied to each of its arrays and ``score`` to each tag score."""
    return InstanceRecord(
        image_id=rec.image_id, image_embedding=array(rec.image_embedding),
        regions=array(rec.regions),
        caption_tokens=[CaptionToken(t.text, t.is_noun, array(t.embedding))
                        for t in rec.caption_tokens],
        tags=None if rec.tags is None else [TagRef(t.tag_id, score(t.score)) for t in rec.tags])


# how a record's floats reach the writers: each reads back as its float64 value
WRITER_LAYOUTS = {
    "float64": (lambda a: a, float),
    "float32": (lambda a: a.astype(np.float32), np.float32),
    "strided": (lambda a: np.repeat(a, 2, axis=-1)[..., ::2], float),  # not C-contiguous
}
# a record whose float32 values orjson would spell by their own shortest digits
WRITER_EXAMPLE = (2, [InstanceRecord(
    image_id="x", image_embedding=np.array([0.1, -0.0]), regions=np.array([[1.1, 5e-324]]),
    caption_tokens=[CaptionToken("n", True, np.array([0.3, -2.5]))], tags=[TagRef("t", 0.1)])])
# values orjson refuses to write: an unserializable type, a lone surrogate, ints past 64 bits
WRITER_UNWRITABLE = [{1, 2}, "\ud800", 2**64, -2**63 - 1]


def _line_floats(item) -> np.ndarray:
    """Every float of one vocabulary entry or instance record, as float64."""
    if isinstance(item, tuple):
        return np.asarray(item[1], dtype=np.float64)
    return np.concatenate([np.ravel(a).astype(np.float64) for a in (
        item.image_embedding, item.regions, *(t.embedding for t in item.caption_tokens),
        [t.score for t in item.tags or []])])


@settings(max_examples=300, deadline=None, database=None)
@given(case=writer_records(finite=False) | writer_records(),
       layout=st.sampled_from(sorted(WRITER_LAYOUTS)),
       unwritable=st.sampled_from([None, *WRITER_UNWRITABLE]))
@example(case=WRITER_EXAMPLE, layout="float32", unwritable=None)
@example(case=WRITER_EXAMPLE, layout="strided", unwritable=None)
def test_writers_keep_every_double_and_refuse_what_they_cannot_write(case, layout, unwritable):
    """Each double reads back bit for bit, a rewrite is byte-identical, and the first bad line is the error.

    A float32 is written as its float64 value and a strided array as a
    contiguous one. A line's non-finite number is its error before a value
    orjson refuses, which is a ValidationError, not orjson's own.
    The 17-digit spelling of earlier writers reads back to the same doubles.
    """
    dim, records = case
    with np.errstate(over="ignore"):  # a double past float32's range becomes inf
        records = [_with_arrays(r, *WRITER_LAYOUTS[layout]) for r in records]
    vocab = [(f"{r.image_id}{i}", r.image_embedding) for i, r in enumerate(records)]
    if unwritable is not None and records:
        records[0] = dataclasses.replace(records[0], image_id=unwritable)
        vocab[0] = (unwritable, vocab[0][1])
    for writer, reader, items in ((write_instances, read_instances, records),
                                  (write_vocab, read_vocab, vocab)):
        written = _written(writer, items, dim)
        finite = [np.isfinite(_line_floats(item)).all() for item in items]
        if not all(finite) and (unwritable is None or not finite[0]):
            assert written == (ValidationError, "cannot serialize non-finite number")
            continue
        if unwritable is not None and items:
            assert written[0] is ValidationError and written[1].startswith("cannot serialize: ")
            continue
        got = _read_bytes(reader, written)
        widened = [(tag_id, emb.astype(np.float64)) for tag_id, emb in items] if reader is read_vocab \
            else [_with_arrays(r, lambda a: a.astype(np.float64), float) for r in items]
        assert _plain(got) == _plain((widened, dim))
        assert _written(writer, *got) == written
        earlier = b"".join(to_json(orjson.loads(line)).encode() + b"\n"
                           for line in written.splitlines())
        assert _plain(_read_bytes(reader, earlier)) == _plain(got)


class _Str(str):
    def __str__(self):  # the text written is the one held, not this
        return "other"


class _Dict(dict):
    pass


class _List(list):
    pass


WRITER_SHAPES = hnp.array_shapes(max_dims=2, min_side=0, max_side=3)
# numpy scalars, 0-d arrays and a str subclass: the values _template turns into plain ones
WRITER_NUMPY_LEAVES = st.one_of(
    WRITER_FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_),
    WRITER_TEXT.map(_Str), hnp.arrays(np.float64, (), elements=WRITER_FLOATS),
    hnp.arrays(np.int64, ()), hnp.arrays(np.bool_, ()))


@settings(max_examples=300, deadline=None, database=None)
@given(value=st.recursive(
    st.none() | st.booleans() | st.integers() | WRITER_TEXT
    | WRITER_FLOATS | st.sampled_from([math.nan, math.inf, -math.inf]) | WRITER_NUMPY_LEAVES,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(WRITER_TEXT, kids, max_size=3)
    | st.lists(kids, max_size=3).map(tuple) | st.lists(kids, max_size=3).map(_List)
    | st.dictionaries(WRITER_TEXT, kids, max_size=3).map(_Dict)
    | hnp.arrays(np.float64, WRITER_SHAPES, elements=WRITER_FLOATS)
    # -0.0 next to negatives and zeros: the arrays that take the value-by-value route
    | hnp.arrays(np.float64, WRITER_SHAPES, elements=st.sampled_from([-0.0, 0.0, -1.5, -5e-324]))
    | hnp.arrays(np.float32, WRITER_SHAPES) | hnp.arrays(np.int64, WRITER_SHAPES),
    max_leaves=20))
@example(value=np.array([[-1.5, -0.0], [0.0, -2.0]]))
@example(value=(np.float64(-0.0), np.float32(-0.0), np.array(-0.0), _Str("a%"), _List([-0.0])))
def test_to_json_matches_the_value_by_value_route(value):
    try:
        expected = to_json_loop(value)
    except ValidationError as exc:
        with pytest.raises(ValidationError, match=f"^{exc}$"):
            to_json(value)
    else:
        assert to_json(value) == expected


@pytest.mark.parametrize("links", [0, 1, 2], ids=["path", "symlink", "symlink-to-symlink"])
@pytest.mark.parametrize("bad_tag", [("b", np.array([1.0, np.inf])), ("\ud800", np.ones(2))],
                         ids=["non-finite", "lone-surrogate"])
def test_a_failed_write_removes_its_partial_file(tmp_path, links, bad_tag):
    """A writer that fails on a later line removes the file it wrote and keeps a link to it.

    The lines before the bad one would otherwise read back as a valid file.
    """
    target = tmp_path / "target" / "vocab.jsonl"
    target.parent.mkdir()
    target.write_text("an earlier file\n")
    path = target
    for i in range(links):
        link = tmp_path / f"link-{i}.jsonl"
        link.symlink_to(path)
        path = link
    with pytest.raises(ValidationError, match="^cannot serialize"):
        write_vocab(path, [("a", np.ones(2)), bad_tag], 2)
    assert not target.exists()
    assert path.is_symlink() == (links > 0)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["target", *(f"link-{i}.jsonl" for i in range(links))])
    write_vocab(path, [("a", np.ones(2))], 2)  # the link still leads to the target
    assert os.path.samefile(path, target)
    assert [tag for tag, _ in read_vocab(target)[0]] == ["a"]


def test_negative_zero_survives_a_round_trip(tmp_path):
    """-0.0 is written ``-0.0``: ``-0`` would read back as the integer 0, its sign lost."""
    def round_trip(write, read, *args):
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        write(first, *args)
        assert b"-0.0" in first.read_bytes()
        got = read(first)
        write(second, got[0], *args[1:])
        assert second.read_bytes() == first.read_bytes()
        return got

    vocab, _ = round_trip(write_vocab, read_vocab, [("a", np.array([-0.0, 1.5]))], 2)
    assert np.signbit(vocab[0][1]).tolist() == [True, False]
    record = InstanceRecord(image_id="x", image_embedding=np.array([0.5, 1.5]),
                            regions=np.array([[1.5, -0.0]]), tags=[TagRef("a", -0.0)])
    (got,), _ = round_trip(write_instances, read_instances, [record], 2)
    assert np.signbit(got.regions).tolist() == [[False, True]]
    assert math.copysign(1.0, got.tags[0].score) == -1.0
    syn = SyntheticConfig(n_concepts=3, d=2, n_images=1, regions_per_image=1)
    state = TrainState(tag_table=np.array([[-0.0, 1.0], [0.5, 0.0], [1.0, 1.0]]),
                       caption_table=np.eye(3, 2), region_table=np.ones((1, 2)))
    got_state, _, _ = round_trip(write_state, read_state, state, syn, TrainerConfig())
    assert np.signbit(got_state.tag_table[0]).tolist() == [True, False]


def test_a_non_finite_float_before_an_unserializable_value_is_the_error():
    with pytest.raises(ValidationError, match="non-finite"):
        to_json([math.inf, {1, 2}])
    with pytest.raises(ValidationError, match="cannot serialize set"):
        to_json([{1, 2}, math.inf])


class TestFirstErrorInReadingOrder:
    """A row waiting for its window's check fails before a later line's or field's error."""

    @pytest.mark.parametrize("row, error", [
        ("[NaN, 1, 0, 0]", "line 3: invalid JSON"),
        ("[true, 1, 0, 0]", "line 3: embedding must be a list of numbers"),
        ("[1, 0, 0]", "line 3: embedding has dim 3, expected 4"),
    ])
    def test_bad_row_on_line_three_before_duplicate_tag_on_line_five(self, row, error, tmp_path):
        lines = (VOCAB_HEADER + VOCAB_LINES).splitlines(keepends=True)
        lines[2] = lines[2].replace("[1, 1, 0, 0]", row)
        lines[4] = lines[4].replace('"t3"', '"t0"')
        bad = tmp_path / "vocab.jsonl"
        bad.write_text("".join(lines))
        for reader in (read_vocab, read_vocab_loop):
            with pytest.raises((ParseError, DimensionError), match=f"^{re.escape(error)}"):
                reader(bad)

    def test_bad_image_embedding_before_malformed_regions_on_one_line(self, tmp_path):
        bad = tmp_path / "instances.jsonl"
        bad.write_bytes(_instance('"image_embedding": [1, 0', '"image_embedding": [1, "0"')
                        .replace(b'"regions": [[1, 0, 0, 0]]', b'"regions": []'))
        for reader in (read_instances, read_instances_loop):
            with pytest.raises(ParseError, match="^line 2: embedding must be a list of numbers$"):
                reader(bad)

    def test_bad_score_before_bad_region_on_the_next_line(self, tmp_path):
        bad = tmp_path / "instances.jsonl"
        bad.write_text(INSTANCE_HEADER + INSTANCE_LINE % ("", TAGS.replace("0.25", '"0.25"'))
                       + (INSTANCE_LINE % ("", "")).replace("[[1, 0, 0, 0]]", "[[1, 0, 0]]"))
        for reader in (read_instances, read_instances_loop):
            with pytest.raises(ParseError, match="^line 2: tag scores must be a list of numbers$"):
                reader(bad)

    def test_bad_score_in_entry_one_before_a_non_object_entry_three(self, tmp_path):
        tags = (', "tags": [{"tag_id": "t0", "score": 0.5}, {"tag_id": "t1", "score": true},'
                ' {"tag_id": "t2", "score": 0.25}, 7]')
        bad = tmp_path / "instances.jsonl"
        bad.write_text(INSTANCE_HEADER + INSTANCE_LINE % ("", tags))
        for reader in (read_instances, read_instances_loop):
            with pytest.raises(ParseError, match="^line 2: tag scores must be a list of numbers$"):
                reader(bad)

    def test_bad_region_before_bad_score_on_one_line(self, tmp_path):
        bad = tmp_path / "instances.jsonl"
        bad.write_bytes(_instance('"regions": [[1, 0,', '"regions": [[1, "0",',
                                  tags=TAGS.replace("0.25", '"0.25"')))
        for reader in (read_instances, read_instances_loop):
            with pytest.raises(ParseError, match="^line 2: region must be a list of numbers$"):
                reader(bad)


NOT_2D = "state tables do not match the embedded config"
NOT_NUMBERS = "line 1: malformed state file: tag_table must hold only finite numbers"


@pytest.mark.parametrize("table, code, error", [
    ([1, 0, 0.5], 3, NOT_2D),
    (0, 3, NOT_2D),
    (0.5, 3, NOT_2D),
    ([[[1.0, 0]], [[0, 1]], [[0.5, 0.25]]], 3, NOT_2D),
    ([0.5, True], 2, NOT_NUMBERS),
    ([[[1.0, 0]], [[True, 1]], [[0.5, 0.25]]], 2, NOT_NUMBERS),
    (True, 2, NOT_NUMBERS),
], ids=["flat", "scalar-zero", "scalar", "3d", "flat-true", "3d-true", "scalar-true"])
def test_eval_a_state_table_that_is_not_2d(table, code, error, tmp_path, capsys):
    path = tmp_path / "state.jsonl"
    path.write_bytes(_state_bytes(tmp_path, _set_top("tag_table", table)))
    assert run_cli(["eval", str(path)], capsys) == (code, "", f"error: {error}\n")


def test_eval_a_region_table_one_row_short(tmp_path, capsys):
    error = "region table does not match the embedded config"
    path = tmp_path / "state.jsonl"
    # a second image: its region rows are missing (two regions per image
    # would need four concepts, and this state has three)
    path.write_bytes(_state_bytes(tmp_path, _set("synthetic_config", "n_images", 2)))
    with pytest.raises(DimensionError, match=f"^{error}$"):
        read_state(path)
    assert run_cli(["eval", str(path)], capsys) == (3, "", f"error: {error}\n")


def _ranked_fixture(tmp_path) -> str:
    path = tmp_path / "ranked.jsonl"
    assert main(["rank", VOCAB, UNTAGGED, "--M", "4", "--out", str(path)]) == 0
    return str(path)


ZERO_ONE_ROWS = ["[0.0, -0.0, 1.0, 0.5]", "[0, 1, -0.25, 0]", "[1, 1.0, 0, -0.0]"]
ZERO_ONE_VOCAB = VOCAB_HEADER + "".join(
    '{"tag_id": "t%d", "embedding": %s}\n' % (i, row) for i, row in enumerate(ZERO_ONE_ROWS))
ZERO_ONE_INSTANCES = INSTANCE_HEADER + (
    '{"image_id": "z", "image_embedding": %s, "regions": [%s, %s],'
    ' "caption_tokens": [{"text": "ball", "is_noun": true, "embedding": %s}],'
    ' "tags": [{"tag_id": "t0", "score": 0}, {"tag_id": "t1", "score": 1},'
    ' {"tag_id": "t2", "score": 0.0}, {"tag_id": "t3", "score": 1.0}]}\n'
    % (*ZERO_ONE_ROWS, ZERO_ONE_ROWS[0]))


@pytest.mark.parametrize("window", [1, 64])
def test_valid_files_never_reach_the_value_by_value_checks(window, tmp_path, capsys):
    """No embedding row reaches the per-row check; each tagged line's scores reach it once, as a list."""
    calls = []
    numbers = rca_io._numbers

    def counted(value, dim, lineno, what="embedding"):
        calls.append(what)
        return numbers(value, dim, lineno, what)

    ranked = _ranked_fixture(tmp_path)
    zero_one = {"vocab": tmp_path / "zero-one-vocab.jsonl",
                "instances": tmp_path / "zero-one-instances.jsonl"}
    zero_one["vocab"].write_text(ZERO_ONE_VOCAB)
    zero_one["instances"].write_text(ZERO_ONE_INSTANCES)
    with mock.patch.object(rca_io, "_numbers", counted), \
            mock.patch.object(rca_io, "_WINDOW_ROWS", window):
        read_vocab(VOCAB)
        records = [rec for path in (INSTANCES, UNTAGGED, ranked) for rec in read_instances(path)[0]]
        assert main(["loss", VOCAB, ranked, "--enable_uasr"]) == 0
        got = read_vocab(zero_one["vocab"]), read_instances(zero_one["instances"])
    records += read_instances(ranked)[0] + got[1][0]  # the loss call read ranked once
    tagged = sum(rec.tags is not None for rec in records)
    assert tagged > 0 and calls == ["tag scores"] * tagged
    assert _plain(got[0]) == _plain(read_vocab_loop(zero_one["vocab"]))
    assert _plain(got[1]) == _plain(read_instances_loop(zero_one["instances"]))


class TestLines:
    def test_errors_name_physical_lines_after_blank_lines(self, tmp_path, capsys):
        bad = tmp_path / "vocab.jsonl"
        bad.write_text(VOCAB_HEADER + "\n \n" + '{"tag_id": 5, "embedding": [1, 0, 0, 0]}\n')
        for reader in (read_vocab, read_vocab_loop):
            with pytest.raises(ParseError, match="^line 4: tag_id must be a string$"):
                reader(bad)
        code, out, err = run_cli(["rank", str(bad), UNTAGGED], capsys)
        assert (code, out, err) == (2, "", "error: line 4: tag_id must be a string\n")

    def test_header_after_a_blank_line_is_named_by_its_line(self, tmp_path):
        bad = tmp_path / "vocab.jsonl"
        bad.write_text("\n" + VOCAB_HEADER.replace('"version": 1', '"version": 2'))
        with pytest.raises(ParseError, match="^line 2: unsupported version 2$"):
            read_vocab(bad)

    @pytest.mark.parametrize("ending", [b"\r\n", b"\r"])
    def test_utf8_errors_name_physical_lines_at_any_line_ending(self, ending, tmp_path):
        bad = tmp_path / "vocab.jsonl"
        bad.write_bytes(ending.join([VOCAB_HEADER.strip().encode(), b"", b'{"tag_id": "\xff"}']))
        with pytest.raises(ParseError, match=r"^line 3: not valid UTF-8"):
            read_vocab(bad)

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\u0085"])
    def test_line_separators_inside_strings_stay_in_their_line(self, separator, tmp_path):
        path = tmp_path / "vocab.jsonl"
        path.write_text(VOCAB_HEADER + VOCAB_LINES.replace('"t1"', f'"a{separator}b"'),
                        encoding="utf-8")
        vocab, _ = read_vocab(path)
        assert [tag_id for tag_id, _ in vocab] == ["t0", f"a{separator}b", "t2", "t3"]

    @pytest.mark.parametrize("ending", [b"\r\n", b"\r"])
    def test_other_line_endings_read_as_newlines(self, ending, tmp_path):
        for source, reader in ((VOCAB, read_vocab), (INSTANCES, read_instances)):
            path = tmp_path / os.path.basename(source)
            path.write_bytes(b"".join(line.rstrip(b"\n") + ending for line in FIXTURE_BYTES[source]))
            assert _plain(reader(path)) == _plain(reader(source))


def test_rank_with_an_unwritable_out_path_prints_nothing(tmp_path):
    out = tmp_path / "missing" / "ranked.jsonl"
    proc = subprocess.run([sys.executable, "-m", "rca", "rank", VOCAB, UNTAGGED, "--M", "2",
                           "--out", str(out)], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
    assert not out.parent.exists()


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "rca", "loss", VOCAB, INSTANCES],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout.splitlines()[-1])["n_images"] == 3


# ---------------------------------------------------------------------------
# the parser a call builds: only its subcommand's arguments, the full parser's bytes

def _parse_outcome(parse, argv, capsys):
    """Exit code, stdout and stderr of a parse that ends the program."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


PARSER_ARGVS = [
    # --help, a missing positional or required flag, a bad type=
    ["rank", "--help"], ["rank", VOCAB], ["rank", VOCAB, INSTANCES, "--M", "six"],
    ["uasr", "--help"], ["uasr"], ["uasr", VOCAB, INSTANCES, "--M", "2.5"],
    ["loss", "--help"], ["loss", VOCAB], ["loss", VOCAB, INSTANCES, "--lambda_cross", "x"],
    ["gradcheck", "--help"], ["gradcheck", "--k", "x"], ["gradcheck", "--tolerance", "tight"],
    ["train", "--help"], ["train"], ["train", "--state_out", "s.json", "--steps", "1.5"],
    ["eval", "--help"], ["eval"], ["eval", "a.json", "b.json"],
    # no subcommand first: the full parser
    [], ["-h"], ["bogus"], ["--M", "4", "rank"],
]


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
def test_a_call_parses_as_the_full_parser_does(argv, capsys):
    got = _parse_outcome(main, argv, capsys)
    assert got == _parse_outcome(cli.build_parser().parse_args, argv, capsys)
    assert got[0] in (0, 2) and (got[1] or got[2])


# ---------------------------------------------------------------------------
# the one-array-pass number check against the value-by-value readers

GUARD_VOCAB = VOCAB_HEADER + "".join(
    '{"tag_id": "t%d", "embedding": [%s, -0.25, 0.75, 1.5]}\n' % (i, 0.5 + i) for i in range(4))
GUARD_INSTANCES = INSTANCE_HEADER + (
    '{"image_id": "x", "image_embedding": [0.25, 0.5, -0.75, 2.5],'
    ' "regions": [[0.5, -0.5, 0.25, 0.125], [1.5, 0.25, -0.25, 0.75]],'
    ' "caption_tokens": [{"text": "ball", "is_noun": true, "embedding": [0.25, 0.75, -0.5, 0.5]}],'
    ' "tags": [{"tag_id": "t0", "score": 0.5}, {"tag_id": "t1", "score": 0.25}]}\n')
TOO_LARGE_FOR_A_DOUBLE = "1" + "0" * 400

GUARD_CASES = {
    # name: (file, text replaced once, its replacement)
    "true-in-a-vocab-row": ("vocab", "[1.5, -0.25", "[true, -0.25"),
    "false-in-a-vocab-row": ("vocab", "0.75, 1.5]", "false, 1.5]"),
    "true-in-a-region": ("instances", "[0.5, -0.5", "[true, -0.5"),
    "false-in-an-image-embedding": ("instances", "[0.25, 0.5,", "[false, 0.5,"),
    "true-score": ("instances", '"score": 0.5', '"score": true'),
    "false-score": ("instances", '"score": 0.25', '"score": false'),
    "numeric-string-in-a-row": ("vocab", "-0.25, 0.75", '"-0.25", 0.75'),
    "numeric-string-score": ("instances", '"score": 0.25', '"score": "0.25"'),
    "null-in-a-row": ("instances", "0.125]", "null]"),
    "null-score": ("instances", '"score": 0.5', '"score": null'),
    "nested-list-in-a-row": ("vocab", "[2.5, -0.25", "[[2.5], -0.25"),
    "nested-list-score": ("instances", '"score": 0.5', '"score": [0.5]'),
    "ragged-vocab-row": ("vocab", "[1.5, -0.25, 0.75, 1.5]", "[1.5, -0.25, 0.75]"),
    "ragged-region": ("instances", "[1.5, 0.25, -0.25, 0.75]", "[1.5, 0.25, -0.25]"),
    "int-past-2**64-in-a-row": ("vocab", "[3.5,", "[18446744073709551616,"),
    "int-past-2**64-score": ("instances", '"score": 0.25', '"score": 18446744073709551616'),
    # at a window of one row, an all-integer row converts from uint64
    "ints-past-2**63-in-a-row": ("vocab", "[1.5, -0.25, 0.75, 1.5]",
                                 "[9223372036854775809, 18446744073709551615, 9223372036854777857, 2]"),
    "int-too-large-for-a-double": ("instances", "[0.25, 0.75,", f"[{TOO_LARGE_FOR_A_DOUBLE}, 0.75,"),
    "zero-in-a-vocab-row": ("vocab", "[0.5, -0.25", "[0.0, -0.25"),
    "negative-zero-in-a-region": ("instances", "[0.5, -0.5", "[-0.0, -0.5"),
    "one-in-a-token-embedding": ("instances", "0.75, -0.5, 0.5]", "1.0, -0.5, 0.5]"),
    "integer-zero-and-one-in-a-row": ("vocab", "[2.5, -0.25", "[0, 1"),
    "one-score": ("instances", '"score": 0.5', '"score": 1.0'),
    "zero-score": ("instances", '"score": 0.25', '"score": 0'),
}


@pytest.mark.parametrize("window", [1, 64])
@pytest.mark.parametrize("case", GUARD_CASES)
def test_the_array_pass_reads_as_the_value_by_value_readers(case, window, tmp_path, capsys):
    which, old, new = GUARD_CASES[case]
    texts = {"vocab": GUARD_VOCAB, "instances": GUARD_INSTANCES}
    assert texts[which].count(old) >= 1
    texts[which] = texts[which].replace(old, new, 1)
    paths = {}
    for name, text in texts.items():
        paths[name] = tmp_path / f"{name}.jsonl"
        paths[name].write_text(text)
    reader, oracle = {"vocab": (read_vocab, read_vocab_loop),
                      "instances": (read_instances, read_instances_loop)}[which]
    argv = ["loss", str(paths["vocab"]), str(paths["instances"])]
    with mock.patch.object(rca_io, "_WINDOW_ROWS", window):
        got = _outcome(reader, paths[which])
        cli_got = run_cli(argv, capsys)
    assert _plain(got) == _plain(_outcome(oracle, paths[which]))
    with mock.patch.object(cli, "read_vocab", read_vocab_loop), \
            mock.patch.object(cli, "read_instances", read_instances_loop):
        assert cli_got == run_cli(argv, capsys)


# ---------------------------------------------------------------------------
# config ints: a state file holds them as JSON integers, written and read back
# exactly below 2**64

@pytest.mark.parametrize("cls, name", [(SyntheticConfig, "seed"), (TrainerConfig, "seed"),
                                       (TrainerConfig, "steps"), (TrainerConfig, "batch_size")])
def test_a_config_int_must_be_below_2_to_the_64(cls, name):
    assert getattr(cls(**{name: 2**64 - 1}), name) == 2**64 - 1
    with pytest.raises(ConfigError,
                       match=rf"^{name} must be below 2\*\*64, got 18446744073709551616$"):
        cls(**{name: 2**64})


@pytest.mark.parametrize("batch_size", [2**64 - 1, 2**64])
def test_train_takes_a_batch_size_below_2_to_the_64_only(batch_size, tmp_path, monkeypatch,
                                                         capsys):
    def generate(config):
        raise AssertionError("data generated before the config was checked")

    state = tmp_path / "state.json"
    argv = ["train", "--steps", "2", "--n_images", "4", "--batch_size", str(batch_size),
            "--state_out", str(state)]
    if batch_size >= 2**64:
        monkeypatch.setattr(cli, "generate_synthetic", generate)
        assert run_cli(argv, capsys) == (
            2, "", f"error: batch_size must be below 2**64, got {batch_size}\n")
        assert not state.exists()
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the clamped-score warning of a tiny world
        code, _, _ = run_cli(argv, capsys)
    assert code == 0
    assert read_state(state)[2].batch_size == batch_size
    assert run_cli(["eval", str(state)], capsys)[0] == 0


@pytest.mark.parametrize("seed", [2**64 - 1, 2**64, 10**20])
@pytest.mark.parametrize("source", ["flag", "RCA_SEED", "run.cfg"])
def test_train_takes_seeds_below_2_to_the_64_only(source, seed, tmp_path, monkeypatch, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("steps = 0\nn_images = 2\n" + (f"seed = {seed}\n" if source == "run.cfg" else ""))
    state = tmp_path / "state.json"
    argv = ["train", "--config", str(config), "--state_out", str(state)]
    if source == "flag":
        argv += ["--seed", str(seed)]
    if source == "RCA_SEED":
        monkeypatch.setenv("RCA_SEED", str(seed))
    else:
        monkeypatch.delenv("RCA_SEED", raising=False)
    code, out, err = run_cli(argv, capsys)
    if seed >= 2**64:
        assert (code, out, err) == (2, "", f"error: seed must be below 2**64, got {seed}\n")
        assert not state.exists()
        return
    assert (code, err) == (0, "")
    _, syn, cfg = read_state(state)
    assert syn.seed == cfg.seed == seed
    assert run_cli(["eval", str(state)], capsys)[0] == 0
