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
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rca import cli
from rca.cli import main
from rca.errors import ConfigError, DimensionError, ParseError, ValidationError
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
from rca.trainer import SyntheticConfig, TrainerConfig, TrainState

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
VOCAB = os.path.join(FIXTURES, "vocab.jsonl")
INSTANCES = os.path.join(FIXTURES, "instances.jsonl")
UNTAGGED = os.path.join(FIXTURES, "instances_untagged.jsonl")
MALFORMED = os.path.join(FIXTURES, "malformed.jsonl")
WRONGDIM = os.path.join(FIXTURES, "wrongdim.jsonl")
RUN_CFG = os.path.join(FIXTURES, "run.cfg")

# 600 noisy, flipped images: three 256-image compute blocks, the last one
# partial. The second run's steps do not subsample.
TRAIN_ARGS = ["--n_images", "600", "--batch_size", "300", "--steps", "20",
              "--learning_rate", "1.0", "--noise_sigma", "0.3", "--flip_rate", "0.2",
              "--seed", "3"]
TRAIN_GOLDENS = {  # golden stdout: (extra flags, state-file SHA-256, clamp-warning count)
    "expected_train.jsonl": (
        [], "1b9dd9ad4858e45ed2be4f2184ae47ee734a8fb130587356415121cf1e25853a", 2808),
    "expected_train_no_subsample.jsonl": (
        ["--batch_size", "200", "--no-enable_subsample"],
        "eaa5543133c9786af5af3c0bd2390c5ba2680db58f3c0d24a192fb57fe6fa7e8", 2654),
}


def golden(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        return fh.read()


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
        assert out.read_bytes() == open(VOCAB, "rb").read()

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
            assert out.read_bytes() == open(src, "rb").read()

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
        assert values["enable_subsample"] is False
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
        assert out.read_bytes() == open(os.path.join(FIXTURES, "expected_rank_out.jsonl"), "rb").read()

    def test_vocabulary_too_small_for_default_width(self, capsys):
        # default M is 50 but the fixture vocabulary has 10 tags
        code, _, err = run_cli(["rank", VOCAB, UNTAGGED], capsys)
        assert code == 1
        assert "vocabulary" in err.lower()


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
        expected = [
            json.loads(ln)
            for ln in open(os.path.join(FIXTURES, "expected_loss.jsonl"))
        ]
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

    CASES = {
        # name: (fault of img-b, fault of img-c, {argv: expected error line})
        "unknown-then-odd": ("_unknown_tag", "_odd_tags", {
            "*": "error: image 'img-b': tag 'zz' not in vocabulary"}),
        "odd-then-unknown": ("_odd_tags", "_unknown_tag", {
            "*": "error: image 'img-b': tags list must have even length >= 2"}),
        "score-then-odd": ("_score_over_one", "_odd_tags", {
            "*": "error: image 'img-b': global_scores must be cosines in [-1, 1]"}),
        # a zero-norm region only has no cosine when selection runs
        "zero-region-then-unknown": ("_zero_region", "_unknown_tag", {
            "uasr": "error: image 'img-b': cosine undefined for zero-norm rows",
            "loss --enable_uasr": "error: image 'img-b': cosine undefined for zero-norm rows",
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
        command, *flags = argv.split()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli([command, VOCAB, str(bad), *flags], capsys)
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
        assert (code, out, err) == (1, "", "error: image embedding has zero norm\n")
        assert not out_file.exists()

    @pytest.mark.parametrize("argv, message", [
        (["rank", UNTAGGED], "vocabulary tag 't00' has an overflowing embedding norm"),
        (["uasr", UNTAGGED], "vocabulary tag 't00' has an overflowing embedding norm"),
        (["uasr", INSTANCES], "image 'img-a': cosine undefined for rows whose norm overflows"),
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
         "error: vocabulary tag 't00' has an overflowing embedding norm\n"),
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
                   ["loss", "--lambda_inner", "0.5"]]


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
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("ignore", RuntimeWarning)
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


VOCAB_HEADER = '{"format": "rca-vocab", "version": 1, "dim": 4}\n'
VOCAB_LINES = "".join('{"tag_id": "t%d", "embedding": [%s, 1, 0, 0]}\n' % (i, i) for i in range(4))
TOKEN = '{"text": "ball", "is_noun": true, "embedding": [0, 1, 0, 0]}'
TAGS = ', "tags": [{"tag_id": "t00", "score": 0.5}, {"tag_id": "t01", "score": 0.25}]'


def _instance(old, new, tokens="", tags=""):
    """The one-record instances file with ``old`` replaced by ``new`` once."""
    return (INSTANCE_HEADER + INSTANCE_LINE % (tokens, tags)).replace(old, new, 1).encode()


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


# ---------------------------------------------------------------------------
# mutated fixture lines: the readers raise only their own errors, the CLI
# exits with a documented code

FIXTURE_BYTES = {path: open(path, "rb").read().splitlines(keepends=True)
                 for path in (VOCAB, INSTANCES)}
ODD_VALUES = [None, True, 0, -3, 1.5, 1e308, "s", "", [], {}, [1, "a"], [[1, 2], 3],
              {"tag_id": 1}, 10**400]


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


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "rca", "loss", VOCAB, INSTANCES],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout.splitlines()[-1])["n_images"] == 3
