"""Command line front end: rank, uasr, loss, gradcheck, train, eval.

Every subcommand prints one JSON object per line so output can be piped
into the usual line tools, and every run with the same inputs and seed
produces byte-identical bytes. A subcommand returns its exit code and
its lines, and :func:`main` prints the lines only after it returns, so a
call that ends in an error prints nothing to stdout. Exit codes: 0
success, 1 failed check or invalid values, 2 unparseable input or
configuration, 3 dimension mismatch. A numeric flag or config value out
of its range (a negative or non-finite lambda or tolerance, a gradcheck
shape below 1, a negative seed, an --M that is not a positive even
integer) is a configuration error (2), and so are sizes whose arrays
numpy cannot address; running out of memory is 2 too. Under ``python -W
error`` the clamped-score warning ends the call with 1. The corpus
subcommands (rank, uasr, loss) treat an instances file with a header but
no records as unparseable input (2). uasr and loss check every record,
in file order, before computing any, so a failing corpus call reports its
first bad record. Then each group of records of one shape becomes one
:class:`rca.losses.Corpus`, run through the selection and loss passes
training runs. rank checks that its --out path can be written before it
reads its input, and train that its output paths can be written before it
generates any data.

:func:`main` builds the parser per call for the subcommand its argv
starts with: every subcommand name and help line is registered, but only
that one gets its arguments, so a call does not pay for the other five
(``train`` alone adds one flag per config field). An argv that starts
with no subcommand name (``rca``, ``rca -h``, ``rca bogus``) gets the
full parser. Either way the help text, usage errors and exit codes are
those of the full parser.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from .core import ContrastiveInstance, check_addressable, check_cosines
from .errors import (
    ConfigError,
    DimensionError,
    DivergenceError,
    ParseError,
    ValidationError,
)
from .gradients import gradient_check
from .io import (
    build_configs,
    config_kinds,
    env_seed,
    read_instances,
    read_run_config,
    read_state,
    read_vocab,
    to_json,
    write_instances,
    write_state,
)
from .losses import Corpus, corpus_losses, corpus_selection
from .tags import rank_corpus
from .trainer import evaluate_retrieval, generate_synthetic, initial_state, train_alignment
from .uasr import apply_uasr, pool_cosines, select_corpus, warn_clamped

__all__ = ["main", "build_parser"]


def _check_flags(args, names, low=0) -> None:
    """Raise :class:`ConfigError` unless each named numeric flag is finite and at least ``low``."""
    for name in names:
        value = getattr(args, name)
        # an int is finite, and math.isfinite raises on one past a double's range
        if not (value >= low and (type(value) is int or math.isfinite(value))):
            raise ConfigError(f"--{name} must be finite and at least {low}, got {value!r}")


def _load_corpus(args):
    if args.M < 2 or args.M % 2 != 0:
        raise ConfigError(f"M must be a positive even integer, got {args.M}")
    vocab, vdim = read_vocab(args.vocab)
    records, idim = read_instances(args.instances)
    if not records:
        raise ParseError(f"{args.instances}: no instance records after the header")
    if vdim != idim:
        raise DimensionError(
            f"vocabulary dim {vdim} does not match instance dim {idim}"
        )
    return vocab, records


def _check_writable(path) -> None:
    """Raise :class:`OSError` unless ``path`` opens for writing; an existing file is left as it was.

    A symbolic link is followed to its target, so a dangling link stays and
    no file is left at its target.
    """
    target = os.path.realpath(path)
    existed = os.path.lexists(target)
    open(target, "a", encoding="utf-8").close()
    if not existed:
        os.remove(target)


def _corpus_groups(records, vocab, m: int, cosines: bool):
    """Check every record in record order, then group the records by shape.

    Tags come from the record, or from ranking when it has none. The
    checks are those a one-record run makes, in its order: an even tag
    count of at least 2, each tag in the vocabulary, no tag listed twice,
    scores that are cosines, and, with ``cosines`` (selection runs), the
    record's region-by-pool cosines, which reject a row whose norm is zero
    or overflows. So the first bad record is the one reported. Returns each
    record's tags and, per (R, P, K) group in order of first appearance,
    its record positions, its corpus, and the tables the corpus rows
    index: the vocabulary, the group's caption nouns and its regions.
    """
    index = {tag_id: i for i, (tag_id, _) in enumerate(vocab)}
    table = np.array([emb for _, emb in vocab])
    ranked = rank_corpus(((rec.image_id, rec.image_embedding) for rec in records
                          if rec.tags is None), vocab, m)
    all_tags, all_rows, all_cosines, members = [], [], [], {}
    for i, rec in enumerate(records):
        if rec.tags is None:
            tags = next(ranked)
        else:
            tags = rec.tags
            if len(tags) < 2 or len(tags) % 2 != 0:
                raise ValidationError(
                    f"image {rec.image_id!r}: tags list must have even length >= 2"
                )
        rows = []
        for t in tags:
            if t.tag_id not in index:
                raise ValidationError(
                    f"image {rec.image_id!r}: tag {t.tag_id!r} not in vocabulary"
                )
            rows.append(index[t.tag_id])
        if len(set(rows)) < len(rows):
            twice = next(t.tag_id for j, t in enumerate(tags) if rows[j] in rows[:j])
            raise ValidationError(f"image {rec.image_id!r}: tag {twice!r} is listed twice")
        k = len(tags) // 2
        check_cosines([t.score for t in tags[:k]], image=rec.image_id)
        if cosines:
            all_cosines.append(pool_cosines(rec.regions, table[rows[:k]], table[rows[k:]],
                                            image=rec.image_id))
        all_tags.append(tags)
        all_rows.append(rows)
        shape = (rec.regions.shape[0], sum(t.is_noun for t in rec.caption_tokens), k)
        members.setdefault(shape, []).append(i)

    groups = []
    for (r, p, k), idx in members.items():
        b, rows = len(idx), np.array([all_rows[i] for i in idx])
        corpus = Corpus(
            positive_concepts=rows[:, :k], negative_concepts=rows[:, k:],
            caption_concepts=np.arange(b * p).reshape(b, p),
            region_rows=np.arange(b * r).reshape(b, r),
            global_scores=np.array([[t.score for t in all_tags[i][:k]] for i in idx]),
            cosines=np.stack([all_cosines[i] for i in idx]) if cosines else None,
        )
        tables = (table, np.concatenate([records[i].caption_noun_matrix() for i in idx]),
                  np.concatenate([records[i].regions for i in idx]))
        groups.append((idx, corpus, tables))
    return all_tags, groups


# ---------------------------------------------------------------------------
# subcommands

def cmd_rank(args) -> tuple[int, list[str]]:
    if args.out:
        _check_writable(args.out)
    vocab, records = _load_corpus(args)
    k = args.M // 2
    ranked = list(rank_corpus(((r.image_id, r.image_embedding) for r in records), vocab, args.M))
    lines = [
        to_json(
            {
                "image_id": rec.image_id,
                "K": k,
                "tags": [
                    {"tag_id": t.tag_id, "score": t.score, "side": "P" if i < k else "N"}
                    for i, t in enumerate(tags)
                ],
            }
        )
        for rec, tags in zip(records, ranked)
    ]
    if args.out:
        augmented = [dataclasses.replace(rec, tags=tags) for rec, tags in zip(records, ranked)]
        write_instances(args.out, augmented, records[0].regions.shape[1])
    return 0, lines


def cmd_uasr(args) -> tuple[int, list[str]]:
    vocab, records = _load_corpus(args)
    all_tags, groups = _corpus_groups(records, vocab, args.M, cosines=True)
    lines = [""] * len(records)
    clamped = 0
    for members, corpus, _ in groups:
        sel = select_corpus(corpus, np.arange(len(members)), args.normalize)
        clamped += int(sel.clamped.sum())
        k = sel.positive_indices.shape[1]
        for b, i in enumerate(members):
            tags, row = all_tags[i], sel.row(b)
            lines[i] = to_json(
                {
                    "image_id": records[i].image_id,
                    "retrieved": row.retrieved_set,
                    "positives": [tags[j].tag_id for j in row.positive_indices.tolist()],
                    "negatives": [tags[k + j].tag_id for j in row.negative_indices.tolist()],
                    "weights": row.weights,
                    "positive_fallback": row.positive_fallback,
                    "negative_fallback": row.negative_fallback,
                }
            )
    warn_clamped(clamped)
    return 0, lines


def cmd_loss(args) -> tuple[int, list[str]]:
    _check_flags(args, ("lambda_cross", "lambda_inner"))
    vocab, records = _load_corpus(args)
    _, groups = _corpus_groups(records, vocab, args.M, cosines=args.enable_uasr)
    lambdas = args.lambda_cross, args.lambda_inner
    losses = np.zeros((len(records), 3))  # cross, inner, total per record
    clamped = 0
    # huge finite entries can overflow on the way to a loss or its mean; rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        for members, corpus, tables in groups:
            images = np.arange(len(members))
            sel = corpus_selection(corpus, images, args.enable_uasr, args.normalize)
            losses[members], _ = corpus_losses(corpus, tables, images, sel, lambdas)
            clamped += int(sel.clamped.sum())
        bad = np.flatnonzero(~np.isfinite(losses).all(axis=1))
        if bad.size:
            raise ValidationError(f"image {records[bad[0]].image_id!r}: loss is not finite")
        # in record order, as a one-by-one run adds them
        means = (losses.sum(axis=0) / len(records)).tolist()
        if not np.isfinite(means).all():
            raise ValidationError("mean loss is not finite")
    warn_clamped(clamped)
    lines = [
        to_json({"image_id": rec.image_id, "cross": c, "inner": i, "total": t})
        for rec, (c, i, t) in zip(records, losses.tolist())
    ]
    lines.append(to_json({"n_images": len(records), "mean_cross": means[0],
                          "mean_inner": means[1], "mean_total": means[2]}))
    return 0, lines


def cmd_gradcheck(args) -> tuple[int, list[str]]:
    if args.seed is None:
        args.seed = env_seed(0)
    _check_flags(args, ("seed", "n_nouns", "tolerance", "lambda_cross", "lambda_inner"))
    _check_flags(args, ("d", "n_regions", "k"), low=1)
    # the tables, and their score matrices against the 2k tags
    check_addressable(
        (args.n_regions + 2 * args.k + args.n_nouns) * (args.d + 2 * args.k), "gradcheck shapes"
    )
    rng = np.random.default_rng(args.seed)
    instance = ContrastiveInstance(
        regions=rng.standard_normal((args.n_regions, args.d)),
        positives=rng.standard_normal((args.k, args.d)),
        negatives=rng.standard_normal((args.k, args.d)),
        caption_nouns=rng.standard_normal((args.n_nouns, args.d)),
        global_scores=np.sort(rng.uniform(0.05, 1.0, size=args.k))[::-1],
    )
    sel = apply_uasr(instance) if args.enable_uasr else None
    report = gradient_check(
        instance, sel, args.lambda_cross, args.lambda_inner, args.h, args.tolerance
    )
    line = to_json(
        {
            "errors": report.errors,
            "max_error": report.max_error,
            "h": report.h,
            "tolerance": report.tolerance,
            "worst": {
                "table": report.worst_table,
                "index": report.worst_index,
                "error": report.worst_error,
            },
            "passed": report.passed,
        }
    )
    return (0 if report.passed else 1), [line]


def cmd_train(args) -> tuple[int, list[str]]:
    # later sources win: the RCA_SEED default, then the config file, then the flags
    values = {"seed": env_seed(0)}
    if args.config:
        values.update(read_run_config(args.config))
    flags = {k: getattr(args, k) for k in config_kinds()}
    values.update({k: v for k, v in flags.items() if v is not None})
    syn, trainer_cfg = build_configs(values)
    for path in (args.state_out, args.metrics_out):
        if path:
            _check_writable(path)
    dataset = generate_synthetic(syn)
    state = initial_state(dataset, seed=trainer_cfg.seed, init=args.init)
    state, history = train_alignment(dataset, trainer_cfg, state)

    lines = [
        to_json({"step": rec.step, "cross": rec.cross, "inner": rec.inner, "total": rec.total})
        for rec in history
    ]
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))
    write_state(args.state_out, state, syn, trainer_cfg)
    return 0, lines


def cmd_eval(args) -> tuple[int, list[str]]:
    state, syn, _ = read_state(args.state)
    dataset = generate_synthetic(syn)
    line = to_json(
        {
            "step": state.step,
            "n_images": len(dataset),
            "retrieval_accuracy": evaluate_retrieval(dataset, state),
        }
    )
    return 0, [line]


# ---------------------------------------------------------------------------
# parser

def _add_corpus_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("vocab", help="vocabulary JSONL file")
    p.add_argument("instances", help="instance JSONL file")
    p.add_argument("--M", type=int, default=50, help="ranked list width (2K)")


def _add_rank_args(p: argparse.ArgumentParser) -> None:
    _add_corpus_args(p)
    p.add_argument("--out", help="write instances with the ranked tags attached")


def _add_uasr_args(p: argparse.ArgumentParser) -> None:
    _add_corpus_args(p)
    p.add_argument("--normalize", action=argparse.BooleanOptionalAction, default=True)


def _add_loss_args(p: argparse.ArgumentParser) -> None:
    _add_corpus_args(p)
    p.add_argument("--enable_uasr", action=argparse.BooleanOptionalAction, default=False)
    p.add_argument("--normalize", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--lambda_cross", type=float, default=1.0)
    p.add_argument("--lambda_inner", type=float, default=1.0)


def _add_gradcheck_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, help="default: RCA_SEED, else 0")
    p.add_argument("--d", type=int, default=8)
    p.add_argument("--n_regions", type=int, default=3)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--n_nouns", type=int, default=2)
    p.add_argument("--h", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--enable_uasr", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--lambda_cross", type=float, default=1.0)
    p.add_argument("--lambda_inner", type=float, default=1.0)


def _add_train_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value run configuration file")
    p.add_argument("--state_out", required=True, help="path for the final state file")
    p.add_argument("--metrics_out", help="also write the metrics stream to this file")
    p.add_argument("--init", choices=("data", "random", "aligned"), default="data")
    for name, kind in config_kinds().items():
        if kind is bool:
            p.add_argument(f"--{name}", action=argparse.BooleanOptionalAction, default=None)
        else:
            p.add_argument(f"--{name}", type=kind, default=None)


def _add_eval_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("state", help="state file written by train")


# Each subcommand's help line and the function that adds its arguments; it runs as cmd_<name>.
_SUBCOMMANDS = {
    "rank": ("rank vocabulary tags per image", _add_rank_args),
    "uasr": ("uncertainty-aware selection and re-weighting", _add_uasr_args),
    "loss": ("per-image and corpus-mean contrastive losses", _add_loss_args),
    "gradcheck": ("compare analytic and numeric gradients", _add_gradcheck_args),
    "train": ("desk-scale synthetic alignment training", _add_train_args),
    "eval": ("retrieval accuracy of a saved state", _add_eval_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``rca`` parser, every subcommand registered by name and help line.

    With ``command``, only that subcommand gets its arguments; any argv
    whose first word is ``command`` parses, and fails, as it does with the
    full parser, which ``command=None`` builds.
    """
    parser = argparse.ArgumentParser(
        prog="rca",
        description="relative contrastive alignment over tag/region/caption embeddings",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_args) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if command is None or command == name:
            add_args(p)
            # looked up per call, so the module attribute is what runs
            p.set_defaults(func=globals()[f"cmd_{name}"])
    return parser


# The exit code of each error a subcommand can end in. The first match wins:
# ConfigError and DimensionError are ValidationErrors. A UserWarning is raised
# only under ``python -W error``.
_EXIT_CODES = {
    ParseError: 2,
    ConfigError: 2,
    DimensionError: 3,
    ValidationError: 1,
    DivergenceError: 1,
    OSError: 2,
    MemoryError: 2,
    UserWarning: 1,
}


def main(argv=None) -> int:
    """Run one subcommand; print its lines once it returns, or one ``error:`` line."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        code, lines = args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))
    sys.stdout.write("".join(line + "\n" for line in lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
