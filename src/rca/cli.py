"""Command line front end: rank, uasr, loss, gradcheck, train, eval.

Every subcommand prints one JSON object per line so output can be piped
into the usual line tools, and every run with the same inputs and seed
produces byte-identical bytes. Exit codes: 0 success, 1 failed check or
invalid values, 2 unparseable input or configuration, 3 dimension
mismatch. A numeric flag or config value out of its range (a negative
or non-finite lambda or tolerance, a gradcheck shape below 1, a
negative seed) is a configuration error (2). The corpus subcommands
(rank, uasr, loss) treat an instances file with a header but no records
as unparseable input (2). uasr and loss check every record, in file
order, before computing any, then run the records grouped by shape. A
failing corpus call reports its first bad record and prints nothing to
stdout. train checks that its output paths can be written before it
generates any data, and prints its history only once its files are
written, so a failing train call prints nothing to stdout either.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from .core import ContrastiveInstance
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
from .losses import batch_loss
from .tags import rank_corpus
from .trainer import (
    aligned_state,
    evaluate_retrieval,
    generate_synthetic,
    initial_state,
    train_alignment,
)
from .uasr import _checked_norms, apply_uasr, pool_cosines, select_batch, warn_clamped

__all__ = ["main", "build_parser"]


def _emit(obj) -> None:
    print(to_json(obj))


def _check_flags(args, names, low=0) -> None:
    """Raise :class:`ConfigError` unless each named numeric flag is finite and at least ``low``."""
    for name in names:
        value = getattr(args, name)
        if not (math.isfinite(value) and value >= low):
            raise ConfigError(f"--{name} must be finite and at least {low}, got {value!r}")


def _load_corpus(args):
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


def _print_lines(lines: list[str]) -> None:
    """Write a whole command's output at once, so a failing call prints no partial stdout."""
    sys.stdout.write("".join(line + "\n" for line in lines))


@dataclasses.dataclass
class _ShapeGroup:
    """The corpus records of one (R, P, K) shape, stacked on a leading batch axis."""

    members: list[int]          # record positions, ascending
    regions: np.ndarray         # (B, R, d)
    caption_nouns: np.ndarray   # (B, P, d)
    positive_rows: np.ndarray   # (B, K) rows of the vocabulary table
    negative_rows: np.ndarray   # (B, K)
    scores: np.ndarray          # (B, K) the positives' global scores


def _corpus_groups(records, vocab, m: int, cosines: bool):
    """Check every record in record order, then group the records by shape.

    Tags come from the record, or from ranking when it has none. The
    checks are those a one-record run makes, in its order: an even tag
    count of at least 2, each tag in the vocabulary, scores that are
    cosines, and, with ``cosines`` (selection runs), no region or tag row
    whose norm is zero or overflows. So the first bad record is the one
    reported, before any group is computed. Returns the (V, d) vocabulary
    table, each record's tags, and the groups in order of first appearance.
    """
    index = {tag_id: i for i, (tag_id, _) in enumerate(vocab)}
    table = np.array([emb for _, emb in vocab])
    ranked = rank_corpus((rec.image_embedding for rec in records if rec.tags is None), vocab, m)
    all_tags, all_rows, members = [], [], {}
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
        k = len(tags) // 2
        # the tolerance ContrastiveInstance allows
        if max(abs(t.score) for t in tags[:k]) > 1.0 + 1e-9:
            raise ValidationError(
                f"image {rec.image_id!r}: global_scores must be cosines in [-1, 1]"
            )
        if cosines:
            _checked_norms(rec.regions, table[rows], image=rec.image_id)
        all_tags.append(tags)
        all_rows.append(rows)
        shape = (rec.regions.shape[0], sum(t.is_noun for t in rec.caption_tokens), k)
        members.setdefault(shape, []).append(i)

    groups = []
    for (_, _, k), idx in members.items():
        rows = np.array([all_rows[i] for i in idx])
        groups.append(_ShapeGroup(
            members=idx,
            regions=np.stack([records[i].regions for i in idx]),
            caption_nouns=np.stack([records[i].caption_noun_matrix() for i in idx]),
            positive_rows=rows[:, :k],
            negative_rows=rows[:, k:],
            scores=np.array([[t.score for t in all_tags[i][:k]] for i in idx]),
        ))
    return table, all_tags, groups


def _select(table, group: _ShapeGroup, normalize: bool):
    """Selection for one shape group: :func:`select_batch` over its region-by-pool cosines."""
    cosines = pool_cosines(
        group.regions, table[group.positive_rows], table[group.negative_rows]
    )
    return select_batch(cosines, group.scores, normalize)


# ---------------------------------------------------------------------------
# subcommands

def cmd_rank(args) -> int:
    vocab, records = _load_corpus(args)
    k = args.M // 2
    ranked = list(rank_corpus((rec.image_embedding for rec in records), vocab, args.M))
    _print_lines([
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
    ])
    if args.out:
        augmented = [dataclasses.replace(rec, tags=tags) for rec, tags in zip(records, ranked)]
        write_instances(args.out, augmented, records[0].regions.shape[1])
    return 0


def cmd_uasr(args) -> int:
    vocab, records = _load_corpus(args)
    table, all_tags, groups = _corpus_groups(records, vocab, args.M, cosines=True)
    lines = [""] * len(records)
    clamped = 0
    for group in groups:
        sel = _select(table, group, args.normalize)
        clamped += int(sel.clamped.sum())
        k = sel.positive_indices.shape[1]
        for b, i in enumerate(group.members):
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
    _print_lines(lines)
    return 0


def cmd_loss(args) -> int:
    _check_flags(args, ("lambda_cross", "lambda_inner"))
    vocab, records = _load_corpus(args)
    table, _, groups = _corpus_groups(records, vocab, args.M, cosines=args.enable_uasr)
    losses = np.zeros((len(records), 3))  # cross, inner, total per record
    clamped = 0
    for group in groups:
        pos, neg, weights = group.positive_rows, group.negative_rows, None
        if args.enable_uasr:
            sel = _select(table, group, args.normalize)
            rows = np.arange(len(group.members))[:, None]
            pos, neg = pos[rows, sel.positive_indices], neg[rows, sel.negative_indices]
            weights, clamped = sel.weights, clamped + int(sel.clamped.sum())
        cross, inner, _ = batch_loss(
            group.regions, table[pos], table[neg], group.caption_nouns, weights,
            args.lambda_cross, args.lambda_inner, with_grad=False,
        )
        total = args.lambda_cross * cross + args.lambda_inner * inner
        losses[group.members] = np.stack([cross, inner, total], axis=1)
    warn_clamped(clamped)
    lines = [
        to_json({"image_id": rec.image_id, "cross": c, "inner": i, "total": t})
        for rec, (c, i, t) in zip(records, losses.tolist())
    ]
    sums = np.zeros(3)
    for row in losses:  # in record order, as a one-by-one run adds them
        sums += row
    n = len(records)
    lines.append(
        to_json(
            {
                "n_images": n,
                "mean_cross": sums[0] / n,
                "mean_inner": sums[1] / n,
                "mean_total": sums[2] / n,
            }
        )
    )
    _print_lines(lines)
    return 0


def cmd_gradcheck(args) -> int:
    _check_flags(args, ("seed", "n_nouns", "tolerance", "lambda_cross", "lambda_inner"))
    _check_flags(args, ("d", "n_regions", "k"), low=1)
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
    _emit(
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
    return 0 if report.passed else 1


def cmd_train(args) -> int:
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
    if args.init == "aligned":
        state = aligned_state(dataset)
    else:
        state = initial_state(dataset, seed=trainer_cfg.seed, region_init=args.init)
    state, history = train_alignment(dataset, trainer_cfg, state)

    lines = [
        to_json({"step": rec.step, "cross": rec.cross, "inner": rec.inner, "total": rec.total})
        for rec in history
    ]
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))
    write_state(args.state_out, state, syn, trainer_cfg)
    _print_lines(lines)
    return 0


def cmd_eval(args) -> int:
    state, syn, _ = read_state(args.state)
    dataset = generate_synthetic(syn)
    _emit(
        {
            "step": state.step,
            "n_images": len(dataset),
            "retrieval_accuracy": evaluate_retrieval(dataset, state),
        }
    )
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_corpus_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("vocab", help="vocabulary JSONL file")
    p.add_argument("instances", help="instance JSONL file")
    p.add_argument("--M", type=int, default=50, help="ranked list width (2K)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rca",
        description="relative contrastive alignment over tag/region/caption embeddings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rank", help="rank vocabulary tags per image")
    _add_corpus_args(p)
    p.add_argument("--out", help="write instances with the ranked tags attached")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("uasr", help="uncertainty-aware selection and re-weighting")
    _add_corpus_args(p)
    p.add_argument("--normalize", action=argparse.BooleanOptionalAction, default=True)
    p.set_defaults(func=cmd_uasr)

    p = sub.add_parser("loss", help="per-image and corpus-mean contrastive losses")
    _add_corpus_args(p)
    p.add_argument("--enable_uasr", action=argparse.BooleanOptionalAction, default=False)
    p.add_argument("--normalize", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--lambda_cross", type=float, default=1.0)
    p.add_argument("--lambda_inner", type=float, default=1.0)
    p.set_defaults(func=cmd_loss)

    p = sub.add_parser("gradcheck", help="compare analytic and numeric gradients")
    p.add_argument("--seed", type=int, default=env_seed(0))
    p.add_argument("--d", type=int, default=8)
    p.add_argument("--n_regions", type=int, default=3)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--n_nouns", type=int, default=2)
    p.add_argument("--h", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--enable_uasr", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--lambda_cross", type=float, default=1.0)
    p.add_argument("--lambda_inner", type=float, default=1.0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train", help="desk-scale synthetic alignment training")
    p.add_argument("--config", help="flat key = value run configuration file")
    p.add_argument("--state_out", required=True, help="path for the final state file")
    p.add_argument("--metrics_out", help="also write the metrics stream to this file")
    p.add_argument("--init", choices=("data", "random", "aligned"), default="data")
    for name, kind in config_kinds().items():
        if kind is bool:
            p.add_argument(f"--{name}", action=argparse.BooleanOptionalAction, default=None)
        else:
            p.add_argument(f"--{name}", type=kind, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="retrieval accuracy of a saved state")
    p.add_argument("state", help="state file written by train")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DimensionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
