"""Command line front end: rank, uasr, loss, gradcheck, train, eval.

Every subcommand prints one JSON object per line so output can be piped
into the usual line tools, and every run with the same inputs and seed
produces byte-identical bytes. Exit codes: 0 success, 1 failed check or
invalid values, 2 unparseable input or configuration, 3 dimension
mismatch. The corpus subcommands (rank, uasr, loss) treat an instances
file with a header but no records as unparseable input (2).
"""

from __future__ import annotations

import argparse
import dataclasses
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
    InstanceRecord,
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
from .losses import total_loss
from .tags import rank_tags
from .trainer import (
    aligned_state,
    evaluate_retrieval,
    generate_synthetic,
    initial_state,
    train_alignment,
)
from .uasr import apply_uasr

__all__ = ["main", "build_parser"]


def _emit(obj, stream=None) -> None:
    print(to_json(obj), file=stream or sys.stdout)


def _resolve_tags(record: InstanceRecord, vocab_map: dict, vocab, m: int):
    """A record's ranked tags and their embedding rows, ranking when absent."""
    if record.tags is None:
        tags = rank_tags(record.image_embedding, vocab, m)
    else:
        tags = record.tags
        if len(tags) < 2 or len(tags) % 2 != 0:
            raise ValidationError(
                f"image {record.image_id!r}: tags list must have even length >= 2"
            )
    embeddings = []
    for t in tags:
        if t.tag_id not in vocab_map:
            raise ValidationError(
                f"image {record.image_id!r}: tag {t.tag_id!r} not in vocabulary"
            )
        embeddings.append(vocab_map[t.tag_id])
    return tags, np.vstack(embeddings)


def _build_instance(record: InstanceRecord, tags, tag_emb) -> ContrastiveInstance:
    k = len(tags) // 2
    return ContrastiveInstance(
        regions=record.regions,
        positives=tag_emb[:k],
        negatives=tag_emb[k:],
        caption_nouns=record.caption_noun_matrix(),
        global_scores=np.asarray([t.score for t in tags[:k]], dtype=np.float64),
    )


def _load_corpus(args):
    vocab, vdim = read_vocab(args.vocab)
    records, idim = read_instances(args.instances)
    if not records:
        raise ParseError(f"{args.instances}: no instance records after the header")
    if vdim != idim:
        raise DimensionError(
            f"vocabulary dim {vdim} does not match instance dim {idim}"
        )
    vocab_map = {tag_id: emb for tag_id, emb in vocab}
    return vocab, vocab_map, records


# ---------------------------------------------------------------------------
# subcommands

def cmd_rank(args) -> int:
    vocab, vocab_map, records = _load_corpus(args)
    augmented = []
    k = args.M // 2
    for rec in records:
        tags = rank_tags(rec.image_embedding, vocab, args.M)
        _emit(
            {
                "image_id": rec.image_id,
                "K": k,
                "tags": [
                    {"tag_id": t.tag_id, "score": t.score, "side": "P" if i < k else "N"}
                    for i, t in enumerate(tags)
                ],
            }
        )
        if args.out:
            augmented.append(dataclasses.replace(rec, tags=tags))
    if args.out:
        write_instances(args.out, augmented, records[0].regions.shape[1])
    return 0


def cmd_uasr(args) -> int:
    vocab, vocab_map, records = _load_corpus(args)
    for rec in records:
        tags, tag_emb = _resolve_tags(rec, vocab_map, vocab, args.M)
        ci = _build_instance(rec, tags, tag_emb)
        k = ci.num_positives
        sel = apply_uasr(ci, normalize=args.normalize)
        _emit(
            {
                "image_id": rec.image_id,
                "retrieved": sel.retrieved_set,
                "positives": [tags[i].tag_id for i in sel.positive_indices],
                "negatives": [tags[k + i].tag_id for i in sel.negative_indices],
                "weights": sel.weights,
                "positive_fallback": sel.positive_fallback,
                "negative_fallback": sel.negative_fallback,
            }
        )
    return 0


def cmd_loss(args) -> int:
    vocab, vocab_map, records = _load_corpus(args)
    sums = np.zeros(3)
    for rec in records:
        tags, tag_emb = _resolve_tags(rec, vocab_map, vocab, args.M)
        ci = _build_instance(rec, tags, tag_emb)
        sel = apply_uasr(ci, normalize=args.normalize) if args.enable_uasr else None
        bd = total_loss(ci, sel, args.lambda_cross, args.lambda_inner)
        sums += (bd.cross, bd.inner, bd.total)
        _emit(
            {
                "image_id": rec.image_id,
                "cross": bd.cross,
                "inner": bd.inner,
                "total": bd.total,
            }
        )
    n = len(records)
    _emit(
        {
            "n_images": n,
            "mean_cross": sums[0] / n,
            "mean_inner": sums[1] / n,
            "mean_total": sums[2] / n,
        }
    )
    return 0


def cmd_gradcheck(args) -> int:
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
    dataset = generate_synthetic(syn)
    if args.init == "aligned":
        state = aligned_state(dataset)
    else:
        state = initial_state(dataset, seed=trainer_cfg.seed, region_init=args.init)
    state, history = train_alignment(dataset, trainer_cfg, state)

    metrics_fh = open(args.metrics_out, "w", encoding="utf-8") if args.metrics_out else None
    try:
        for rec in history:
            line = {
                "step": rec.step,
                "cross": rec.cross,
                "inner": rec.inner,
                "total": rec.total,
            }
            _emit(line)
            if metrics_fh:
                _emit(line, stream=metrics_fh)
    finally:
        if metrics_fh:
            metrics_fh.close()
    write_state(args.state_out, state, syn, trainer_cfg)
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
