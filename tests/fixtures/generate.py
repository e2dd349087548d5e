"""One-off generator for the checked-in fixture corpus.

Embeddings are drawn once and rounded to 4 decimals, so the data files,
whose floats are in shortest round-trip form, spell each as 4 decimals.
The expected-loss golden is computed by the naive direct-formula
evaluator, not by the library. The ``rank --out`` golden is the file the
CLI writes from the untagged corpus. Regenerate only if a file format
changes:  python3 tests/fixtures/generate.py
"""

import contextlib
import io
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from naive_reference import naive_total_loss  # noqa: E402

from rca.cli import main as cli_main  # noqa: E402
from rca.io import (  # noqa: E402
    CaptionToken,
    InstanceRecord,
    to_json,
    write_instances,
    write_vocab,
)
from rca.tags import TagRef  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
D = 4


def r4(a):
    return np.round(np.asarray(a, dtype=np.float64), 4)


def main():
    rng = np.random.default_rng(20240817)

    tag_ids = [f"t{i:02d}" for i in range(10)]
    vocab = [(tid, r4(rng.standard_normal(D))) for tid in tag_ids]
    vmap = dict(vocab)
    write_vocab(os.path.join(HERE, "vocab.jsonl"), vocab, D)

    words = ["a", "red", "ball", "near", "the", "lamp", "dog", "sofa"]
    records = []
    layouts = [("img-a", 2, ["ball", "lamp"]), ("img-b", 3, ["dog"]), ("img-c", 2, [])]
    for image_id, n_regions, nouns in layouts:
        image_emb = r4(rng.standard_normal(D))
        regions = r4(rng.standard_normal((n_regions, D)))
        tokens = []
        for w in rng.choice(words, size=4, replace=False):
            tokens.append(
                CaptionToken(text=str(w), is_noun=str(w) in nouns,
                             embedding=r4(rng.standard_normal(D)))
            )
        chosen = [tag_ids[int(i)] for i in rng.choice(10, size=4, replace=False)]
        scores = sorted(
            (float(r4(np.dot(image_emb, vmap[t])
                      / (np.linalg.norm(image_emb) * np.linalg.norm(vmap[t]))))
             for t in chosen),
            reverse=True,
        )
        tags = [TagRef(tag_id=t, score=s) for t, s in zip(chosen, scores)]
        records.append(
            InstanceRecord(
                image_id=image_id,
                image_embedding=image_emb,
                regions=regions,
                caption_tokens=tokens,
                tags=tags,
            )
        )
    write_instances(os.path.join(HERE, "instances.jsonl"), records, D)

    untagged = [
        InstanceRecord(
            image_id=rec.image_id,
            image_embedding=rec.image_embedding,
            regions=rec.regions,
            caption_tokens=rec.caption_tokens,
            tags=None,
        )
        for rec in records[:2]
    ]
    write_instances(os.path.join(HERE, "instances_untagged.jsonl"), untagged, D)

    # golden: per-image losses via the naive evaluator, uasr off, lambdas 1
    lines = []
    sums = np.zeros(3)
    for rec in records:
        pos = [vmap[t.tag_id].tolist() for t in rec.tags[:2]]
        neg = [vmap[t.tag_id].tolist() for t in rec.tags[2:]]
        nouns = [t.embedding.tolist() for t in rec.caption_tokens if t.is_noun]
        cross, inner, total = naive_total_loss(rec.regions.tolist(), pos, neg, nouns)
        sums += (cross, inner, total)
        lines.append({"image_id": rec.image_id, "cross": cross, "inner": inner, "total": total})
    lines.append(
        {
            "n_images": len(records),
            "mean_cross": sums[0] / len(records),
            "mean_inner": sums[1] / len(records),
            "mean_total": sums[2] / len(records),
        }
    )
    with open(os.path.join(HERE, "expected_loss.jsonl"), "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(to_json(line) + "\n")

    # malformed: valid header and records, garbage on line 5
    with open(os.path.join(HERE, "instances.jsonl"), encoding="utf-8") as fh:
        good = fh.read().splitlines()
    with open(os.path.join(HERE, "malformed.jsonl"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(good[:4]) + "\n")
        fh.write('{"image_id": "broken", regions: oops}\n')

    # wrong dimension: header says 4, record carries a 3-vector region
    wrong = InstanceRecord(image_id="img-z", image_embedding=np.array([0.1, 0.2, 0.3, 0.4]),
                           regions=np.array([[0.1, 0.2, 0.3]]))
    write_instances(os.path.join(HERE, "wrongdim.jsonl"), [wrong], D)

    # the --out file of: rca rank vocab.jsonl instances_untagged.jsonl --M 4
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["rank", os.path.join(HERE, "vocab.jsonl"),
                         os.path.join(HERE, "instances_untagged.jsonl"), "--M", "4",
                         "--out", os.path.join(HERE, "expected_rank_out.jsonl")])
    assert code == 0, f"rca rank exited {code}"

    with open(os.path.join(HERE, "run.cfg"), "w", encoding="utf-8") as fh:
        fh.write(
            "# desk-scale smoke configuration\n"
            "steps = 12\n"
            "learning_rate = 0.5\n"
            "n_images = 16\n"
            "n_concepts = 6\n"
            "d = 8\n"
            "regions_per_image = 3\n"
            "subsample_fraction = 1.0\n"
            "seed = 7\n"
        )
    print("fixtures written to", HERE)


if __name__ == "__main__":
    main()
