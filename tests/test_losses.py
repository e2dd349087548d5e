import contextlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rca import core, losses, uasr
from rca.core import ContrastiveInstance
from rca.errors import InvalidWeightError
from rca.losses import batch_loss, nll_terms, total_loss
from rca.uasr import select_batch

from naive_reference import naive_context_loss, naive_total_loss


def context_loss(contexts, positives, negatives, weights=None):
    """One context's (optionally weighted) mean loss: batch_loss at B = 1, inner term off."""
    contexts, positives, negatives = (
        np.asarray(a, dtype=np.float64)[None] for a in (contexts, positives, negatives)
    )
    q = None if weights is None else np.asarray(weights, dtype=np.float64)[None]
    nouns = np.zeros((1, 0, contexts.shape[-1]))
    tags = np.stack([positives, negatives])
    cross, _, _ = batch_loss(contexts, tags, nouns, q, 1.0, 0.0, with_grad=False)
    return float(cross[0])


def rand_instance(rng, r=3, k=4, p=2, d=8):
    return ContrastiveInstance(
        regions=rng.standard_normal((r, d)),
        positives=rng.standard_normal((k, d)),
        negatives=rng.standard_normal((k, d)),
        caption_nouns=rng.standard_normal((p, d)) if p else [],
        global_scores=np.sort(rng.uniform(0.05, 1.0, k))[::-1],
    )


class TestClosedForms:
    def test_identical_single_pair_gives_log2(self):
        # one positive contrasted against an identical negative: p = 1/2
        w = np.array([[0.3, -1.2, 0.5]])
        regions = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert context_loss(regions, w, w.copy()) == pytest.approx(
            math.log(2.0), abs=1e-12
        )

    def test_all_equal_phis_give_log_1_plus_k(self):
        for k in (1, 2, 5, 9):
            w = np.tile([[0.7, 0.1]], (k, 1))
            regions = np.array([[0.2, -0.4]])
            got = context_loss(regions, w, w.copy())
            assert got == pytest.approx(math.log(1.0 + k), abs=1e-12)

    def test_unit_weights_match_unweighted(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            inst = rand_instance(rng)
            ones = np.ones(inst.positives.shape[0])
            for contexts in (inst.regions, inst.caption_nouns):
                assert context_loss(
                    contexts, inst.positives, inst.negatives, ones
                ) == pytest.approx(
                    context_loss(contexts, inst.positives, inst.negatives), abs=1e-12
                )


class TestNaiveAgreement:
    def test_matches_direct_formula(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            r = int(rng.integers(1, 5))
            k = int(rng.integers(1, 5))
            d = int(rng.integers(2, 8))
            regions = rng.standard_normal((r, d))
            pos = rng.standard_normal((k, d))
            neg = rng.standard_normal((k, d))
            q = rng.uniform(0.2, 2.0, k)
            got = context_loss(regions, pos, neg)
            want = naive_context_loss(regions.tolist(), pos.tolist(), neg.tolist())
            assert got == pytest.approx(want, rel=1e-12)
            gotw = context_loss(regions, pos, neg, q)
            wantw = naive_context_loss(regions.tolist(), pos.tolist(), neg.tolist(), q.tolist())
            assert gotw == pytest.approx(wantw, rel=1e-12)

    def test_stability_where_naive_overflows(self):
        # phi around ±800 overflows exp(); the lse route must not
        regions = np.array([[40.0, 0.0]])
        pos = np.array([[40.0, 0.0]])   # phi = 1600/sqrt(2) ~ 1131
        neg = np.array([[-40.0, 0.0]])
        with pytest.raises(OverflowError):
            naive_context_loss(regions.tolist(), pos.tolist(), neg.tolist())
        val = context_loss(regions, pos, neg)
        assert math.isfinite(val) and val >= 0.0

    def test_huge_negative_dominates(self):
        regions = np.array([[40.0, 0.0]])
        pos = np.array([[-40.0, 0.0]])
        neg = np.array([[40.0, 0.0]])
        val = context_loss(regions, pos, neg)
        # single context, so phi is a plain dot product: term ~ phi_n - phi_p
        assert val == pytest.approx(3200.0, rel=1e-9)


class TestTotalLoss:
    def test_combination_and_skips(self):
        rng = np.random.default_rng(5)
        inst = rand_instance(rng)
        bd = total_loss(inst, lambda_cross=2.0, lambda_inner=0.5)
        c, i, t = naive_total_loss(
            inst.regions.tolist(),
            inst.positives.tolist(),
            inst.negatives.tolist(),
            inst.caption_nouns.tolist(),
            lambda_cross=2.0,
            lambda_inner=0.5,
        )
        assert bd.cross == pytest.approx(c, rel=1e-12)
        assert bd.inner == pytest.approx(i, rel=1e-12)
        assert bd.total == pytest.approx(t, rel=1e-12)

    def test_zero_lambda_reports_zero(self):
        rng = np.random.default_rng(6)
        inst = rand_instance(rng)
        bd = total_loss(inst, lambda_inner=0.0)
        assert bd.inner == 0.0
        assert bd.total == pytest.approx(bd.cross, abs=0.0)
        bd = total_loss(inst, lambda_cross=0.0)
        assert bd.cross == 0.0 and bd.total == pytest.approx(bd.inner, abs=0.0)

    def test_no_caption_skips_inner_quietly(self):
        rng = np.random.default_rng(7)
        inst = rand_instance(rng, p=0)
        bd = total_loss(inst)
        assert bd.inner == 0.0 and bd.total == bd.cross

    def test_negative_lambda_rejected(self):
        rng = np.random.default_rng(8)
        inst = rand_instance(rng)
        with pytest.raises(InvalidWeightError):
            total_loss(inst, lambda_cross=-1.0)
        # a NaN weight would read as 0 and skip its term; an infinite one gives an infinite loss
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidWeightError):
                total_loss(inst, None, bad, 1.0)
            with pytest.raises(InvalidWeightError):
                total_loss(inst, None, 1.0, bad)

    def test_nll_terms_nonnegative_lower_bound(self):
        # each term is at least log(1 + K * exp(min phi_n - phi_p)) > 0
        rng = np.random.default_rng(9)
        for _ in range(20):
            phi_p = rng.standard_normal(4) * 5
            phi_n = rng.standard_normal(6) * 5
            terms = nll_terms(phi_p, phi_n)
            assert np.all(terms > 0.0)


def stacked_nll_terms(phi_pos, phi_neg):
    """nll_terms as numpy's reductions over one stacked (..., K, K+1) array, the reference bits."""
    wide = phi_pos.shape + phi_neg.shape[-1:]
    stacked = np.concatenate(
        [phi_pos[..., None], np.broadcast_to(phi_neg[..., None, :], wide)], axis=-1
    )
    m = stacked.max(axis=-1, keepdims=True)
    lse = m[..., 0] + np.log(np.exp(stacked - m).sum(axis=-1))
    return lse - phi_pos


def zero_table_sum(terms, like):
    """Gradient terms added in place onto a zero table, the reference start."""
    out = np.zeros_like(like)
    for term in terms:
        out += term
    return out


@contextlib.contextmanager
def plain_numpy_kernels():
    """numpy's own reductions, the stacked log-sum-exp and zero-table gradient sums."""
    with pytest.MonkeyPatch.context() as patch:
        for module in (core, losses, uasr):
            for name, plain in (("_max_last", lambda x: x.max(axis=-1)),
                                ("_sum_last", lambda x: x.sum(axis=-1))):
                if hasattr(module, name):
                    patch.setattr(module, name, plain)
        patch.setattr(losses, "nll_terms", stacked_nll_terms)
        patch.setattr(losses, "_from_zero", zero_table_sum)
        yield


SHORT_AND_LONG = [1, 2, 3, 6, 7, 8, 9, 12]  # axis lengths on both sides of numpy's 8


class TestKernelsUnchangedBitForBit:
    """The column folds give the bytes of the plain numpy kernel they replaced."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(b=st.integers(1, 3), k=st.sampled_from(SHORT_AND_LONG),
           r=st.sampled_from(SHORT_AND_LONG), p=st.sampled_from([0, 2, 9]),
           lambdas=st.sampled_from([(1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (0.3, 2.5)]),
           weighted=st.booleans(), scale=st.sampled_from([1.0, 30.0]),
           zero=st.sampled_from([None, 0.0, -0.0]), seed=st.integers(0, 2**32 - 1))
    def test_batch_loss(self, b, k, r, p, lambdas, weighted, scale, zero, seed):
        rng = np.random.default_rng(seed)
        d = 3
        tables = [scale * rng.standard_normal((b, n, d)) for n in (r, k, k, p)]
        if zero is not None:  # a zero tag column puts signed zeros in the gradients
            for table in tables[1:3]:
                table[..., 0] = zero
        tables[1:3] = [np.stack(tables[1:3])]
        weights = rng.uniform(0.1, 3.0, (b, k)) if weighted else None
        for with_grad in (False, True):
            got = batch_loss(*tables, weights, *lambdas, with_grad=with_grad)
            with plain_numpy_kernels():
                want = batch_loss(*tables, weights, *lambdas, with_grad=with_grad)
            for g, w in zip(got[:2], want[:2]):
                assert g.tobytes() == w.tobytes()
            if with_grad:
                for name, g in got[2].as_dict().items():
                    w = want[2].as_dict()[name]
                    assert g.shape == w.shape and g.tobytes() == w.tobytes(), name
            else:
                assert got[2] is want[2] is None

    @pytest.mark.parametrize("k", SHORT_AND_LONG + [25])
    def test_nll_terms(self, k):
        rng = np.random.default_rng(k)
        for shape in [(), (1,), (5,), (2, 3)]:
            phi_pos = 4.0 * rng.standard_normal(shape + (k,))
            phi_neg = 4.0 * rng.standard_normal(shape + (k,))
            phi_neg.flat[0] = -0.0
            got = nll_terms(phi_pos, phi_neg)
            assert got.tobytes() == stacked_nll_terms(phi_pos, phi_neg).tobytes()

    @pytest.mark.parametrize("k", SHORT_AND_LONG)
    def test_select_batch_weights(self, k):
        rng = np.random.default_rng(100 + k)
        cosines = rng.uniform(-1.0, 1.0, (64, 4, 2 * k))
        scores = rng.uniform(-0.2, 1.0, (64, k))
        got = select_batch(cosines, scores).weights
        with plain_numpy_kernels():
            want = select_batch(cosines, scores).weights
        assert got.tobytes() == want.tobytes()


# (B, K, R, P, d, with_grad) -> tracemalloc peak of one batch_loss call, KiB, on numpy 2.4.6
# before positives and negatives shared one compatibility pass
WORKING_SETS = {
    "train-c6-step": ((200, 2, 4, 4, 16, True), 786),
    "snapshot-block": ((256, 4, 4, 4, 16, False), 511),
}


@pytest.mark.parametrize("shape, kib", WORKING_SETS.values(), ids=WORKING_SETS.keys())
def test_batch_loss_working_set_stays_pinned(shape, kib):
    """The peak of one call's temporaries stays within 5% of the figure it had.

    The training loop is sensitive to its allocations (ROADMAP item 17), so
    a kernel edit that grows them fails here before it shows as page churn.
    """
    b, k, r, p, d, with_grad = shape
    rng = np.random.default_rng(0)
    regions, caption = rng.standard_normal((b, r, d)), rng.standard_normal((b, p, d))
    tags = rng.standard_normal((2, b, k, d))
    weights = rng.uniform(0.1, 2.0, (b, k))
    batch_loss(regions, tags, caption, weights, with_grad=with_grad)  # numpy's lazy set-up
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        batch_loss(regions, tags, caption, weights, with_grad=with_grad)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 1.05 * kib * 1024, f"peak {peak / 1024:.1f} KiB against {kib} KiB"
