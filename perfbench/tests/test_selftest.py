"""Self-test of the benchmark: tracing must not change what the program does.

    python3 -m pytest -q perfbench/tests

Runs one unit of each workload untraced and one traced, and checks that
the final losses and CLI stdout digests agree, that selection counts seen
by the tracer agree with counts taken from untraced outputs, that the
selection-repeat ratio separates the workloads, and that the result line
names exactly the metrics in ``BENCHMARK.json``.
"""

import contextlib
import io
import json
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from rca import cli, trainer, uasr  # noqa: E402

SEED = 3  # inside the pinned range
pytestmark = pytest.mark.filterwarnings("ignore:.*non-positive global score")


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def units(request, tmp_path_factory):
    """One untraced and one traced unit of a workload, plus its layer aggregates."""
    w = workloads.make(request.param, SEED)
    w.prepare(tmp_path_factory.mktemp(request.param))
    w.setup()
    plain = w.run_unit()
    t = tracer.Tracer()
    with t:
        t.begin_unit()
        traced = w.run_unit()
        layers = t.end_unit(traced.seconds)
    return w, plain, traced, layers


def test_traced_unit_gives_the_same_outputs(units):
    w, plain, traced, _ = units
    assert plain.failures == [] and traced.failures == []
    assert traced.outputs == plain.outputs
    assert w.check_pinned(plain.outputs, workloads.load_pins()[w.name][str(SEED)]) == []


def test_repeat_ratio_separates_workloads(units):
    w, _, _, layers = units
    ratio = layers["uasr.apply_uasr.repeat_ratio"]
    if w.name == "cli-corpus":
        assert ratio == 0.0
    else:
        assert ratio > 0.0


def test_self_times_hooks_and_remainder_add_up_to_wall(units):
    _, _, _, layers = units
    self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    total = self_sum + layers["trace.hook_s"] + layers["trace.unwrapped_s"]
    assert total == pytest.approx(layers["trace.wall_s"], rel=1e-9)
    assert layers["trace.unwrapped_s"] >= 0.0
    assert all(v >= 0.0 for k, v in layers.items() if k.endswith(".self_s"))


def test_hook_time_is_kept_out_of_the_callers_self_time():
    """A slow hook inside a span must land in trace.hook_s, not in the span's self time."""
    w = workloads.make("train-c6", SEED)
    w.setup()
    t = tracer.Tracer()
    slow = t._after_apply_uasr

    def slow_hook(*args):
        slow(*args)
        time.sleep(0.001)

    t._after_apply_uasr = slow_hook
    with t:
        t.begin_unit()
        trainer.snapshot_loss(w.dataset, w.state0, w.config)
        layers = t.end_unit(0.0)
    calls = layers["uasr.apply_uasr.calls"]
    assert calls > 0
    assert layers["trace.hook_s"] >= 0.001 * calls
    assert layers["trainer.snapshot_loss.self_s"] < 0.5 * layers["trace.hook_s"]


def _counts(t: tracer.Tracer) -> tuple:
    c = t.counts
    return (c["uasr.apply_uasr.neg_dropped"], c["uasr.apply_uasr.pos_fallbacks"],
            c["uasr.apply_uasr.neg_fallbacks"])


def test_cli_selection_counts_match_untraced_output(tmp_path):
    w = workloads.make("cli-corpus", SEED)
    w.prepare(tmp_path)
    w.run_unit()  # writes the ranked file
    plain = w.run_unit()
    assert plain.failures == []

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(w.argv("uasr")) == 0
    expected = [0, 0, 0]
    for line in buf.getvalue().splitlines():
        rec = json.loads(line)
        k = len(rec["positives"])
        expected[0] += sum(1 for i in rec["retrieved"] if i >= k)
        expected[1] += rec["positive_fallback"]
        expected[2] += rec["negative_fallback"]

    t = tracer.Tracer()
    with t, contextlib.redirect_stdout(io.StringIO()):
        t.begin_unit()
        cli.main(w.argv("uasr"))
        t.end_unit(0.0)
    assert _counts(t) == tuple(expected)
    assert expected[0] > 0


@pytest.mark.parametrize("name", ["train-c6", "train-minibatch"])
def test_train_selection_counts_match_untraced_selection(name):
    w = workloads.make(name, SEED)
    w.setup()
    expected = [0, 0, 0]
    for inst in w.dataset.instances:
        sel = uasr.apply_uasr(inst.evidence_view())
        k = sel.positive_indices.shape[0]
        expected[0] += int((sel.retrieved_set >= k).sum())
        expected[1] += int(sel.positive_fallback)
        expected[2] += int(sel.negative_fallback)

    t = tracer.Tracer()
    with t:
        t.begin_unit()
        trainer.snapshot_loss(w.dataset, w.state0, w.config)
        t.end_unit(0.0)
    assert _counts(t) == tuple(expected)


def test_tracer_uninstall_restores_every_binding():
    before = {id(m): dict(vars(m)) for m in (cli, trainer, uasr)}
    with tracer.Tracer():
        assert trainer.train_alignment is not before[id(trainer)]["train_alignment"]
        assert cli.apply_uasr is not before[id(cli)]["apply_uasr"]
    for m in (cli, trainer, uasr):
        assert dict(vars(m)) == before[id(m)]


@pytest.mark.parametrize("trace", [False, True])
def test_result_line_names_the_declared_metrics(trace, tmp_path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    report = bench.run_workload("cli-corpus", SEED, 0.0, trace, tmp_path)
    line = bench.result_line(report)
    assert line["correct"], report["failures"]
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in declared[key]}
    for m in declared[key]:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]


def test_every_seed_is_checked_against_a_pin(tmp_path):
    run = bench.Run("train-c6", SEED + workloads.PINNED_SEEDS, tmp_path)
    assert run.input_seed == SEED
    assert run.pin == workloads.load_pins()["train-c6"][str(SEED)]
