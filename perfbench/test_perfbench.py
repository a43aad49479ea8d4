"""Tests for the benchmark's own arithmetic and bookkeeping.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
from pathlib import Path

import pytest

import run
from tracing import Profile, Span, Tracer, self_times, tail_percentile, union_length

run.import_semicp()

from layers import PER_LAYER, RUN_LEVEL  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def test_union_merges_overlaps_and_clips_to_parent():
    assert union_length([(1, 3), (2, 5), (8, 12)], 0, 10) == 6
    assert union_length([]) == 0
    assert union_length([(4, 4), (6, 5)]) == 0


def test_self_time_is_span_minus_union_of_children():
    spans = [Span("a", "x", -1, 0.0, 10.0),
             Span("b", "y", 0, 1.0, 3.0),
             Span("c", "y", 0, 2.0, 5.0),   # overlaps b: counted once
             Span("d", "z", 2, 2.5, 4.0),   # grandchild: not subtracted from a
             Span("e", "y", 0, 8.0, 12.0)]  # clipped to a's end
    assert self_times(spans) == pytest.approx([4.0, 2.0, 1.5, 1.5, 4.0])


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_traced_calls_nest_and_self_times_account_for_the_root():
    tracer = Tracer(clock=FakeClock())
    leaf = tracer.wrap("scores.leaf", "scores", lambda: None)
    mid = tracer.wrap("unlabeled.mid", "unlabeled", lambda: (leaf(), leaf()))
    inner = tracer.wrap("unlabeled.inner", "unlabeled", lambda: leaf())
    top = tracer.wrap("runner.run_trial", "runner", lambda: (mid(), inner()))
    root = tracer.wrap("bench.call", "bench", top)
    tracer.enabled = True
    root()
    spans = tracer.take()
    assert [s.parent for s in spans] == [-1, 0, 1, 2, 2, 1, 5]
    profile = Profile(spans, ("runner.run_trial",))
    assert profile.total == spans[0].duration
    assert sum(profile.layer_self.values()) == pytest.approx(profile.total)
    assert profile.accounted == pytest.approx(1.0)
    assert profile.calls["scores.leaf"] == 3
    # mid spans 4 ticks outside its two 1-tick leaves
    assert profile.same_layer_self["unlabeled.mid"] == spans[2].duration - 2


def test_disabled_tracer_records_nothing():
    tracer = Tracer()
    assert tracer.wrap("x.f", "x", lambda v: v + 1)(1) == 2
    assert tracer.spans == []


@pytest.mark.parametrize("n, expect_index", [(200, 189), (400, 379), (199, None),
                                             (10, None), (0, None)])
def test_p95_needs_ten_samples_beyond_it(n, expect_index):
    values = list(range(n))[::-1]
    got = tail_percentile(values, 95)
    assert got == (None if expect_index is None else expect_index)


class FlakyWorkload:
    """Second call raises; outputs are otherwise identical."""

    def __init__(self, once_problems=()):
        self.calls = 0
        self.once_problems = list(once_problems)

    def call(self):
        self.calls += 1
        if self.calls == 2:
            raise ValueError("boom")
        return {"value": 1}

    def digest(self, output):
        return json.dumps(output)

    def check(self, output):
        return []

    def check_reference(self, output):
        return self.once_problems


def test_a_raising_run_is_counted_and_the_rest_complete(capsys):
    workload = FlakyWorkload()
    reps = run.repeat(workload.call, seconds=60, max_reps=4)
    assert len(reps) == 4 and workload.calls == 4
    problems = run.tally(reps, workload)
    assert [bool(p) for p in problems] == [False, True, False, False]
    assert "boom" in problems[1][0]
    assert run.median_seconds(reps) == pytest.approx(
        sorted(r.seconds for r in reps if r.error is None)[1])
    assert "ValueError" in capsys.readouterr().err


def test_reference_check_failure_fails_every_matching_run():
    workload = FlakyWorkload(once_problems=["wrong"])
    reps = run.repeat(workload.call, seconds=60, max_reps=3)
    assert sum(1 for p in run.tally(reps, workload) if p) == 3


class RecordingWorkload:
    """Constant output; notes when its once-per-invocation check runs."""

    jobs = 1

    def __init__(self, events):
        self.events = events

    def warm_up(self):
        pass

    def setup(self):
        pass

    def call(self, jobs):
        return {"value": 1}

    def digest(self, output):
        return json.dumps(output)

    def check(self, output):
        return []

    def check_reference(self, output):
        self.events.append("check_reference")
        return []


def test_peak_memory_is_read_before_the_reference_checks(monkeypatch):
    events = []
    monkeypatch.setattr(run, "peak_rss_mb",
                        lambda jobs: events.append("peak_rss_mb") or 1.0)
    reps, problems, metrics, _ = run.end_to_end(RecordingWorkload(events), 0.01)
    assert events == ["peak_rss_mb", "check_reference"]
    assert not any(problems) and metrics["peak_rss_mb"] == (1.0, "MB")


def _children():
    return [pid for task in Path("/proc/self/task").iterdir()
            for pid in (task / "children").read_text().split()]


def test_input_writer_leaves_no_process_behind(tmp_path):
    workload = WORKLOADS["file-pool-large"](str(run.ROOT), 1, str(tmp_path))
    workload.LABELED_ROWS, workload.POOL_ROWS = 20, 50
    before = _children()
    run.build_inputs(workload)
    assert _children() == before
    assert Path(workload.pool_path).is_file()


def test_tracer_swaps_into_consumer_namespaces_and_restores():
    from semicp import runner, scores, unlabeled

    original = scores.score_components_batch
    with Tracer() as tracer:
        assert runner.score_components_batch is not original
        assert unlabeled.score_components_batch is runner.score_components_batch
        assert scores.score_components_batch is runner.score_components_batch
        tracer.enabled = True
        config = runner.config_from_dict({
            "n": 10, "N": 40, "test_size": 30, "trials": 2,
            "data": {"synthetic": {"classes": 4, "samples": 200, "seed": 3}}})
        untraced = runner.run_experiment(config)
        tracer.enabled = False
        profile = Profile(tracer.take(), ("runner.run_trial",))
    assert runner.score_components_batch is original
    assert unlabeled.score_components_batch is original
    assert profile.calls["runner.run_trial"] == 2
    assert profile.counts["dataset.ProbabilityDataset.subset"]["rows"] == 2 * 80
    assert profile.accounted == pytest.approx(1.0)
    assert {k: v.to_dict() for k, v in untraced.items()} == \
        {k: v.to_dict() for k, v in runner.run_experiment(config).items()}


def test_benchmark_json_lists_what_the_code_emits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert tuple(WORKLOADS) == run.WORKLOAD_NAMES
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        [m[:3] for m in PER_LAYER] + list(RUN_LEVEL)
