"""Tests of the benchmark's own arithmetic and wiring.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


def test_self_time_with_nested_and_sibling_children(clock):
    tracer = spans.Tracer("r1", clock=clock)
    inner = tracer.wrap("inner", lambda: clock.advance(3))

    def middle():
        clock.advance(2)
        inner()
        clock.advance(1)

    def root():
        clock.advance(1)
        tracer.wrap("middle", middle)()
        clock.advance(1)
        tracer.wrap("sibling", lambda: clock.advance(4))()
        clock.advance(1)

    tracer.wrap("root", root)()
    got = spans.self_times(tracer.spans)
    assert got == {"root": 3.0, "middle": 3.0, "inner": 3.0, "sibling": 4.0}
    assert sum(got.values()) == 13.0
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]
    assert {s.run_id for s in tracer.spans} == {"r1"}


def test_repeated_name_adds_up(clock):
    tracer = spans.Tracer("r", clock=clock)
    step = tracer.wrap("step", lambda: clock.advance(2))

    def root():
        step()
        clock.advance(1)
        step()

    tracer.wrap("root", root)()
    assert spans.self_times(tracer.spans) == {"root": 1.0, "step": 4.0}
    assert spans.call_counts(tracer.spans) == {"root": 1, "step": 2}


def test_wrapper_that_raises_closes_its_span(clock):
    tracer = spans.Tracer("r", clock=clock)

    def fail():
        clock.advance(2)
        raise ValueError("boom")

    def root():
        with pytest.raises(ValueError):
            tracer.wrap("fail", fail)()
        clock.advance(1)
        tracer.wrap("after", lambda: clock.advance(5))()

    tracer.wrap("root", root)()
    root_span, failed, after = tracer.spans
    assert (failed.start, failed.end) == (0.0, 2.0)
    assert after.parent == 0
    assert spans.self_times(tracer.spans) == {"root": 1.0, "fail": 2.0, "after": 5.0}


def test_inclusive_span_stays_in_caller_self_time(clock):
    tracer = spans.Tracer("r", clock=clock)
    layer = tracer.wrap("layer", lambda: clock.advance(3))

    def kernel():
        clock.advance(2)
        layer()

    def root():
        clock.advance(1)
        tracer.wrap("kernel", kernel, inclusive=True)()

    tracer.wrap("root", root)()
    # the kernel's 2 s stay in root; the layer span below it is root's child
    assert spans.self_times(tracer.spans) == {"root": 3.0, "kernel": 5.0, "layer": 3.0}


def test_counter_runs_after_the_span_ends(clock):
    tracer = spans.Tracer("r", clock=clock)

    def count(result, args):
        clock.advance(10)
        return {"n": result + args[0]}

    tracer.wrap("f", lambda x: x * 2, counter=count)(3)
    (span,) = tracer.spans
    assert span.counts == {"n": 9}
    assert span.end - span.start == 0.0


def test_covered_merges_overlaps_and_clips():
    assert spans._covered([(1, 3), (2, 4), (6, 12)], 0, 10) == 7


def test_attached_counts_sum_or_max():
    made = [spans.Span("a", 0, 1, None, "r", counts={"terms": 3, "digits": 5}),
            spans.Span("b", 1, 2, None, "r", counts={"terms": 4, "digits": 2})]
    assert spans.attached_counts(made, frozenset({"digits"})) == {"terms": 7, "digits": 5}


def test_tracing_overhead_is_difference_of_medians():
    assert spans.tracing_overhead([5.0, 6.0, 9.0], [4.0, 5.0, 7.0]) == 1.0


def test_layer_metrics_add_commands_with_their_own_parents():
    first = [spans.Span("cli.main", 0, 10, None, "r"),
             spans.Span("recursion_gen.generate", 1, 7, 0, "r",
                        counts={"recursion_gen.poly_terms": 100})]
    second = [spans.Span("cli.main", 0, 4, None, "r"),
              spans.Span("recursion_gen.generate", 0, 1, 0, "r",
                         counts={"recursion_gen.poly_terms": 20})]
    metrics = run.layer_metrics([first, second])
    assert metrics["recursion_gen.generate_s"] == 7
    assert metrics["cli.self_s"] == 7
    assert metrics["recursion_gen.poly_terms"] == 120
    assert set(metrics) | {"trace.overhead_s"} == set(run.per_layer_units())


def test_host_speed_is_reference_over_mean_probe_time():
    probe = run.HostProbe()
    probe.stop()
    # bimodal samples: the median would be the slow mode, the mean is between
    probe.wall_s = [0.006, 0.010, 0.020]
    probe.cpu_s = [0.006, 0.010, 0.010]
    assert probe.speed() == pytest.approx(
        (run.PROBE_REF_S / (0.036 / 3), run.PROBE_REF_S / (0.026 / 3)))


def test_probe_kernel_is_fixed_work():
    assert run.probe_kernel() == run.probe_kernel()
    assert run.probe_kernel().bit_length() > 20_000


def test_trimmed_mean_drops_a_fifth_at_each_end():
    assert run.trimmed_mean([100.0, 1.0, 2.0, 3.0, -50.0]) == 2.0
    assert run.trimmed_mean([4.0, 2.0]) == 3.0


def test_benchmark_json_names_the_metrics_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_traced_cli_records_the_layers_of_a_real_command(tmp_path):
    spans_file = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(Path(run.__file__).parent / "traced_cli.py"),
         str(spans_file), "t", "--", "count", "--d", "2", "--n", "2",
         "--cache-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert json.loads(done.stdout)["n"] == 2
    recorded = spans.load_spans(json.loads(spans_file.read_text(encoding="utf-8")))
    names = {span.name for span in recorded}
    assert {"cli.main", "recursion_gen.generate", "recursion_gen.save_system",
            "evolve.evolve_to", "evolve.step", "multipoly.evaluate_int"} <= names
    root = recorded[0]
    assert root.name == "cli.main" and root.parent is None
    layer_total = sum(spans.self_times(recorded).values()) - sum(
        s.end - s.start for s in recorded if s.inclusive)
    assert layer_total == pytest.approx(root.end - root.start)
