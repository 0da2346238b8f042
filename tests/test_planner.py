"""The offload planner (:mod:`repro.analysis.planner`) and its CLI."""

from __future__ import annotations

import io
import json

import pytest

from repro import api
from repro.analysis.planner import (
    Plan,
    PlacementChoice,
    TraceEntry,
    paper_trace,
    plan,
    plan_metrics,
    plan_request,
    read_trace,
)
from repro.errors import PlannerError
from repro.spec import TABLE1


class TestTraceEntry:
    def test_validation(self):
        with pytest.raises(PlannerError):
            TraceEntry(kernel="")
        with pytest.raises(PlannerError):
            TraceEntry(kernel="adder", width=0)
        with pytest.raises(PlannerError):
            TraceEntry(kernel="adder", words=0)
        with pytest.raises(PlannerError):
            TraceEntry(kernel="adder", hit_ratio=1.5)

    def test_as_dict_round_trips_through_read_trace(self):
        entry = TraceEntry(kernel="adder", width=16, words=100, hit_ratio=0.9)
        line = json.dumps(entry.as_dict())
        assert read_trace([line]) == [entry]


class TestReadTrace:
    def test_blank_lines_skipped(self):
        text = '\n{"kernel": "adder"}\n\n'
        assert read_trace(io.StringIO(text)) == [TraceEntry(kernel="adder")]

    def test_errors_name_the_line(self):
        with pytest.raises(PlannerError, match="line 2"):
            read_trace(['{"kernel": "adder"}', "not json"])
        with pytest.raises(PlannerError, match="unknown fields"):
            read_trace(['{"kernel": "adder", "bogus": 1}'])
        with pytest.raises(PlannerError, match="missing 'kernel'"):
            read_trace(['{"words": 5}'])
        with pytest.raises(PlannerError, match="expected an object"):
            read_trace(["[1, 2]"])


class TestPaperTrace:
    def test_matches_table1_operation_counts(self):
        entries = {e.kernel: e for e in paper_trace(TABLE1)}
        w = TABLE1.workloads
        dna_ops = 4 * (w.dna_coverage * w.dna_reference_bases
                       // w.dna_short_read_len)
        assert entries["comparator"].words == dna_ops
        assert entries["comparator"].hit_ratio == w.dna_hit_ratio
        assert entries["adder"].words == w.math_additions
        assert entries["adder"].width == TABLE1.adder.width
        assert entries["adder"].hit_ratio == w.math_hit_ratio


class TestPlan:
    def test_paper_plan_places_both_kernels_on_cim(self):
        """The acceptance criterion: per-kernel CIM/CPU placement with
        predicted energy-delay and a crossover point."""
        result = plan()
        assert result.spec_digest == TABLE1.digest
        assert {c.kernel for c in result.choices} == {"comparator", "adder"}
        for choice in result.choices:
            # The paper's headline: CIM wins both applications.
            assert choice.placement == "cim"
            assert choice.cim_energy_delay < choice.cpu_energy_delay
            assert choice.crossover_words == 1
            assert choice.cim_energy > 0 and choice.cpu_energy > 0

    def test_choice_lookup(self):
        result = plan()
        assert result.choice("ADDER").kernel == "adder"
        with pytest.raises(PlannerError):
            result.choice("matmul")

    def test_empty_trace_rejected(self):
        with pytest.raises(PlannerError):
            plan([])

    def test_crossover_in_the_cpu_favoured_regime(self):
        """With catastrophically slow/hot memristors, small batches stay
        on the CPU and the crossover moves out; the bisection must agree
        with direct evaluation on both sides."""
        hot = TABLE1.derive({"memristor.write_energy": 1e-6,
                             "memristor.write_time": 1e-9})
        choice = plan_request("word-compare", 32, 4, spec=hot)
        assert choice.placement == "cpu"
        crossover = choice.crossover_words
        assert crossover is not None and crossover > 4

        def energy_delay_gap(words):
            c = plan_request("word-compare", 32, words, spec=hot)
            return c.cim_energy_delay - c.cpu_energy_delay

        assert energy_delay_gap(crossover) <= 0       # CIM wins at crossover
        assert energy_delay_gap(crossover - 1) > 0    # ...and not just before

    def test_plan_metrics_flatten(self):
        metrics = plan_metrics(plan())
        assert metrics["plan.adder.cim_wins"] == 1.0
        assert metrics["plan.adder.crossover_words"] == 1.0
        assert metrics["plan.comparator.cim_energy_delay"] > 0


class TestApiAndCli:
    def test_api_plan(self):
        result = api.plan()
        assert isinstance(result, Plan)
        assert isinstance(result.choice("adder"), PlacementChoice)
        derived = api.plan(overrides={"workloads.math_additions": 7})
        assert derived.choice("adder").words == 7

    def test_cli_plan_table(self, capsys):
        from repro.__main__ import main

        assert main(["plan"]) == 0
        out = capsys.readouterr().out
        assert "comparator" in out and "adder" in out
        assert "CIM" in out and "Crossover" in out

    def test_cli_plan_json_and_trace_file(self, tmp_path, capsys):
        from repro.__main__ import main

        trace = tmp_path / "trace.jsonl"
        trace.write_text('{"kernel": "adder", "width": 8, "words": 3}\n')
        assert main(["plan", "--trace", str(trace), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (choice,) = payload["choices"]
        assert choice["kernel"] == "adder"
        assert choice["words"] == 3
        assert choice["placement"] in ("cim", "cpu")

    def test_cli_plan_rejects_bad_trace(self, tmp_path, capsys):
        from repro.__main__ import main

        trace = tmp_path / "trace.jsonl"
        trace.write_text('{"kernel": "adder", "nope": 1}\n')
        assert main(["plan", "--trace", str(trace)]) == 2
