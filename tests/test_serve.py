"""The async batched serving layer (ISSUE 5 tentpole).

Covers the serving contract end to end: request/digest semantics,
dynamic batching with coalescing, the digest result cache, and the four
edge cases the issue calls out — deadline expiry mid-batch, queue-full
rejection that loses no accepted work, retry exhaustion surfacing the
*original* executor error, and drain with requests still in flight.
The hypothesis property at the end is the acceptance criterion: a
batched run is bit-identical to serving each request alone.
"""

from __future__ import annotations

import asyncio
import io
import json
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import resolve_kernel, run_kernel
from repro.errors import (
    DeadlineExceeded,
    ServeError,
    ServerOverloaded,
    TransientExecutorError,
)
from repro.serve import ServeRequest, request_from_dict, result_to_dict
from repro.serve.frontend import serve_jsonl
from repro.serve.server import KernelServer
from repro.spec import TABLE1


def adder_request(request_id, a, b, *, width=8, **kwargs):
    return ServeRequest(
        id=request_id,
        kernel="adder",
        width=width,
        operands={"a": tuple(a), "b": tuple(b)},
        **kwargs,
    )


def run(coro):
    return asyncio.run(coro)


def assert_packed(operands, expected):
    """*operands* are read-only ``<u8`` arrays holding *expected*'s words."""
    assert set(operands) == set(expected)
    for name, words in expected.items():
        assert operands[name].dtype == np.dtype("<u8")
        assert not operands[name].flags.writeable
        assert operands[name].tolist() == words


class TestRequestProtocol:
    def test_digest_ignores_id_and_deadline(self):
        base = adder_request("x", [1], [2])
        twin = adder_request("y", [1], [2], deadline_s=5.0)
        assert base.digest == twin.digest

    def test_digest_covers_semantic_fields(self):
        base = adder_request("x", [1], [2])
        assert base.digest != adder_request("x", [1], [3]).digest
        assert base.digest != adder_request("x", [1], [2], width=16).digest
        assert (base.digest !=
                adder_request("x", [1], [2],
                              overrides={"memristor.write_energy": 2e-15}).digest)

    def test_batch_key_groups_compatible_requests(self):
        key = adder_request("x", [1], [2]).batch_key("spec")
        assert adder_request("y", [7, 8], [9, 10]).batch_key("spec") == key
        assert adder_request("y", [1], [2], width=16).batch_key("spec") != key
        assert adder_request("y", [1], [2]).batch_key("other") != key

    def test_validation_rejects_bad_requests(self):
        with pytest.raises(ServeError):
            ServeRequest(id="x", kind="nope")
        with pytest.raises(ServeError):
            ServeRequest(id="x", kernel="adder")  # functional, no operands
        with pytest.raises(ServeError):
            adder_request("x", [1], [2], deadline_s=0.0)
        with pytest.raises(ServeError):
            adder_request("x", [1], [2], backend="quantum")

    def test_request_from_dict_round_trip(self):
        request = request_from_dict({
            "id": "r1", "op": "kernel", "kernel": "adder", "width": 8,
            "operands": {"a": [1, 2], "b": [3, 4]},
        })
        assert_packed(request.operands, {"a": [1, 2], "b": [3, 4]})
        with pytest.raises(ServeError):
            request_from_dict({"id": "r1", "bogus": 1})
        with pytest.raises(ServeError):
            request_from_dict({"id": "r1", "operands": {"a": "12"}})

    def test_result_to_dict_shape(self):
        async def scenario():
            async with KernelServer(max_wait_us=0) as server:
                return await server.submit(adder_request("r", [1], [2]))

        payload = result_to_dict(run(scenario()))
        assert payload["status"] == "ok"
        assert payload["id"] == "r"
        assert payload["outputs"]["sum"] == [3]
        json.dumps(payload)  # wire format must be JSON-serialisable


class TestPackedOperands:
    """Operands are packed ``<u8`` arrays from construction on; bad words
    fail there, and the v2 digest hashes the packed bytes."""

    @pytest.mark.parametrize("words, match", [
        ([3, -1], r"operand 'a' word 1 = -1 is outside 0\.\.2\*\*64-1"),
        (np.array([0, 0, -5]), r"operand 'a' word 2 = -5 is outside"),
        ([2, 1.5], r"operand 'a' word 1 is 1.5"),
        (np.array([0.25]), r"operand 'a' word 0 is 0.25"),
        ([1 << 64], r"operand 'a' word 0 = \d+ is outside"),
        ([-1, 1 << 63], r"operand 'a' word 0 = -1 is outside"),
        ([float("nan")], r"operand 'a' word 0 is nan"),
        (["7"], r"operand 'a' word 0 is '7'"),
        ([[1, 2]], r"operand 'a' must be a flat"),
        ("12", r"operand 'a' must be a flat"),
        ([[1], [1, 2]], r"operand 'a' must be a flat"),
    ])
    def test_bad_words_fail_at_construction(self, words, match):
        from repro import api

        with pytest.raises(ServeError, match=match):
            api.request(kernel="adder", width=8,
                        operands={"a": words, "b": [1] * 3})
        with pytest.raises(ServeError, match=match):
            ServeRequest(id="x", kernel="adder", width=8,
                         operands={"a": words, "b": [1] * 3})

    def test_bad_wire_words_become_parse_errors(self):
        for words in ([-1], [1.5], [1 << 64]):
            with pytest.raises(ServeError, match="operand 'a' word 0"):
                request_from_dict({"id": "r", "kernel": "adder", "width": 8,
                                   "operands": {"a": words, "b": [1]}})

    def test_integral_floats_and_bools_are_words(self):
        request = adder_request("x", [1.0, True, np.float32(4)], [0, 1, 2])
        assert_packed(request.operands, {"a": [1, 1, 4], "b": [0, 1, 2]})
        big = adder_request("x", [(1 << 64) - 1], [0])
        assert big.operands["a"].tolist() == [(1 << 64) - 1]

    def test_every_integer_form_shares_one_digest(self):
        words = [0, 1, 200, 65535]
        forms = [
            list(words), tuple(words),
            np.array(words, dtype=np.int64), np.array(words, dtype=np.uint32),
            np.array(words, dtype=np.uint64),
            np.array(words, dtype=">u8"),
            np.repeat(np.array(words, dtype=np.uint64), 2)[::2],
        ]
        digests = {adder_request("x", form, form, width=16).digest
                   for form in forms}
        assert len(digests) == 1

    def test_moving_a_word_across_operands_changes_the_digest(self):
        left = ServeRequest(id="x", kernel="adder", width=8,
                            operands={"a": [1, 2], "b": [3]})
        right = ServeRequest(id="x", kernel="adder", width=8,
                             operands={"a": [1], "b": [2, 3]})
        assert left.digest != right.digest
        renamed = ServeRequest(id="x", kernel="adder", width=8,
                               operands={"a": [1, 2], "c": [3]})
        assert renamed.digest not in (left.digest, right.digest)

    def test_caller_mutation_changes_neither_digest_nor_outputs(self):
        from repro import api

        a = np.array([1, 2, 3], dtype=np.uint64)
        b = np.array([10, 20, 30], dtype=np.uint64)
        request = api.request(kernel="adder", width=8, backend="functional",
                              operands={"a": a, "b": b})
        before = request.digest
        a[:] = 0
        b[0] = 99
        assert request.digest == before
        fresh = api.request(kernel="adder", width=8, backend="functional",
                            operands={"a": [1, 2, 3], "b": [10, 20, 30]})
        assert fresh.digest == before

        async def scenario():
            async with KernelServer(max_wait_us=0) as server:
                return await server.submit(request)

        assert run(scenario()).outputs["sum"] == (11, 22, 33)

    def test_golden_v2_digest(self):
        """Pins the cache-key format: a change here must be deliberate
        (bump ``DIGEST_VERSION``)."""
        import hashlib

        request = adder_request("g", [1, 2], [3, 4])
        header = ('{"backend":"functional","kernel":"adder","kind":"kernel",'
                  '"operands":[["a",2],["b",2]],"overrides":{},"params":{},'
                  '"v":2,"width":8}')
        body = (header.encode() + np.array([1, 2], "<u8").tobytes()
                + np.array([3, 4], "<u8").tobytes())
        assert request.digest == hashlib.sha256(body).hexdigest()
        assert request.digest == (
            "1a015a76147fe757b8e3014fa7be6232805b390f5445854de3aa30f32ab858b4")

    def test_digest_is_computed_once_per_instance(self, monkeypatch):
        calls = []
        content_digest = ServeRequest._content_digest

        def counted(request):
            calls.append(request.id)
            return content_digest(request)

        monkeypatch.setattr(ServeRequest, "_content_digest", counted)
        request = adder_request("once", [1], [2])
        assert request.digest == request.digest == request.digest
        assert calls == ["once"]
        other = replace(request, backend="electrical")
        assert other.digest != request.digest
        assert calls == ["once", "once"]

    def test_packed_operands_pass_through_replace_uncopied(self):
        request = adder_request("x", [1, 2], [3, 4])
        routed = replace(request, backend="functional_bitplane")
        for name in ("a", "b"):
            assert routed.operands[name] is request.operands[name]
        with pytest.raises(ValueError):
            request.operands["a"][0] = 7

    def test_equality_compares_operand_words(self):
        base = adder_request("x", [1, 2], [3, 4])
        assert base == adder_request("x", (1, 2), np.array([3, 4]))
        assert base != adder_request("x", [1, 2], [3, 5])
        assert base != adder_request("x", [1, 2, 0], [3, 4, 0])
        assert base != adder_request("y", [1, 2], [3, 4])
        assert base != ServeRequest(id="x", kernel="adder", width=8,
                                    operands={"a": [1, 2], "c": [3, 4]})
        assert base != "x"


class TestBatchingAndCache:
    def test_compatible_requests_coalesce_into_one_batch(self):
        async def scenario():
            async with KernelServer(max_wait_us=50_000) as server:
                return await server.submit_many([
                    adder_request(f"r{i}", [i], [10 + i]) for i in range(6)
                ])

        results = run(scenario())
        assert [r.outputs["sum"] for r in results] == [
            (10 + 2 * i,) for i in range(6)]
        # All six rode one coalesced engine execution.
        assert {r.batch_requests for r in results} == {6}
        assert {r.batch_words for r in results} == {6}

    def test_incompatible_requests_split_groups(self):
        async def scenario():
            async with KernelServer(max_wait_us=50_000) as server:
                return await server.submit_many([
                    adder_request("a", [1], [2], width=8),
                    adder_request("b", [3], [4], width=16),
                ])

        by_id = {r.id: r for r in run(scenario())}
        assert by_id["a"].batch_requests == 1
        assert by_id["b"].batch_requests == 1
        assert by_id["a"].outputs["sum"] == (3,)
        assert by_id["b"].outputs["sum"] == (7,)

    def test_repeat_submission_hits_result_cache(self):
        async def scenario():
            async with KernelServer(max_wait_us=0) as server:
                first = await server.submit(adder_request("one", [5], [6]))
                second = await server.submit(adder_request("two", [5], [6]))
                return first, second

        first, second = run(scenario())
        assert not first.cached
        assert second.cached
        assert second.id == "two"
        assert second.outputs == first.outputs

    def test_cache_capacity_evicts_lru(self):
        async def scenario():
            async with KernelServer(max_wait_us=0, cache_capacity=1) as server:
                await server.submit(adder_request("a", [1], [1]))
                await server.submit(adder_request("b", [2], [2]))  # evicts a
                return await server.submit(adder_request("a2", [1], [1]))

        assert not run(scenario()).cached

    def test_result_cache_keyed_on_backend_and_spec(self):
        """Identical operands under two backends and two active specs
        must occupy four distinct cache entries (regression: the cache
        was keyed on the request digest alone, so a server whose active
        spec changed kept returning results priced under the old spec).
        """
        hot = TABLE1.derive(
            {"memristor.write_energy": 2 * TABLE1.memristor.write_energy})

        async def scenario():
            async with KernelServer(max_wait_us=0) as server:
                functional = await server.submit(
                    adder_request("f", [3], [4], backend="functional"))
                analytical = await server.submit(
                    adder_request("a", [3], [4], backend="analytical"))
                entries_two_backends = server.stats()["cache_entries"]
                server.spec = hot  # re-point the active spec
                rehot = await server.submit(
                    adder_request("f2", [3], [4], backend="functional"))
                entries_after_respec = server.stats()["cache_entries"]
                return (functional, analytical, rehot,
                        entries_two_backends, entries_after_respec)

        functional, analytical, rehot, two_backends, after_respec = run(
            scenario())
        assert two_backends == 2  # backend is part of the cache key
        assert after_respec == 3  # new spec -> new entry, no stale hit
        assert not rehot.cached
        assert rehot.spec_digest != functional.spec_digest
        assert rehot.energy > functional.energy
        assert analytical.backend == "analytical"

    def test_per_request_overrides_derive_spec(self):
        async def scenario():
            async with KernelServer(max_wait_us=0) as server:
                base = await server.submit(adder_request("b", [1], [2]))
                hot = await server.submit(adder_request(
                    "h", [1], [2],
                    overrides={"memristor.write_energy": 2 * TABLE1.memristor.write_energy}))
                return base, hot

        base, hot = run(scenario())
        assert base.outputs == hot.outputs
        assert base.spec_digest != hot.spec_digest
        assert hot.energy > base.energy

    def test_evaluate_requests_return_table2_metrics(self):
        async def scenario():
            async with KernelServer(max_wait_us=0) as server:
                return await server.submit(ServeRequest(id="e", kind="evaluate"))

        result = run(scenario())
        assert result.kind == "evaluate"
        assert result.metrics["dna.improvement.energy_delay"] == pytest.approx(
            2880876.557, rel=1e-6)
        assert "math.cim.computing_efficiency" in result.metrics


class TestQueueFullRejection:
    def test_overload_burst_rejects_without_losing_accepted_work(self):
        async def scenario():
            # Submissions enqueue synchronously before the batcher task
            # gets scheduled, so a burst larger than queue_limit
            # deterministically trips the backpressure bound.
            async with KernelServer(queue_limit=4, max_wait_us=0) as server:
                return await server.submit_many(
                    [adder_request(f"r{i}", [i], [i]) for i in range(10)],
                    return_exceptions=True,
                )

        outcomes = run(scenario())
        rejected = [r for r in outcomes if isinstance(r, ServerOverloaded)]
        served = [r for r in outcomes if not isinstance(r, BaseException)]
        assert rejected, "burst beyond queue_limit must trip ServerOverloaded"
        assert len(served) + len(rejected) == 10
        # Every *accepted* request completed with the right answer.
        for result in served:
            i = int(result.id[1:])
            assert result.outputs["sum"] == (2 * i,)

    def test_queue_limit_validation(self):
        with pytest.raises(ServeError):
            KernelServer(queue_limit=0)
        with pytest.raises(ServeError):
            KernelServer(max_batch_size=0)
        with pytest.raises(ServeError):
            KernelServer(retries=-1)


class TestDeadlines:
    def test_deadline_expiry_mid_batch(self):
        """A request whose deadline lapses while a slow batch holds the
        only worker fails with DeadlineExceeded; the slow batch and the
        server survive."""

        def slow_run_batch(request, operands, spec):
            time.sleep(0.15)
            return run_kernel(resolve_kernel(request.kernel, request.width),
                              operands or {}, spec=spec)

        async def scenario():
            async with KernelServer(
                workers=1, max_batch_size=1, max_wait_us=0,
                run_batch=slow_run_batch,
            ) as server:
                slow = asyncio.ensure_future(
                    server.submit(adder_request("slow", [1], [2])))
                await asyncio.sleep(0.02)  # let the slow batch occupy the pool
                with pytest.raises(DeadlineExceeded):
                    await server.submit(
                        adder_request("late", [3], [4], width=16,
                                      deadline_s=0.03))
                return await slow

        result = run(scenario())
        assert result.outputs["sum"] == (3,)

    def test_generous_deadline_still_succeeds(self):
        async def scenario():
            async with KernelServer(max_wait_us=0) as server:
                return await server.submit(
                    adder_request("ok", [2], [3], deadline_s=30.0))

        assert run(scenario()).outputs["sum"] == (5,)


class TestRetries:
    def test_transient_failures_retry_then_succeed(self):
        attempts = []

        def flaky(request, operands, spec):
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientExecutorError(f"blip {len(attempts)}")
            return run_kernel(resolve_kernel(request.kernel, request.width),
                              operands or {}, spec=spec)

        async def scenario():
            async with KernelServer(
                max_wait_us=0, retries=2, backoff_s=0.001, run_batch=flaky,
            ) as server:
                return await server.submit(adder_request("r", [4], [5]))

        assert run(scenario()).outputs["sum"] == (9,)
        assert len(attempts) == 3

    def test_retry_exhaustion_surfaces_original_error(self):
        attempts = []

        def always_failing(request, operands, spec):
            attempts.append(1)
            raise TransientExecutorError(f"attempt-{len(attempts)}")

        async def scenario():
            async with KernelServer(
                max_wait_us=0, retries=2, backoff_s=0.001,
                run_batch=always_failing,
            ) as server:
                await server.submit(adder_request("r", [1], [2]))

        with pytest.raises(TransientExecutorError) as excinfo:
            run(scenario())
        assert len(attempts) == 3  # initial try + 2 retries
        assert str(excinfo.value) == "attempt-1"  # the original, not the last

    def test_non_transient_errors_do_not_retry(self):
        attempts = []

        def broken(request, operands, spec):
            attempts.append(1)
            raise ValueError("not transient")

        async def scenario():
            async with KernelServer(
                max_wait_us=0, retries=5, run_batch=broken,
            ) as server:
                await server.submit(adder_request("r", [1], [2]))

        with pytest.raises(ValueError):
            run(scenario())
        assert len(attempts) == 1


class TestDrain:
    def test_drain_finishes_inflight_work(self):
        def slow_run_batch(request, operands, spec):
            time.sleep(0.05)
            return run_kernel(resolve_kernel(request.kernel, request.width),
                              operands or {}, spec=spec)

        async def scenario():
            server = KernelServer(max_wait_us=50_000, workers=2,
                                  run_batch=slow_run_batch)
            tasks = [
                asyncio.ensure_future(
                    server.submit(adder_request(f"r{i}", [i], [i])))
                for i in range(4)
            ]
            await asyncio.sleep(0)  # let the submissions enqueue
            await server.drain()
            results = await asyncio.gather(*tasks)
            return server, results

        server, results = run(scenario())
        assert [r.outputs["sum"] for r in results] == [
            (0,), (2,), (4,), (6,)]

        async def after_close():
            await server.submit(adder_request("late", [1], [1]))

        with pytest.raises(ServeError):
            run(after_close())

    def test_context_manager_drains_on_exit(self):
        async def scenario():
            async with KernelServer(max_wait_us=0) as server:
                result = await server.submit(adder_request("r", [1], [2]))
            assert server._closed
            return result

        assert run(scenario()).outputs["sum"] == (3,)


class TestJsonlFrontend:
    def test_jsonl_round_trip_with_errors(self):
        lines = [
            {"id": "a", "kernel": "adder", "width": 8,
             "operands": {"a": [1, 2], "b": [3, 4]}},
            {"id": "bad", "op": "nope"},
            "not json at all",
            {"id": "c", "kernel": "word-compare", "width": 8,
             "operands": {"a": [2], "b": [2]}},
        ]
        text = "\n".join(
            line if isinstance(line, str) else json.dumps(line)
            for line in lines) + "\n"
        out = io.StringIO()
        stats = serve_jsonl(io.StringIO(text), out, max_wait_us=1000)
        records = {r.get("id"): r
                   for r in map(json.loads, out.getvalue().splitlines())}
        assert stats.total == 4
        assert stats.counts["ok"] == 2
        assert stats.counts["error"] == 2
        assert records["a"]["outputs"]["sum"] == [4, 6]
        assert records["c"]["outputs"]["match"] == [1]
        assert records["bad"]["status"] == "error"

    def test_server_and_options_are_exclusive(self):
        with pytest.raises(ServeError):
            serve_jsonl(io.StringIO(""), io.StringIO(),
                        server=KernelServer(), max_wait_us=1)


class TestAutoRouting:
    def test_auto_small_batch_routes_functional(self):
        from repro.obs.registry import get_registry

        counter = get_registry().get(
            "serve_autoroute_total").labels(backend="functional_bitplane")
        before = counter.value

        async def scenario():
            async with KernelServer(max_wait_us=0) as server:
                return await server.submit(
                    adder_request("r", [1, 2], [3, 4], backend="auto"))

        result = run(scenario())
        assert result.backend == "functional_bitplane"
        assert result.outputs["sum"] == (4, 6)
        assert counter.value == before + 1

    def test_auto_large_batch_routes_bitplane(self):
        async def scenario():
            async with KernelServer(max_wait_us=0) as server:
                words = list(range(100))
                return await server.submit(
                    adder_request("r", words, words, backend="auto"))

        result = run(scenario())
        assert result.backend == "functional_bitplane"
        assert result.outputs["sum"] == tuple(2 * i for i in range(100))

    def test_auto_operandless_routes_analytical(self):
        async def scenario():
            async with KernelServer(max_wait_us=0) as server:
                return await server.submit(ServeRequest(
                    id="p", kernel="adder", width=8, backend="auto"))

        result = run(scenario())
        assert result.backend == "analytical"
        assert result.energy > 0

    def test_auto_shares_cache_with_explicit_backend(self):
        """Routing rewrites the request before the digest is used, so an
        auto request is indistinguishable from one that named the
        resolved backend — including for the result cache."""

        async def scenario():
            async with KernelServer(max_wait_us=0) as server:
                explicit = await server.submit(
                    adder_request("e", [5], [6],
                                  backend="functional_bitplane"))
                auto = await server.submit(
                    adder_request("a", [5], [6], backend="auto"))
                return explicit, auto

        explicit, auto = run(scenario())
        assert not explicit.cached
        assert auto.cached
        assert auto.outputs == explicit.outputs

    def test_auto_batched_billing_is_bit_identical_to_solo(self):
        """Acceptance: auto-routed requests coalesce with explicit ones
        (same resolved batch key) and the split billing matches a solo
        engine run exactly."""

        async def scenario():
            async with KernelServer(max_wait_us=50_000,
                                    cache_capacity=0) as server:
                return await server.submit_many([
                    adder_request("auto", [1, 2, 3], [4, 5, 6],
                                  backend="auto"),
                    adder_request("explicit", [7], [8],
                                  backend="functional_bitplane"),
                ])

        auto, explicit = run(scenario())
        assert auto.batch_requests == 2 and explicit.batch_requests == 2
        alone = run_kernel(resolve_kernel("adder", 8),
                           {"a": [1, 2, 3], "b": [4, 5, 6]})
        assert auto.outputs["sum"] == tuple(int(w) for w in alone.word("sum"))
        assert auto.energy == alone.energy
        assert auto.steps_per_word == alone.steps_per_word

    def test_auto_requests_of_any_size_share_one_batch(self):
        """Routing no longer depends on a request's own word count, so a
        1-word and a 100-word auto request resolve alike and coalesce."""
        wide_a = [(7 * i) % 256 for i in range(100)]
        wide_b = [(13 * i + 5) % 256 for i in range(100)]

        async def scenario():
            async with KernelServer(max_wait_us=50_000,
                                    cache_capacity=0) as server:
                return await server.submit_many([
                    adder_request("one", [200], [99], backend="auto"),
                    adder_request("wide", wide_a, wide_b, backend="auto"),
                ])

        one, wide = run(scenario())
        assert one.batch_requests == 2 and wide.batch_requests == 2
        for result, (a, b) in ((one, ([200], [99])), (wide, (wide_a, wide_b))):
            alone = run_kernel(resolve_kernel("adder", 8), {"a": a, "b": b})
            assert result.outputs["sum"] == tuple(
                int(w) for w in alone.word("sum"))

    def test_flight_record_carries_resolved_backend(self):
        from repro.obs.flight import FlightRecorder

        recorder = FlightRecorder(capacity=8)

        async def scenario():
            async with KernelServer(max_wait_us=0,
                                    flight=recorder) as server:
                await server.submit(
                    adder_request("fr", [1], [2], backend="auto"))

        run(scenario())
        (record,) = recorder.for_request("fr")
        assert record.backend == "functional_bitplane"
        assert record.status == "ok"

    def test_jsonl_rejects_unknown_backend_at_parse_time(self):
        """The hostile payload from the issue: a bad ``backend`` must
        fail as a per-line error record naming the offending value, not
        crash the serving loop."""
        text = json.dumps({
            "id": "x", "kernel": "adder", "width": 8,
            "operands": {"a": [1], "b": [2]}, "backend": "quantum",
        }) + "\n"
        out = io.StringIO()
        stats = serve_jsonl(io.StringIO(text), out, max_wait_us=1000)
        (record,) = [json.loads(line)
                     for line in out.getvalue().splitlines()]
        assert stats.total == 1
        assert stats.counts["error"] == 1
        assert record["id"] == "x"
        assert record["status"] == "error"
        assert "quantum" in record["error"]
        assert "auto" in record["error"]  # the error names the legal set

    def test_auto_is_a_legal_wire_backend(self):
        request = request_from_dict({
            "id": "r1", "kernel": "adder", "width": 8,
            "operands": {"a": [1], "b": [2]}, "backend": "auto",
        })
        assert request.backend == "auto"


word8 = st.integers(min_value=0, max_value=255)


class TestBatchedEqualsSequential:
    @given(
        batches=st.lists(
            st.tuples(
                st.sampled_from(["adder", "word-compare"]),
                st.lists(st.tuples(word8, word8), min_size=1, max_size=6),
            ),
            min_size=1, max_size=8,
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_batched_serving_is_bit_identical_to_sequential(self, batches):
        """The acceptance property: coalescing never changes answers."""
        requests = [
            ServeRequest(
                id=f"r{i}", kernel=kernel, width=8,
                operands={"a": tuple(a for a, _ in pairs),
                          "b": tuple(b for _, b in pairs)},
            )
            for i, (kernel, pairs) in enumerate(batches)
        ]

        async def scenario():
            async with KernelServer(max_wait_us=100_000,
                                    cache_capacity=0) as server:
                return await server.submit_many(requests)

        served = run(scenario())
        for request, result in zip(requests, served):
            alone = run_kernel(
                resolve_kernel(request.kernel, request.width),
                {k: list(v) for k, v in request.operands.items()},
            )
            assert result.words == alone.words
            for group in alone.word_outputs:
                assert result.outputs[group] == tuple(
                    int(w) for w in alone.word(group)), (
                    f"{request.kernel} outputs diverged under batching")
            assert result.energy == pytest.approx(alone.energy, rel=1e-12)


def test_stats_snapshot_is_consistent_under_concurrency():
    """Regression: ``stats()`` (the ``/healthz`` extras) is read from
    the telemetry HTTP thread while the event loop and pool threads
    mutate the cache and lifecycle flags.  Before the server lock it
    read field-by-field mid-mutation and could return a torn snapshot
    (e.g. ``cache_entries`` above capacity mid-evict, or ``closed``
    without ``draining``).  Hammer it from several threads during
    heavy distinct-request load and assert every cut is consistent."""
    capacity = 8
    snapshots = []
    errors = []
    stop = threading.Event()

    async def scenario():
        async with KernelServer(max_wait_us=0, workers=2,
                                cache_capacity=capacity) as server:
            def hammer():
                while not stop.is_set():
                    try:
                        snapshots.append(server.stats())
                    except Exception as exc:  # noqa: BLE001 - the regression
                        errors.append(exc)
                        return

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            try:
                for wave in range(8):
                    await server.submit_many([
                        adder_request(f"s{wave}-{i}", [wave], [i])
                        for i in range(16)
                    ])
            finally:
                stop.set()
                for thread in threads:
                    thread.join()
        return server.stats()

    final = run(scenario())
    assert not errors, errors[:3]
    assert snapshots, "the stats hammer never ran"
    for snap in snapshots:
        assert snap["workers"] == 2
        assert 0 <= snap["cache_entries"] <= capacity, (
            "torn snapshot: cache seen above capacity mid-evict")
        assert snap["queue_depth"] >= 0
        if snap["closed"]:
            assert snap["draining"], (
                "torn snapshot: closed observed before draining")
    assert final["closed"] and final["draining"]
