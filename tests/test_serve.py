"""Tests for the distribution-advisor service (repro.serve).

The concurrency suite drives a real asyncio server over a loopback
socket with pipelining clients: identical and distinct queries issued
simultaneously must coalesce (asserted via the telemetry counters)
while every answer stays equal to its one-shot library counterpart.
"""

import asyncio
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cluster import config_dc, table1_configs
from repro.distribution import GenBlock, balanced, block
from repro.exceptions import ServeError
from repro.experiments import build_model
from repro.obs import Recorder
from repro.apps import JacobiApp, application_by_name
from repro.parallel import RunCache
from repro.serve import (
    AsyncServeClient,
    MicroBatcher,
    Query,
    ServeCoordinator,
    decode_message,
    encode_message,
)
from repro.sim import run_cache_keys

SCALE = 0.02  # tiny problems: full protocol, milliseconds of wall time


def run(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------------
# protocol


class TestProtocol:
    def test_message_round_trip(self):
        message = {"id": 3, "op": "predict", "app": "jacobi"}
        assert decode_message(encode_message(message)) == message

    def test_garbage_raises(self):
        with pytest.raises(ServeError):
            decode_message(b"{not json\n")
        with pytest.raises(ServeError):
            decode_message(b"[1, 2]\n")

    def test_unknown_op_rejected(self):
        with pytest.raises(ServeError):
            Query.from_payload({"op": "frobnicate"})

    def test_predict_requires_app(self):
        with pytest.raises(ServeError):
            Query.from_payload({"op": "predict"})
        with pytest.raises(ServeError):
            Query.from_payload({"op": "predict", "app": "jacobo"})

    def test_bad_counts_rejected(self):
        for counts in ([], [0, 5], ["x"], "notalist"):
            with pytest.raises(ServeError):
                Query.from_payload(
                    {"op": "predict", "app": "jacobi", "counts": counts}
                )

    def test_bad_search_budget_rejected(self):
        with pytest.raises(ServeError):
            Query.from_payload(
                {"op": "search", "app": "cg", "budget": 0}
            )

    def test_identical_queries_share_a_coalesce_key(self):
        a = Query.from_payload(
            {"op": "predict", "app": "jacobi", "dist": "blk", "scale": 0.1}
        )
        b = Query.from_payload(
            {"op": "predict", "app": "jacobi", "dist": "blk", "scale": 0.1}
        )
        c = Query.from_payload(
            {"op": "predict", "app": "jacobi", "dist": "bal", "scale": 0.1}
        )
        assert a.coalesce_key() == b.coalesce_key()
        assert a.coalesce_key() != c.coalesce_key()

    def test_verify_and_predict_never_coalesce(self):
        p = Query.from_payload({"op": "predict", "app": "rna"})
        v = Query.from_payload({"op": "verify", "app": "rna"})
        assert p.coalesce_key() != v.coalesce_key()


# ---------------------------------------------------------------------------
# micro-batcher


class TestMicroBatcher:
    def test_concurrent_identical_submissions_coalesce(self):
        calls = []

        async def flush(payloads):
            calls.append(list(payloads))
            return [p * 10 for p in payloads]

        async def main():
            rec = Recorder()
            batcher = MicroBatcher(flush, window_seconds=0.01, telemetry=rec)
            results = await asyncio.gather(
                *[batcher.submit("k", 7) for _ in range(5)],
                batcher.submit("other", 3),
            )
            return rec, results

        rec, results = run(main())
        assert results == [70] * 5 + [30]
        assert calls == [[7, 3]]  # one flush, two distinct payloads
        assert rec.counters["serve/requests"] == 6
        assert rec.counters["serve/coalesced"] == 4
        assert rec.counters["serve/batches"] == 1

    def test_max_batch_flushes_early(self):
        calls = []

        async def flush(payloads):
            calls.append(list(payloads))
            return payloads

        async def main():
            batcher = MicroBatcher(flush, window_seconds=5.0, max_batch=3)
            return await asyncio.gather(
                *[batcher.submit(i, i) for i in range(3)]
            )

        # A 5 s window would time the test out unless max_batch fires.
        assert run(main()) == [0, 1, 2]
        assert calls == [[0, 1, 2]]

    def test_flush_error_reaches_every_waiter(self):
        async def flush(payloads):
            raise ValueError("kernel exploded")

        async def main():
            batcher = MicroBatcher(flush, window_seconds=0.005)
            return await asyncio.gather(
                batcher.submit("a", 1),
                batcher.submit("a", 1),
                batcher.submit("b", 2),
                return_exceptions=True,
            )

        results = run(main())
        assert all(isinstance(r, ValueError) for r in results)

    def test_sequential_rounds_do_not_coalesce(self):
        calls = []

        async def flush(payloads):
            calls.append(list(payloads))
            return payloads

        async def main():
            batcher = MicroBatcher(flush, window_seconds=0.001)
            first = await batcher.submit("k", 1)
            second = await batcher.submit("k", 1)
            return first, second

        assert run(main()) == (1, 1)
        assert len(calls) == 2


# ---------------------------------------------------------------------------
# coordinator end-to-end


def _serve_fixture(coordinator):
    """async context: started server + one pipelining client."""

    class _Ctx:
        async def __aenter__(self):
            self.handle = await coordinator.start(port=0)
            await self.handle.server.start_serving()
            self.client = await AsyncServeClient.open(
                self.handle.host, self.handle.port
            )
            return self.client

        async def __aexit__(self, *exc):
            await self.client.aclose()
            self.handle.server.close()
            await self.handle.server.wait_closed()
            await coordinator.aclose()

    return _Ctx()


class TestCoordinator:
    def test_concurrent_clients_coalesce_and_match_one_shot(self):
        rec = Recorder()
        coordinator = ServeCoordinator(window_seconds=0.02, telemetry=rec)
        cluster = config_dc()
        program = application_by_name("jacobi", SCALE).structure
        model = build_model(cluster, program)
        anchors = {
            "blk": block(cluster, program.n_rows),
            "bal": balanced(cluster, program.n_rows),
        }
        custom = GenBlock(
            [program.n_rows - 7 * (len(cluster.nodes) - 1)]
            + [7] * (len(cluster.nodes) - 1)
        )

        async def main():
            async with _serve_fixture(coordinator) as client:
                tasks = []
                for _ in range(8):  # identical queries from 8 "clients"
                    tasks.append(
                        client.predict(
                            "jacobi", config="DC", scale=SCALE, dist="blk"
                        )
                    )
                for _ in range(4):
                    tasks.append(
                        client.predict(
                            "jacobi", config="DC", scale=SCALE, dist="bal"
                        )
                    )
                tasks.append(
                    client.predict(
                        "jacobi", config="DC", scale=SCALE,
                        counts=list(custom.counts),
                    )
                )
                return await asyncio.gather(*tasks)

        results = run(main())
        # Identical queries: identical answers.
        assert len({r["predicted_seconds"] for r in results[:8]}) == 1
        # Every served answer matches its one-shot library counterpart.
        for result, dist in [
            (results[0], anchors["blk"]),
            (results[8], anchors["bal"]),
            (results[12], custom),
        ]:
            one_shot = model.predict(dist)
            assert result["counts"] == list(dist.counts)
            rel = abs(result["predicted_seconds"] - one_shot) / one_shot
            assert rel <= 1e-12
        # Coalescing really happened, and fewer kernel evaluations ran
        # than requests arrived.
        assert rec.counters["serve/coalesced"] >= 10
        assert rec.counters["serve/kernel_evaluations"] == 3
        assert rec.counters["serve/requests"] == 13

    def test_serial_batch_mode_is_bit_identical(self):
        coordinator = ServeCoordinator(
            window_seconds=0.02, batch_mode="serial"
        )
        cluster = config_dc()
        program = application_by_name("jacobi", SCALE).structure
        model = build_model(cluster, program)
        dists = [
            block(cluster, program.n_rows),
            balanced(cluster, program.n_rows),
        ]

        async def main():
            async with _serve_fixture(coordinator) as client:
                return await asyncio.gather(
                    *[
                        client.predict(
                            "jacobi", config="DC", scale=SCALE,
                            counts=list(d.counts),
                        )
                        for d in dists
                    ]
                )

        results = run(main())
        for result, dist in zip(results, dists):
            assert result["predicted_seconds"] == model.predict(dist)

    def test_eval_cache_stays_warm_across_rounds(self):
        rec = Recorder()
        coordinator = ServeCoordinator(window_seconds=0.005, telemetry=rec)

        async def main():
            async with _serve_fixture(coordinator) as client:
                first = await client.predict(
                    "jacobi", config="DC", scale=SCALE, dist="blk"
                )
                second = await client.predict(
                    "jacobi", config="DC", scale=SCALE, dist="blk"
                )
                return first, second

        first, second = run(main())
        assert first == second
        # Two separate rounds: the second never reached the kernel.
        assert rec.counters["serve/batches"] == 2
        assert rec.counters["serve/kernel_evaluations"] == 1
        assert rec.counters["serve/eval_cache_hits"] == 1

    def test_search_coalesces_and_matches_one_shot(self):
        from repro.search import GeneralizedBinarySearch

        rec = Recorder()
        coordinator = ServeCoordinator(window_seconds=0.005, telemetry=rec)
        cluster = config_dc()
        program = application_by_name("jacobi", SCALE).structure
        model = build_model(cluster, program)
        expected = GeneralizedBinarySearch(model, cluster).search(budget=25)

        async def main():
            async with _serve_fixture(coordinator) as client:
                identical = [
                    client.search(
                        "jacobi", config="DC", scale=SCALE,
                        algorithm="gbs", budget=25,
                    )
                    for _ in range(4)
                ]
                results = await asyncio.gather(*identical)
                repeat = await client.search(
                    "jacobi", config="DC", scale=SCALE,
                    algorithm="gbs", budget=25,
                )
                return results, repeat

        results, repeat = run(main())
        for result in results + [repeat]:
            assert result["counts"] == list(expected.best.counts)
            assert result["predicted_seconds"] == expected.predicted_seconds
            assert result["evaluations"] == expected.evaluations
        # 4 concurrent identical searches ran the searcher once; the
        # later repeat hit the result cache.
        assert rec.counters["search/runs"] == 1
        assert rec.counters["serve/search_coalesced"] == 3
        assert rec.counters["serve/search_result_hits"] == 1

    def test_verify_matches_emulator_and_fills_disk_tier(self, tmp_path):
        from repro.sim import emulate

        path = tmp_path / "serve-runs.json"
        rec = Recorder()
        coordinator = ServeCoordinator(
            window_seconds=0.005, run_cache=RunCache(path=path),
            telemetry=rec,
        )
        cluster = config_dc()
        program = application_by_name("jacobi", SCALE).structure
        dist = block(cluster, program.n_rows)

        async def main():
            async with _serve_fixture(coordinator) as client:
                first = await client.verify(
                    "jacobi", config="DC", scale=SCALE, dist="blk"
                )
                second = await client.verify(
                    "jacobi", config="DC", scale=SCALE, dist="blk"
                )
                return first, second

        first, second = run(main())
        actual = emulate(cluster, program, dist).total_seconds
        assert first["actual_seconds"] == actual
        assert first == second
        # The repeat was served by the run cache, not re-emulated.
        assert rec.counters["serve/verify_emulated"] == 1
        assert rec.counters["sim/run_cache/misses"] == 1
        assert rec.counters["sim/run_cache/hits"] == 1
        # aclose() saved the disk tier; a fresh process-alike sees it.
        assert path.exists()
        (key,) = run_cache_keys(cluster, program, [dist], dynamics=False)
        assert RunCache(path=path).get(key).total_seconds == actual

    def test_verify_dynamics_bypasses_sweep_tier(self, tmp_path):
        """A dynamic-scenario verify matches the library emulation, never
        reads or pollutes the static entry of the run cache (its key
        folds in the scenario), and rejects dynamics on other ops."""
        from repro.cluster import dynamics_scenario
        from repro.sim import emulate

        store = RunCache(path=tmp_path / "serve-runs.json")
        rec = Recorder()
        coordinator = ServeCoordinator(
            window_seconds=0.01, run_cache=store, telemetry=rec
        )
        cluster = config_dc()
        program = application_by_name("jacobi", SCALE).structure
        dist = block(cluster, program.n_rows)

        async def main():
            async with _serve_fixture(coordinator) as client:
                static, drifted = await asyncio.gather(
                    client.verify(
                        "jacobi", config="DC", scale=SCALE, dist="blk"
                    ),
                    client.verify(
                        "jacobi", config="DC", scale=SCALE, dist="blk",
                        dynamics="drift",
                    ),
                )
                bad = await asyncio.gather(
                    client.predict(
                        "jacobi", config="DC", scale=SCALE, dist="blk",
                        dynamics="drift",
                    ),
                    return_exceptions=True,
                )
                return static, drifted, bad[0]

        static, drifted, bad = run(main())
        spec = dynamics_scenario("drift", cluster.n_nodes)
        assert static["actual_seconds"] == emulate(
            cluster, program, dist
        ).total_seconds
        assert drifted["actual_seconds"] == emulate(
            cluster, program, dist, dynamics=spec
        ).total_seconds
        assert drifted["dynamics"] == "drift"
        assert drifted["actual_seconds"] != static["actual_seconds"]
        assert isinstance(bad, ServeError)
        assert rec.counters["serve/verify_dynamic"] == 1
        # Static and dynamic runs sit under their own keys.
        (static_key,) = run_cache_keys(cluster, program, [dist])
        (drift_key,) = run_cache_keys(cluster, program, [dist], dynamics=spec)
        assert len(store) == 2
        assert store.get(static_key).total_seconds == static["actual_seconds"]
        assert store.get(drift_key).total_seconds == drifted["actual_seconds"]

    def test_bad_query_errors_do_not_poison_the_round(self):
        coordinator = ServeCoordinator(window_seconds=0.02)

        async def main():
            async with _serve_fixture(coordinator) as client:
                good = client.predict(
                    "jacobi", config="DC", scale=SCALE, dist="blk"
                )
                bad = client.request(
                    {"op": "predict", "app": "nope", "config": "DC"}
                )
                return await asyncio.gather(
                    good, bad, return_exceptions=True
                )

        good, bad = run(main())
        assert isinstance(good, dict) and "predicted_seconds" in good
        assert isinstance(bad, ServeError)

    def test_invalid_distribution_errors_only_its_own_query(self):
        coordinator = ServeCoordinator(window_seconds=0.02)

        async def main():
            async with _serve_fixture(coordinator) as client:
                return await asyncio.gather(
                    client.predict(
                        "jacobi", config="DC", scale=SCALE, dist="blk"
                    ),
                    client.predict(  # counts don't cover n_rows
                        "jacobi", config="DC", scale=SCALE,
                        counts=[1] * 8,
                    ),
                    return_exceptions=True,
                )

        good, bad = run(main())
        assert isinstance(bad, ServeError)
        assert isinstance(good, dict) and good["predicted_seconds"] > 0

    def test_plan_kernel_round_compiles_once(self):
        """A coalesced round against a plan-kernel server compiles one
        evaluation plan per resident (app, config, scale, kernel) model
        — never one per request — and answers match the library path."""
        from repro.core.plan import plan_cache_stats, reset_plan_cache

        reset_plan_cache()
        rec = Recorder()
        coordinator = ServeCoordinator(
            kernel="plan", window_seconds=0.02, telemetry=rec
        )
        cluster = config_dc()
        program = application_by_name("jacobi", SCALE).structure
        model = build_model(cluster, program, kernel="plan")
        compiles_baseline = plan_cache_stats()["compiles"]

        async def main():
            async with _serve_fixture(coordinator) as client:
                tasks = [
                    client.predict(
                        "jacobi", config="DC", scale=SCALE, dist="blk",
                        kernel="plan",
                    )
                    for _ in range(6)
                ]
                tasks += [
                    client.predict(
                        "jacobi", config="DC", scale=SCALE, dist="bal",
                        kernel="plan",
                    )
                    for _ in range(3)
                ]
                results = await asyncio.gather(*tasks)
                return results, await client.stats()

        results, stats = run(main())
        # One resident model, hence one plan compile for the whole round
        # (model construction is lazy: the library model above has not
        # compiled anything yet).
        assert plan_cache_stats()["compiles"] == compiles_baseline + 1
        assert stats["plan_cache"]["size"] >= 1
        # The library model shares the same fingerprint, so its predict
        # hits the very plan the server compiled.
        one_shot = model.predict(block(cluster, program.n_rows))
        assert plan_cache_stats()["compiles"] == compiles_baseline + 1
        rel = abs(results[0]["predicted_seconds"] - one_shot) / one_shot
        assert rel <= 1e-12

    def test_model_eviction_releases_compiled_plan(self):
        """Evicting a resident model drops its plan from the shared plan
        LRU — dead plans must not crowd out live ones."""
        from repro.core.plan import plan_cache_stats, reset_plan_cache

        reset_plan_cache()
        coordinator = ServeCoordinator(
            kernel="plan", window_seconds=0.005, model_cache_entries=1
        )

        async def main():
            async with _serve_fixture(coordinator) as client:
                await client.predict(
                    "jacobi", config="DC", scale=SCALE, dist="blk",
                )
                first = plan_cache_stats()["size"]
                await client.predict(  # evicts the jacobi model
                    "cg", config="DC", scale=SCALE, dist="blk",
                )
                return first, plan_cache_stats()["size"]

        first, second = run(main())
        assert first == 1
        assert second == 1  # cg's plan resident, jacobi's released

    def test_stats_snapshot_reports_residency(self):
        coordinator = ServeCoordinator(window_seconds=0.005)

        async def main():
            async with _serve_fixture(coordinator) as client:
                await client.predict(
                    "jacobi", config="DC", scale=SCALE, dist="blk"
                )
                return await client.stats()

        stats = run(main())
        assert stats["models_resident"] == 1
        (model_stats,) = stats["models"].values()
        assert model_stats["eval_cache_entries"] == 1


# ---------------------------------------------------------------------------
# two server processes sharing the on-disk run cache


class TestFleetSharedSweepCache:
    def test_two_processes_saving_interleaved(self, tmp_path):
        path = tmp_path / "shared.json"
        script = (
            "import sys\n"
            "from repro.parallel import RunCache\n"
            "from repro.distribution import GenBlock\n"
            "from repro.sim import RunResult\n"
            "tag, value = sys.argv[1], float(sys.argv[2])\n"
            f"cache = RunCache(path={str(path)!r})\n"
            "run = RunResult(value, [value] * 2, [[value]] * 2,\n"
            "                GenBlock([5, 3]), 1)\n"
            "cache.put(tag, run)\n"
            "input()  # hold: both processes have loaded before either saves\n"
            "cache.save()\n"
            "print('saved')\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, tag, value],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                env=env,
            )
            for tag, value in (("a", "1.0"), ("b", "2.0"))
        ]
        for proc in procs:  # release both: saves interleave
            proc.stdin.write("\n")
            proc.stdin.flush()
        for proc in procs:
            out, _ = proc.communicate(timeout=60)
            assert proc.returncode == 0, out
            assert "saved" in out
        merged = RunCache(path=path)
        assert merged.get("a").total_seconds == 1.0
        assert merged.get("b").total_seconds == 2.0


# ---------------------------------------------------------------------------
# CLI: repro serve / repro query over a unix socket


class TestServeCli:
    def test_serve_and_query_subprocess(self, tmp_path):
        from repro.serve import ServeClient

        sock = str(tmp_path / "advisor.sock")
        cache_path = tmp_path / "advisor-runs.json"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--socket", sock, "--window-ms", "1",
                "--cache", str(cache_path),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            deadline = time.monotonic() + 30
            while not os.path.exists(sock):
                assert server.poll() is None, server.stdout.read()
                assert time.monotonic() < deadline, "server never bound"
                time.sleep(0.05)
            with ServeClient(socket_path=sock) as client:
                assert client.ping()["pong"] is True
                result = client.predict(
                    "jacobi", config="DC", scale=SCALE, dist="blk"
                )
                assert result["predicted_seconds"] > 0
                verified = client.verify(
                    "jacobi", config="DC", scale=SCALE, dist="blk"
                )
                assert verified["actual_seconds"] > 0
                # Regression: the serve cache flag used to be dropped on
                # the floor, so the disk tier silently never existed.
                assert client.stats()["run_cache"]["size"] == 1
                client.shutdown()
            server.wait(timeout=30)
            assert server.returncode == 0
            # The verified run was persisted at shutdown.
            assert len(RunCache(path=cache_path)) == 1
        finally:
            if server.poll() is None:  # pragma: no cover - cleanup path
                server.send_signal(signal.SIGKILL)
                server.wait()

    def test_parser_accepts_serve_and_query(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--socket", "/tmp/x.sock", "--window-ms", "5",
             "--batch-mode", "serial", "--max-requests", "3"]
        )
        assert args.command == "serve"
        assert args.batch_mode == "serial"
        args = parser.parse_args(
            ["query", "predict", "jacobi", "--counts", "3,4,5",
             "--port", "7000"]
        )
        assert args.command == "query" and args.op == "predict"
