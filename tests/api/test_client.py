"""ResolutionClient: one facade, four execution modes, one engine lease."""

import json

import pytest

from repro.api import (
    MemoryResultStore,
    ResolutionClient,
    RunConfig,
)
from repro.core import ReproError, Specification, is_null
from repro.datasets import PersonConfig, generate_person_dataset
from repro.pipeline import CollectSink, MapStage
from repro.engine import ResolutionEngine
from repro.resolution import ConflictResolver, ResolverOptions, SuggestOptions
from repro.serving import EngineHost, SpecificationBuilder, decode_response

from tests.conftest import EDITH_ROWS, GEORGE_ROWS


OPTIONS = ResolverOptions(max_rounds=0, fallback="none")


@pytest.fixture(scope="module")
def person_dataset():
    return generate_person_dataset(PersonConfig(num_entities=6, seed=9))


@pytest.fixture(scope="module")
def person_specs(person_dataset):
    return [spec for _entity, spec in person_dataset.specifications()]


@pytest.fixture(scope="module")
def reference_results(person_specs):
    """Ground truth: the bare resolver, entity by entity."""
    resolver = ConflictResolver(OPTIONS)
    return [resolver.resolve(spec) for spec in person_specs]


class TestResolveModes:
    def test_resolve_matches_bare_resolver(self, person_specs, reference_results):
        with ResolutionClient(RunConfig(options=OPTIONS)) as client:
            result = client.resolve(person_specs[0])
        assert result.resolved_tuple == reference_results[0].resolved_tuple
        assert result.valid == reference_results[0].valid

    def test_resolve_stream_is_ordered_and_equivalent(self, person_specs, reference_results):
        with ResolutionClient(RunConfig(options=OPTIONS)) as client:
            streamed = list(client.resolve_stream(person_specs))
        assert [r.name for r in streamed] == [s.name for s in person_specs]
        assert [r.resolved_tuple for r in streamed] == [
            r.resolved_tuple for r in reference_results
        ]

    def test_resolve_stream_parallel_equivalent(self, person_specs, reference_results):
        config = RunConfig(options=OPTIONS, workers=2, chunk_size=2)
        with ResolutionClient(config) as client:
            streamed = list(client.resolve_stream(person_specs))
        assert [r.resolved_tuple for r in streamed] == [
            r.resolved_tuple for r in reference_results
        ]

    def test_pick_on_an_entity_without_tuples(self, person_dataset):
        spec = Specification.from_rows(
            person_dataset.schema, [], person_dataset.currency_constraints, name="empty"
        )
        config = RunConfig(options=ResolverOptions(max_rounds=0, fallback="pick"))
        with ResolutionClient(config) as client:
            result = client.resolve(spec)
        assert result.valid and not result.failure
        assert all(is_null(value) for value in result.resolved_tuple.values())

    def test_accepts_key_spec_pairs_and_rejects_junk(self, person_specs):
        with ResolutionClient(RunConfig(options=OPTIONS)) as client:
            result = client.resolve(("custom-key", person_specs[0]))
            assert result.name == person_specs[0].name
            with pytest.raises(ReproError, match="Specification"):
                client.resolve("not a spec")

    def test_pipeline_mode_composes_pre_stages(self, person_specs, reference_results):
        collect = CollectSink()
        with ResolutionClient(RunConfig(options=OPTIONS)) as client:
            report = client.pipeline(
                person_specs,
                pre_stages=[MapStage(lambda spec: (spec.name, spec))],
                sinks=[collect],
            )
        assert report.items == len(person_specs)
        assert [key for key, _result, _s in collect.items] == [s.name for s in person_specs]
        assert [r.resolved_tuple for _k, r, _s in collect.items] == [
            r.resolved_tuple for r in reference_results
        ]


class TestEngineLeasing:
    def test_all_batch_modes_share_one_hosted_engine(self, person_dataset, person_specs):
        host = EngineHost()
        config = RunConfig(options=OPTIONS)
        with host:
            with ResolutionClient(config, host=host) as client:
                client.resolve(person_specs[0])
                list(client.resolve_stream(person_specs[:2]))
                client.run_experiment(person_dataset, limit=2)
                assert host.statistics()["engines"] == 1
            # A second client generation finds the engine warm.
            with ResolutionClient(config, host=host) as client:
                client.resolve(person_specs[0])
                assert client.stats().lease["reused"] is True
            stats = host.statistics()
            assert stats["engines"] == 1
            assert stats["lease_hits"] >= 1

    def test_lease_info_in_client_stats(self, person_specs):
        with ResolutionClient(RunConfig(options=OPTIONS)) as client:
            assert client.stats().lease == {}  # nothing leased yet
            client.resolve(person_specs[0])
            lease = client.stats().lease
            assert set(lease) == {"key", "reused", "build_seconds", "wait_seconds"}
            assert lease["reused"] is False
            assert lease["key"] == client.config.cache_key()

    def test_closed_client_refuses_work(self, person_specs):
        client = ResolutionClient(RunConfig(options=OPTIONS))
        client.close()
        with pytest.raises(ReproError, match="closed"):
            client.resolve(person_specs[0])
        client.close()  # idempotent


class TestStoreAcrossModes:
    def test_stream_interleaves_stored_and_fresh_in_order(self, person_specs):
        """Pre-storing a middle entity keeps output order and skips its solve."""
        store = MemoryResultStore()
        config = RunConfig(options=OPTIONS, store=store)
        resolver = ConflictResolver(OPTIONS)
        middle = person_specs[2]
        store.put(middle.name, config.spec_hash(middle), resolver.resolve(middle))
        with ResolutionClient(config) as client:
            streamed = list(client.resolve_stream(person_specs))
            assert [r.name for r in streamed] == [s.name for s in person_specs]
            assert client.stats().store_hits == 1
            assert client.engine.statistics.entities == len(person_specs) - 1
            # Every fresh resolution was upserted for the next run.
            assert len(store) == len(person_specs)

    def test_resolve_skips_engine_on_hit(self, person_specs):
        config = RunConfig(options=OPTIONS, store=MemoryResultStore())
        with ResolutionClient(config) as client:
            first = client.resolve(person_specs[0])
            again = client.resolve(person_specs[0])
            assert again == first
            assert client.stats().store_hits == 1
            assert client.engine.statistics.entities == 1

    def test_results_queries_past_runs(self, person_specs):
        config = RunConfig(options=OPTIONS, store=MemoryResultStore())
        with ResolutionClient(config) as client:
            list(client.resolve_stream(person_specs[:3]))
            rows = client.results()
            assert [row.entity_key for row in rows] == sorted(
                s.name for s in person_specs[:3]
            )
            one = client.results(person_specs[0].name)
            assert len(one) == 1 and one[0].entity_key == person_specs[0].name

    def test_results_without_store_is_an_error(self, person_specs):
        with ResolutionClient(RunConfig(options=OPTIONS)) as client:
            with pytest.raises(ReproError, match="result store"):
                client.results()


class TestServeMode:
    SCHEMA = ["name", "status", "job", "kids", "city", "AC", "zip", "county"]

    def _builder(self, vj_currency_constraints, vj_cfds):
        from repro.core import RelationSchema

        return SpecificationBuilder(
            RelationSchema("serving", self.SCHEMA), vj_currency_constraints, vj_cfds
        )

    def _requests(self):
        lines = []
        for name, rows in (("Edith Shain", EDITH_ROWS), ("George Mendonca", GEORGE_ROWS)):
            payload = {
                "entity": name,
                "rows": [
                    {k: v for k, v in row.items() if v is not None} for row in rows
                ],
            }
            lines.append(json.dumps(payload) + "\n")
        return lines

    def test_serve_stdio_through_client(self, vj_currency_constraints, vj_cfds):
        builder = self._builder(vj_currency_constraints, vj_cfds)
        written = []
        with ResolutionClient(RunConfig(options=OPTIONS)) as client:
            report = client.serve(builder, lines=self._requests(), write=written.append)
        assert report.responses == 2
        responses = [decode_response(line) for line in written]
        assert [r.entity for r in responses] == ["Edith Shain", "George Mendonca"]
        assert all(not r.error for r in responses)
        assert report.stats.completed == 2

    def test_serve_leases_from_client_host(self, vj_currency_constraints, vj_cfds):
        builder = self._builder(vj_currency_constraints, vj_cfds)
        host = EngineHost()
        with host:
            with ResolutionClient(RunConfig(options=OPTIONS), host=host) as client:
                client.serve(builder, lines=self._requests(), write=lambda line: None)
                first = host.statistics()
                assert first["engines"] == 1
                # Serving again reuses the warm engine (a lease hit).
                report = client.serve(
                    builder, lines=self._requests(), write=lambda line: None
                )
                assert report.stats.engine_reused is True
                assert report.stats.lease["reused"] is True
                assert host.statistics()["engines"] == 1

    def test_serve_answers_stored_entities_without_the_engine(
        self, vj_currency_constraints, vj_cfds
    ):
        builder = self._builder(vj_currency_constraints, vj_cfds)
        config = RunConfig(options=OPTIONS, store=MemoryResultStore())
        with ResolutionClient(config) as client:
            first = client.serve(
                builder, lines=self._requests(), write=lambda line: None
            )
            assert first.stats.store_hits == 0
            second = client.serve(
                builder, lines=self._requests(), write=lambda line: None
            )
            assert second.stats.store_hits == 2
            # The engine accumulated only the first round's entities.
            assert second.stats.engine["entities"] == 2.0

    def test_serve_responses_identical_with_and_without_store(
        self, vj_currency_constraints, vj_cfds
    ):
        builder = self._builder(vj_currency_constraints, vj_cfds)
        plain, stored = [], []
        with ResolutionClient(RunConfig(options=OPTIONS)) as client:
            client.serve(builder, lines=self._requests(), write=plain.append)
        config = RunConfig(options=OPTIONS, store=MemoryResultStore())
        with ResolutionClient(config) as client:
            client.serve(builder, lines=self._requests(), write=stored.append)
            rerun = []
            client.serve(builder, lines=self._requests(), write=rerun.append)
        assert stored == plain
        assert rerun == plain  # store-served bytes match engine-served bytes

    def test_serve_tcp_through_client(self, vj_currency_constraints, vj_cfds):
        """The TCP branch (the one `repro serve --tcp` uses) answers a client."""
        import asyncio

        builder = self._builder(vj_currency_constraints, vj_cfds)
        request_lines = self._requests()

        async def run():
            client = ResolutionClient(RunConfig(options=OPTIONS))
            ready = asyncio.Event()
            bound = {}

            def on_ready(address):
                bound["address"] = address
                ready.set()

            serve_task = asyncio.ensure_future(
                client._serve_async(
                    builder,
                    lines=None,
                    write=None,
                    tcp=("127.0.0.1", 0),
                    include_stats=False,
                    checkpoint=None,
                    checkpoint_every=25,
                    resume=False,
                    oracle_factory=None,
                    on_ready=on_ready,
                )
            )
            await asyncio.wait_for(ready.wait(), timeout=10)
            reader, writer = await asyncio.open_connection(*bound["address"])
            for line in request_lines:
                writer.write(line.encode("utf-8"))
            await writer.drain()
            writer.write_eof()
            responses = []
            while True:
                raw = await reader.readline()
                if not raw:
                    break
                responses.append(decode_response(raw.decode("utf-8")))
            writer.close()
            await writer.wait_closed()
            serve_task.cancel()
            try:
                await serve_task
            except asyncio.CancelledError:
                pass
            client.close()
            return responses

        responses = asyncio.run(run())
        assert [r.entity for r in responses] == ["Edith Shain", "George Mendonca"]
        assert all(not r.error for r in responses)

    def test_serve_argument_validation(self, vj_currency_constraints, vj_cfds):
        builder = self._builder(vj_currency_constraints, vj_cfds)
        with ResolutionClient(RunConfig(options=OPTIONS)) as client:
            with pytest.raises(ReproError, match="serve"):
                client.serve(builder)
            with pytest.raises(ReproError, match="lines"):
                client.serve(builder, lines=self._requests())


class TestRunConfigValidation:
    def test_invalid_values_rejected(self):
        with pytest.raises(ReproError, match="workers"):
            RunConfig(workers=0)
        with pytest.raises(ReproError, match="chunk_size"):
            RunConfig(chunk_size=0)
        with pytest.raises(ReproError, match="max_inflight"):
            RunConfig(max_inflight=0)
        with pytest.raises(ReproError, match="fallback"):
            RunConfig(options=ResolverOptions(fallback="maybe"))
        with pytest.raises(ReproError, match="options"):
            RunConfig(options="fast")

    @pytest.mark.parametrize("field", ["clique_method", "maxsat_strategy"])
    def test_suggest_option_typos_are_refused_before_any_entity(self, field):
        """A Suggest strategy typo used to fail only the entities whose suggestion reached it."""
        options = ResolverOptions(
            max_rounds=2, fallback="none", suggest=SuggestOptions(**{field: "bogus"})
        )
        for build in (RunConfig, ConflictResolver, ResolutionEngine):
            with pytest.raises(ReproError, match=f"suggest.{field} must be 'exact' or 'greedy'"):
                build(options)

    def test_cache_key_is_structural(self):
        a = RunConfig(options=ResolverOptions(max_rounds=2), workers=2)
        b = RunConfig(options=ResolverOptions(max_rounds=2), workers=2)
        c = RunConfig(options=ResolverOptions(max_rounds=3), workers=2)
        assert a.cache_key() == b.cache_key()
        assert a.cache_key() != c.cache_key()
        assert a.cache_key() != RunConfig(
            options=ResolverOptions(max_rounds=2), workers=2, scope="workload"
        ).cache_key()

    def test_config_is_frozen(self):
        config = RunConfig()
        with pytest.raises(AttributeError):
            config.workers = 4

    def test_store_does_not_change_cache_key(self):
        plain = RunConfig(options=ResolverOptions(max_rounds=1))
        stored = RunConfig(options=ResolverOptions(max_rounds=1), store=MemoryResultStore())
        assert plain.cache_key() == stored.cache_key()
