"""MetadataService: (store, key) -> owner + standbys, stamped with epochs."""

import pytest

from repro.streams.runtime.task import TaskId
from repro.util import partition_for

from tests.iq.harness import STORE, make_iq_app, produce_counts


@pytest.fixture
def running_app():
    cluster, app = make_iq_app()
    produce_counts(cluster)
    app.run_until_idle(max_steps=50_000)
    yield cluster, app
    app.close()


class TestMetadata:
    def test_owner_hosts_the_active_task(self, running_app):
        _, app = running_app
        service = app.metadata_service
        sub_id = app.sub_id_for_store(STORE)
        for partition in range(app.store_partition_count(STORE)):
            meta = service.partition_metadata(STORE, partition)
            task_id = TaskId(sub_id, partition)
            assert meta.owner is not None
            assert task_id in meta.owner.tasks

    def test_standbys_listed_and_disjoint_from_owner(self, running_app):
        _, app = running_app
        service = app.metadata_service
        sub_id = app.sub_id_for_store(STORE)
        for partition in range(app.store_partition_count(STORE)):
            meta = service.partition_metadata(STORE, partition)
            assert len(meta.standbys) == 1   # num_standby_replicas=1
            for standby in meta.standbys:
                assert standby is not meta.owner
                assert TaskId(sub_id, partition) in standby.standby_tasks

    def test_candidates_owner_first_standbys_optional(self, running_app):
        _, app = running_app
        meta = app.metadata_service.partition_metadata(STORE, 0)
        candidates = meta.candidates()
        assert candidates[0] is meta.owner
        assert candidates[1:] == meta.standbys
        # Strong reads are owner-only.
        assert meta.candidates(allow_standbys=False) == [meta.owner]

    def test_key_routing_matches_the_default_partitioner(self, running_app):
        _, app = running_app
        service = app.metadata_service
        count = app.store_partition_count(STORE)
        for key in ("k-0", "k-1", "k-2", "k-3", "k-4"):
            assert service.partition_for_key(STORE, key) == partition_for(
                key, count
            )

    def test_all_partitions_covers_the_store(self, running_app):
        _, app = running_app
        metas = app.metadata_service.all_partitions(STORE)
        assert [m.partition for m in metas] == list(
            range(app.store_partition_count(STORE))
        )

    def test_epoch_is_the_group_generation_and_bumps_on_rebalance(
        self, running_app
    ):
        cluster, app = running_app
        service = app.metadata_service
        before = service.epoch()
        assert before == cluster.group_coordinator.generation(
            app.config.application_id
        )
        assert service.partition_metadata(STORE, 0).epoch == before
        app.add_instance()
        app.run_until_idle(max_steps=50_000)
        assert service.epoch() > before

    def test_unknown_store_rejected(self, running_app):
        _, app = running_app
        with pytest.raises(KeyError):
            app.metadata_service.partition_metadata("ghost", 0)
