"""UPDATE and DELETE reach their rows through the planned access path.

A primary-key equality examines one row and reads one root-to-leaf path, a
key range examines only the range, and any other WHERE scans the table, as
for SELECT. ``Rows_examined`` is the volume the slow log and performance
schema record, so these tests pin it exactly.
"""

import pytest

from repro.errors import PlanError, WriteConflictError
from repro.server import MySQLServer, ServerConfig

STORAGE_MODES = ("memory", "paged")


def make_server(storage, rows=20, **config):
    server = MySQLServer(ServerConfig(storage=storage, **config))
    session = server.connect("app")
    server.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, v INT, s TEXT)")
    for lo in range(0, rows, 200):
        values = ", ".join(
            f"({k}, {k % 7}, 'row{k}')" for k in range(lo, min(lo + 200, rows))
        )
        server.execute(session, f"INSERT INTO t (id, v, s) VALUES {values}")
    return server, session


def v_of(server, session, key):
    return server.execute(session, f"SELECT v FROM t WHERE id = {key}").rows


@pytest.fixture(params=STORAGE_MODES)
def storage(request):
    return request.param


class TestRowsExamined:
    def test_update_by_pk_examines_one_row(self, storage):
        server, session = make_server(storage)
        result = server.execute(session, "UPDATE t SET v = 99 WHERE id = 5")
        assert (result.rows_examined, result.rows_affected) == (1, 1)
        assert v_of(server, session, 5) == ((99,),)

    def test_delete_by_pk_examines_one_row(self, storage):
        server, session = make_server(storage)
        result = server.execute(session, "DELETE FROM t WHERE id = 5")
        assert (result.rows_examined, result.rows_affected) == (1, 1)
        assert v_of(server, session, 5) == ()

    @pytest.mark.parametrize(
        "sql", ["UPDATE t SET v = 1 WHERE id = 500", "DELETE FROM t WHERE id = 500"]
    )
    def test_absent_key_examines_nothing(self, storage, sql):
        server, session = make_server(storage)
        result = server.execute(session, sql)
        assert (result.rows_examined, result.rows_affected) == (0, 0)

    def test_pk_equality_with_failing_residual_examines_one(self, storage):
        server, session = make_server(storage)
        result = server.execute(session, "UPDATE t SET v = 1 WHERE id = 5 AND v = 6")
        assert (result.rows_examined, result.rows_affected) == (1, 0)

    @pytest.mark.parametrize(
        "sql",
        [
            "UPDATE t SET v = 42 WHERE id BETWEEN 3 AND 9",
            "DELETE FROM t WHERE id BETWEEN 3 AND 9",
        ],
    )
    def test_pk_between_examines_the_range(self, storage, sql):
        server, session = make_server(storage)
        result = server.execute(session, sql)
        assert (result.rows_examined, result.rows_affected) == (7, 7)

    def test_pk_inequality_examines_the_half_range(self, storage):
        server, session = make_server(storage)
        result = server.execute(session, "DELETE FROM t WHERE id >= 15")
        assert (result.rows_examined, result.rows_affected) == (5, 5)

    @pytest.mark.parametrize(
        "sql", ["UPDATE t SET s = 'x' WHERE v = 3", "DELETE FROM t WHERE v = 3"]
    )
    def test_non_key_where_scans_the_table(self, storage, sql):
        server, session = make_server(storage)
        result = server.execute(session, sql)
        assert result.rows_examined == 20
        assert result.rows_affected == sum(1 for k in range(20) if k % 7 == 3)

    def test_slow_log_and_digest_record_planned_volume(self, storage):
        server, session = make_server(storage, long_query_time=0.0)
        server.execute(session, "UPDATE t SET v = 1 WHERE id = 4")
        server.execute(session, "UPDATE t SET v = 1 WHERE v = 2")
        logged = [e.rows_examined for e in server.slow_log.entries][-2:]
        assert logged == [1, 20]


class TestAccessPath:
    def test_pk_update_misses_at_most_tree_height(self):
        # 3,000 rows span ~5x the 16-frame pool; a scan would miss ~80 times.
        server, session = make_server("paged", rows=3000, buffer_pool_capacity=16)
        height = server.engine.btree("t").clustered.height
        assert height >= 2
        server.execute(session, "SELECT count(*) FROM t WHERE v = 0")  # cold-ish
        before = server.engine.buffer_pool.stats["misses"]
        result = server.execute(session, "UPDATE t SET v = 5 WHERE id = 1234")
        assert result.rows_affected == 1
        assert server.engine.buffer_pool.stats["misses"] - before <= height

    def test_pk_write_counts_in_adaptive_hash(self, storage):
        server, session = make_server(storage, ahi_threshold=3)
        for _ in range(3):
            server.execute(session, "UPDATE t SET v = 1 WHERE id = 8")
        assert server.adaptive_hash.access_count("t", 8) == 3
        assert server.adaptive_hash.is_promoted("t", 8)
        server.execute(session, "DELETE FROM t WHERE v = 2")  # scans: no lookup
        assert server.adaptive_hash.counters() == {("t", 8): 3}

    def test_sharded_pk_write_touches_one_shard(self, storage):
        server, session = make_server(storage, num_shards=4)
        server.execute(session, "BEGIN")
        server.execute(session, "UPDATE t SET v = 3 WHERE id = 11")
        branches = session.active_txn.branches
        assert set(branches) == {server.engine.shard_of(11)}
        server.execute(session, "COMMIT")
        assert v_of(server, session, 11) == ((3,),)

    def test_sharded_autocommit_pk_write_logs_on_one_shard(self, storage):
        server, session = make_server(storage, num_shards=4)
        shards = server.engine.shards

        def frames():
            return [shard.wal.stats["appended_frames"] for shard in shards]

        before = frames()
        server.execute(session, "DELETE FROM t WHERE id = 11")
        # A shard the statement touched logs at least BEGIN and COMMIT.
        moved = [i for i, (b, a) in enumerate(zip(before, frames())) if a != b]
        assert moved == [server.engine.shard_of(11)]


class TestTransactions:
    def test_pk_update_of_concurrently_deleted_row_conflicts(self, storage):
        server, deleter = make_server(storage)
        writer = server.connect("other")
        server.execute(deleter, "BEGIN")
        server.execute(deleter, "DELETE FROM t WHERE id = 6")
        # The writer's snapshot still holds row 6, so it reaches the row
        # and loses first-writer-wins to the open delete.
        with pytest.raises(WriteConflictError):
            server.execute(writer, "UPDATE t SET v = 1 WHERE id = 6")
        assert server.engine.mvcc.active_txn_ids == (deleter.active_txn.txn_id,)
        server.execute(deleter, "ROLLBACK")
        assert v_of(server, writer, 6) == ((6,),)

    def test_pk_update_of_own_insert(self, storage):
        server, session = make_server(storage)
        server.execute(session, "BEGIN")
        server.execute(session, "INSERT INTO t (id, v, s) VALUES (700, 1, 'new')")
        result = server.execute(session, "UPDATE t SET v = 2 WHERE id = 700")
        assert (result.rows_examined, result.rows_affected) == (1, 1)
        server.execute(session, "COMMIT")
        assert v_of(server, session, 700) == ((2,),)

    def test_pk_delete_of_own_insert(self, storage):
        server, session = make_server(storage)
        server.execute(session, "BEGIN")
        server.execute(session, "INSERT INTO t (id, v, s) VALUES (700, 1, 'new')")
        result = server.execute(session, "DELETE FROM t WHERE id = 700")
        assert (result.rows_examined, result.rows_affected) == (1, 1)
        server.execute(session, "COMMIT")
        assert v_of(server, session, 700) == ()


class TestPlanErrors:
    """The one intended behaviour change: a write's WHERE is planned like a
    SELECT's, so a non-integer BETWEEN on the primary key is a PlanError
    (it used to scan and match nothing)."""

    @pytest.mark.parametrize(
        "sql",
        [
            "UPDATE t SET v = 1 WHERE id BETWEEN 'a' AND 'z'",
            "DELETE FROM t WHERE id BETWEEN 1 AND 'z'",
        ],
    )
    def test_non_integer_pk_between_raises_and_rolls_back(self, storage, sql):
        server, session = make_server(storage)
        with pytest.raises(PlanError):
            server.execute(session, "SELECT * FROM t WHERE id BETWEEN 'a' AND 'z'")
        with pytest.raises(PlanError):
            server.execute(session, sql)
        assert server.engine.mvcc.active_txn_ids == ()
        assert session.active_txn is None
        assert server.execute(session, "SELECT count(*) FROM t").rows == ((20,),)

    def test_error_inside_explicit_transaction_aborts_it(self, storage):
        server, session = make_server(storage)
        server.execute(session, "BEGIN")
        server.execute(session, "UPDATE t SET v = 50 WHERE id = 1")
        with pytest.raises(PlanError):
            server.execute(session, "DELETE FROM t WHERE id BETWEEN 'a' AND 'b'")
        assert session.active_txn is None
        assert v_of(server, session, 1) == ((1,),)
