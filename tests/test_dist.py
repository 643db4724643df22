"""Tests for repro.dist: address parsing, the run-config wire codec,
the lease table, wire encoding, network chaos, the HTTP transport
(response rendering, the request parser's input limits, the client
retry loop), and end-to-end coordinator/worker exchanges over a UNIX
socket."""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import socket
import subprocess
import sys
import time

import pytest

from repro.chaos.plan import (
    ChaosPlan,
    POINT_NET_CONNECT,
    POINT_NET_RECV,
    POINT_NET_SEND,
)
from repro.config import get_profile
from repro.dist import (
    DistConfig,
    DistCoordinator,
    LeaseTable,
    NetChaos,
    NetFaultError,
    encode_cell,
    parse_connect,
)
from repro.dist.http import (
    ClientResponse,
    Response,
    SweepClient,
    _read_request,
)
from repro.dist.wire import decode_cell
from repro.errors import ConfigError, DistError, ReproError, ServiceError
from repro.experiments import ExperimentRunner, RunConfig
from repro.experiments.parse import parse_policy, parse_scenario
from repro.experiments.policies import Policy
from repro.faults.spec import FaultPlan
from repro.runstate.serialize import encode_result


def _runner() -> ExperimentRunner:
    return ExperimentRunner(
        config=get_profile("scaled"), run_config=RunConfig()
    )


# ----------------------------------------------------------------------
# parse_connect
# ----------------------------------------------------------------------


class TestParseConnect:
    def test_unix_socket_paths(self, tmp_path):
        path = str(tmp_path / "c.sock")
        assert parse_connect(path) == (path, "", 0)
        assert parse_connect("relative.sock") == ("relative.sock", "", 0)

    def test_host_port(self):
        assert parse_connect("10.0.0.5:7000") == (None, "10.0.0.5", 7000)

    def test_bare_port_is_loopback(self):
        assert parse_connect("7000") == (None, "127.0.0.1", 7000)

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_connect("")
        with pytest.raises(ConfigError):
            parse_connect("host:notaport")


# ----------------------------------------------------------------------
# DistConfig
# ----------------------------------------------------------------------


class TestDistConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            DistConfig(lease_seconds=0)
        with pytest.raises(ConfigError):
            DistConfig(max_lease_attempts=0)
        with pytest.raises(ConfigError):
            DistConfig(local_grace_seconds=-1)



# ----------------------------------------------------------------------
# RunConfig wire codec (what the coordinator ships to workers)
# ----------------------------------------------------------------------


class TestRunConfigWire:
    def test_round_trip_over_every_field(self):
        plan = FaultPlan.parse(
            "compaction:0.25,swap-out:after=3,promotion:every=4:max=2,"
            "staging:max=1",
            seed=1234,
        )
        config = RunConfig(
            retries=5,
            cell_budget=10_000,
            cell_cycles=99_000_000,
            cell_deadline_seconds=12.5,
            faults=plan,
            fault_seed=1234,
            sanitize=True,
            trace=True,
            tlb_engine="exact",
        )
        wire = json.loads(json.dumps(config.to_wire()))
        assert RunConfig.from_wire(wire) == config
        rebuilt = RunConfig.from_wire(wire).faults
        assert rebuilt == plan and rebuilt.seed == 1234
        assert [spec.trigger_label for spec in rebuilt.specs] == [
            "p=0.25", "after=3", "every=4,max=2", "p=1,max=1",
        ]
        default = RunConfig()
        assert RunConfig.from_wire(
            json.loads(json.dumps(default.to_wire()))
        ) == default

    def test_wire_keys_cover_every_field_but_parent_owned(self):
        """A field added to RunConfig later reaches workers by
        construction: only the parent-owned ones stay home."""
        names = {field.name for field in dataclasses.fields(RunConfig)}
        assert set(RunConfig().to_wire()) == names - {
            "journal", "resume", "workers",
        }

    def test_rejects_unknown_keys_and_malformed_plans(self):
        with pytest.raises(ConfigError):
            RunConfig.from_wire({"workers": 4})
        with pytest.raises(ConfigError):
            RunConfig.from_wire({"faults": {"specs": [{"site": "nope"}],
                                            "seed": 0}})

    def test_worker_rebuilds_the_coordinators_worker_run_config(self):
        from repro.dist.worker import _build_runner

        runner = ExperimentRunner(
            config=get_profile("scaled"),
            run_config=RunConfig(
                workers=4, trace=True, sanitize=True, tlb_engine="batch",
                faults="compaction:after=3", fault_seed=9, retries=1,
            ),
            pagerank_iterations=2,
        )
        settings = json.loads(json.dumps({
            "profile": runner.config.name,
            "pagerank_iterations": runner.pagerank_iterations,
            "run": runner.worker_run_config().to_wire(),
        }))
        worker = _build_runner(settings)
        assert worker.run_config == runner.worker_run_config()
        assert worker.pagerank_iterations == 2
        cell = ("bfs", "test-small", parse_policy("thp"),
                parse_scenario("fresh"))
        assert worker.cell_spec(*cell) == runner.cell_spec(*cell)


# ----------------------------------------------------------------------
# LeaseTable (fake clock throughout)
# ----------------------------------------------------------------------


def _table(specs=("a", "b"), lease_seconds=10.0, max_attempts=3,
           max_age=None):
    return LeaseTable(
        {spec: {"spec": spec} for spec in specs},
        lease_seconds=lease_seconds,
        max_attempts=max_attempts,
        max_age=max_age,
    )


class TestLeaseTable:
    def test_grants_in_sorted_spec_order(self):
        table = _table(("b", "a"))
        first = table.lease("w1", now=0.0)
        second = table.lease("w2", now=0.0)
        assert (first.spec, second.spec) == ("a", "b")
        assert table.lease("w3", now=0.0) is None

    def test_expiry_requeues_and_attempts_grow(self):
        table = _table(("a",), lease_seconds=5.0)
        lease = table.lease("w1", now=0.0)
        assert lease.attempt == 1
        assert table.expire(now=4.9) == []
        expired = table.expire(now=5.0)
        assert [entry.spec for entry in expired] == ["a"]
        again = table.lease("w2", now=6.0)
        assert again.spec == "a" and again.attempt == 2
        assert not table.exhausted("a")
        table.expire(now=100.0)
        table.lease("w3", now=100.0)
        assert table.exhausted("a")

    def test_renew_extends_deadline(self):
        table = _table(("a",), lease_seconds=5.0)
        lease = table.lease("w1", now=0.0)
        assert table.renew(lease.lease_id, now=4.0) is lease
        assert table.expire(now=5.0) == []
        assert table.expire(now=9.0) != []
        assert table.renew(lease.lease_id, now=9.5) is None

    def test_complete_is_first_write_wins(self):
        table = _table(("a", "b"))
        table.lease("w1", now=0.0)
        assert table.complete("a") is True
        assert table.complete("a") is False
        assert table.done is False  # "b" still pending
        with pytest.raises(KeyError):
            table.complete("unknown")

    def test_late_completion_after_expiry_still_lands(self):
        table = _table(("a",), lease_seconds=1.0)
        table.lease("w1", now=0.0)
        table.expire(now=2.0)
        assert table.complete("a") is True
        # the re-queued spec must not be granted again
        assert table.lease("w2", now=3.0) is None

    def test_renewal_past_max_age_is_refused_and_never_requeued(self):
        """A live worker wedged in its cell: renewal is refused once the
        cell has run for longer than ``max_age``, and when the lease
        expires the spec is left for the coordinator to settle, not
        handed out again."""
        table = _table(("a", "b"), lease_seconds=1.0, max_age=1.5)
        lease = table.lease("w1", now=0.0)
        assert lease.spec == "a" and lease.started is None
        # Graph preparation: no age clock yet, however long it takes.
        assert table.renew(lease.lease_id, now=0.9) is lease
        assert table.renew(lease.lease_id, now=1.8) is lease
        assert table.renew(lease.lease_id, now=2.0, started=True) is lease
        assert lease.started == 2.0
        assert table.renew(lease.lease_id, now=3.4, started=True) is lease
        assert not lease.overdue
        assert table.renew(lease.lease_id, now=3.6, started=True) is None
        assert lease.overdue
        assert table.renew(lease.lease_id, now=3.7, started=True) is None
        assert table.expire(now=4.3) == []
        assert table.expire(now=4.5) == [lease]
        assert "a" not in table.pending
        assert table.lease("w2", now=2.0).spec == "b"
        assert table.lease("w3", now=100.0) is None
        assert table.attempts["a"] == 1
        # The coordinator settles it as FAILED(watchdog) by spec.
        assert table.complete("a") is True
        table.complete("b")
        assert table.done

    def test_dead_worker_lease_past_max_age_is_requeued(self):
        """Age alone does not settle a cell: a lease that simply stopped
        renewing (its worker died) is re-leased as usual."""
        table = _table(("a",), lease_seconds=5.0, max_age=1.5)
        lease = table.lease("w1", now=0.0)
        assert table.renew(lease.lease_id, now=1.0, started=True) is lease
        assert table.expire(now=6.0) == [lease]
        assert not lease.overdue
        again = table.lease("w2", now=5.0)
        assert again.spec == "a" and again.attempt == 2

    def test_claim_local_and_remote_specs(self):
        table = _table(("a", "b", "c"))
        table.lease("w1", now=0.0)  # a
        assert list(table.remote_specs()) == ["a", "b", "c"]
        assert table.claim_local("a") is True
        assert table.claim_local("a") is False
        table.complete("b")
        assert list(table.remote_specs()) == ["c"]
        assert table.claim_local("b") is False


# ----------------------------------------------------------------------
# Wire encoding
# ----------------------------------------------------------------------


class TestEncodeCell:
    def test_named_policy_and_scenario_round_trip(self):
        runner = _runner()
        cell = (
            "bfs", "test-small", parse_policy("thp"),
            parse_scenario("fresh"),
        )
        task = encode_cell(runner, cell)
        assert task is not None
        assert task["policy"] == "thp"
        assert task["scenario"] == dataclasses.asdict(cell[3])
        assert task["spec"] == runner.cell_spec(*cell)
        replayed = runner.cell_spec(
            task["workload"], task["dataset"], *decode_cell(runner, task)
        )
        assert replayed == task["spec"]

    def test_parameterized_scenario_round_trip(self):
        runner = _runner()
        cell = (
            "bfs", "test-small", parse_policy("selective:0.25"),
            parse_scenario("fragmented:0.5:2"),
        )
        task = encode_cell(runner, cell)
        assert task is not None
        assert task["spec"] == runner.cell_spec(*cell)

    def test_inexpressible_cell_returns_none(self):
        """Only a hand-built ``Policy`` (no registry spec) runs locally;
        a renamed scenario is plain data and rides the wire."""
        runner = _runner()
        thp = parse_policy("thp")
        hand_built = Policy("hand-built", thp.thp, thp.plan)
        assert hand_built.spec is None
        scenario = dataclasses.replace(
            parse_scenario("fresh"), name="mystery-scenario",
        )
        assert encode_cell(
            runner, ("bfs", "test-small", hand_built, scenario)
        ) is None
        assert encode_cell(
            runner, ("bfs", "test-small", thp, scenario)
        ) is not None

    def test_stale_spec_after_replace_returns_none(self):
        runner = _runner()
        renamed = dataclasses.replace(parse_policy("thp"), name="mine")
        assert renamed.spec == "thp"
        cell = ("bfs", "test-small", renamed, parse_scenario("fresh"))
        assert encode_cell(runner, cell) is None

    def test_every_figure_and_tournament_cell_rides_the_wire(self):
        """Census: every distinct cell of every figure (table2 runs no
        cells) plus the default tournament lineup and ``advisor`` on
        test-small encodes, and its decoded policy and scenario rebuild
        its fingerprint."""
        from repro.experiments import figures
        from repro.policy.tournament import DEFAULT_POLICIES

        class Declared(Exception):
            pass

        declared: list[tuple] = []

        def record(batch):
            declared.extend(batch)
            raise Declared  # the figure's cells, without running them

        runner = _runner()
        runner.run_cells = record
        for figure_id, func in figures.FIGURES.items():
            if figure_id == "table2":
                continue
            kwargs = {"datasets": ("test-small",)}
            if figure_id == "tournament":
                kwargs["policies"] = DEFAULT_POLICIES + ("advisor",)
            with pytest.raises(Declared):
                func(runner, **kwargs)
        cells = {runner.cell_spec(*cell): cell for cell in declared}
        assert len(cells) > 100
        names = {cell[2].name for cell in cells.values()}
        assert {"thp-direct", "ingens(u=90%)", "advisor(s=100%)"} <= names
        inexpressible = []
        for spec, cell in cells.items():
            task = encode_cell(runner, cell)
            if task is None:
                inexpressible.append((cell[2].name, cell[3].name))
                continue
            task = json.loads(json.dumps(task))
            assert runner.cell_spec(
                cell[0], cell[1], *decode_cell(runner, task)
            ) == spec
        assert inexpressible == []


class _RecordingClient:
    """Stands in for the worker's ``SweepClient``: records POSTs."""

    def __init__(self):
        self.posts = []

    def request_with_retry(self, method, path, body, **_kwargs):
        self.posts.append((method, path, body))


class TestWorkerRefusesMalformedCells:
    """Scenario fields arriving at ``repro work`` are outside input: a
    bad shape is refused like a fingerprint mismatch (the coordinator
    then runs the cell locally), never a crash or a journaled run."""

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda fields: {**fields, "bogus": 1},
            lambda fields: {
                key: value for key, value in fields.items()
                if key != "name"
            },
            lambda fields: {**fields, "pressure_gb": "lots"},
            lambda fields: ["not", "a", "mapping"],
        ],
        ids=["unknown-key", "missing-name", "non-numeric-pressure",
             "not-a-mapping"],
    )
    def test_bad_scenario_fields_post_mismatch(self, tmp_path, mangle):
        from repro.dist.worker import WorkerConfig, _run_task
        from repro.runstate.journal import RunJournal

        runner = _runner()
        task = encode_cell(runner, (
            "bfs", "test-small", parse_policy("thp"),
            parse_scenario("high-pressure"),
        ))
        task.update(
            scenario=mangle(task["scenario"]), lease_id="L1",
            lease_seconds=5.0,
            settings={
                "profile": runner.config.name,
                "pagerank_iterations": runner.pagerank_iterations,
                "run": runner.worker_run_config().to_wire(),
            },
        )
        with pytest.raises(ReproError, match="scenario"):
            decode_cell(runner, task)
        client = _RecordingClient()
        config = WorkerConfig(
            connect=str(tmp_path / "c.sock"),
            journal_path=str(tmp_path / "w.jsonl"), worker_id="w-bad",
        )
        journal = RunJournal(config.journal_path, lock=True)
        try:
            _run_task(config, client, journal, {}, task, 1, lambda _: None)
        finally:
            journal.close()
        assert client.posts == [("POST", "/v1/dist/complete", {
            "worker": "w-bad", "lease_id": "L1", "spec": task["spec"],
            "mismatch": True,
        })]
        shard = tmp_path / "w.jsonl"
        assert not shard.exists() or "begin" not in shard.read_text()


# ----------------------------------------------------------------------
# Network chaos
# ----------------------------------------------------------------------


class TestNetChaos:
    def test_drop_fires_exactly_once_per_point_ordinal(self):
        chaos = NetChaos(ChaosPlan.parse("drop:net.send:2"))
        chaos.check(POINT_NET_SEND)
        with pytest.raises(NetFaultError):
            chaos.check(POINT_NET_SEND)
        chaos.check(POINT_NET_SEND)
        assert chaos.fired == [("drop", POINT_NET_SEND, 2)]

    def test_point_ordinals_count_independently(self):
        chaos = NetChaos(ChaosPlan.parse("drop:net.recv:1"))
        chaos.check(POINT_NET_CONNECT)
        chaos.check(POINT_NET_SEND)
        with pytest.raises(NetFaultError):
            chaos.check(POINT_NET_RECV)

    def test_sever_is_a_threshold_that_never_heals(self):
        chaos = NetChaos(ChaosPlan.parse("sever:net.partition:3"))
        chaos.check(POINT_NET_CONNECT)
        chaos.check(POINT_NET_SEND)
        for point in (POINT_NET_RECV, POINT_NET_CONNECT, POINT_NET_SEND):
            with pytest.raises(NetFaultError):
                chaos.check(point)
        assert all(action == "sever" for action, _, _ in chaos.fired)

    def test_delay_stalls_and_notifies_listener(self):
        events = []
        chaos = NetChaos(
            ChaosPlan.parse("delay:net.send:1"), delay_seconds=0.0,
            listener=lambda name, **f: events.append((name, f)),
        )
        chaos.check(POINT_NET_SEND)
        assert events == [
            ("net.delay", {"point": POINT_NET_SEND, "ordinal": 1})
        ]

    def test_plan_grammar_rejects_bad_net_combos(self):
        with pytest.raises(ConfigError):
            ChaosPlan.parse("delay:net.connect:1")
        with pytest.raises(ConfigError):
            ChaosPlan.parse("sever:net.send:1")
        with pytest.raises(ConfigError):
            ChaosPlan.parse("drop:net.partition:1")


# ----------------------------------------------------------------------
# Client bounded retry
# ----------------------------------------------------------------------


class _ScriptedClient(SweepClient):
    """A client whose request() replays a scripted outcome sequence."""

    def __init__(self, outcomes):
        super().__init__(host="127.0.0.1", port=1)
        self.outcomes = list(outcomes)
        self.calls = 0

    def request(self, method, path, payload=None):
        self.calls += 1
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def _response(status, retry_after=None):
    return ClientResponse(
        status=status, body={}, raw=b"{}", retry_after=retry_after
    )


class TestRequestWithRetry:
    def test_oserror_then_success(self):
        sleeps = []
        client = _ScriptedClient(
            [ConnectionRefusedError("boom"), _response(200)]
        )
        response = client.request_with_retry(
            "POST", "/x", max_attempts=3, sleep=sleeps.append
        )
        assert response.status == 200
        assert client.calls == 2
        assert len(sleeps) == 1

    def test_retry_after_hint_is_honored_and_capped(self):
        sleeps = []
        client = _ScriptedClient(
            [_response(429, retry_after=1.5), _response(200)]
        )
        client.request_with_retry(
            "POST", "/x", max_attempts=2, backoff_base=0.1,
            backoff_max=2.0, sleep=sleeps.append,
        )
        assert 1.5 <= sleeps[0] <= 1.6  # hint + jitter, under the cap
        sleeps.clear()
        client = _ScriptedClient(
            [_response(429, retry_after=60.0), _response(200)]
        )
        client.request_with_retry(
            "POST", "/x", max_attempts=2, backoff_base=0.1,
            backoff_max=2.0, sleep=sleeps.append,
        )
        assert sleeps[0] <= 2.0 + 0.1  # server hint capped at backoff_max

    def test_exhausted_attempts_return_last_response(self):
        client = _ScriptedClient([_response(503)] * 3)
        response = client.request_with_retry(
            "POST", "/x", max_attempts=3, sleep=lambda _w: None
        )
        assert response.status == 503
        assert client.calls == 3

    def test_exhausted_attempts_reraise_last_oserror(self):
        client = _ScriptedClient(
            [ConnectionRefusedError("a"), ConnectionResetError("b")]
        )
        with pytest.raises(ConnectionResetError):
            client.request_with_retry(
                "POST", "/x", max_attempts=2, sleep=lambda _w: None
            )

    def test_non_retryable_status_returns_immediately(self):
        sleeps = []
        client = _ScriptedClient([_response(404)])
        response = client.request_with_retry(
            "POST", "/x", max_attempts=5, sleep=sleeps.append
        )
        assert response.status == 404
        assert sleeps == []

    def test_deterministic_for_a_seed(self):
        waits = []
        for _ in range(2):
            sleeps = []
            client = _ScriptedClient([_response(503)] * 4)
            client.request_with_retry(
                "POST", "/x", max_attempts=4, seed=7, sleep=sleeps.append
            )
            waits.append(tuple(sleeps))
        assert waits[0] == waits[1]

    def test_rejects_bad_max_attempts(self):
        client = _ScriptedClient([])
        with pytest.raises(ServiceError):
            client.request_with_retry("POST", "/x", max_attempts=0)


# ----------------------------------------------------------------------
# HTTP transport: response rendering and the request parser's limits
# ----------------------------------------------------------------------


class TestResponse:
    def test_body_renders_canonical_json(self):
        rendered = Response(status=200, body={"b": 1, "a": 2}).render()
        assert rendered == b'{"a":2,"b":1}\n'

    def test_raw_wins_over_body(self):
        rendered = Response(
            status=200, body={"ignored": True}, raw='{"x":1}\n'
        ).render()
        assert rendered == b'{"x":1}\n'


@pytest.fixture
def coordinator_socket(tmp_path):
    """A live coordinator listening on a UNIX socket; yields its path."""
    sock = str(tmp_path / "coord.sock")
    coordinator = DistCoordinator(
        _runner(), DistConfig(socket_path=sock)
    ).start()
    try:
        yield sock
    finally:
        coordinator.drain()
        coordinator.stop()


def _raw_exchange(sock_path: str, data: bytes) -> bytes:
    """Send raw bytes, return everything the coordinator sends back
    before it closes the connection."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
        conn.settimeout(5.0)
        conn.connect(sock_path)
        conn.sendall(data)
        received = b""
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                return received
            received += chunk


class TestRequestParser:
    """Outside input the coordinator refuses: each request below is
    dropped (connection closed, no response), and the coordinator keeps
    serving afterwards."""

    @pytest.mark.parametrize(
        "request_bytes",
        [
            pytest.param(
                b"GET /v1/healthz HTTP/1.1\r\nX-Pad: "
                + b"a" * 17000 + b"\r\n\r\n",
                id="header-over-16KiB",
            ),
            pytest.param(
                b"POST /v1/dist/lease HTTP/1.1\r\n"
                b"Content-Length: 1048577\r\n\r\n",
                id="body-over-1MiB",
            ),
            pytest.param(
                b"POST /v1/dist/lease HTTP/1.1\r\n"
                b"Content-Length: -1\r\n\r\n",
                id="negative-content-length",
            ),
            pytest.param(
                b"POST /v1/dist/lease HTTP/1.1\r\n"
                b"Content-Length: twelve\r\n\r\n",
                id="non-integer-content-length",
            ),
            pytest.param(
                b"GARBAGE\r\n\r\n", id="unparseable-request-line"
            ),
        ],
    )
    def test_bad_request_closes_without_response(
        self, coordinator_socket, request_bytes
    ):
        assert _raw_exchange(coordinator_socket, request_bytes) == b""
        client = SweepClient(socket_path=coordinator_socket, timeout=5.0)
        assert client.healthz()

    def test_negative_length_is_rejected_before_reading(self):
        """The parser itself refuses a negative length (a socket-level
        test cannot tell this from ``readexactly(-1)`` raising)."""

        async def parse(data: bytes):
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            return await _read_request(reader)

        assert asyncio.run(parse(
            b"POST /v1/dist/lease HTTP/1.1\r\nContent-Length: -1\r\n\r\n"
        )) is None

    def test_header_at_the_limit_is_served(self, coordinator_socket):
        head = b"GET /v1/healthz HTTP/1.1\r\nX-Pad: "
        tail = b"\r\n\r\n"
        padding = b"a" * (16384 - len(head) - len(tail))
        reply = _raw_exchange(coordinator_socket, head + padding + tail)
        assert reply.startswith(b"HTTP/1.1 200 OK\r\n")

    def test_non_json_body_is_400(self, coordinator_socket):
        body = b"not json"
        reply = _raw_exchange(
            coordinator_socket,
            b"POST /v1/dist/lease HTTP/1.1\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode("ascii")
            + body,
        )
        assert reply.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert b'"body must be JSON"' in reply

    def test_get_on_lease_is_405(self, coordinator_socket):
        client = SweepClient(socket_path=coordinator_socket, timeout=5.0)
        response = client.request("GET", "/v1/dist/lease")
        assert response.status == 405
        assert response.body == {"error": "method not allowed"}


# ----------------------------------------------------------------------
# Coordinator end-to-end (UDS, one real worker subprocess)
# ----------------------------------------------------------------------


def _worker_env() -> dict[str, str]:
    import repro

    src_root = os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__))
    )
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (
        src_root + (os.pathsep + existing if existing else "")
    )
    return env


class TestCoordinatorEndToEnd:
    def test_batch_shards_to_worker_and_results_match_serial(self, tmp_path):
        cells = [
            ("bfs", "test-small", parse_policy("thp"),
             parse_scenario("fresh")),
            ("bfs", "test-small", parse_policy("base4k"),
             parse_scenario("fresh")),
        ]
        serial = _runner()
        expected = [
            encode_result(serial._execute_cell(*cell)) for cell in cells
        ]

        sock = str(tmp_path / "coord.sock")
        runner = _runner()
        coordinator = DistCoordinator(
            runner,
            DistConfig(socket_path=sock, local_grace_seconds=60.0),
        ).start()
        worker = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "work",
                "--connect", sock,
                "--journal", str(tmp_path / "w.jsonl"),
                "--worker-id", "w-test",
                "--poll-interval", "0.05",
                "--idle-exit", "20",
            ],
            env=_worker_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        try:
            results = coordinator.execute_batch(cells)
            coordinator.drain()
            rc = worker.wait(timeout=30)
        finally:
            if worker.poll() is None:
                worker.kill()
            coordinator.stop()
        assert rc == 0
        assert [encode_result(result) for result in results] == expected
        events = coordinator.drain_events()
        names = [event["name"] for event in events]
        assert "dist.lease.grant" in names
        assert names.count("dist.result") == 2
        assert all(
            event.get("worker") == "w-test"
            for event in events if event["name"] == "dist.result"
        )
        from repro.obs.events import validate_events

        assert validate_events(events) == []

    def test_traced_figure_matches_serial_trace_and_bytes(self, tmp_path):
        """Workers run under the coordinator's run config: a traced
        distributed figure carries the serial trace, not an empty one."""
        from repro.experiments.figures import fig07_pressure_alloc_order

        def traced_runner():
            return ExperimentRunner(
                config=get_profile("scaled"),
                run_config=RunConfig(trace=True),
            )

        kwargs = {"workloads": ("bfs",), "datasets": ("test-small",)}
        serial = traced_runner()
        expected_json = fig07_pressure_alloc_order(serial, **kwargs).to_json()
        assert serial.trace_log

        sock = str(tmp_path / "coord.sock")
        runner = traced_runner()
        coordinator = DistCoordinator(
            runner,
            DistConfig(socket_path=sock, local_grace_seconds=60.0),
        ).start()
        runner.dist_executor = coordinator.execute_batch
        worker = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "work",
                "--connect", sock,
                "--journal", str(tmp_path / "w.jsonl"),
                "--worker-id", "w-trace",
                "--poll-interval", "0.05",
                "--idle-exit", "20",
            ],
            env=_worker_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        try:
            figure_json = fig07_pressure_alloc_order(
                runner, **kwargs
            ).to_json()
            coordinator.drain()
            rc = worker.wait(timeout=30)
        finally:
            if worker.poll() is None:
                worker.kill()
            coordinator.stop()
        assert rc == 0
        results = [
            event for event in coordinator.drain_events()
            if event["name"] == "dist.result"
        ]
        assert len(results) == len(serial.trace_log)
        assert all(event["worker"] == "w-trace" for event in results)
        assert figure_json == expected_json
        assert json.dumps(runner.trace_log, sort_keys=True) == json.dumps(
            serial.trace_log, sort_keys=True
        )

    def test_memsan_runs_on_remote_cells(self, tmp_path, monkeypatch):
        """``RunConfig(sanitize=True)`` reaches the worker: its machines
        carry a MemSanitizer that performs checks, even with the
        ambient switch off."""
        import threading

        import repro.machine.machine as machine_module
        from repro.analysis.sanitizer import set_sanitize
        from repro.dist import WorkerConfig, work_loop

        made = []
        real = machine_module.make_sanitizer

        def recording(explicit=None):
            sanitizer = real(explicit)
            made.append(sanitizer)
            return sanitizer

        monkeypatch.setattr(machine_module, "make_sanitizer", recording)
        previous = set_sanitize(False)
        sock = str(tmp_path / "coord.sock")
        runner = ExperimentRunner(
            config=get_profile("scaled"),
            run_config=RunConfig(sanitize=True),
        )
        coordinator = DistCoordinator(
            runner,
            DistConfig(socket_path=sock, local_grace_seconds=60.0),
        ).start()
        worker = threading.Thread(
            target=work_loop,
            args=(WorkerConfig(
                connect=sock, journal_path=str(tmp_path / "w.jsonl"),
                worker_id="w-san", poll_interval=0.05,
                idle_exit_seconds=20.0,
            ),),
            daemon=True,
        )
        worker.start()
        cells = [
            ("bfs", "test-small", parse_policy(name),
             parse_scenario("fresh"))
            for name in ("thp", "base4k")
        ]
        try:
            coordinator.execute_batch(cells)
            coordinator.drain()
            worker.join(timeout=30)
        finally:
            coordinator.stop()
            set_sanitize(previous)
        assert not worker.is_alive()
        results = [
            event for event in coordinator.drain_events()
            if event["name"] == "dist.result"
        ]
        assert [event["worker"] for event in results] == ["w-san"] * 2
        assert len(made) == 2
        assert all(s is not None and s.checks > 0 for s in made)

    def test_wedged_worker_settles_as_watchdog(self, tmp_path, monkeypatch):
        """``--distribute`` with a cell deadline: a worker wedged inside
        a cell keeps heartbeating, but the coordinator stops renewing its
        lease past the deadline grace and settles the cell as
        ``FAILED(watchdog)`` instead of waiting forever; the late real
        result is then a ``dist.conflict``."""
        import threading

        from repro.dist import WorkerConfig, work_loop
        from repro.experiments.harness import CellFailure

        release = threading.Event()
        original = ExperimentRunner._execute_cell

        def wedging(self, workload, dataset, policy, scenario):
            if policy.name == "thp":
                release.wait(60.0)
            return original(self, workload, dataset, policy, scenario)

        monkeypatch.setattr(ExperimentRunner, "_execute_cell", wedging)
        sock = str(tmp_path / "coord.sock")
        runner = ExperimentRunner(
            config=get_profile("scaled"),
            run_config=RunConfig(cell_deadline_seconds=1.0),
        )
        coordinator = DistCoordinator(
            runner,
            DistConfig(
                socket_path=sock, lease_seconds=0.6,
                local_grace_seconds=60.0, max_lease_attempts=5,
            ),
        ).start()
        workers = [
            threading.Thread(
                target=work_loop,
                args=(WorkerConfig(
                    connect=sock,
                    journal_path=str(tmp_path / f"w{i}.jsonl"),
                    worker_id=f"w{i}", poll_interval=0.05,
                    idle_exit_seconds=20.0,
                ),),
                daemon=True,
            )
            for i in range(2)
        ]
        for worker in workers:
            worker.start()
        cells = [
            ("bfs", "test-small", parse_policy(name),
             parse_scenario("fresh"))
            for name in ("thp", "base4k")
        ]
        outcome: list = []
        sweep = threading.Thread(
            target=lambda: outcome.append(coordinator.execute_batch(cells)),
            daemon=True,
        )
        try:
            sweep.start()
            sweep.join(timeout=20.0)
            assert not sweep.is_alive(), "the sweep hung on a wedged worker"
            results = outcome[0]
            assert isinstance(results[0], CellFailure)
            assert results[0].error == "watchdog"
            assert getattr(results[1], "ok", False)
            release.set()
            deadline = time.monotonic() + 10.0  # repro: noqa REP001 — observation timeout
            while time.monotonic() < deadline:  # repro: noqa REP001 — observation timeout
                names = [e["name"] for e in coordinator.drain_events()]
                if "dist.conflict" in names:
                    break
                time.sleep(0.05)
            coordinator.drain()
            for worker in workers:
                worker.join(timeout=20.0)
        finally:
            release.set()
            coordinator.stop()
        events = coordinator.drain_events()
        thp_spec = runner.cell_spec(*cells[0])
        grants = [
            e for e in events
            if e["name"] == "dist.lease.grant" and e["spec"] == thp_spec
        ]
        assert len(grants) == 1  # never re-leased
        settled = [
            e for e in events
            if e["name"] == "dist.result" and e["spec"] == thp_spec
        ]
        assert [e["worker"] for e in settled] == ["watchdog"]
        assert any(
            e["name"] == "dist.conflict" and e["spec"] == thp_spec
            for e in events
        )
        assert not any(worker.is_alive() for worker in workers)

    def test_slow_graph_preparation_is_not_cell_time(
        self, tmp_path, monkeypatch
    ):
        """A worker whose graph build outlasts the deadline grace keeps
        its lease: the age clock starts when the worker reports the cell
        started, where its in-worker watchdog starts too."""
        import threading

        from repro.dist import WorkerConfig, work_loop

        original = ExperimentRunner._prepared_graph

        def slow(self, dataset_name, reorder, weighted):
            if (dataset_name, reorder, weighted) not in self._graph_cache:
                time.sleep(2.5)
            return original(self, dataset_name, reorder, weighted)

        monkeypatch.setattr(ExperimentRunner, "_prepared_graph", slow)
        sock = str(tmp_path / "coord.sock")
        runner = ExperimentRunner(
            config=get_profile("scaled"),
            run_config=RunConfig(cell_deadline_seconds=1.0),
        )
        coordinator = DistCoordinator(
            runner,
            DistConfig(
                socket_path=sock, lease_seconds=0.6,
                local_grace_seconds=60.0, max_lease_attempts=5,
            ),
        ).start()
        worker = threading.Thread(
            target=work_loop,
            args=(WorkerConfig(
                connect=sock, journal_path=str(tmp_path / "w.jsonl"),
                worker_id="w0", poll_interval=0.05, idle_exit_seconds=20.0,
            ),),
            daemon=True,
        )
        worker.start()
        cells = [
            ("bfs", "test-small", parse_policy("thp"),
             parse_scenario("fresh"))
        ]
        outcome: list = []
        sweep = threading.Thread(
            target=lambda: outcome.append(coordinator.execute_batch(cells)),
            daemon=True,
        )
        try:
            sweep.start()
            sweep.join(timeout=20.0)
            assert not sweep.is_alive(), "the sweep hung"
            coordinator.drain()
            worker.join(timeout=20.0)
        finally:
            coordinator.stop()
        assert getattr(outcome[0][0], "ok", False)
        settled = [
            e["worker"] for e in coordinator.drain_events()
            if e["name"] == "dist.result"
        ]
        assert settled == ["w0"]

    def test_stop_with_a_request_cut_off_logs_nothing(self, tmp_path, caplog):
        """A worker terminated mid-request (local ``--workers`` kills its
        workers once the batch settles) leaves a handler waiting on a
        half-sent request; stopping the coordinator must not make loop
        shutdown log the cancelled handler."""
        import logging

        sock = str(tmp_path / "coord.sock")
        coordinator = DistCoordinator(
            _runner(), DistConfig(socket_path=sock)
        ).start()
        conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            conn.connect(sock)
            conn.sendall(b"POST /v1/dist/lease HTTP/1.1\r\n")
            time.sleep(0.2)  # the loop accepts and starts reading
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                coordinator.stop()
        finally:
            conn.close()
        assert [r.getMessage() for r in caplog.records
                if r.name == "asyncio"] == []

    def test_execute_batch_requires_running_loop(self):
        runner = _runner()
        coordinator = DistCoordinator(runner, DistConfig())
        with pytest.raises(DistError):
            coordinator.execute_batch([("bfs", "test-small", None, None)])

    def test_status_endpoint_and_idle_lease(self, tmp_path):
        sock = str(tmp_path / "coord.sock")
        runner = _runner()
        coordinator = DistCoordinator(
            runner, DistConfig(socket_path=sock)
        ).start()
        try:
            client = SweepClient(socket_path=sock, timeout=5.0)
            health = client.request("GET", "/v1/healthz")
            assert health.ok and health.body["role"] == "coordinator"
            idle = client.request(
                "POST", "/v1/dist/lease", {"worker": "probe"}
            )
            assert idle.ok
            assert idle.body["done"] is False
            assert idle.body["task"] is None
            status = client.request("GET", "/v1/dist/status")
            assert status.ok
            assert status.body["mode"] == "remote"
            assert status.body["workers"] == ["probe"]
            assert status.body["schema_problems"] == []
            missing = client.request("GET", "/v1/nope")
            assert missing.status == 404
        finally:
            coordinator.drain()
            coordinator.stop()

    def test_drained_coordinator_tells_workers_done(self, tmp_path):
        sock = str(tmp_path / "coord.sock")
        runner = _runner()
        coordinator = DistCoordinator(
            runner, DistConfig(socket_path=sock)
        ).start()
        try:
            coordinator.drain()
            client = SweepClient(socket_path=sock, timeout=5.0)
            deadline = time.monotonic() + 5.0  # repro: noqa REP001 — observation timeout
            while time.monotonic() < deadline:  # repro: noqa REP001 — observation timeout
                response = client.request(
                    "POST", "/v1/dist/lease", {"worker": "w"}
                )
                if response.body.get("done"):
                    break
                time.sleep(0.05)
            assert response.body["done"] is True
        finally:
            coordinator.stop()
