"""Quiescence on both runtime drivers: one exact in-flight ledger."""

import asyncio

import pytest

from repro.chaos.faults import FaultInjector, FaultModel
from repro.errors import SettleTimeoutError
from repro.runtime.settle import ENV_TIMEOUT, InflightLedger
from repro.runtime.tcp import TcpDriver, _Connection
from repro.runtime.transport import AsyncHub

PIDS = ["p0", "p1", "p2", "p3"]
HOPS = 50


def run(coro):
    return asyncio.run(coro)


async def register(driver, pid, handler):
    registered = driver.register(pid, handler)
    if registered is not None:
        await registered


def held_back(seconds):
    """Faults that hold every frame back for at least ``seconds``: each
    message pays the retransmission penalty (0.5x to 1.5x of it)."""
    return FaultInjector(FaultModel(drop=1.0, penalty=2 * seconds), time_scale=1.0)


@pytest.mark.parametrize("make_driver", [AsyncHub, TcpDriver], ids=["async", "tcp"])
def test_quiesce_covers_chains_that_handlers_start(make_driver):
    """Each handler forwards a hop counter to the next pid: one send and
    one quiesce must find the whole 50-hop chain handled, because every
    follow-up is counted before the message that caused it is released."""

    async def scenario():
        driver = make_driver()
        hops = []

        def forwarder(index):
            def handle(src, hop):
                hops.append(hop)
                if hop < HOPS:
                    driver.send(PIDS[index], [PIDS[(index + 1) % len(PIDS)]], hop + 1)

            return handle

        for index, pid in enumerate(PIDS):
            await register(driver, pid, forwarder(index))
        try:
            driver.send(PIDS[0], [PIDS[1]], 1)
            await driver.quiesce()
            assert hops == list(range(1, HOPS + 1))
            assert driver.ledger.count == 0
        finally:
            await driver.close()

    run(scenario())


def test_lost_suffix_is_released_once():
    """Aborting the dialer's socket while a frame is held back loses that
    suffix: quiesce returns instead of timing out, the ledger reads 0,
    and a later send over a fresh connection is counted and delivered."""

    async def scenario():
        driver = TcpDriver()
        received = []
        await register(driver, "a", lambda src, m: None)
        await register(driver, "b", lambda src, m: received.append(m))
        try:
            driver.send("a", ["b"], "warm")
            await driver.quiesce()
            assert received == ["warm"]

            driver.core.faults = held_back(0.05)
            driver.send("a", ["b"], "held")
            for _ in range(3):
                await asyncio.sleep(0)  # the pump pops the run and holds it
            assert driver.ledger.count == 1
            driver._transports["a"]._writers["b"].transport.abort()
            await driver.quiesce()
            assert driver.ledger.count == 0
            assert "held" not in received

            driver.core.faults = None
            driver.send("a", ["b"], "again")
            await driver.quiesce()
            assert received == ["warm", "again"]
            assert driver.ledger.count == 0
        finally:
            await driver.close()

    run(scenario())


def test_reader_exit_on_a_bad_frame_releases_the_unread_suffix():
    """An oversized frame header ends the receiving reader: the frame
    written behind it is never read, and quiesce must not wait for it."""

    async def scenario():
        driver = TcpDriver()
        received = []
        await register(driver, "a", lambda src, m: None)
        await register(driver, "b", lambda src, m: received.append(m))
        try:
            driver.send("a", ["b"], "warm")
            await driver.quiesce()
            driver._transports["a"]._writers["b"].write(b"\xff\xff\xff\xff")
            driver.send("a", ["b"], "behind")
            await driver.quiesce()
            assert driver.ledger.count == 0
            assert received == ["warm"]
        finally:
            await driver.close()

    run(scenario())


def test_connection_releases_each_copy_exactly_once():
    ledger = InflightLedger(None, dict)
    conn = _Connection(ledger)
    conn.wrote(3)
    conn.handled(1)
    assert ledger.count == 2
    conn.lost()
    assert ledger.count == 0
    conn.lost()
    conn.wrote(2)  # writes and reads on a dead connection no longer count
    conn.handled(1)
    assert ledger.count == 0


def test_tcp_quiesce_timeout_reports_busiest_links(monkeypatch):
    """The TCP twin of the hub's timeout diagnostics test."""
    monkeypatch.setenv(ENV_TIMEOUT, "0.05")

    async def scenario():
        driver = TcpDriver(faults=held_back(5.0))
        await register(driver, "a", lambda src, m: None)
        await register(driver, "b", lambda src, m: None)
        driver.send("a", ["b"], "slow")
        try:
            with pytest.raises(SettleTimeoutError) as excinfo:
                await driver.quiesce()
            message = str(excinfo.value)
            assert "busiest links:" in message
            assert "a->b: 1" in message
            assert "pending: {'a': 1}" in message
        finally:
            await driver.close()

    run(scenario())
