"""planner.fan_out decides how many processes a batch runs on.

Each case sets the CPU count through planner.usable_cpus, counts the
helpers forked with the forks fixture, and has each item return the pid
of the process that computed it.
"""

import os

import pytest

from reworkopt import planner


def _pid(_):
    return os.getpid()


@pytest.fixture
def cpus(monkeypatch):
    def set_cpus(n):
        monkeypatch.setattr(planner, "usable_cpus", lambda: n)
    return set_cpus


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("own_share", [True, False])
def test_width_one_forks_nothing(cpus, forks, monkeypatch, own_share):
    cpus(4)
    monkeypatch.setattr(planner, "HELPER_MIN_S", 0.0)
    assert planner.fan_out(_pid, list(range(6)), 1, own_share) == \
        [os.getpid()] * 6
    assert forks == []


@pytest.mark.parametrize("n_cpus,n_items,width,shares", [
    (2, 4, 8, [2, 2]), (8, 3, 8, [1, 1, 1]), (3, 7, 3, [2, 2, 3])],
    ids=["cpus", "items", "shares"])
def test_without_its_own_share_the_caller_computes_no_item(
        cpus, forks, n_cpus, n_items, width, shares):
    # width is capped by the CPUs and the items; a helper per contiguous
    # share
    cpus(n_cpus)
    pids = planner.fan_out(_pid, list(range(n_items)), width,
                           own_share=False)
    assert len(forks) == len(shares)
    assert pids == [pid for pid, n in zip(forks, shares) for _ in range(n)]
    _no_child_left()


def test_with_its_own_share_the_caller_computes_the_first_item_and_share(
        cpus, forks, monkeypatch):
    # the caller times item 0, then shares [1, 3) and [3, 5) of the rest
    cpus(2)
    monkeypatch.setattr(planner, "HELPER_MIN_S", 0.0)
    pids = planner.fan_out(_pid, list(range(5)), 2)
    assert pids == [os.getpid()] * 3 + forks * 2 and len(forks) == 1
    _no_child_left()


def test_a_helper_forks_nothing(cpus, forks, monkeypatch):
    cpus(4)
    monkeypatch.setattr(planner, "HELPER_MIN_S", 0.0)
    monkeypatch.setattr(planner, "_in_helper", True)
    for own_share in (True, False):
        assert planner.fan_out(_pid, list(range(6)), 4, own_share) == \
            [os.getpid()] * 6
    assert forks == []


def test_items_shorter_than_a_helper_stay_in_the_caller(cpus, forks):
    # the first item shows the rest worth far less than HELPER_MIN_S
    cpus(4)
    assert planner.fan_out(_pid, list(range(6)), 4) == [os.getpid()] * 6
    assert forks == []
