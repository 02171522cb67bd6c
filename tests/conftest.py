"""Fixtures shared by the test modules, and the per-test watchdog."""

import faulthandler
import os
import resource
import signal
import sys
import time
import traceback

import pytest

LIMIT_S = 20  # wall-clock seconds a test may take; the slowest takes under 3
# the address space of the test process and of each process it starts: four
# times the 460 MB the test process reaches and five times the 370 MB peak
# RSS of the largest process it starts (a listing sweep of 11 characters), yet small
# enough that the test process and two runaway processes beside it fit an
# 8 GB host, so a fault that allocates without end fails a named test before
# the host's out-of-memory killer ends the run
LIMIT_BYTES = 2 * 2**30
_STDERR = pytest.StashKey[int]()


class Overrun(BaseException):
    """A test ran past its limit.  Not an Exception, so neither an `except
    Exception` in the code under test nor hypothesis's shrinking catches it."""


def pytest_configure(config):
    config.addinivalue_line("markers", "watchdog(seconds): this test's wall-clock limit, instead of LIMIT_S")
    config.stash[_STDERR] = os.dup(sys.stderr.fileno())  # the terminal's, while no test's output is captured
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY or soft > LIMIT_BYTES:  # a lower limit the run was given stands
        resource.setrlimit(resource.RLIMIT_AS, (LIMIT_BYTES, hard))


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """The watchdog's memory half: a test that runs out of address space
    fails, and the run stops after it.  The frames of its traceback are
    cleared first, so what filled the memory is freed before pytest formats
    the failure; formatting with it still held ended the run in an internal
    error, naming no test."""
    try:
        return (yield)
    except MemoryError as exc:
        traceback.clear_frames(exc.__traceback__)
    item.session.shouldfail = f"{item.nodeid} ran out of memory; the watchdog stopped the run"
    pytest.fail(f"the test ran out of its {LIMIT_BYTES >> 30} GiB address space", pytrace=False)


@pytest.fixture(autouse=True)
def watchdog(request):
    """Fail a test that runs past its limit, with the traceback of where it
    was, and stop the run after it: a fault that sends every sweep into
    endless branching then fails the suite once, not once per test.  A hang
    in C, which no signal handler interrupts, dumps every thread's traceback
    at twice the limit and ends the run.  The handler and timer the test
    starts under are restored after it, with the time they had left."""
    marker = request.node.get_closest_marker("watchdog")
    limit = marker.args[0] if marker else LIMIT_S

    def overrun(signum, frame):
        request.session.shouldfail = f"{request.node.nodeid} ran past its {limit} s limit; the watchdog stopped the run"
        raise Overrun(f"the test ran past its {limit} s limit")

    start = time.monotonic()
    outer_handler = signal.signal(signal.SIGALRM, overrun)
    outer_delay, outer_interval = signal.setitimer(signal.ITIMER_REAL, limit)
    faulthandler.dump_traceback_later(2 * limit, exit=True, file=request.config.stash[_STDERR])
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, outer_handler)
        if outer_delay:
            left = outer_delay - (time.monotonic() - start)
            signal.setitimer(signal.ITIMER_REAL, max(left, 1e-6), outer_interval)


@pytest.fixture
def sweeps(monkeypatch):
    """The arguments of each sweep the test makes, from an empty store."""
    from omegalab import complexity

    sweep, swept = complexity._sweep, []
    monkeypatch.setattr(complexity, "_store", {})
    monkeypatch.setattr(complexity, "_sweep", lambda *args: swept.append(args) or sweep(*args))
    return swept


@pytest.fixture
def domain_members():
    """The members of a prefix-free machine's domain of at most max_len bits,
    in (length, lex) order: the program bits of every run that halts within
    budget having read all of them.  A sweep lists them all, as membership
    needs a balanced prefix of whole characters."""
    from omegalab.complexity import Ensemble, enumerate_halting
    from omegalab.machines import check_prefix_free

    def members(machine: str, max_len: int, budget: int) -> list:
        check_prefix_free(machine, "a domain scan")
        return [r.program_bits for r in enumerate_halting(Ensemble(machine, max_len, budget, max_len // 8))]

    return members


@pytest.fixture
def encoders_built(monkeypatch):
    """The arguments of each json C encoder built from here on."""
    import json.encoder

    make, built = json.encoder.c_make_encoder, []
    monkeypatch.setattr(json.encoder, "c_make_encoder", lambda *args: built.append(args) or make(*args))
    return built
