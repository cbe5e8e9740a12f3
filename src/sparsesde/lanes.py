"""Independent tasks spread over the CPUs of this process, one lane per CPU.

Two callers fork: `harness.replications` runs an emse study's replications
in lanes, and `harness.run_estimate` runs its three panel fits as two tasks.
`fan_out` splits the tasks into one lane per CPU of the process's affinity
set (never more lanes than tasks) by a greedy longest-first split on their
cost, so the split depends on the tasks and the CPU count only.  Lane 0
runs in this process; every other lane runs in an `os.fork()` child that
pickles its `{task: result or exception}` into a pipe and leaves through
`os._exit`.  The children are read to the end and reaped before
`fan_out` returns or raises, so no process outlives the call.  A lane
whose fork fails, or whose child brings back no result, runs here instead.
A task's result does not depend on the process that ran it, so the
outcomes are those of running every task in this process.

Forking needs a process whose threads hold no lock a child could want.
The package starts no thread; OpenBLAS parks its worker pool through its
own fork handler, and while lanes run every loaded OpenBLAS is held at one
thread, in this process and so in its children.  Tracebacks stay in the
child: an exception comes back with its type, message and attributes only.
"""

from __future__ import annotations

import ctypes
import functools
import os
import pickle
import signal
from contextlib import contextmanager

from .errors import ConfigError, PolicyError, SparseSdeError


def ends_run(exc: BaseException) -> bool:
    """Whether `exc` ends a run rather than failing one task: a config or
    policy fault, which every task would hit, or an error from outside the
    package."""
    return isinstance(exc, (ConfigError, PolicyError)) or not isinstance(exc, SparseSdeError)


def _cpu_count() -> int:
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


# thread-count functions of OpenBLAS builds: numpy's and scipy's wheels, then plain
_BLAS_THREADS = (
    "scipy_openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)


@functools.cache
def _blas_thread_controls() -> tuple[tuple, ...]:
    """(get, set) thread-count functions of every OpenBLAS loaded in this process, found once."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln.rsplit("/", 1)[-1]}
    except OSError:
        return ()
    found = []
    for path in sorted(p for p in paths if ".so" in p):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for pattern in _BLAS_THREADS:
            get = getattr(lib, pattern.format("get"), None)
            put = getattr(lib, pattern.format("set"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                found.append((get, put))
                break
    return tuple(found)


@contextmanager
def _one_blas_thread():
    """Hold every OpenBLAS loaded in this process, and so in the children it
    forks, at one thread while the block runs.  The lanes already fill the
    CPUs, and a thread pool per process spins against the other lanes."""
    # a count of 1 is left as it is: after a fork, setting the count starts a
    # new OpenBLAS worker, which spins for ~0.1 s of CPU before it sleeps
    saved = [(put, n) for get, put in _blas_thread_controls() if (n := get()) != 1]
    for put, _ in saved:
        put(1)
    try:
        yield
    finally:
        for put, threads in saved:
            put(threads)


def split_lanes(tasks: list, cost, lanes: int) -> list[list]:
    """Greedy longest-first split of `tasks` into at most `lanes` lanes of
    near-equal total cost, each lane in the order of `tasks`."""
    out = [[] for _ in range(max(1, min(lanes, len(tasks))))]
    loads = [0] * len(out)
    for i in sorted(range(len(tasks)), key=lambda i: -cost(tasks[i])):
        k = loads.index(min(loads))
        out[k].append(i)
        loads[k] += cost(tasks[i])
    return [[tasks[i] for i in sorted(lane)] for lane in out]


def _run_lane(lane: list, run_one) -> dict:
    """`{task: run_one(task) or the exception it raised}`, in lane order,
    up to and including the first exception that `ends_run`."""
    out = {}
    for task in lane:
        try:
            out[task] = run_one(task)
        except Exception as exc:
            out[task] = exc
            if ends_run(exc):
                break
    return out


def _fork_lane(lane: list, run_one) -> tuple[int, int]:
    """Start a child that runs `lane`; returns its pid and the read end of its pipe."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with open(w, "wb") as fh:
                fh.write(pickle.dumps(_run_lane(lane, run_one)))
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


def fan_out(tasks: list, cost, run_one) -> dict:
    """`{task: run_one(task) or its exception}` for every task that `_run_lane`
    reaches, with the lanes spread over this process and forked children."""
    lanes = split_lanes(tasks, cost, _cpu_count())
    if len(lanes) == 1:
        return _run_lane(lanes[0], run_one)
    here = lanes[:1]
    children: dict[int, tuple[int, list]] = {}  # pid -> (read fd, lane)
    data: dict[int, bytes] = {}
    status: dict[int, int] = {}
    outcomes: dict = {}
    with _one_blas_thread():
        try:
            for lane in lanes[1:]:
                try:
                    pid, fd = _fork_lane(lane, run_one)
                except OSError:  # no process or pipe to spare
                    here.append(lane)
                else:
                    children[pid] = (fd, lane)
            for lane in here:
                outcomes.update(_run_lane(lane, run_one))
            for pid, (fd, _) in children.items():
                with open(fd, "rb", closefd=False) as fh:
                    data[pid] = fh.read()
        finally:
            for pid, (fd, _) in children.items():
                if pid not in data:  # this process is failing: stop the lane
                    os.kill(pid, signal.SIGKILL)
                os.close(fd)
                status[pid] = os.waitpid(pid, 0)[1]
        for pid, (_, lane) in children.items():
            try:
                found = pickle.loads(data[pid]) if status[pid] == 0 else None
            except Exception:  # a result that will not unpickle
                found = None
            outcomes.update(_run_lane(lane, run_one) if found is None else found)
    return outcomes
