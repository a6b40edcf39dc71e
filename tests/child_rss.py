"""Run the treeball CLI in a child process and read its peak RSS.

Memory gates measure a command apart from the test process. A process made
by fork or vfork inherits, through exec, the peak RSS of the process it was
copied from, so a command started from a test process that has grown to
300 MB would report at least 300 MB. The command is therefore forked from a
small interpreter (`_FORK`), which hands back its exit status and peak RSS.
"""

import os
import pathlib
import resource
import signal
import subprocess
import sys

import treeball

_FORK = """\
import os, sys
pid = os.fork()
if not pid:
    os.execv(sys.executable,
             [sys.executable, "-m", "treeball.cli"] + sys.argv[2:])
_, status, usage = os.wait4(pid, 0)
os.write(int(sys.argv[1]), b"%d %d" % (status, usage.ru_maxrss))
"""


def _run_child(*args, address_space=None, timeout=None):
    """stdout, stderr, exit code and peak RSS (kilobytes) of `treeball
    args` in a child process, whose peak RSS wait4 reports alone;
    `address_space` caps the child's virtual memory, in bytes. Past
    `timeout` seconds the child and its forked command are killed and
    `subprocess.TimeoutExpired` is raised."""
    src = str(pathlib.Path(treeball.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    limit = None if address_space is None else (
        lambda: resource.setrlimit(resource.RLIMIT_AS,
                                   (address_space, address_space)))
    report, write = os.pipe()
    child = subprocess.Popen(
        [sys.executable, "-c", _FORK, str(write), *args], env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, preexec_fn=limit,
        pass_fds=(write,), start_new_session=True)
    os.close(write)
    with os.fdopen(report) as f:
        try:
            out, err = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)  # the command's group
            child.communicate()
            raise
        status, peak = map(int, f.read().split())
    return out, err, os.waitstatus_to_exitcode(status), peak
