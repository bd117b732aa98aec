"""Keep this process's CPU from going idle, at the lowest priority.

``run.py`` starts it on the CPU the run is pinned to.  A ``SCHED_IDLE``
process runs only when nothing else on that CPU can, so it takes no time
from the workload; it only stops the virtual CPU from halting while the
workload sleeps (the batch delay, the wait for the next arrival).  A
halted virtual CPU must be scheduled again by the host before it can
wake the workload, which on a busy host adds milliseconds to a wake-up.
It exits when its parent does.
"""

import os


def main() -> None:
    parent = os.getppid()
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    while os.getppid() == parent:
        pass


if __name__ == "__main__":
    main()
