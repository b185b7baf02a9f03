"""Run the lcklab CLI as its console script does, and report timing facts.

Arguments go to the CLI unchanged.  When the CLI returns, this times the
speed kernel (see `speed.py`) on the core the CLI ran on and writes one
line to stderr:

    perfbench-child <first-point> <vmhwm-kb> <kernel-s> <after-s>

`first-point` is `time.monotonic()` (the clock the launching process
reads before it starts this one) when the first suite point began, or
-1 if none did.  `vmhwm-kb` is this process's peak resident memory;
VmHWM counts only the exec'd program, where the launcher's rusage for a
child would also count the launcher's pages the child mapped before
exec.  `kernel-s` is the shorter of two kernel times, and `after-s` the
time spent after the CLI returned, which the launcher leaves out of the
CLI's wall time.
"""

import sys
import time


def main() -> None:
    from lcklab.cli import main as cli_main
    from lcklab.suites import SUITES

    first: list[float] = []

    def timed(point_fn):
        def point(*args, **kwargs):
            if not first:
                first.append(time.monotonic())
            return point_fn(*args, **kwargs)
        return point

    for suite in SUITES:
        object.__setattr__(suite, "point_fn", timed(suite.point_fn))
    try:
        code = cli_main(sys.argv[1:])
    finally:
        returned = time.monotonic()
        with open("/proc/self/status", encoding="ascii") as fh:
            hwm = [line.split()[1] for line in fh if line.startswith("VmHWM:")]
        import speed
        speed.kernel()  # first call pays numpy's lazy set-up
        kernel_s = min(speed.kernel_seconds() for _ in range(2))
        sys.stderr.write(f"perfbench-child {first[0] if first else -1.0!r} "
                         f"{hwm[0] if hwm else 0} {kernel_s!r} "
                         f"{time.monotonic() - returned!r}\n")
    sys.exit(code)


if __name__ == "__main__":
    main()
