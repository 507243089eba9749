"""Child process for one timed CLI invocation.

Usage: python runner.py REPORT_JSON SIGPAT_ARGS...

Calls ``sigpat.cli.main`` with the given arguments, then writes its exit
code and the process's own peak resident set (``VmHWM``) to REPORT_JSON
just before exiting. ``VmHWM`` is read here rather than taken from the
parent's ``getrusage``/``wait4``: ``ru_maxrss`` carries the parent's
high-water mark across fork and exec, so a small child of a large parent
reports the parent's size.
"""

import json
import sys


def vmhwm_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    from sigpat.cli import main as cli_main

    rc = cli_main(sys.argv[2:])
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "vmhwm_kb": vmhwm_kb()}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
