"""Run one lowdisc CLI job the way the ``lowdisc`` console script does.

usage: python3 job.py READY_FILE TRACE_FILE ARGS...

Writes the CLOCK_MONOTONIC time at which ``lowdisc.cli`` finished importing
to READY_FILE, so the caller can time set-up.  With TRACE_FILE ``-`` the job
touches nothing but ``lowdisc.cli.main``; otherwise the tracer in this
directory wraps the library first and writes its spans to TRACE_FILE.
"""

import sys
import time


def main() -> int:
    ready_file, trace_file, *argv = sys.argv[1:]
    from lowdisc.cli import main as cli_main

    ready = time.monotonic()
    with open(ready_file, "w") as fh:
        fh.write(repr(ready))
    if trace_file == "-":
        return cli_main(argv)
    import tracer

    return tracer.run_traced(argv, trace_file)


if __name__ == "__main__":
    sys.exit(main())
