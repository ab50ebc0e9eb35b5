"""Run one gridshave CLI command in this process with the tracer installed.

    python perfbench/tracecli.py TRACE.json optimize --scenario day.csv --out run/

The source tree must be on PYTHONPATH, as for `python -m gridshave`. The
trace (spans and their summary) goes to TRACE.json; the exit code is the
command's own.
"""

import sys

from tracer import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    import gridshave.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = gridshave.cli.cli_main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
