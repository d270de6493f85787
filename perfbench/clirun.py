"""Run the qgrass command line in this process, optionally traced.

    python3 perfbench/clirun.py [--trace-out FILE] -- <qgrass arguments>

Behaves like the installed `qgrass` entry point (same stdout, stderr and
exit code).  With --trace-out the library is wrapped by the benchmark's
tracer first and the per-function aggregates are written to FILE as JSON.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv):
    if "--" not in argv:
        print("usage: clirun.py [--trace-out FILE] -- ARGS...", file=sys.stderr)
        return 2
    cut = argv.index("--")
    opts, args = argv[:cut], argv[cut + 1:]
    trace_out = opts[1] if opts[:1] == ["--trace-out"] and len(opts) == 2 else None
    from qgrass import cli

    if trace_out is None:
        return cli.main(args)
    sys.path.insert(0, HERE)
    import tracer

    tr = tracer.Tracer()
    tr.install()
    try:
        return cli.main(args)
    finally:
        tr.uninstall()
        tr.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
