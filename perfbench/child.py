"""One genus-forge CLI request in a fresh interpreter, as a user runs it.

    python3 perfbench/child.py --ready               import the CLI, build its
                                                     parser, print "ready"
    python3 perfbench/child.py -- ARGS...            run `genus-forge ARGS`
    python3 perfbench/child.py --trace OUT -- ARGS   the same with layer spans,
                                                     written to OUT at exit

The harness puts the checkout's `src` on PYTHONPATH.  Untraced, this does
exactly what the `genus-forge` console script does.
"""

import sys
import time


def main(argv) -> int:
    if argv == ["--ready"]:
        from genus_forge.cli import build_parser
        build_parser()
        print("ready", flush=True)
        return 0
    trace_out = None
    if argv[:1] == ["--trace"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] != ["--"]:
        print("usage: child.py --ready | [--trace OUT] -- ARGS...", file=sys.stderr)
        return 2
    argv = argv[1:]
    if trace_out is None:
        from genus_forge.cli import main as cli_main
        return cli_main(argv)
    start = time.perf_counter_ns()
    from genus_forge import cli
    import_ns = time.perf_counter_ns() - start
    import tracer
    spans = tracer.install()
    try:
        return cli.main(argv)
    finally:
        spans.dump(trace_out, import_ns)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
