"""Run the trispinor CLI under the benchmark's tracer and profiler.

usage: child_trace.py PROFILE SPANS CLI-ARGS...

Traced cli-suite runs start this instead of `python -m trispinor`. The
profile covers the import of trispinor as well as the command; both files
are written when the command returns.
"""

import cProfile
import json
import sys

from tracer import Tracer


def main() -> int:
    profile_path, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    profiler = cProfile.Profile()
    profiler.enable()
    from trispinor import cli

    tracer.install()
    with tracer.span("cli.main"):
        code = cli.main(argv)
    profiler.disable()
    profiler.dump_stats(profile_path)
    with open(spans_path, "w") as f:
        json.dump(tracer.spans, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
