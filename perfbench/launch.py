"""Run one auxlab command with the benchmark's span tracer installed.

    python3 perfbench/launch.py SPANS_JSON [auxlab arguments...]

The caller puts the auxlab sources on PYTHONPATH, exactly as for the
untraced `python3 -m auxlab.cli`. The import of auxlab.cli is timed before
the tracer is installed, so it carries no tracing cost.
"""

import sys
import time

if __name__ == "__main__":
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import auxlab.cli
    import_s = time.perf_counter() - t0

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = auxlab.cli.main(argv)
    finally:
        tracer.write(spans_path, import_s)
    sys.exit(code)
