"""Run one tribody CLI stage with the benchmark's tracer installed.

    python perfbench/stage_runner.py --trace-out FILE --pass-id N -- STAGE ARGS...

STAGE ARGS are handed unchanged to ``tribody.cli.main``.  The spans go to
FILE, which lies under the benchmark's own output: the CLI run directory
stays byte-identical to an untraced run.  The exit code is the stage's.
"""

import time

T_START = time.perf_counter()
import tribody.cli  # noqa: E402  (the import itself is the measured layer)

T_IMPORTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--pass-id", type=int, required=True)
    parser.add_argument("stage_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    stage_args = args.stage_args[1:] if args.stage_args[:1] == ["--"] else args.stage_args

    tracer = Tracer()
    tracer.reset(args.pass_id)
    import_s = T_IMPORTED - T_START
    tracer.stats["cli.import"] = [1, import_s, import_s]
    tracer.install()
    try:
        with tracer.span("cli.main"):
            code = tribody.cli.main(stage_args)
    finally:
        tracer.remove()
    Path(args.trace_out).write_text(json.dumps(tracer.snapshot()))
    return code


if __name__ == "__main__":
    sys.exit(main())
