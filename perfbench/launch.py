"""Run one `boxlab` command with span wrappers installed, for traced cli runs.

    python3 perfbench/launch.py SPANS_FILE ARGS...

behaves like `python3 -m boxlab.cli ARGS...` (same exit code, same
traceback on a crash) and also writes the spans recorded inside cli.main
to SPANS_FILE.  Time before cli.main starts, interpreter start and imports
included, is left to the caller to measure.
"""

import json
import sys

import boxlab.cli
from spans import Tracer


def main() -> None:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    idx = tracer.begin_task(spans_path)
    code = 1
    try:
        code = boxlab.cli.main(argv)
    finally:
        tracer.end_task(idx)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts[spans_path]}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
