"""``fastbni serve`` with the span wrappers installed.

``traced_serve.py TRACE_PATH serve ...`` installs ``spans`` and then runs the
unmodified ``repro.cli`` entry point with the remaining arguments; the spans
are written to ``TRACE_PATH`` once the server has drained and stopped.
"""

from __future__ import annotations

import sys

import spans
from repro.cli import main

if __name__ == "__main__":
    recorder = spans.install()
    try:
        code = main(sys.argv[2:])
    finally:
        recorder.dump(sys.argv[1])
    sys.exit(code)
