"""Run one royden CLI command with spans recorded around the library calls.

    python bench/cli_traced.py SPANS_FILE <royden cli arguments...>

Writes the spans to SPANS_FILE as one JSON list and exits with the CLI's
exit code. Characters written to stdout are added to the innermost open
span as "bytes" (the CLI's output is ASCII), which gives cli.emit_bytes.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer


class _CountingStdout:
    def __init__(self, stream, tracer: Tracer):
        self._stream = stream
        self._tracer = tracer

    def write(self, text: str) -> int:
        self._tracer.add("bytes", len(text))
        return self._stream.write(text)

    def __getattr__(self, name):
        return getattr(self._stream, name)


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    import royden.cli

    tracer = Tracer()
    tracer.install()
    real = sys.stdout
    sys.stdout = _CountingStdout(real, tracer)
    span = tracer.open("cli.main")
    try:
        code = royden.cli.main(argv)
    finally:
        tracer.close(span)
        sys.stdout = real
        tracer.uninstall()
    real.flush()
    with open(spans_file, "w") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
