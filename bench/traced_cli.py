"""Run one conjsum CLI command with spans recorded, as the traced twin of
``python3 -m conjsum.cli``.

Usage: python3 bench/traced_cli.py <summary.json> <conjsum arguments...>

The command's stdout and exit code are those of the plain CLI.  When it
ends, the span summary and the five caches' hits and misses are written to
<summary.json> in one piece.
"""

import json
import sys

import tracing
from conjsum import cli


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    sys.stdout = tracing.CountingStdout(sys.stdout)
    tracer = tracing.Tracer()
    tracer.instrument()
    try:
        code = cli.main(argv)
    finally:
        tracer.restore()
        sys.stdout.flush()
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.summary(), "caches": tracing.cache_info()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
