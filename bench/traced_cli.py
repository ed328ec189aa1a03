"""Run one ``tooldrift`` CLI command with span tracing installed.

    PYTHONPATH=src python3 bench/traced_cli.py SPANS.json <tooldrift arguments>

The spans and counts are written to SPANS.json when the command ends; the
exit code is the command's own.
"""

from __future__ import annotations

import sys

from spans import Tracer, install


def main(argv: list[str]) -> int:
    spans_path, *cli_args = argv
    tracer = Tracer()
    install(tracer)
    from tooldrift import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
