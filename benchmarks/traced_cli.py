"""Run one marketval CLI command with the layer wrappers installed.

Usage: python3 benchmarks/traced_cli.py SPANS_JSON -- CLI_ARGS...

Writes to SPANS_JSON the spans recorded while `marketval.cli.main(CLI_ARGS)`
ran, the time the import of `marketval.cli` finished and the time the spans
were serialised (so the parent can tell the dump from interpreter exit),
and exits with main's return code, like ``python -m marketval.cli
CLI_ARGS`` would.
"""
import json
import sys
import time

import spans  # sibling module; imports only the standard library

import marketval.cli

imported_at = time.monotonic()


def _run(out_path: str, argv: list[str]) -> int:
    recorder = spans.Recorder()
    recorder.install()
    try:
        return marketval.cli.main(argv)
    finally:
        payload = json.dumps(recorder.spans, separators=(",", ":"))
        dumped_at = time.monotonic()
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(f'{{"imported_at":{imported_at!r},"dumped_at":{dumped_at!r},"spans":{payload}}}')


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: traced_cli.py SPANS_JSON -- CLI_ARGS...")
    sys.exit(_run(sys.argv[1], sys.argv[3:]))
