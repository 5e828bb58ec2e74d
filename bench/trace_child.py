"""A traced `kgraph` command: `python3 bench/trace_child.py SPANS OP ARGS...`
installs the span wrappers of ``tracer.py``, runs ``kgraphs.cli.main(ARGS)``
and writes the spans and counters to the JSON file SPANS, also when the
command raises. Exit status and output are the command's own."""

from __future__ import annotations

import json
import sys


def main() -> int:
    spans_path, op, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    import kgraphs.cli
    import tracer

    t = tracer.Tracer()
    t.op = op
    t.install()
    try:
        return kgraphs.cli.main(argv)
    finally:
        t.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": t.spans, "counters": t.counters}, fh)


if __name__ == "__main__":
    raise SystemExit(main())
