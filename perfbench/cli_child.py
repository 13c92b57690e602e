"""Run ``enrichfan.cli`` like ``python -m enrichfan.cli``, timing the import
and ``main``, and print those two spans on stderr for the parent.

Usage: python3 perfbench/cli_child.py <enrichfan arguments...>
(with the repository's ``src`` on PYTHONPATH).
"""

import json
import os
import sys
from time import perf_counter

SPAN_MARKER = "perfbench-spans: "


def main() -> int:
    start = perf_counter()
    import enrichfan.cli

    imported = perf_counter()
    if os.environ.get("PERFBENCH_PLANT"):
        import plants

        plants.plant(os.environ["PERFBENCH_PLANT"])
    try:
        code = enrichfan.cli.main(sys.argv[1:])
    except SystemExit as exc:  # argparse exits on bad arguments
        code = exc.code
    done = perf_counter()
    sys.stdout.flush()
    print(SPAN_MARKER + json.dumps([["cli.import", start, imported], ["cli.main", imported, done]]), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
