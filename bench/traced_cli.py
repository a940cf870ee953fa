"""Run the breaklens CLI in this process with the span tracer installed.

    python3 bench/traced_cli.py --spans spans.json -- run --config cfg.json --out out

Everything after ``--`` is passed to ``breaklens.cli.main``. The spans are
written to ``--spans`` when the CLI returns; the exit code is the CLI's.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, cli_args = argv[1], argv[3:]
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import breaklens.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return breaklens.cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
