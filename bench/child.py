"""One levyhull CLI run, as the benchmark's child process.

    python bench/child.py --timing T.json [--trace S.json] [--setup-only] -- run CONFIG --seed N --threads K --out DIR

Imports levyhull from the checkout's own ``src/`` and calls
``levyhull.cli.main`` with the arguments after ``--``, exactly as
``python -m levyhull.cli`` would. Two clock readings (CLOCK_MONOTONIC, so
the parent can compare them with its own) go to the timing file: when the
first experiment starts and when results.csv, summary.json and
manifest.json have been written. ``--setup-only`` exits at the first
experiment, to sample set-up time alone. ``--trace`` records spans and
writes them out after the run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--timing", required=True)
    parser.add_argument("--trace")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.path.insert(0, str(ROOT / "src"))
    import levyhull.cli

    src = (ROOT / "src").resolve()
    if src not in Path(levyhull.__file__).resolve().parents:
        print(f"levyhull imported from outside {src}: {levyhull.__file__}", file=sys.stderr)
        return 4

    stamps = {}

    def save():
        with open(args.timing, "w", encoding="utf-8") as fh:
            json.dump(stamps, fh)

    tracer = None
    if args.trace:
        from spans import Tracer, instrument

        tracer = Tracer()
        instrument(tracer, levyhull)

    runners = levyhull.cli_report._RUNNERS

    def first_stamp(runner):
        def timed(*a, **k):
            if "first_experiment" not in stamps:
                stamps["first_experiment"] = time.monotonic()
                if args.setup_only:
                    save()
                    os._exit(0)
            return runner(*a, **k)

        return timed

    for kind in runners:
        runners[kind] = first_stamp(runners[kind])

    run_all = levyhull.cli.run_all

    def timed_run_all(*a, **k):
        out = run_all(*a, **k)
        stamps["outputs_written"] = time.monotonic()
        return out

    levyhull.cli.run_all = timed_run_all

    if tracer is None:
        code = levyhull.cli.main(cli_args)
    else:
        code = tracer.call("cli.main", levyhull.cli.main, (cli_args,), {})
        tracer.dump(args.trace)
    save()
    return code


if __name__ == "__main__":
    sys.exit(main())
