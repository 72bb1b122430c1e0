"""One barylab CLI run in a fresh process, as the benchmark launches it.

usage: python3 child.py REPORT MODE -- CLI_ARGS...

MODE is ``run`` (the CLI as users run it), ``trace`` (the same run under
`tracer.Tracer`) or ``setup`` (import, argument and config parsing with
family construction, then exit).  REPORT receives a JSON object with the
import time, the CLOCK_MONOTONIC time at which config parsing returned, and
in ``trace`` mode the tracer summary.  The exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list) -> int:
    report_path, mode, sep, *cli_args = argv
    if sep != "--" or mode not in ("run", "trace", "setup"):
        raise SystemExit(__doc__)
    t0 = time.perf_counter()
    import barylab.cli as cli

    report = {"import_s": time.perf_counter() - t0, "barylab": cli.__file__}
    parse_config = cli.parse_config

    def timed_parse_config(*args, **kwargs):
        parsed = parse_config(*args, **kwargs)
        report["setup_done"] = time.monotonic()
        return parsed

    cli.parse_config = timed_parse_config
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if mode == "setup":
        args = cli.build_parser().parse_args(cli_args)
        cli.parse_config(args.config, args.command)
        code = 0
    else:
        code = cli.main(cli_args)
    if tracer is not None:
        report["trace"] = {"import_s": report["import_s"], **tracer.summary()}
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
