"""One pass of a workload, in a fresh process.

Imports tubelab from the checkout's src/, parses the config (together these
are the set-up time), then runs the given subcommands back to back through
`tubelab.cli.main` and prints one JSON line: set-up and per-command seconds,
exit codes, peak RSS and, with --trace, the per-layer metrics.

    python3 perfbench/worker.py --config CFG --workers 2 --out DIR --commands sweep mc [--trace]
    python3 perfbench/worker.py --config CFG --workers 2 --setup-only
"""

from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out")
    parser.add_argument("--commands", nargs="*", default=[])
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from tubelab import cli

    tracer = None
    if args.trace:
        import layers

        tracer = layers.install(layers.Tracer())
    cli.load_config(args.config)
    setup_s = perf_counter() - _T0
    record = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    command_s, exit_codes = {}, {}
    start = perf_counter()
    for cmd in args.commands:
        argv = [cmd, "--config", args.config, "--out", args.out, "--workers", str(args.workers)]
        t0 = perf_counter()
        try:
            exit_codes[cmd] = cli.main(argv)
        except Exception:  # a traceback is a failed pass, not a crashed benchmark
            traceback.print_exc()
            exit_codes[cmd] = "exception"
        command_s[cmd] = perf_counter() - t0
    record.update(
        wall_s=perf_counter() - start,
        command_s=command_s,
        exit_codes=exit_codes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        record["layers"] = layers.layer_metrics(tracer)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
