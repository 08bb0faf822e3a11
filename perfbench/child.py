"""Run one ifsdigits command in this fresh process and report what it cost.

    python3 perfbench/child.py REPORT.json [--trace] -- ARGV...

Set-up is the import of ``ifsdigits.cli`` plus one ``build_parser()``;
the command's wall and CPU time are taken around ``cli.main(ARGV)``,
including the flush of standard output.  With ``--trace`` the layer
boundaries are wrapped first (see ``tracer.py``) and the span summary is
added to the report.  An empty ARGV measures set-up alone.  The process
exits with the command's exit code.
"""

import json
import resource
import sys
import time


def main() -> int:
    report_path, rest = sys.argv[1], sys.argv[2:]
    split = rest.index("--")
    trace, argv = "--trace" in rest[:split], rest[split + 1:]

    t0 = time.perf_counter()
    import ifsdigits.cli as cli

    t_import = time.perf_counter()
    cli.build_parser()
    t_setup = time.perf_counter()
    report = {"setup_s": t_setup - t0, "import_s": t_import - t0}

    rec = None
    if trace:
        import tracer

        rec = tracer.Recorder()
        report["missing"] = tracer.install(rec)
    code = 0
    if argv:
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        sys.stdout.flush()
        report["wall_s"] = time.perf_counter() - w0
        report["cpu_s"] = time.process_time() - c0
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rec is not None:
        report["trace"] = rec.summary()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
