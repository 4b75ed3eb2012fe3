"""Stand-in for ``python -m quiddity.cli``, for traced and faked cli runs.

    PYTHONPATH=src:perfbench python3 -m cli_shim [--trace OUT.json] [--fake MOD.FN] -- ARGS...

Times the import of ``quiddity.cli`` and then calls ``main(ARGS)``.  With
``--trace``, every public function of the package is wrapped by the tracer
and the timings and aggregates are written to OUT.json.  With ``--fake``,
that package function answers wrongly (see fakes.py), so the smoke check
can show that the oracles catch a wrong answer printed by the CLI process.
Stdout and the exit code are those of ``main``.
"""

import sys
import time


def main():
    # The package is imported first and alone, so that the stdlib modules it
    # needs are loaded (and timed) by its own import, as in the plain command.
    start = time.perf_counter()
    import quiddity.cli

    import_s = time.perf_counter() - start

    import json

    from fakes import install_fake
    from tracer import Tracer

    argv = sys.argv[1:]
    split = argv.index("--")
    options, argv = dict(zip(argv[:split:2], argv[1:split:2])), argv[split + 1:]
    if "--fake" in options:
        install_fake(options["--fake"])
    out_path = options.get("--trace")
    tracer = Tracer()
    if out_path:
        tracer.install()
        tracer.active = True
    start = time.perf_counter()
    code = quiddity.cli.main(argv)
    main_s = time.perf_counter() - start
    tracer.active = False
    sys.stdout.flush()
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "main_s": main_s, "trace": tracer.export()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
