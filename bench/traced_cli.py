"""Traced stand-in for ``python -m jtkit``, used by the cli workload.

    python3 bench/traced_cli.py OUT_JSON SUBCOMMAND [ARGS...]

Times the import of jtkit.cli, installs the span wrappers, calls
jtkit.cli.run(argv) with stdout untouched, writes its trace to OUT_JSON and
exits with run()'s code.
"""

import time

T_FIRST = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

t0 = time.perf_counter()
import jtkit.cli  # noqa: E402

import_s = time.perf_counter() - t0

from tracing import Tracer  # noqa: E402

tracer = Tracer().install()
run = tracer.wrap("cli.run", jtkit.cli.run, False)
code = run(sys.argv[2:])
sys.stdout.flush()
tracer.uninstall()
with open(sys.argv[1], "w") as fh:
    json.dump({"t_first": T_FIRST, "import_s": import_s, "trace": tracer.summary(), "spans": tracer.spans}, fh)
sys.exit(code)
