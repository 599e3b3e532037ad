"""Record the key values of every workload and input variant in ``reference.json``.

    python3 perfbench/make_reference.py [--workload NAME ...]

Run it only on the commit that defines the benchmark's expected results:
every later run compares its key values against this file.  It runs one
untraced cycle per (workload, variant) and refuses to write anything if a
command or a consistency check of that cycle fails.
"""

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from run import BENCH, environment, import_program  # first: run.py pins the BLAS threads
from stats import Ledger
from workloads import ABS_TOL, REL_TOL, VARIANTS, WORKLOADS, Context


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    cib = import_program()
    path = BENCH / "reference.json"
    doc = json.loads(path.read_text()) if path.is_file() else {"workloads": {}}
    scratch = BENCH / "_work"
    scratch.mkdir(exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]()
        table = {}
        for variant in range(VARIANTS):
            ledger = Ledger()
            with tempfile.TemporaryDirectory(dir=scratch) as tmp:
                workload.prepare(Path(tmp) / "inputs", variant, cib)
                ctx = Context(cib, ledger)
                workload.cycle(ctx, Path(tmp) / "cycle")
            if ledger.failed:
                print(f"{name} variant {variant}: {ledger.failures}", file=sys.stderr)
                return 1
            table[str(variant)] = ctx.result.values
            print(f"{name} variant {variant}: {len(ctx.result.values)} values", flush=True)
        doc["workloads"][name] = table
    env = environment(os.getloadavg())
    doc.update(
        git_commit=env["git_commit"],
        src_sha256=env["src_sha256"],
        rel_tol=REL_TOL,
        abs_tol=ABS_TOL,
    )
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
