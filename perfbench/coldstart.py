"""One cold set-up of a workload, in a fresh interpreter.

    python3 perfbench/coldstart.py < spec.json

``spec`` is {"src": package source dir, "workdir": dir for CLI output,
"jobs": the workload's generated jobs}.  Times the import of the program
(numpy and everything else it pulls in, from nothing), binding every job
and serving the first request, with mpmath's caches cold; prints the
seconds on the last line.  Interpreter start-up and reading the spec are
not timed: they are not the program's work.
"""

import json
import sys
import time
from pathlib import Path


def main() -> None:
    spec = json.loads(sys.stdin.read())
    sys.path.insert(0, spec["src"])
    t0 = time.perf_counter()
    import workloads  # the program's own imports load numpy anyway

    mods = workloads.import_program()
    requests = [workloads.bind(mods, job, Path(spec["workdir"])) for job in spec["jobs"]]
    requests[0].call()
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
