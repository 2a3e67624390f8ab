#!/usr/bin/env python3
"""Build the program and its benchmark from source, then run one workload.

    python3 perfbench/run.py --workload record|reconstruct|serve \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The build goes to dune's _build
directory in the checkout; scratch files (daemon sockets, journals, the
span trace) go to _perfbench/.  The last line of standard output is the
JSON result the benchmark's OCaml program prints; the exit code is its
exit code.  Without the repository's sources next to perfbench/ the
build cannot succeed, and the script exits non-zero without a result.
"""

import os
import signal
import subprocess
import sys

NEEDED = ("dune-project", "lib", "bin", os.path.join("perfbench", "dune"))


def main():
    missing = [p for p in NEEDED if not os.path.exists(p)]
    if missing:
        print("perfbench: %s missing; run from the root of a repository checkout"
              % ", ".join(missing), file=sys.stderr)
        return 2
    # the shared dune cache lives outside the checkout; keep the build in it
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "./perfbench/main.exe", "./bin/er_cli.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    proc = subprocess.Popen([exe] + sys.argv[1:], start_new_session=True)
    try:
        code = proc.wait()
    finally:
        # main.exe stops the daemons it spawned; this catches any it
        # could not, e.g. after a crash
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())
