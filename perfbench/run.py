#!/usr/bin/env python3
"""Builds and runs the JIT-ladder benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The benchmark is built from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), a cmake
package of its own that compiles ../src; nothing else in the tree is
touched. Each run gets a fresh, empty JIT cache and temp directory under
the build directory, removed when the run ends. The last line on stdout is
the run's JSON result; build output goes to stderr.
"""

import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(bdir):
    """Configures (once) and builds; returns False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: the cascade sources (src/) are missing",
              file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator)
    steps.append(["cmake", "--build", bdir, "-j", "4"])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, cwd=ROOT) != 0:
            print("perfbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main(argv):
    bdir = build_dir()
    if not build(bdir):
        return 2
    if argv == ["--self-test"]:
        return subprocess.call([os.path.join(bdir, "perfbench_selftest")])

    scratch = tempfile.mkdtemp(prefix="run-", dir=bdir)
    env = dict(os.environ)
    env["CASCADE_JIT_CACHE_DIR"] = os.path.join(scratch, "jit")
    env["TMPDIR"] = scratch  # the JIT's system compiler writes temps here
    traces = os.path.join(bdir, "traces")
    os.makedirs(traces, exist_ok=True)
    env["PERFBENCH_TRACE_DIR"] = traces
    os.makedirs(env["CASCADE_JIT_CACHE_DIR"])
    proc = subprocess.Popen([os.path.join(bdir, "perfbench")] + argv,
                            cwd=ROOT, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        code = 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
