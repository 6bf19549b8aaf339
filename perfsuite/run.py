#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

usage: python3 perfsuite/run.py --workload NAME --seed N --seconds S --trace 0|1
                                [--trace-out FILE] [--json-out FILE]

Run it from the repository root. The first run configures and builds the
benchmark and the pdmsort library it links (Release) under .bench_build/;
later runs reuse that build. Disk files go under .bench_build/work/ and are
removed when the run ends. The last line of stdout is the JSON result; the
exit code is 0 only when every operation succeeded and verified.
"""
import argparse
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfsuite"
WORK = ROOT / ".bench_build" / "work"


def build():
    """Configures and builds (a no-op once built); chatter goes to stderr."""
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfsuite",
                    "-j", "4"], stdout=sys.stderr, check=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-out", help="Chrome trace JSON (traced runs); "
                   "default .bench_build/trace-<workload>.json")
    p.add_argument("--json-out", help="also write the result line here")
    a = p.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"benchmark build failed: {e}", file=sys.stderr)
        return 2

    cmd = [str(BUILD / "perfsuite"), f"--workload={a.workload}",
           f"--seed={a.seed}", f"--seconds={a.seconds}", f"--trace={a.trace}",
           f"--dir={WORK}"]
    if a.trace:
        trace_out = a.trace_out or str(
            ROOT / ".bench_build" / f"trace-{a.workload}.json")
        cmd.append(f"--trace_out={trace_out}")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=2 * a.seconds + 100)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("benchmark timed out", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(WORK / f"run-{proc.pid}", ignore_errors=True)
    if proc.returncode < 0:
        print(f"benchmark killed by signal {-proc.returncode}",
              file=sys.stderr)
        return 4
    sys.stdout.write(out)
    lines = out.strip().splitlines()
    if a.json_out and lines and lines[-1].startswith("{"):
        pathlib.Path(a.json_out).write_text(lines[-1] + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
