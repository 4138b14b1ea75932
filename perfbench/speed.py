"""Host speed, measured by a fixed reference kernel run beside the ops.

Run as a script, this file is the helper process that runs the kernel (see
``Host``): it runs the kernel every REF_PAUSE_S until stdin ends, and on
each line it reads prints the CPU times of the kernel runs since the last.

The benchmark runs on virtual machines that share their host.  There the
speed of the CPU itself drifts: over tens of seconds to minutes the same
pure-Python op list takes anywhere from 1x to 2x its best CPU time.  Medians
over one run cannot remove a drift that lasts the whole run, so the
end-to-end times are normalised instead: while a pass runs, the helper runs
the kernel on the other CPU, and every CPU time of the pass is multiplied by

    REF_S / (mean CPU time of the kernel runs during the pass)

which gives the time the op would have taken on a host where the kernel
takes REF_S.  The kernel does what qct spends its time on (multi-word integer
products summed into dicts keyed by exponent tuples) and no qct code; in a
process of its own, neither qct's code nor the heap and caches qct leaves
behind change its time.  The drift is shared by both CPUs of the VM: on a
2-vCPU Xeon VM, over windows of 10 and 20 s, the helper's kernel time and
the benchmark's CPU time correlated at 0.99, and their ratio spread 3%
where raw CPU time spread 27-30%.  Two designs were tried and tracked
worse: kernel runs between the ops (a 10 s op is then sampled only at its
ends), and kernel runs inside the ops from a profiling timer signal (30%
slower there, by an amount that depended on the op interrupted).
"""

from __future__ import annotations

import gc
import random
import select
import subprocess
import sys
import time

# Nominal CPU time of one kernel run; about its median on a 2-vCPU Xeon VM.
REF_S = 0.005

# Pause between two kernel runs in the helper: it keeps about a tenth of a CPU
# busy, some 20 samples a second.
REF_PAUSE_S = 0.045

_rng = random.Random(1)
_A = [_rng.getrandbits(256) for _ in range(40)]
_B = [_rng.getrandbits(256) for _ in range(40)]


def reference_kernel() -> float:
    """Run the kernel once, with the cyclic collector off, and return its CPU
    time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        a = _A
        for _ in range(4):
            out = {}
            for i, x in enumerate(a):
                for j, y in enumerate(_B):
                    key = (i + j, i - j)
                    out[key] = out.get(key, 0) + x * y
            a = [v >> 256 for v in out.values()][:40]
        return time.process_time() - start
    finally:
        if enabled:
            gc.enable()


def factor(samples) -> float:
    """Multiplier that turns CPU time on this host into REF_S-kernel time."""
    return REF_S * len(samples) / sum(samples)


class Host:
    """The helper process that runs the kernel beside the benchmark; a
    context manager that stops it and waits for it on the way out."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)

    def samples(self) -> list[float]:
        """CPU times of the kernel runs since the last call; at least one."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the reference kernel's helper process ended")
        return [float(t) for t in line.split()]

    def close(self):
        self._proc.stdin.close()  # end of input: the helper exits
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def serve():
    times = []
    while True:
        asked, _, _ = select.select([sys.stdin], [], [], REF_PAUSE_S)
        if not asked:
            times.append(reference_kernel())
            continue
        if not sys.stdin.readline():
            return
        if not times:
            times.append(reference_kernel())
        print(" ".join(repr(t) for t in times), flush=True)
        times = []


if __name__ == "__main__":
    serve()
