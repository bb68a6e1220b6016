"""Machine-speed probe: a fixed reference kernel, timed in its own interpreter.

The machine the benchmark runs on is shared, and its speed drifts by up to
1.5x over minutes, in wall and in CPU time alike. run.py therefore reports
times as they would be when this kernel takes its nominal time. The kernel
never changes with the program, and it runs in a separate interpreter that
imports only numpy, so that no heap, import or BLAS state of the program can
change its time.

    python perfbench/reference.py

reads one line per request on standard input and answers each with the
kernel's wall and CPU seconds on one line; it ends at end of input.
"""

from __future__ import annotations

import sys
import time


def kernel_inputs() -> tuple:
    import numpy as np

    rng = np.random.default_rng(20180530)
    g = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    b = rng.standard_normal((50, 16, 16)) + 1j * rng.standard_normal((50, 16, 16))
    return (np.arange(16.0).reshape(4, 4) * 0.1, g + g.conj().T,
            b + b.conj().transpose(0, 2, 1),
            np.ones(1 << 20))  # 8 MB, twice the L2 cache of a core


def kernel(small, dense, batch, stream) -> tuple[float, float]:
    """Wall and CPU seconds of fixed work shaped like each workload's: small
    eigensolves amid interpreted arithmetic (scan), a dense 24x24 Hermitian
    projection loop (witness), and a batched eigensolve plus a pass over 8 MB
    of memory (montecarlo)."""
    import numpy as np

    c0 = time.process_time()
    t0 = time.perf_counter()
    for k in range(20):
        a = np.kron(small, small.T) + k
        np.linalg.eigvalsh(a + a.T)
        sum(i * 0.5 for i in range(100))
    x = dense
    for _ in range(6):
        w, v = np.linalg.eigh(x)
        x = (v * np.clip(w, 0.0, None)) @ v.conj().T + dense
    np.linalg.eigvalsh(batch @ batch)
    (stream * 0.5).sum()
    return time.perf_counter() - t0, time.process_time() - c0


class Probe:
    """Client of a probe interpreter; `measure` times one kernel run there
    while the caller waits, so the two never compete for the cores."""

    def __init__(self, env=None):
        import subprocess

        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, env=env)
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def measure(self) -> None:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        wall, cpu = map(float, self.proc.stdout.readline().split())
        self.wall.append(wall)
        self.cpu.append(cpu)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def main() -> int:
    inputs = kernel_inputs()
    kernel(*inputs)  # warm up numpy and LAPACK before the first answer
    for _ in sys.stdin:
        wall, cpu = kernel(*inputs)
        print(f"{wall!r} {cpu!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
