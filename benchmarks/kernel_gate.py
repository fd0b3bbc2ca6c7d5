"""The CI ``bench-smoke`` gate: batch >= 1.5x reference, timed in one run.

Reads the contract line (the last line of standard output) of::

    python benchmarks/e2e/run.py --workload kernel_dense --seed 1 \\
        --seconds 2 --trace 1 > kernel_dense.out
    python benchmarks/kernel_gate.py kernel_dense.out

and exits 1 unless the run was ``correct``, no operation ``failed``, and
``noc.kernel.reference_step_us / noc.kernel.batch_step_us`` — both kernels
stepped over the same window by the same process — is at least
:data:`REQUIRED_BATCH_VS_REFERENCE`.  Nothing is compared with a number
recorded on another machine, so the gate is immune to runner-class drift.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Measured ~2.1x on the reference machine; the gate leaves room for noise.
REQUIRED_BATCH_VS_REFERENCE = 1.5


def step_us(contract: dict, kernel: str) -> float:
    return contract["metrics"][f"noc.kernel.{kernel}_step_us"]["value"]


def failures(contract: dict) -> list[str]:
    """Why one ``{correct, attempted, failed, metrics}`` object fails the gate."""
    found = []
    if not contract["correct"]:
        found.append("the run is not correct (digest or oracle mismatch)")
    if contract["failed"]:
        found.append(f"{contract['failed']} of {contract['attempted']} "
                     "operations failed")
    reference, batch = step_us(contract, "reference"), step_us(contract, "batch")
    if not batch or reference / batch < REQUIRED_BATCH_VS_REFERENCE:
        found.append(
            f"batch kernel at {batch:.1f} us/cycle against the reference's "
            f"{reference:.1f} is under {REQUIRED_BATCH_VS_REFERENCE}x")
    return found


def main(argv=None) -> int:
    (path,) = argv if argv is not None else sys.argv[1:]
    contract = json.loads(Path(path).read_text().splitlines()[-1])
    found = failures(contract)
    for failure in found:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not found:
        print("kernel gate ok: reference / batch = "
              f"{step_us(contract, 'reference'):.1f} / "
              f"{step_us(contract, 'batch'):.1f} us/cycle")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main())
