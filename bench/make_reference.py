"""Record reference.json: the output digest of every invocation that the
default seed's workloads make.

    python3 bench/make_reference.py

Run it only at a commit whose outputs are known to be right; every later
run compares its outputs for these command lines against the digests.
Digests ignore the structured records' elapsed_ms field.
"""

from __future__ import annotations

import json
import signal
import sys

from run import SRC, _on_alarm, invoke


def main() -> int:
    sys.path.insert(0, str(SRC))
    import workloads
    from planesieve import cli

    signal.signal(signal.SIGALRM, _on_alarm)
    reference = {}
    for name in workloads.WORKLOADS:
        for p in workloads.build(name, workloads.DEFAULT_SEED).round:
            inv = invoke(cli, p.argv, p.budget_s)
            if inv.rc != 0 or len(workloads.check(p, inv.lines, {})) != p.items:
                print(f"error: planesieve {p.key} failed its checks", file=sys.stderr)
                return 1
            reference[p.key] = workloads.digest(inv.lines)
        print(f"{name}: {len(workloads.build(name, workloads.DEFAULT_SEED).round)} digests")
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
