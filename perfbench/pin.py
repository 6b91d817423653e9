"""Rewrite the pins in expected.json from one seed-0 pass of each workload.

  python3 perfbench/pin.py

Only for a change that alters ordopt's outputs on purpose: review the diff
of expected.json, since every pinned value it drops or moves is an output
that changed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    path = os.path.join(HERE, "expected.json")
    with open(path, encoding="utf-8") as fh:
        expected = json.load(fh)
    pins = {}
    for workload in ("mc-two-phase", "mc-policy-mix", "analytic"):
        subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                        "--workload", workload, "--seed", "0", "--seconds",
                        "0"], check=True, stdout=subprocess.DEVNULL)
        last = os.path.join(ROOT, ".perfbench-out",
                            f"last-{workload}-trace0.json")
        with open(last, encoding="utf-8") as fh:
            pins[workload] = json.load(fh)["observed"]
    expected["pins"] = pins
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
