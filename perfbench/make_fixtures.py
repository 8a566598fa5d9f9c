"""Write the expected outputs in fixtures/ from the checkout's current code.

    python3 perfbench/make_fixtures.py

Runs each workload once, untraced, exactly as run.py does, and stores what
the checks compare against.  The fixtures in the repository were made at the
commit that added the benchmark; regenerate them only when an output is
meant to change, and say why in the commit.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import replace

import run
from workloads import FIXTURES, GENERATED_CACHE_FILE, WORKLOADS


def captured(name: str) -> tuple[list, bytes | None]:
    """One untraced iteration of ``name``: its finished commands and the
    d=6 cache file it left, if any."""
    seen: dict = {}

    def keep(finished, cache, _root):
        seen["finished"] = finished
        cache_file = cache / GENERATED_CACHE_FILE
        seen["cache"] = cache_file.read_bytes() if cache_file.is_file() else None
        return []

    workload = WORKLOADS[name]
    run.WORK.mkdir(exist_ok=True)
    run.run_iteration(replace(workload, check=keep),
                      time.monotonic() + run.TIME_LIMIT_S)
    for finished in seen["finished"]:
        if finished.returncode != 0:
            raise SystemExit(f"{' '.join(finished.argv)} exited {finished.returncode}")
    return seen["finished"], seen["cache"]


def main() -> None:
    (reproduce,), _ = captured("reproduce")
    (FIXTURES / "reproduce.stdout").write_bytes(reproduce.stdout)

    (gen, count, _verify, entropy, *_certify), cache_bytes = captured("toolchain")
    payload = json.loads(entropy.stdout)
    prefix = os.path.commonprefix([payload["lower"], payload["upper"]])

    def command(finished) -> str:
        return "hanoi-dimer " + " ".join(finished.argv[:-2])  # without --cache-dir

    expected = {
        "made_by": "python3 perfbench/make_fixtures.py",
        "reproduce": {"command": "hanoi-dimer reproduce",
                      "stdout_file": "reproduce.stdout"},
        # keyed by the toolchain command each entry checks
        "toolchain": {
            "gen-recursions": {
                "command": command(gen),
                "cache_file": GENERATED_CACHE_FILE,
                "cache_sha256": hashlib.sha256(cache_bytes).hexdigest(),
                "cache_bytes": len(cache_bytes),
            },
            "count": {"command": command(count), "output": json.loads(count.stdout)},
            "entropy": {
                "command": command(entropy),
                "certified_prefix": prefix,
                "certified_digits": payload["certified_digits"],
            },
        },
    }
    (FIXTURES / "expected.json").write_text(
        json.dumps(expected, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
