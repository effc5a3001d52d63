"""Server process of the ``http-monitor`` workload.

Preloads one log with ``--entries`` accepted certificates, serves it with
``httpapi.serve_log`` on a free loopback port, prints the port on one line,
and serves until its standard input closes.

    python3 perfbench/log_server.py --entries 20000 --seed 0
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from postcert import httpapi  # noqa: E402
from postcert.certs import TrustStore  # noqa: E402
from postcert.log import CtLog, LogConfig  # noqa: E402

from perfbench.httpfixture import LOG_ID, ca_root, leaf_certificate, registry  # noqa: E402


def preload(entries: int, seed: int) -> CtLog:
    """A log whose first ``entries`` certificates are merged and signed,
    one per millisecond of log time, ending ten seconds before now."""
    keys = registry()
    root = ca_root(keys)
    log = CtLog(LOG_ID, keys, TrustStore([root]), LogConfig(), seed=seed)
    now = int(time.time() * 1000)
    first = now - 10_000 - entries
    for index in range(entries):
        log.submit(leaf_certificate(keys, index), [root], first + index)
    log.advance(now)
    return log


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--entries", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    log = preload(args.entries, args.seed)
    server = httpapi.serve_log(log)
    try:
        print(server.server_address[1], flush=True)
        sys.stdin.read()
    finally:
        server.shutdown()
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
