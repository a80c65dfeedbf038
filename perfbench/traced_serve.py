"""``repro serve`` with the layer probe installed in its process.

Usage: ``python3 perfbench/traced_serve.py EVENTS.json [serve flags]``.
Runs the service exactly as ``python -m repro serve`` would. SIGINT
first writes the probe's events to ``EVENTS.json`` and then stops the
service the usual way, so the events are on disk before the service's
own shutdown starts.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

from common import SRC
from probe import LayerProbe, install


def main(argv: list[str]) -> int:
    events_path = Path(argv[0])
    sys.path.insert(0, str(SRC))
    from repro import cli

    probe = install(LayerProbe())

    def stop(signum: int, frame: object) -> None:
        events_path.write_text(json.dumps(probe.events), encoding="utf-8")
        raise KeyboardInterrupt

    signal.signal(signal.SIGINT, stop)
    return cli.main(["serve", *argv[1:]])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
