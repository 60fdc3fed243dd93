"""Run the ``repro`` CLI with the layer wrappers installed.

Usage: ``python perfbench/launcher.py TRACE_OUT.json <repro arguments...>``

Installs :mod:`perfbench.tracing` wrappers and a ``repro.obs`` recorder,
then calls ``repro.cli.main``.  When ``main`` returns (for ``serve``,
after SIGINT) the spans and the last installed recorder's counters are
written to ``TRACE_OUT.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    from perfbench import tracing
    from repro import obs

    tracer = tracing.Tracer()
    groups = ("model", "harness", "service") if argv[:1] == ["serve"] else ("model", "harness")
    tracing.install(tracer, groups)
    recorders = []
    install = obs.install

    def keep(rec=None):
        recorder = install(rec)
        recorders.append(recorder)
        return recorder

    obs.install = keep
    obs.install()

    import repro.cli

    try:
        return repro.cli.main(argv)
    finally:
        counters = recorders[-1].counters_snapshot()
        out.write_text(json.dumps({"spans": tracer.dump(), "counters": counters}, default=str))


if __name__ == "__main__":
    raise SystemExit(main())
