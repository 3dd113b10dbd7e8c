"""Child-process entry for traced runtime jobs.

``run_bench`` starts its servers and workers as ``python -m p3sync ARGS``.
During a traced job the benchmark starts ``python launcher.py TRACE_FILE ARGS``
instead. This wraps the runtime's public callables, runs
``p3sync.cli.main(ARGS)`` and writes the spans to TRACE_FILE on the way out.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from p3sync import cli  # noqa: E402

from perfbench import probes  # noqa: E402


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = probes.Tracer()
    probes.install_runtime_probes(tracer, process_role=argv[0])
    try:
        return cli.main(argv)
    finally:
        tracer.dump(trace_file, role=argv[0])


if __name__ == "__main__":
    sys.exit(main())
