"""Fresh-interpreter helpers started by run.py.

    python3 bench/child.py setup <workload> <seed>
        do the workload's start-up, then print the wall clock (time.time())
    python3 bench/child.py import-cli
        print how long `import susy_ladder.cli` takes
    python3 bench/child.py cli-traced <spans.npz> <cli arguments...>
        run susy_ladder.cli.main with every layer traced, save the spans

Each one imports susy_ladder from the working tree's src/ and exits non-zero
if it resolves anywhere else.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))


def require_working_tree() -> None:
    import susy_ladder
    where = Path(susy_ladder.__file__).resolve()
    if SRC.resolve() not in where.parents:
        sys.exit(f"susy_ladder resolved to {where}, not under {SRC}")


def main(argv: list[str]) -> int:
    cmd, rest = argv[0], argv[1:]
    if cmd == "setup":
        import workloads
        workloads.make(rest[0], int(rest[1])).startup()
        ready = time.time()
        require_working_tree()
        print(repr(ready), flush=True)
    elif cmd == "import-cli":
        t0 = time.perf_counter()
        import susy_ladder.cli  # noqa: F401
        t1 = time.perf_counter()
        require_working_tree()
        print(repr(t1 - t0), flush=True)
    elif cmd == "cli-traced":
        import susy_ladder.cli
        from tracing import Tracer
        require_working_tree()
        tracer = Tracer()
        tracer.install()
        try:
            code = susy_ladder.cli.main(rest[1:])
        finally:
            tracer.uninstall()
            tracer.save(Path(rest[0]))
        return code
    else:
        sys.exit(f"unknown command {cmd!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
