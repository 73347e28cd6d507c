"""Print the sha256 of every benchmark operation's output, so that two
versions of the package can be checked for byte-identical outputs with a
plain ``diff``:

    python tools/output_digests.py --seed 4242 > new.json
    python tools/output_digests.py --seed 4242 --workload ser_analytic

Every operation of ``perfbench/workloads.py`` (of one workload, or of all)
is run once in this process, as the benchmark runs it, without its checks
or timing. The output is one JSON object mapping ``workload|op key`` to the
hex digest of that operation's output, with sorted keys, one per line.
The package is imported from ``src/`` next to this directory, and nothing
is written under ``perfbench/``.
"""

import argparse
import hashlib
import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PATHS = [str(ROOT / "src"), str(ROOT)]


def load_workloads():
    """``perfbench/workloads.py`` as a module, with ``src/`` and the
    repository root first on the path and no bytecode cache written
    beside it. Exits if ``mimomrc`` comes from anywhere but ``src/``."""
    if sys.path[:2] != PATHS:
        sys.path[:0] = PATHS
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        workloads = importlib.import_module("perfbench.workloads")
    finally:
        sys.dont_write_bytecode = dont_write
    package = Path(sys.modules["mimomrc"].__file__).resolve().parent
    if package != ROOT / "src" / "mimomrc":
        sys.exit(f"error: imported mimomrc from {package}, not from {ROOT / 'src'}")
    return workloads


def digests(names, seed: int) -> dict:
    """``workload|op key`` -> sha256 of the operation's output, for every
    operation of the named workloads, each run once in order."""
    workloads = load_workloads().WORKLOADS
    out = {}
    for name in names:
        for op in workloads[name](seed):
            out[f"{name}|{op.key}"] = hashlib.sha256(op.run().encode()).hexdigest()
    return out


def main(argv=None) -> None:
    names = sorted(load_workloads().WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", choices=names, default=None,
                        help="one workload (default: all)")
    args = parser.parse_args(argv)
    result = digests([args.workload] if args.workload else names, args.seed)
    print(json.dumps(result, sort_keys=True, indent=0))


if __name__ == "__main__":
    main()
