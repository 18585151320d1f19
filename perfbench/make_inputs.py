"""Make one workload's inputs in a fresh interpreter.

    python3 perfbench/make_inputs.py <workload> <seed> <out_dir>

run.py times this whole process as one set-up, so set-up time includes
starting Python and importing alselect as well as synthesising the data.
The process samples its own machine speed from before it imports numpy
and prints the drift-correction factor (probe.py) as its last line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from probe import SpeedSampler  # noqa: E402  (standard library only)


def main(argv: list[str]) -> int:
    name, seed, out_dir = argv[0], int(argv[1]), Path(argv[2])
    speed = SpeedSampler()
    with speed.region() as samples:
        from env import use_source_tree
        use_source_tree()
        from workloads import WORKLOADS
        out_dir.mkdir(parents=True, exist_ok=True)
        WORKLOADS[name](seed, out_dir).make_inputs(out_dir)
    print(speed.factor(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
