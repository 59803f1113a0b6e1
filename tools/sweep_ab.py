"""Time the ten parameter-dependent checks of two checkouts side by side, in one
process, on param-sweep's distribution: seeded integer sets in [-5, 5]^6 at
nmax 60, drawn by random_params. Two runs of one checkout can differ by a third
on a busy host; pairing the two checkouts set by set cancels that.

The package of OTHER/src (the base) and this checkout's (the change) are copied
under their own names (trispinor_base, trispinor_change) into a temporary
directory, and both are imported. On each of 300 sets both sides run, through
run_identity, every check but triple_product that both define; which side runs
first alternates from set to set. For each check, and for all of them together,
it prints the time on both sides over the 300 sets and the ratio of those sums,
then the median and quartiles over sets of the paired per-set ratio (that
check's change over base time on each set). A ratio of sums follows the few
sets the host slowed most; the paired median does not, so it is the column to
read. It times, and compares no reports: tools/output_digest.py does that.

    python tools/sweep_ab.py --base OTHER/src            # seed 1
    python tools/sweep_ab.py --base OTHER/src --seed 7
"""

import argparse
import importlib
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

NMAX = 60
SETS = 300
SIDES = ("base", "change")


def load(src: Path, name: str, into: Path):
    """The identities module of the package under src, imported as name."""
    shutil.copytree(src / "trispinor", into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.identities")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="the src/ directory of the checkout to compare with")
    parser.add_argument("--seed", type=int, default=1, help="seed of the sets (default: 1)")
    args = parser.parse_args()
    sys.dont_write_bytecode = True
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        modules = {"base": load(Path(args.base), "trispinor_base", Path(tmp)),
                   "change": load(Path(__file__).resolve().parents[1] / "src", "trispinor_change",
                                  Path(tmp))}
        base_checks = {i.value for i in modules["base"].IdentityId}
        checks = [i.value for i in modules["change"].IdentityId
                  if i.value in base_checks and i.value != "triple_product"]
        ids = {side: [m.IdentityId(c) for c in checks] for side, m in modules.items()}
        times = {side: {check: [] for check in checks} for side in SIDES}  # per set
        rng = random.Random(args.seed)
        sets = [tuple(modules["change"].random_params(rng)) for _ in range(SETS)]
        for k, values in enumerate([sets[0], *sets]):  # the first run warms up, uncounted
            for side in SIDES if k % 2 else SIDES[::-1]:
                m = modules[side]
                p = m.SeqParams(*values)
                for check, identity in zip(checks, ids[side]):
                    start = time.perf_counter()
                    m.run_identity(identity, p, nmax=NMAX)
                    if k:
                        times[side][check].append(time.perf_counter() - start)
    for side in SIDES:
        times[side]["all"] = [sum(per_set) for per_set in zip(*times[side].values())]
    print(f"{SETS} sets, seed {args.seed}, nmax {NMAX}: µs per set, change / base")
    print(f"{'check':16}{'base':>10}{'change':>10}{'ratio':>8}{'paired median':>15}"
          f"{'quartiles':>15}")
    for check in [*checks, "all"]:
        base, change = (times[side][check] for side in SIDES)
        q1, median, q3 = statistics.quantiles([c / b for b, c in zip(base, change)], n=4)
        print(f"{check:16}{sum(base) / SETS * 1e6:10.1f}{sum(change) / SETS * 1e6:10.1f}"
              f"{sum(change) / sum(base):8.3f}{median:15.3f}{q1:9.3f}-{q3:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
