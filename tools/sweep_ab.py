"""Time the ten parameter-dependent checks of two checkouts side by side, in one
process, on param-sweep's distribution: seeded integer sets in [-5, 5]^6 at
nmax 60, drawn by random_params. Two runs of one checkout can differ by a third
on a busy host; pairing the two checkouts set by set cancels that.

The package of OTHER/src (the base) and this checkout's (the change) are copied
under their own names (trispinor_base, trispinor_change) into a temporary
directory, and both are imported. On each of 300 sets both sides run, through
run_identity, every check but triple_product that both define; which side runs
first alternates from set to set. It prints each check's time
on both sides and their ratio, and the median and quartiles over sets of the
paired per-set ratio (change over base). It times, and compares no reports:
tools/output_digest.py does that.

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
        per_check = {side: dict.fromkeys(checks, 0.0) for side in SIDES}
        ratios = []
        rng = random.Random(args.seed)
        sets = [tuple(modules["change"].random_params(rng)) for _ in range(SETS)]
        for k, values in enumerate([sets[0], *sets]):  # the first run warms up, uncounted
            per_set = {}
            for side in SIDES if k % 2 else SIDES[::-1]:
                m = modules[side]
                p, total = m.SeqParams(*values), 0.0
                for check, identity in zip(checks, ids[side]):
                    start = time.perf_counter()
                    m.run_identity(identity, p, nmax=NMAX)
                    elapsed = time.perf_counter() - start
                    total += elapsed
                    if k:
                        per_check[side][check] += elapsed
                per_set[side] = total
            if k:
                ratios.append(per_set["change"] / per_set["base"])
    print(f"{SETS} sets, seed {args.seed}, nmax {NMAX}: µs per set, change / base")
    print(f"{'check':16}{'base':>10}{'change':>10}{'ratio':>8}")
    for check in [*checks, "all"]:
        base, change = (sum(per_check[side].values()) if check == "all" else per_check[side][check]
                        for side in SIDES)
        print(f"{check:16}{base / SETS * 1e6:10.1f}{change / SETS * 1e6:10.1f}"
              f"{change / base:8.3f}")
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    print(f"paired per-set ratio: median {median:.3f} (quartiles {q1:.3f}-{q3:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
