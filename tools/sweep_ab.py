"""Time the eleven checks of two checkouts side by side, in one process, at
nmax 60 on two seeded draws: param-sweep's integer sets in [-5, 5]^6, drawn by
random_params, then rational sets with numerators in [-5, 5] and denominators
1-3, the rule of tests/test_identities.py's SWEEP_RATIONAL. Two runs of one
checkout can differ by a third on a busy host; pairing the two checkouts set by
set cancels that.

The package of OTHER/src (the base) and this checkout's (the change) are copied
under their own names (trispinor_base, trispinor_change) into a temporary
directory, and both are imported. On each of 300 sets of a draw both sides
run, through run_identity, every check that both define; which side runs first
alternates from set to set. One table per draw gives, for each check, for the
ten that read the set (`ten`: all but the parameter-free triple_product, most
of an integer set's time) and for all of them (`all`), the time on both sides
over the 300 sets and the ratio of those sums, then the median and quartiles
over sets of the paired per-set ratio (that row's change over base time on each
set). A ratio of sums follows the few sets the host slowed most; the paired
median does not, so it is the column to read. A third table times the object
layer the checks are built of on the same two draws, each set's operands read
off its window V(0..4), the sides alternating in the same way: qmul(Q(0), Q(1)),
breve(Q(0)) @ sigma(Q(1)), the spinors' sum sigma(Q(0)) + sigma(Q(1)),
sigma(Q(0)) scaled by the set's r, and qv_right_multiply(qv_matrix(p),
companion_power(p, 2)), each called REPEAT times a set, per call. Run against
itself, every row of it read a paired median within 0.01 of 1 but `Spinor * r,
rational`, which read 1.02-1.03 in the whole script and 1.00 when the same loops
ran from a shorter one; the cause is not known, so a gap that small on one row
shows nothing. It times, and compares no reports: tools/output_digest.py does that.

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
from fractions import Fraction
from pathlib import Path

NMAX = 60
SETS = 300
SIDES = ("base", "change")
PARAMETER_FREE = "triple_product"  # reads no set; the other ten checks read it
REPEAT = 50  # calls of each object operation per set and side


def load(src: Path, name: str, into: Path):
    """The package under src, imported as name."""
    shutil.copytree(src / "trispinor", into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def sweep(modules: dict, checks: list[str], sets: list[tuple]) -> dict:
    """Per side and check, the run_identity time on each set."""
    ids = {side: [m.IdentityId(c) for c in checks] for side, m in modules.items()}
    times = {side: {check: [] for check in checks} for side in SIDES}
    for k, values in enumerate([sets[0], *sets]):  # the first run warms up, uncounted
        for side in SIDES if k % 2 else SIDES[::-1]:
            m = modules[side]
            p = m.SeqParams(*values)
            for check, identity in zip(checks, ids[side]):
                start = time.perf_counter()
                m.run_identity(identity, p, nmax=NMAX)
                if k:
                    times[side][check].append(time.perf_counter() - start)
    ten = [c for c in checks if c != PARAMETER_FREE]
    for per_check in times.values():
        for row, summed in (("ten", ten), ("all", checks)):
            per_check[row] = [sum(t) for t in zip(*(per_check[c] for c in summed))]
    return times


def operations(m, values: tuple) -> dict:
    """The object operations of one side on one set's window, operands bound."""
    p = m.SeqParams(*values)
    v = m.seq_slice(p, 0, 5)
    a, b, k = m.Quaternion(*v[:4]), m.Quaternion(*v[1:]), p.r
    u, w = m.sigma(a), m.sigma(b)
    rows, power = m.qv_matrix(p), m.companion_power(p, 2)
    return {"qmul": lambda: m.qmul(a, b), "breve @ sigma": lambda: m.breve(a) @ m.sigma(b),
            "Spinor +": lambda: u + w, "Spinor * r": lambda: u * k,
            "qv_right_multiply": lambda: m.qv_right_multiply(rows, power)}


def sweep_objects(modules: dict, draws: list[tuple[str, list[tuple]]]) -> dict:
    """Per side and row, an operation on one draw, the time per call on each set."""
    times = {side: {} for side in SIDES}
    for draw, sets in draws:
        for k, values in enumerate([sets[0], *sets]):  # the first run warms up, uncounted
            for side in SIDES if k % 2 else SIDES[::-1]:
                for name, call in operations(modules[side], values).items():
                    start = time.perf_counter()
                    for _ in range(REPEAT):
                        call()
                    if k:
                        times[side].setdefault(f"{name}, {draw}", []).append(
                            (time.perf_counter() - start) / REPEAT)
    return times


def table(title: str, times: dict, label: str = "check") -> None:
    print(title)
    width = max(16, *(len(row) + 2 for row in times["change"]))
    print(f"{label:{width}}{'base':>10}{'change':>10}{'ratio':>8}{'paired median':>15}"
          f"{'quartiles':>15}")
    for row in times["change"]:
        base, change = (times[side][row] for side in SIDES)
        q1, median, q3 = statistics.quantiles([c / b for b, c in zip(base, change)], n=4)
        print(f"{row:{width}}{sum(base) / SETS * 1e6:10.1f}{sum(change) / SETS * 1e6:10.1f}"
              f"{sum(change) / sum(base):8.3f}{median:15.3f}{q1:9.3f}-{q3:.3f}")


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
        checks = [i.value for i in modules["change"].IdentityId if i.value in base_checks]
        rng = random.Random(args.seed)
        integer = [tuple(modules["change"].random_params(rng)) for _ in range(SETS)]
        rng = random.Random(args.seed)
        rational = [tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(6))
                    for _ in range(SETS)]
        for draw, sets in [("integer sets in [-5, 5]^6", integer),
                           ("rational sets, numerators in [-5, 5], denominators 1-3", rational)]:
            table(f"{SETS} {draw}, seed {args.seed}, nmax {NMAX}: µs per set, change / base",
                  sweep(modules, checks, sets))
        table(f"object operations on the {SETS} integer and {SETS} rational sets' windows, "
              f"{REPEAT} calls a set: µs per call, change / base",
              sweep_objects(modules, [("integer", integer), ("rational", rational)]), "operation")
    return 0


if __name__ == "__main__":
    sys.exit(main())
