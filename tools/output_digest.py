"""One sha256 over the CLI's outputs on a fixed corpus, to show that a change
keeps every report and value byte-identical: run it on two checkouts and compare.
The first line is that total; one line per subcommand follows, the sha256 of its
cases alone, so that where two checkouts differ they name the outputs that moved.

The corpus is `suite --json` and `verify --json` for every identity at nmax 0,
3, 50 and 1000, and the value subcommands (term, quaternion, spinor, binet and
genfunc, each as text and as --json) at fixed indices, on tribonacci, third_order_jacobsthal, five rational sets and
the 20 sets random_params(Random(37)) draws. The rational sets reach each
branch of the rational term kernel: (1/2, -2/3, 3/4, 1, -1/2, 2/5), multipliers
of period 2 (1, 1/2, 1, 1, 1, 1), of period 3 (1, 1, 1/3, 0, 1, 1) and of
period 6 (1, 1/2, 1/3, 1, 1, 1), and (1/6, 1/6, 1/6, 1/6, 1/6, 1/6), whose base
element 6 is composite. Each case hashes its argv, exit code, stdout and
stderr. The CLI runs in process, through trispinor.cli.main.

    python tools/output_digest.py                    # this checkout's src/
    python tools/output_digest.py --src OTHER/src    # another checkout's
"""

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

NMAXES = (0, 3, 50, 1000)
VALUE_COMMANDS = [["term", "-n", "40"], ["term", "--nmax", "12"], ["quaternion", "-n", "25"],
                  ["spinor", "-n", "30"], ["binet", "-n", "10"], ["genfunc", "--order", "6"]]
RATIONAL_SETS = ["1/2,-2/3,3/4,1,-1/2,2/5", "1,1/2,1,1,1,1", "1,1,1/3,0,1,1", "1,1/2,1/3,1,1,1",
                 "1/6,1/6,1/6,1/6,1/6,1/6"]


def corpus(identities) -> list[list[str]]:
    """Every argv of the corpus, in a fixed order."""
    rng = random.Random(37)
    sets = [["--preset", "tribonacci"], ["--preset", "third_order_jacobsthal"]]
    sets += [["--params", values] for values in RATIONAL_SETS]
    sets += [["--params", ",".join(map(str, identities.random_params(rng)))]
             for _ in range(20)]
    commands = [["suite"]] + [["verify", "--identity", i.value] for i in identities.IdentityId]
    return [[*command, *params, "--nmax", str(nmax), "--json"]
            for params in sets for nmax in NMAXES for command in commands] + [
        [*command, *params, *json_flag]
        for params in sets for command in VALUE_COMMANDS for json_flag in ([], ["--json"])]


def run(main, argv: list[str]) -> bytes:
    """The case's argv, exit code, stdout and stderr as one canonical line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return (json.dumps([argv, code, out.getvalue(), err.getvalue()]) + "\n").encode()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="the src/ directory whose trispinor runs (default: this checkout's)")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from trispinor import cli, identities

    total, by_command = hashlib.sha256(), {}
    cases = corpus(identities)
    for argv in cases:
        line = run(cli.main, argv)
        total.update(line)
        by_command.setdefault(argv[0], []).append(line)
    print(f"sha256 {total.hexdigest()}  {len(cases)} cases")
    for command, lines in by_command.items():
        print(f"  {command:10} sha256 {hashlib.sha256(b''.join(lines)).hexdigest()}"
              f"  {len(lines)} cases")


if __name__ == "__main__":
    main()
