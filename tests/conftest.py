import sys
from fractions import Fraction
from pathlib import Path

# Allow running the suite from a fresh checkout without installing.
SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from trispinor import Quaternion, SeqParams  # noqa: E402

# Shared by several test modules, which import them from here.
ONE = Quaternion(1, 0, 0, 0)
RATIONAL = SeqParams(Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4),
                     1, Fraction(-1, 2), Fraction(2, 5))


def params_id(p) -> str:
    """A parameter set as a parametrized test's id: (r=4/3, s=2, t=5; v0=3/2, v1=-1, v2=1/4)."""
    return "(r={}, s={}, t={}; v0={}, v1={}, v2={})".format(*p)
