import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Allow running the suite from a fresh checkout without installing.
SRC = str(ROOT / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from trispinor import Quaternion, SeqParams  # noqa: E402

# Shared by several test modules, which import them from here.
ONE = Quaternion(1, 0, 0, 0)
RATIONAL = SeqParams(Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4),
                     1, Fraction(-1, 2), Fraction(2, 5))

# tools/output_digest.py, whose corpus test_golden.py hashes and whose named
# sets test_api.py's reach corpus runs.
_spec = importlib.util.spec_from_file_location("output_digest", ROOT / "tools" / "output_digest.py")
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)


def params_id(p) -> str:
    """A parameter set as a parametrized test's id: (r=4/3, s=2, t=5; v0=3/2, v1=-1, v2=1/4)."""
    return "(r={}, s={}, t={}; v0={}, v1={}, v2={})".format(*p)
