import sys
from pathlib import Path

# Allow running the suite from a fresh checkout without installing.
SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)


def params_id(p) -> str:
    """A parameter set as a parametrized test's id: (r=4/3, s=2, t=5; v0=3/2, v1=-1, v2=1/4)."""
    return "(r={}, s={}, t={}; v0={}, v1={}, v2={})".format(*p)
