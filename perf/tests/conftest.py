import sys
from pathlib import Path

# the in-process tests import the program under test from the checkout
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
