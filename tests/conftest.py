"""Make the oracle helpers importable and set the Hypothesis defaults."""

import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# No per-example deadline: core speed on shared machines drifts enough that
# timing an example says nothing about the code under test.
settings.register_profile("default", deadline=None)
settings.load_profile("default")
