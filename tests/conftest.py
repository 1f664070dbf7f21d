"""numpy is the only run-time dependency: any scipy import the suite reaches fails."""

import sys

sys.modules["scipy"] = None
