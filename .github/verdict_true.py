"""Exit 1 unless the bicrit report read from stdin has ``verification.verdict`` true.

Usage: bicrit solve-budget ... --verify | python .github/verdict_true.py
"""

import json
import sys

sys.exit(json.load(sys.stdin)["verification"]["verdict"] is not True)
