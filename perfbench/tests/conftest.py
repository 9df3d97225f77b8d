import os
import sys

# The benchmark's modules sit next to run.py, not in a package.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
