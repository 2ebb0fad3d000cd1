import os
import sys

from .cli import main

if __name__ == "__main__":
    code = main()  # argparse's SystemExit and an uncaught error exit as usual
    sys.stdout.flush()  # the report is out, so skip the interpreter's teardown:
    sys.stderr.flush()  # tens of milliseconds once NumPy is loaded
    os._exit(code)
