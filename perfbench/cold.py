"""One cold start: a fresh interpreter imports ksetlab from the checkout's
``src`` and runs the command lines given as a JSON list of argv lists.

    python3 perfbench/cold.py '[["bounds", "--n", "6"]]'

Exits with the largest exit code of the commands.  Its wall time, seen from
the parent, is one sample of ``setup_s``.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ksetlab import cli  # noqa: E402

if __name__ == "__main__":
    sys.exit(max(cli.main(argv) for argv in json.loads(sys.argv[1])))
