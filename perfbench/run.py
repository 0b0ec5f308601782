#!/usr/bin/env python3
"""Entry point of the femba deployment benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload {ingest,deploy_w8a8,deploy_w2a8,all} \
        --seed N --seconds S --trace {0,1}
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.harness import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
