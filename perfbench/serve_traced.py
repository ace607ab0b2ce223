"""``python -m repro.serve`` with the per-layer span wrappers installed.

The traced serve run starts the server through this file, with
``SWORDFISH_TRACE`` naming the trace file; the spans are written when
the server exits.  Arguments are those of ``python -m repro.serve``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from layers import LayerWraps  # noqa: E402
from repro.serve.cli import main  # noqa: E402

if __name__ == "__main__":
    with LayerWraps():
        code = main(sys.argv[1:])
    sys.exit(code)
