"""Write the stored stdout references of the deterministic cli-mixed requests.

    python3 perfbench/make_references.py

Each reference is what ``main(argv)`` writes to stdout, produced in process
with Python's integer-to-string digit limit lifted, so that the request
`runtime 64 --start 64 --backend rational` (which exits 2 on that limit in
a plain interpreter) has the output a fixed CLI must print. The ``sim``
requests have no stored output; they are checked against exact means.

The committed references come from the package as it was when the
benchmark was defined. Regenerate them only for a deliberate change of the
output contract, never to make a failing check pass.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from onemax_runtime.cli import main  # noqa: E402

from workloads import REFERENCE_DIR, cli_requests  # noqa: E402


def write_references() -> None:
    sys.set_int_max_str_digits(0)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for req in cli_requests(seed=0):
        if req.estimates is not None:
            continue
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = main(list(req.argv))
        if status != 0:
            raise SystemExit(f"{' '.join(req.argv)} exited {status}")
        (REFERENCE_DIR / f"{req.slug}.out").write_text(out.getvalue())
        print(f"{req.slug}: {len(out.getvalue())} bytes")


if __name__ == "__main__":
    write_references()
