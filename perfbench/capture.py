"""Write reference.json: output summaries and table digests of every job.

Run once, from the repository root, on the commit whose outputs are the
reference:

    python3 perfbench/capture.py

It uses the same environment as run.py (PYTHONPATH, BLAS thread count),
so the table digests match what the benchmark's processes write.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

import run

os.environ.update(run.child_env())   # before numpy loads BLAS
sys.path.insert(0, str(run.ROOT / "src"))

import worker  # noqa: E402


def main() -> int:
    (run.ROOT / ".perfbench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="capture-", dir=run.ROOT / ".perfbench_work") as tmp:
        workdir = Path(tmp)
        (workdir / "config.json").write_text(json.dumps(run.REFERENCE_DOCUMENT))
        reference = worker.capture(workdir)
    lines = ",\n".join(f"{json.dumps(job)}: {json.dumps(entry)}" for job, entry in reference.items())
    worker.REFERENCE.write_text("{\n" + lines + "\n}\n")
    print(f"wrote {len(reference)} jobs to {worker.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
