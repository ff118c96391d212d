"""The README "Command line" artifacts stay byte-identical.

``scripts/readme_artifacts.py`` writes every artifact into a fresh directory,
and each file's sha256 is compared with ``readme_artifacts.sha256`` (in the
``sha256sum`` format).  A change that alters an artifact on purpose rewrites
the manifest from the new output, e.g.

    python scripts/readme_artifacts.py OUTDIR && (cd OUTDIR && sha256sum *) > tests/readme_artifacts.sha256

and says why.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).resolve().parent / "readme_artifacts.sha256"


def test_readme_artifacts_match_the_manifest(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "readme_artifacts.py"), str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = MANIFEST.read_text().splitlines()
    want = {name: digest for digest, name in (line.split("  ", 1) for line in lines)}
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()}
    assert got == want
    assert (tmp_path / "levels-workers1.json").read_bytes() == (tmp_path / "levels-workers2.json").read_bytes()
