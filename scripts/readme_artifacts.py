#!/usr/bin/env python3
"""Write the artifact of every README "Command line" command into one directory.

The commands are read from the ``sh`` block under the README heading
"## Command line" and run from the repository root on the checked-in
``data/*.json``, with the package taken from ``src/``.  Each command's stdout
goes to ``OUTDIR/<name>.json``, and an ``--svg`` file goes to
``OUTDIR/<name>.svg``.  The name is the subcommand; its second and later
commands in the block are named ``<subcommand>-2``, ``<subcommand>-3`` and so
on.  A command with ``--workers`` runs once per count in ``WORKERS``, into
``<name>-workers<k>.json``, since artifacts must not depend on it.

Two checkouts are compared byte for byte with

    python scripts/readme_artifacts.py /tmp/a      # in checkout A
    python scripts/readme_artifacts.py /tmp/b      # in checkout B
    diff -r /tmp/a /tmp/b

Run:  python scripts/readme_artifacts.py OUTDIR
"""

import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKERS = (1, 2)


def readme_commands(readme: Path) -> list[list[str]]:
    """Argument lists of the ``tropfan`` commands in the Command line block."""
    lines = readme.read_text(encoding="utf-8").splitlines()
    start = lines.index("## Command line")
    fence = next(i for i in range(start, len(lines)) if lines[i].startswith("```"))
    commands, current = [], ""
    for line in lines[fence + 1 :]:
        if line.startswith("```"):
            break
        current += line.rstrip()
        if current.endswith("\\"):
            current = current[:-1] + " "
            continue
        words = shlex.split(current)
        current = ""
        if words and words[0] == "tropfan":
            commands.append(words[1:])
    return commands


def variants(name: str, args: list[str], outdir: Path) -> list[tuple[str, list[str]]]:
    """(artifact name, arguments) for one README command named ``name``."""
    if "--workers" in args:
        at = args.index("--workers") + 1
        return [(f"{name}-workers{k}", args[:at] + [str(k)] + args[at + 1 :]) for k in WORKERS]
    if "--svg" in args:
        at = args.index("--svg") + 1
        args = args[:at] + [str(outdir / f"{name}.svg")] + args[at + 1 :]
    return [(name, args)]


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    outdir = Path(sys.argv[1]).resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    failed, seen = 0, {}
    for args in readme_commands(ROOT / "README.md"):
        count = seen[args[0]] = seen.get(args[0], 0) + 1
        base = args[0] if count == 1 else f"{args[0]}-{count}"
        for name, argv in variants(base, args, outdir):
            proc = subprocess.run(
                [sys.executable, "-m", "tropfan.cli", *argv],
                cwd=ROOT, env=env, capture_output=True, text=True,
            )
            (outdir / f"{name}.json").write_text(proc.stdout, encoding="utf-8")
            status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
            print(f"{name}: {status}", file=sys.stderr)
            if proc.returncode:
                failed += 1
                print(proc.stderr, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
