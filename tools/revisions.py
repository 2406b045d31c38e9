"""Git access shared by the tools that compare two revisions
(``ab_bench.py`` and ``same_outputs.py``).

A tool run outside a git repository, or given a revision that is not a
commit of the repository it runs in, stops with status 2 and one
``TOOL: message`` line on stderr before it writes anything. A commit made
in a clone is not visible in the repository the clone came from. Uses the
standard library only.
"""

import io
import subprocess
import sys
import tarfile
from pathlib import Path


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def fail(tool, message):
    """Stop ``tool`` with status 2, which no comparison result uses."""
    print(f"{tool}: {message}", file=sys.stderr)
    raise SystemExit(2)


def resolve(tool, revs):
    """The top directory of the repository ``tool`` runs in and the full
    commit hash of each of ``revs``."""
    try:
        top = Path(git("rev-parse", "--show-toplevel").decode().strip())
    except subprocess.CalledProcessError:
        fail(tool, "not inside a git repository")
    commits = []
    for rev in revs:
        try:
            commits.append(git("rev-parse", "--verify",
                               f"{rev}^{{commit}}").decode().strip())
        except subprocess.CalledProcessError:
            fail(tool, f"{rev} is not a commit of this repository")
    return top, commits


def export(top, rev, dest):
    """The files of ``rev`` under ``dest``, without ``.git``. ``git
    archive`` runs at ``top``, the repository's top directory that
    :func:`resolve` returns: run in a subdirectory it packs only that."""
    dest.mkdir(parents=True)
    data = git("-C", str(top), "archive", "--format=tar", rev)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")
