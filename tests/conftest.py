"""Session set-up shared by the test modules.

hypothesis writes a local-constants cache under its storage directory even
when no example database is kept, and that directory defaults to
``.hypothesis/`` in the working directory.  Pointing it at a temporary
directory that is removed at exit keeps a test run from writing into the
source tree.
"""

import atexit
import shutil
import tempfile

from hypothesis.configuration import set_hypothesis_home_dir

_hypothesis_home = tempfile.mkdtemp(prefix="cescov-hypothesis-")
set_hypothesis_home_dir(_hypothesis_home)
atexit.register(shutil.rmtree, _hypothesis_home, ignore_errors=True)
