import subprocess
import sys
from pathlib import Path

import jdl


def test_package_import_loads_no_numpy():
    # an entry point must be able to pin BLAS threads before numpy loads
    code = "import sys, jdl; sys.exit('numpy' in sys.modules)"
    src = str(Path(jdl.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code], cwd=src, timeout=60)
    assert done.returncode == 0
