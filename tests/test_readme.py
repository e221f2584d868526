"""The README's Library example runs against the package as it is, so a
removed or renamed API cannot leave it stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, "README.md (Library)", "exec"), namespace)
    assert (namespace["closed"], namespace["xab_zero"]) == (True, False)
    assert len(namespace["first_rows"]) == 3
