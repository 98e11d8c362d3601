"""The README's Library example runs against the package's top-level names."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_snippet_runs():
    library = README.read_text().split("\n## Library\n", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(snippet, "README.md (Library)", "exec"), {})
