"""The README's Library example runs as written.

It is the one place where the public API is shown calling itself, so a
renamed name or a changed return type breaks it without any other test
noticing.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The one python block of the README's `## Library` section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    return block


def test_readme_library_example_runs(capsys):
    code = library_example()
    assert "build(" in code and "theorem_bound_audit(" in code
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    assert float(capsys.readouterr().out) > 2.0  # the example's printed PMEPR
