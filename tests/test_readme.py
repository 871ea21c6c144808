"""The README's library example runs as written.

The example shows the verify report's fields and views and the table
classify_modules returns; running it keeps the prose honest when either
changes.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example():
    """The first python block of the README's ## Library section."""
    section = README.read_text().split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_readme_library_example_runs(capsys):
    exec(compile(library_example(), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # one line per module outside add T[1] of D6 (36 cids), then the counts
    assert len(lines) == 36 - 6 + 1
    assert lines[-1].startswith("{<PdClass.ZERO: '0'>: 6,")
