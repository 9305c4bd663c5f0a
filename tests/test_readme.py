"""The README's Library examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_blocks() -> list[str]:
    """The ```python blocks under ``## Library``, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.S | re.M)


def test_library_examples_run(shift_dataset, tmp_path, monkeypatch):
    blocks = library_blocks()
    assert len(blocks) >= 2
    (tmp_path / "contacts.tsv").write_bytes(shift_dataset.read_bytes())
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
