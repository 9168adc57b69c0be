"""The README's Library example runs, and says what it prints."""

import ast
import io
import pathlib
import re
import tokenize

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    text = README.read_text()
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_values():
    source = library_example()
    comments = {tok.start[0]: tok.string[1:].strip()
                for tok in tokenize.generate_tokens(
                    io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT}
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        if isinstance(stmt, ast.Expr) and stmt.end_lineno in comments:
            expected = ast.literal_eval(comments[stmt.end_lineno])
            assert eval(code, namespace) == expected, code
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 4
