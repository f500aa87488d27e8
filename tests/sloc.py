"""Line counts of the library, two ways.

For each module of ``src/schubert_atlas`` and in total, print the ``wc -l``
count and the count of lines that hold code: not blank, not only a comment
(``tokenize`` drops comments) and not part of a docstring (``ast`` finds
the docstrings of the module, its classes and its functions).

    python tests/sloc.py [package directory]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "schubert_atlas"
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def main(argv) -> int:
    package = Path(argv[1]) if len(argv) > 1 else PACKAGE
    total_wc = total_code = 0
    print(f"{'module':<16}{'wc -l':>8}{'code':>8}")
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        wc, code = text.count("\n"), code_lines(text)
        total_wc += wc
        total_code += code
        print(f"{path.name:<16}{wc:>8}{code:>8}")
    print(f"{'total':<16}{total_wc:>8}{total_code:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
