"""Every library module stays under 4,096 parser tokens.  Past that
step CPython doubles its token array while it compiles the file, and a
process that compiles the package from source (no `.pyc`, as the
benchmark's children do) then peaks about 0.3 MB higher.  Tokens are
counted as `tokenize` gives them, less COMMENT and NL tokens."""

import tokenize
from pathlib import Path

import atomcat

TOKEN_STEP = 4096


def parser_tokens(path):
    with tokenize.open(path) as f:
        return sum(1 for token in tokenize.generate_tokens(f.readline)
                   if token.type not in (tokenize.COMMENT, tokenize.NL))


def test_every_module_is_under_the_token_step():
    sizes = {path.name: parser_tokens(path)
             for path in sorted(Path(atomcat.__file__).parent.glob("*.py"))}
    over = {name: n for name, n in sizes.items() if n >= TOKEN_STEP}
    assert not over, over
