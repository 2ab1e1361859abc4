"""Replace a library function under every name a `rooks` module holds it
by, so a caller that imported it with `from .module import name` sees the
replacement too."""

import sys


def patch_everywhere(monkeypatch, original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name == "rooks" or name.startswith("rooks."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)
