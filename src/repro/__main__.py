"""``python -m repro`` — the evaluation driver (see repro.cli)."""

from .cli import run

if __name__ == "__main__":
    raise SystemExit(run())
