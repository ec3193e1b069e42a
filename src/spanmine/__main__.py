"""``python -m spanmine``: the same command line as the ``spanmine`` script."""

from .cli import main

if __name__ == "__main__":
    main()
